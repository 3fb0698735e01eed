//! Plain-text table/series rendering for the reproduction reports.

/// A formatted table with a title, column headers and string cells.
#[derive(Debug, Clone)]
pub struct Table {
    /// Title printed above the table.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells (must match `headers` in length).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// Arity is checked with a `debug_assert!` — a mismatched row in a
    /// release-mode report run pads (or truncates at render time) instead
    /// of aborting a long benchmark session.
    pub fn row(&mut self, cells: Vec<String>) {
        debug_assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders with aligned columns. Ragged rows (possible in release
    /// builds, where [`Table::row`] only debug-asserts arity) render with
    /// their own cells; extra cells get their own width.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i >= widths.len() {
                    widths.push(0);
                }
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("\n== {} ==\n", self.title));
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Formats a throughput in Mb/s the way the paper prints it
/// (`496 Mb/s` / `2.94 Gb/s`).
pub fn fmt_mbps(mbps: f64) -> String {
    if mbps >= 1000.0 {
        format!("{:.2} Gb/s", mbps / 1000.0)
    } else {
        format!("{mbps:.0} Mb/s")
    }
}

/// Formats a slowdown factor (`1.45x`).
pub fn fmt_slowdown(baseline: f64, value: f64) -> String {
    if value <= 0.0 {
        return "n/a".into();
    }
    format!("{:.2}x", baseline / value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("Demo", &["config", "Mb/s"]);
        t.row(vec!["baseline".into(), "2940".into()]);
        t.row(vec!["mpk".into(), "496".into()]);
        let s = t.render();
        assert!(s.contains("== Demo =="));
        assert!(s.contains("baseline"));
        let lines: Vec<&str> = s
            .lines()
            .filter(|l| l.contains("Mb") || l.contains("config"))
            .collect();
        assert!(!lines.is_empty());
    }

    #[test]
    fn mbps_formatting_matches_paper_style() {
        assert_eq!(fmt_mbps(496.0), "496 Mb/s");
        assert_eq!(fmt_mbps(2940.0), "2.94 Gb/s");
    }

    #[test]
    fn slowdown_formatting() {
        assert_eq!(fmt_slowdown(2940.0, 489.0), "6.01x");
        assert_eq!(fmt_slowdown(1.0, 0.0), "n/a");
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "arity")]
    fn row_arity_is_checked_in_debug() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }
}
