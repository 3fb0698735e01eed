//! Number formats the paper's tables use; the tables themselves are
//! `flexos_trace::Sheet`s.

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
    fn mbps_formatting_matches_paper_style() {
        assert_eq!(fmt_mbps(496.0), "496 Mb/s");
        assert_eq!(fmt_mbps(2940.0), "2.94 Gb/s");
    }

    #[test]
    fn slowdown_formatting() {
        assert_eq!(fmt_slowdown(2940.0, 489.0), "6.01x");
        assert_eq!(fmt_slowdown(1.0, 0.0), "n/a");
    }
}
