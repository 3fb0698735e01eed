//! The one table type of every report.
//!
//! A [`Sheet`] is ordered fields, text lines, [`Table`]s and nested
//! sheets. A table declares each column once: its JSON key, its text
//! header or both, plus one getter over the row. The same cells then
//! render as one JSON object through [`JsonWriter`] and as the aligned
//! text tables `reproduce` prints (`Display`), and two sheets built by
//! the same function compare cell by cell
//! ([`Sheet::first_difference`]).

use crate::json::JsonWriter;
use std::fmt::{self, Write as _};

/// One value of a table or field.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// A count: a bare JSON number.
    U64(u64),
    /// A label: an escaped JSON string, verbatim in text.
    Str(String),
    /// A float in its shortest round-trippable form.
    F64(f64),
    /// A float with a fixed number of decimals, in JSON too.
    Fixed(f64, usize),
    /// `true` or `false`.
    Bool(bool),
}

/// The text rendering; every variant but [`Cell::Str`] is also its JSON.
impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::U64(v) => write!(f, "{v}"),
            Cell::Str(s) => f.write_str(s),
            Cell::F64(v) => write!(f, "{v}"),
            Cell::Fixed(v, digits) => write!(f, "{v:.digits$}"),
            Cell::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl Cell {
    fn write_json(&self, out: &mut String) {
        if let Cell::Str(s) = self {
            return JsonWriter::quote_into(s, out);
        }
        let _ = write!(out, "{self}");
    }
}

macro_rules! cell_from {
    ($($t:ty => $v:ident => $e:expr),* $(,)?) => {
        $(impl From<$t> for Cell {
            fn from($v: $t) -> Self {
                $e
            }
        })*
    };
}
cell_from!(
    u64 => v => Cell::U64(v),
    u32 => v => Cell::U64(v.into()),
    u16 => v => Cell::U64(v.into()),
    usize => v => Cell::U64(v as u64),
    f64 => v => Cell::F64(v),
    bool => v => Cell::Bool(v),
    &str => v => Cell::Str(v.to_string()),
    String => v => Cell::Str(v),
);

/// When a table appears in the text rendering (JSON always has it).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Rule {
    /// Always, headers only when there are no rows.
    #[default]
    Always,
    /// Only when it has rows.
    NonEmpty,
    /// Only when one of its cells is not a zero count.
    NonZero,
    /// The table when it has rows, else this line.
    Else(&'static str),
}

/// A table: rows of cells under columns that each carry a JSON key, a
/// text header or both. Build one with [`Table::rows`], [`Table::row`]
/// or [`Table::text`] and the column methods of [`Columns`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Table {
    /// JSON key; `None` for a text-only table.
    key: Option<&'static str>,
    /// Text title; `None` for a JSON-only table.
    title: Option<String>,
    /// A one-row table is a JSON object, not an array of them.
    one: bool,
    rule: Rule,
    cols: Vec<Head>,
    rows: Vec<Vec<Cell>>,
    /// What follows the table in text whenever the table is shown; a
    /// one-row table's JSON object ends with its fields and tables.
    then: Option<Box<Sheet>>,
}

/// A JSON key and a text header: a column's, or a table's title.
type Head = (Option<&'static str>, Option<String>);

/// A [`Table`] under construction over rows of `T`: each column method
/// evaluates its getter on every row at once.
#[derive(Debug)]
pub struct Columns<T> {
    rows: Vec<T>,
    table: Table,
}

impl Table {
    fn build<T>((key, title): Head, one: bool, rows: Vec<T>) -> Columns<T> {
        let cells = rows.iter().map(|_| Vec::new()).collect();
        let table = Table {
            key,
            title,
            one,
            rows: cells,
            ..Table::default()
        };
        Columns { rows, table }
    }

    /// A table written to JSON as the array `key`, one object per row.
    pub fn rows<T>(key: &'static str, rows: impl IntoIterator<Item = T>) -> Columns<T> {
        Self::build((Some(key), None), false, rows.into_iter().collect())
    }

    /// A one-row table, written to JSON as the object `key`.
    pub fn row<T>(key: &'static str, row: T) -> Columns<T> {
        Self::build((Some(key), None), true, vec![row])
    }

    /// A text-only table.
    pub fn text<T>(title: impl Into<String>, rows: impl IntoIterator<Item = T>) -> Columns<T> {
        let rows = rows.into_iter().collect();
        Self::build((None, Some(title.into())), false, rows)
    }

    fn write_json(&self, w: &mut JsonWriter) {
        let Some(key) = self.key else { return };
        if !self.one {
            w.begin_arr(Some(key));
        }
        for row in &self.rows {
            w.begin_obj(self.one.then_some(key));
            for ((k, _), cell) in self.cols.iter().zip(row) {
                if let Some(k) = k {
                    cell.write_json(w.raw(Some(k)));
                }
            }
            if let (true, Some(then)) = (self.one, &self.then) {
                then.write_items(w);
            }
            w.end_obj();
        }
        if !self.one {
            w.end_arr();
        }
    }

    /// Writes the aligned text rendering — title, headers, a rule of
    /// dashes, rows, every cell padded to its column's width — or
    /// nothing, as the table's [`Rule`] says.
    fn write_text(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Some(title) = &self.title else {
            return Ok(());
        };
        let shown = match self.rule {
            Rule::Always => true,
            Rule::NonEmpty | Rule::Else(_) => !self.rows.is_empty(),
            Rule::NonZero => !self.rows.iter().flatten().all(|c| *c == Cell::U64(0)),
        };
        match self.rule {
            Rule::Else(line) if !shown => return writeln!(f, "{line}"),
            _ if !shown => return Ok(()),
            _ => {}
        }
        let heads = self.cols.iter().filter_map(|c| c.1.clone());
        let mut lines: Vec<Vec<String>> = vec![heads.collect()];
        for row in &self.rows {
            let cells = self.cols.iter().zip(row).filter(|(c, _)| c.1.is_some());
            lines.push(cells.map(|(_, v)| v.to_string()).collect());
        }
        let widths: Vec<usize> = (0..lines[0].len())
            .map(|i| lines.iter().map(|l| l[i].len()).max().unwrap_or(0))
            .collect();
        writeln!(f, "\n== {title} ==")?;
        for (n, line) in lines.iter().enumerate() {
            let padded = line.iter().zip(&widths).map(|(c, w)| format!("{c:<w$}"));
            writeln!(f, "{}", padded.collect::<Vec<_>>().join("  "))?;
            if n == 0 {
                let dashes = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
                writeln!(f, "{}", "-".repeat(dashes))?;
            }
        }
        writeln!(f)?;
        match &self.then {
            Some(then) => write!(f, "{then}"),
            None => Ok(()),
        }
    }

    /// The first cell under a JSON key where `self` and `other` differ,
    /// or the first row only one of them has.
    fn diff(&self, other: &Table, path: String) -> Option<Difference> {
        if self.cols != other.cols || self.then.is_some() != other.then.is_some() {
            return Some(Difference::Shape(path));
        }
        for row in 0..self.rows.len().max(other.rows.len()) {
            let (Some(a), Some(b)) = (self.rows.get(row), other.rows.get(row)) else {
                let left = row < self.rows.len();
                return Some(Difference::Row {
                    table: path,
                    row,
                    left,
                });
            };
            for (((key, _), x), y) in self.cols.iter().zip(a).zip(b) {
                if let (Some(column), true) = (key, x != y) {
                    return Some(Difference::Cell {
                        table: path,
                        row,
                        column,
                        left: x.clone(),
                        right: y.clone(),
                    });
                }
            }
        }
        self.then.as_ref()?.diff(other.then.as_ref()?, &path)
    }
}

impl<T> Columns<T> {
    fn column<C: Into<Cell>>(mut self, head: Head, get: impl Fn(&T) -> C) -> Self {
        self.table.cols.push(head);
        for (row, cells) in self.rows.iter().zip(&mut self.table.rows) {
            cells.push(get(row).into());
        }
        self
    }

    /// A column in both renderings, under JSON `key` and text `head`.
    pub fn both<C: Into<Cell>>(self, key: &'static str, head: &str, get: impl Fn(&T) -> C) -> Self {
        self.column((Some(key), Some(head.to_string())), get)
    }

    /// A column in both renderings whose key is also its header.
    pub fn col<C: Into<Cell>>(self, name: &'static str, get: impl Fn(&T) -> C) -> Self {
        self.both(name, name, get)
    }

    /// A JSON-only column.
    pub fn json<C: Into<Cell>>(self, key: &'static str, get: impl Fn(&T) -> C) -> Self {
        self.column((Some(key), None), get)
    }

    /// A text-only column.
    pub fn text<C: Into<Cell>>(self, header: impl Into<String>, get: impl Fn(&T) -> C) -> Self {
        self.column((None, Some(header.into())), get)
    }

    /// Gives a JSON table its text rendering, under `title`.
    pub fn title(mut self, title: impl Into<String>) -> Self {
        self.table.title = Some(title.into());
        self
    }

    /// Sets when the table appears in text (default [`Rule::Always`]).
    pub fn rule(mut self, rule: Rule) -> Self {
        self.table.rule = rule;
        self
    }

    /// Lines and tables that follow this table in text whenever it is
    /// shown; a one-row table's JSON object also holds their fields.
    pub fn then(mut self, then: Sheet) -> Self {
        self.table.then = Some(Box::new(then));
        self
    }
}

impl<T> From<Columns<T>> for Table {
    fn from(c: Columns<T>) -> Self {
        c.table
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Item {
    Field(&'static str, Cell),
    Line(String),
    Table(Table),
    Sheet(&'static str, Sheet),
}

/// Ordered fields, text lines, tables and nested sheets: one JSON
/// object and one text report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Sheet {
    items: Vec<Item>,
}

impl Sheet {
    /// An empty sheet.
    pub fn new() -> Self {
        Self::default()
    }

    /// A JSON-only field.
    pub fn field(mut self, key: &'static str, value: impl Into<Cell>) -> Self {
        self.items.push(Item::Field(key, value.into()));
        self
    }

    /// A text-only line.
    pub fn line(mut self, line: impl Into<String>) -> Self {
        self.items.push(Item::Line(line.into()));
        self
    }

    /// A table.
    pub fn table(mut self, table: impl Into<Table>) -> Self {
        self.items.push(Item::Table(table.into()));
        self
    }

    /// A nested sheet: the JSON object `key`, and its text in place.
    pub fn sheet(mut self, key: &'static str, sheet: Sheet) -> Self {
        self.items.push(Item::Sheet(key, sheet));
        self
    }

    /// Keeps the text of the table `key` only: every other line and
    /// table of this sheet is left to the JSON rendering.
    pub fn text_of(mut self, key: &str) -> Self {
        self.items.retain(|i| !matches!(i, Item::Line(_)));
        for item in &mut self.items {
            if let Item::Table(t) = item {
                if t.key != Some(key) {
                    t.title = None;
                }
            }
        }
        self
    }

    /// Writes the sheet as one object of the document `w` is building:
    /// the field `key` of the open object, or the next array element /
    /// the root value when `key` is `None`.
    pub fn write_json(&self, w: &mut JsonWriter, key: Option<&str>) {
        w.begin_obj(key);
        self.write_items(w);
        w.end_obj();
    }

    fn write_items(&self, w: &mut JsonWriter) {
        for item in &self.items {
            match item {
                Item::Field(k, v) => v.write_json(w.raw(Some(k))),
                Item::Table(t) => t.write_json(w),
                Item::Sheet(k, s) => s.write_json(w, Some(k)),
                Item::Line(_) => {}
            }
        }
    }

    /// The sheet as a self-contained JSON document.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        self.write_json(&mut w, None);
        w.finish()
    }

    /// Where two sheets first differ under a JSON key: the table, row
    /// and column with both cells, or the first row only one side has.
    /// `None` when their JSON renderings are equal.
    pub fn first_difference(&self, other: &Sheet) -> Option<Difference> {
        self.diff(other, "")
    }

    fn diff(&self, other: &Sheet, path: &str) -> Option<Difference> {
        // The items the JSON rendering has, in order.
        fn keyed(s: &Sheet) -> Vec<&Item> {
            let text =
                |i: &&Item| matches!(i, Item::Line(_) | Item::Table(Table { key: None, .. }));
            s.items.iter().filter(|i| !text(i)).collect()
        }
        let (a, b) = (keyed(self), keyed(other));
        if a.len() != b.len() {
            return Some(Difference::Shape(path.to_string()));
        }
        let at = |k: &str| match path {
            "" => k.to_string(),
            p => format!("{p}.{k}"),
        };
        a.into_iter().zip(b).find_map(|pair| match pair {
            (Item::Field(k, x), Item::Field(l, y)) if k == l => {
                (x != y).then(|| Difference::Cell {
                    table: path.to_string(),
                    row: 0,
                    column: k,
                    left: x.clone(),
                    right: y.clone(),
                })
            }
            (Item::Table(s), Item::Table(t)) if s.key == t.key => {
                s.diff(t, at(s.key.unwrap_or_default()))
            }
            (Item::Sheet(k, s), Item::Sheet(l, t)) if k == l => s.diff(t, &at(k)),
            _ => Some(Difference::Shape(path.to_string())),
        })
    }
}

/// The text rendering: lines and tables in order, fields left out.
impl fmt::Display for Sheet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for item in &self.items {
            match item {
                Item::Line(l) => writeln!(f, "{l}")?,
                Item::Table(t) => t.write_text(f)?,
                Item::Sheet(_, s) => write!(f, "{s}")?,
                Item::Field(..) => {}
            }
        }
        Ok(())
    }
}

/// Where two sheets part ([`Sheet::first_difference`]); `table` is the
/// dotted JSON path of a table, or of the sheet for a field.
#[derive(Debug, Clone, PartialEq)]
pub enum Difference {
    /// Row `row` of `table` holds `left` and `right` under `column`.
    Cell {
        table: String,
        row: usize,
        column: &'static str,
        left: Cell,
        right: Cell,
    },
    /// Only one side, the left one when `left`, has row `row` of `table`.
    Row {
        table: String,
        row: usize,
        left: bool,
    },
    /// The sheets at this path have different tables or columns.
    Shape(String),
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Calls `f` on every cell the JSON rendering has — fields and the
    /// keyed columns of every row, nested tables included — with its
    /// table path, row and column key, in document order.
    pub(crate) fn each_cell(
        s: &mut Sheet,
        f: &mut dyn FnMut(&str, usize, &'static str, &mut Cell),
    ) {
        fn table(
            t: &mut Table,
            path: String,
            f: &mut dyn FnMut(&str, usize, &'static str, &mut Cell),
        ) {
            for (r, row) in t.rows.iter_mut().enumerate() {
                for ((key, _), cell) in t.cols.iter().zip(row) {
                    if let Some(key) = key {
                        f(&path, r, key, cell);
                    }
                }
            }
            if let Some(then) = &mut t.then {
                sheet(then, &path, f);
            }
        }
        fn sheet(
            s: &mut Sheet,
            path: &str,
            f: &mut dyn FnMut(&str, usize, &'static str, &mut Cell),
        ) {
            let at = |k: &str| match path {
                "" => k.to_string(),
                p => format!("{p}.{k}"),
            };
            for item in &mut s.items {
                match item {
                    Item::Field(k, c) => f(path, 0, k, c),
                    Item::Table(t) if t.key.is_some() => {
                        let path = at(t.key.unwrap_or_default());
                        table(t, path, f);
                    }
                    Item::Sheet(k, s) => sheet(s, &at(k), f),
                    _ => {}
                }
            }
        }
        sheet(s, "", f);
    }

    /// Perturbs each JSON cell of `s` in turn and checks that
    /// [`Sheet::first_difference`] names exactly that cell; returns how
    /// many cells it perturbed.
    pub(crate) fn every_perturbed_cell_is_named(s: &Sheet) -> usize {
        let mut cells = Vec::new();
        each_cell(&mut s.clone(), &mut |path, row, column, cell| {
            cells.push((path.to_string(), row, column, cell.clone()));
        });
        for (n, (table, row, column, left)) in cells.iter().cloned().enumerate() {
            let right = match &left {
                Cell::U64(v) => Cell::U64(v.wrapping_add(1)),
                Cell::Str(v) => Cell::Str(format!("{v}x")),
                Cell::F64(v) => Cell::F64(v + 1.0),
                Cell::Fixed(v, d) => Cell::Fixed(v + 1.0, *d),
                Cell::Bool(v) => Cell::Bool(!v),
            };
            let mut other = s.clone();
            let mut i = 0;
            each_cell(&mut other, &mut |_, _, _, cell| {
                if i == n {
                    *cell = right.clone();
                }
                i += 1;
            });
            let want = Difference::Cell {
                table,
                row,
                column,
                left,
                right,
            };
            assert_eq!(s.first_difference(&other), Some(want));
        }
        assert_eq!(s.first_difference(&s.clone()), None);
        cells.len()
    }

    /// Two rows, both columns text-only.
    fn demo() -> Sheet {
        Sheet::new().table(
            Table::text("Demo", [("baseline", 2940u64), ("mpk", 496)])
                .text("config", |r| r.0)
                .text("Mb/s", |r| r.1),
        )
    }

    /// What `println!` of the table renderer this one replaced printed for
    /// `demo()`: every cell padded to its column, the last one too.
    const DEMO_TEXT: &str = concat!(
        "\n",
        "== Demo ==\n",
        "config    Mb/s\n",
        "--------------\n",
        "baseline  2940\n",
        "mpk       496 \n",
        "\n",
    );

    #[test]
    fn table_renders_aligned() {
        assert_eq!(demo().to_string(), DEMO_TEXT);
        // A text-only table has no JSON.
        assert_eq!(demo().to_json(), "{}");
    }

    /// A one-row table with a column per rendering and one in both,
    /// nesting an array table; a field after it.
    fn nested(rows: &[(u64, &'static str)]) -> Sheet {
        Sheet::new()
            .line("head")
            .table(
                Table::row("one", 7u64)
                    .title("One")
                    .json("raw", |&v| v)
                    .both("half", "half of it", |&v| Cell::Fixed(v as f64 / 2.0, 1))
                    .text("text only", |_| "t")
                    .then(
                        Sheet::new().table(
                            Table::rows("many", rows.iter().copied())
                                .title("Many")
                                .rule(Rule::NonEmpty)
                                .col("n", |r| r.0)
                                .col("name", |r| r.1),
                        ),
                    ),
            )
            .field("on", true)
            .field("ratio", 0.25)
    }

    #[test]
    fn columns_split_between_json_and_text() {
        let s = nested(&[(1, "a\"b")]);
        assert_eq!(
            s.to_json(),
            r#"{"one":{"raw":7,"half":3.5,"many":[{"n":1,"name":"a\"b"}]},"on":true,"ratio":0.25}"#
        );
        assert_eq!(
            s.to_string(),
            concat!(
                "head\n",
                "\n== One ==\nhalf of it  text only\n---------------------\n3.5         t        \n\n",
                "\n== Many ==\nn  name\n-------\n1  a\"b \n\n",
            )
        );
        // With no rows the nested table keeps its JSON and drops its text.
        let s = nested(&[]);
        assert!(s.to_json().contains(r#""many":[]"#));
        assert!(!s.to_string().contains("Many"));
    }

    #[test]
    fn rules_decide_what_the_text_shows() {
        let text = |rule, counts: &[u64]| {
            Sheet::new()
                .table(
                    Table::rows("t", counts.iter().copied())
                        .title("T")
                        .rule(rule)
                        .col("c", |&c| c),
                )
                .to_string()
        };
        assert_eq!(text(Rule::Always, &[]), "\n== T ==\nc\n-\n\n");
        assert_eq!(text(Rule::NonEmpty, &[]), "");
        assert_eq!(text(Rule::NonEmpty, &[0]), "\n== T ==\nc\n-\n0\n\n");
        assert_eq!(text(Rule::NonZero, &[0, 0]), "");
        assert_eq!(text(Rule::NonZero, &[0, 2]), "\n== T ==\nc\n-\n0\n2\n\n");
        assert_eq!(text(Rule::Else("\nnone."), &[]), "\nnone.\n");
        assert_eq!(text(Rule::Else("\nnone."), &[1]), "\n== T ==\nc\n-\n1\n\n");
    }

    #[test]
    fn first_difference_names_cells_and_unmatched_rows() {
        let (a, b) = (nested(&[(1, "a"), (2, "b")]), nested(&[(1, "a")]));
        assert_eq!(every_perturbed_cell_is_named(&a), 8);
        assert_eq!(
            a.first_difference(&b),
            Some(Difference::Row {
                table: "one.many".into(),
                row: 1,
                left: true,
            })
        );
        assert_eq!(
            b.first_difference(&a),
            Some(Difference::Row {
                table: "one.many".into(),
                row: 1,
                left: false,
            })
        );
        // Text is not compared: a sheet differing only in text is equal.
        assert_eq!(
            demo().first_difference(
                &Sheet::new().table(Table::text("Other", [1u64]).text("x", |&v| v))
            ),
            None
        );
        assert_eq!(
            a.first_difference(&demo().field("x", 1u64)),
            Some(Difference::Shape(String::new()))
        );
    }
}
