//! Text-table rendering and paper-vs-measured comparison helpers.

use std::fmt::Write as _;

use zen2_sim::Json;

/// A simple aligned text table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    /// Panics if the row width disagrees with the header.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch in '{}'", self.title);
        self.rows.push(cells.to_vec());
    }

    /// Renders the table as aligned text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "## {}", self.title);
        let line = |cells: &[String], widths: &[usize]| {
            let mut s = String::from("|");
            for (cell, w) in cells.iter().zip(widths) {
                let _ = write!(s, " {cell:>w$} |", w = w);
            }
            s
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let mut sep = String::from("|");
        for w in &widths {
            let _ = write!(sep, "{}|", "-".repeat(w + 2));
        }
        let _ = writeln!(out, "{sep}");
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// The table as a JSON object `{"title", "headers", "rows"}` with
    /// rows as objects keyed by header, so large-grid sweep summaries
    /// are machine-readable.
    pub fn to_json(&self) -> Json {
        let row = |cells: &Vec<String>| {
            Json::obj(self.headers.iter().map(String::as_str).zip(cells.iter().map(Json::str)))
        };
        Json::obj([
            ("title", Json::str(&self.title)),
            ("headers", Json::Arr(self.headers.iter().map(Json::str).collect())),
            ("rows", Json::Arr(self.rows.iter().map(row).collect())),
        ])
    }
}

/// Renders a set of tables as one JSON array document — the `--json`
/// output shape shared by every experiment binary.
pub fn tables_to_json(tables: &[Table]) -> String {
    Json::Arr(tables.iter().map(Table::to_json).collect()).render()
}

/// One experiment's output: the paper-style text report and the same
/// report as tables for `--json`.
pub(crate) struct Report {
    pub(crate) text: String,
    pub(crate) tables: Vec<Table>,
}

impl Report {
    /// The report of result `r`, rendered by its module's `render` and
    /// `tables`.
    pub(crate) fn of<R: ?Sized>(
        r: &R,
        render: impl FnOnce(&R) -> String,
        tables: impl FnOnce(&R) -> Vec<Table>,
    ) -> Self {
        Self { text: render(r), tables: tables(r) }
    }
}

/// Formats a paper-vs-measured pair with the relative deviation.
pub fn compare(paper: f64, measured: f64, unit: &str) -> String {
    let err = if paper.abs() > 1e-12 { (measured - paper) / paper * 100.0 } else { 0.0 };
    format!("{paper:.1}{unit} / {measured:.1}{unit} ({err:+.1}%)")
}

/// Formats a measured value with more precision.
pub fn compare_precise(paper: f64, measured: f64, unit: &str) -> String {
    let err = if paper.abs() > 1e-12 { (measured - paper) / paper * 100.0 } else { 0.0 };
    format!("{paper:.3}{unit} / {measured:.3}{unit} ({err:+.1}%)")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["a", "value"]);
        t.row(&["x".into(), "1.5".into()]);
        t.row(&["longer".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("## demo"));
        assert!(s.contains("| longer |"));
        assert!(s.lines().count() >= 4);
    }

    /// Every title, header and cell of `tables`.
    type Cells = Vec<(String, Vec<String>, Vec<Vec<String>>)>;

    fn cells(tables: &[Table]) -> Cells {
        tables.iter().map(|t| (t.title.clone(), t.headers.clone(), t.rows.clone())).collect()
    }

    /// Parses a `--json` document back with the repo's own JSON parser,
    /// checking that every row is keyed by the headers in order.
    fn parse_back(text: &str) -> Cells {
        let string = |j: &Json| j.as_str().expect("a JSON string").to_string();
        let doc = Json::parse(text).expect("--json output parses");
        let tables = doc.items().expect("an array of tables");
        tables
            .iter()
            .map(|t| {
                let headers: Vec<String> =
                    t.get("headers").unwrap().items().unwrap().iter().map(string).collect();
                let rows = t.get("rows").unwrap().items().unwrap();
                let rows = rows
                    .iter()
                    .map(|row| {
                        let Json::Obj(fields) = row else { panic!("row {row:?} is not an object") };
                        assert!(fields.iter().map(|(k, _)| k).eq(&headers), "row keys {fields:?}");
                        fields.iter().map(|(_, v)| string(v)).collect()
                    })
                    .collect();
                (string(t.get("title").unwrap()), headers, rows)
            })
            .collect()
    }

    #[test]
    fn json_rows_are_keyed_by_header() {
        let mut t = Table::new("demo", &["sku", "value"]);
        t.row(&["EPYC 7502".into(), "1.5".into()]);
        t.row(&["quote\"comma,".into(), "2".into()]);
        assert_eq!(
            t.to_json().render(),
            "{\"title\":\"demo\",\"headers\":[\"sku\",\"value\"],\"rows\":[\
             {\"sku\":\"EPYC 7502\",\"value\":\"1.5\"},\
             {\"sku\":\"quote\\\"comma,\",\"value\":\"2\"}]}"
        );
        let tables = [t];
        assert_eq!(parse_back(&tables_to_json(&tables)), cells(&tables));
    }

    #[test]
    fn json_escapes_control_characters() {
        let mut t = Table::new("t\n\t", &["a"]);
        t.row(&["\u{1}".into()]);
        let json = t.to_json().render();
        assert!(json.contains("\"t\\n\\t\""));
        assert!(json.contains("\\u0001"));
    }

    #[test]
    fn tables_concatenate_into_a_json_array() {
        let mut a = Table::new("a", &["x"]);
        a.row(&["1".into()]);
        let b = Table::new("b", &["y"]);
        let mut c = Table::new("t\n\t", &["back\\slash", "quote\"comma,"]);
        c.row(&["\u{1}\r".into(), "9.0 / 8.9 W (−1.1%)".into()]);
        let tables = [a, b, c];
        let json = tables_to_json(&tables);
        let parts: Vec<String> = tables.iter().map(|t| t.to_json().render()).collect();
        assert_eq!(json, format!("[{}]", parts.join(",")));
        assert_eq!(parse_back(&json), cells(&tables));
        assert_eq!(tables_to_json(&[]), "[]");
        assert_eq!(parse_back("[]"), cells(&[]));
    }

    #[test]
    fn comparison_formatting() {
        let s = compare(92.0, 91.5, " ns");
        assert!(s.contains("92.0 ns"));
        assert!(s.contains("-0.5%"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(&["only-one".into()]);
    }
}
