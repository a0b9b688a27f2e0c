//! Plain-text rendering of experiment results: aligned tables that stand in
//! for the paper's figures, plus CSV emission for external plotting.

use std::fmt::Write as _;

/// A rectangular result table (one per reproduced figure/table).
#[derive(Clone, Debug)]
pub struct Report {
    /// Identifier, e.g. `"E2"` or `"T1"`.
    pub id: String,
    /// Human-readable title (the paper's caption).
    pub title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    notes: Vec<String>,
}

impl Report {
    /// Starts a report with column headers.
    pub fn new(id: &str, title: &str, headers: &[&str]) -> Self {
        Report {
            id: id.to_string(),
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends one row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        debug_assert_eq!(cells.len(), self.headers.len(), "row arity");
        self.rows.push(cells);
        self
    }

    /// Appends a free-form note shown under the table (e.g. the expected
    /// shape from the paper).
    pub fn note(&mut self, text: &str) -> &mut Self {
        self.notes.push(text.to_string());
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the report holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {}: {} ==", self.id, self.title);
        let line = |out: &mut String, cells: &[String]| {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    s.push_str("  ");
                }
                let _ = write!(s, "{:>width$}", c, width = widths[i]);
            }
            let _ = writeln!(out, "{s}");
        };
        line(&mut out, &self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            line(&mut out, row);
        }
        for n in &self.notes {
            let _ = writeln!(out, "# {n}");
        }
        out
    }

    /// Renders the same data as CSV (headers first).
    pub fn to_csv(&self) -> String {
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.headers
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }
}

#[cfg(test)]
impl Report {
    /// Cell `col` of data row `row`, parsed: a number, or a `String` label.
    pub(crate) fn cell<T: std::str::FromStr>(&self, row: usize, col: usize) -> T
    where
        T::Err: std::fmt::Debug,
    {
        self.rows[row][col].parse().expect("cell parses")
    }
}

/// Formats a float with sensible precision for tables.
pub fn fnum(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut r = Report::new("E0", "demo", &["x", "value"]);
        r.row(vec!["1".into(), "10".into()]);
        r.row(vec!["100".into(), "2".into()]);
        let s = r.render();
        assert!(s.contains("E0: demo"));
        let lines: Vec<&str> = s.lines().collect();
        // title + header + separator + 2 rows
        assert_eq!(lines.len(), 5);
        assert_eq!(lines[3].len(), lines[4].len(), "rows aligned");
    }

    #[test]
    fn csv_escapes_commas() {
        let mut r = Report::new("E0", "demo", &["a,b", "c"]);
        r.row(vec!["x\"y".into(), "z".into()]);
        let csv = r.to_csv();
        assert!(csv.starts_with("\"a,b\",c\n"));
        assert!(csv.contains("\"x\"\"y\",z"));
    }

    #[test]
    fn fnum_scales_precision() {
        assert_eq!(fnum(0.0), "0");
        assert_eq!(fnum(0.1234), "0.123");
        assert_eq!(fnum(12.34), "12.3");
        assert_eq!(fnum(1234.7), "1235");
    }

    #[test]
    fn notes_are_rendered() {
        let mut r = Report::new("E1", "t", &["a"]);
        r.row(vec!["1".into()]).note("expected shape");
        assert!(r.render().contains("# expected shape"));
    }
}
