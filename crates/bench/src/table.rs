//! Minimal fixed-width table printing for experiment output.

use std::fmt;

/// A printable experiment table: a title, column headers and rows.
#[derive(Clone, Debug)]
pub struct Table {
    /// Experiment id + claim, e.g. "E1 (Theorem 4.1): …".
    pub title: String,
    /// Column headers.
    pub header: Vec<String>,
    /// Rows of cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header width).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }
}

/// Formats a float compactly for table cells.
pub fn f(x: f64) -> String {
    if x >= 100.0 {
        format!("{x:.0}")
    } else {
        format!("{x:.2}")
    }
}

impl fmt::Display for Table {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        writeln!(out, "## {}", self.title)?;
        let line = |out: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(out, "|")?;
            for (w, c) in widths.iter().zip(cells) {
                write!(out, " {c:>w$} |")?;
            }
            writeln!(out)
        };
        line(out, &self.header)?;
        write!(out, "|")?;
        for w in &widths {
            write!(out, "{}|", "-".repeat(w + 2))?;
        }
        writeln!(out)?;
        for row in &self.rows {
            line(out, row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_markdown_table() {
        let mut t = Table::new("demo", &["a", "bbb"]);
        t.row(vec!["1".into(), "2".into()]);
        let s = t.to_string();
        assert!(s.contains("## demo"));
        assert!(s.contains("| 1 |"), "got: {s}");
        assert_eq!(s.lines().count(), 4);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn rejects_bad_rows() {
        let mut t = Table::new("demo", &["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }
}
