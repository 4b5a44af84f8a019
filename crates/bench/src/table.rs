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

    /// The rows whose theorem check failed: an `ok` / `u_lists_ok` cell
    /// that is not `true`, or a `fails` cell that is not `0`.
    pub fn failed_rows(&self) -> impl Iterator<Item = &[String]> {
        let checks: Vec<(usize, &str)> = (self.header.iter().enumerate())
            .filter_map(|(i, h)| match h.as_str() {
                "ok" | "u_lists_ok" => Some((i, "true")),
                "fails" => Some((i, "0")),
                _ => None,
            })
            .collect();
        let failed = move |row: &&Vec<String>| checks.iter().any(|&(i, want)| row[i] != want);
        self.rows.iter().filter(failed).map(Vec::as_slice)
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
    fn failed_rows_are_the_broken_theorem_checks() {
        let mut t = Table::new("demo", &["n", "ok", "u_lists_ok", "fails"]);
        t.row(["1", "true", "true", "0"].map(String::from).to_vec());
        assert_eq!(t.failed_rows().count(), 0, "a passing table");
        t.row(["2", "false", "true", "0"].map(String::from).to_vec());
        t.row(["3", "true", "false", "0"].map(String::from).to_vec());
        t.row(["4", "true", "true", "2"].map(String::from).to_vec());
        let failed: Vec<&str> = t.failed_rows().map(|row| row[0].as_str()).collect();
        assert_eq!(failed, ["2", "3", "4"]);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn rejects_bad_rows() {
        let mut t = Table::new("demo", &["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }
}
