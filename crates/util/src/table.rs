//! Minimal plain-text / CSV table writer.
//!
//! Every `exp_*` binary in `lmt-bench` prints its table/figure series through
//! this type so EXPERIMENTS.md gets uniformly formatted, diff-able output.

use std::fmt::Write as _;

/// A simple column-aligned table.
#[derive(Clone, Debug, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row; must match the header arity.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row arity {} != header arity {}",
            cells.len(),
            self.header.len()
        );
        self.rows.push(cells.to_vec());
        self
    }

    /// Convenience: append a row of displayable values.
    pub fn push_display<D: std::fmt::Display>(&mut self, cells: &[D]) -> &mut Self {
        let cells: Vec<String> = cells.iter().map(|c| c.to_string()).collect();
        self.row(&cells)
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True iff no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render as an aligned plain-text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "## {}", self.title);
        }
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                let _ = write!(line, "{:>width$}", c, width = widths[i]);
            }
            line
        };
        let _ = writeln!(out, "{}", fmt_row(&self.header, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }

    /// Render as CSV (RFC-4180-ish; quotes cells containing commas/quotes).
    pub fn render_csv(&self) -> String {
        fn esc(s: &str) -> String {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.header.iter().map(|s| esc(s)).collect::<Vec<_>>().join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|s| esc(s)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }
}

/// Format an f64 compactly for table cells: integers render bare, small
/// values get 4 significant digits.
pub fn fnum(x: f64) -> String {
    if x.is_finite() && x == x.trunc() && x.abs() < 1e12 {
        format!("{}", x as i64)
    } else {
        format!("{:.4}", x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("demo", &["n", "value"]);
        t.row(&["8".into(), "1.5".into()]);
        t.row(&["1024".into(), "22".into()]);
        let s = t.render();
        assert!(s.contains("## demo"));
        assert!(s.contains("   n  value"));
        assert!(s.lines().count() >= 4);
    }

    #[test]
    fn csv_escapes() {
        let mut t = Table::new("", &["a", "b"]);
        t.row(&["x,y".into(), "he said \"hi\"".into()]);
        let csv = t.render_csv();
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("\"he said \"\"hi\"\"\""));
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_panics() {
        let mut t = Table::new("", &["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn fnum_formats() {
        assert_eq!(fnum(3.0), "3");
        assert_eq!(fnum(0.25), "0.2500");
        assert_eq!(fnum(-2.0), "-2");
    }

    #[test]
    fn push_display_works() {
        let mut t = Table::new("", &["a", "b"]);
        t.push_display(&[1.0, 2.5]);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }
}
