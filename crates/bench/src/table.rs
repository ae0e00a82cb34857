//! Fixed-width table output for experiment binaries.
//!
//! Every experiment prints paper-style tables to stdout; [`Table`] keeps the
//! formatting consistent (the output doubles as GitHub-flavored markdown).

/// A simple markdown-compatible table builder.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
        self
    }

    /// Renders as aligned markdown.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let emit = |out: &mut String, cells: &[String]| {
            out.push('|');
            for i in 0..cols {
                out.push(' ');
                out.push_str(&format!("{:<w$}", cells[i], w = widths[i]));
                out.push_str(" |");
            }
            out.push('\n');
        };
        emit(&mut out, &self.headers);
        out.push('|');
        for w in &widths {
            out.push_str(&format!("{:-<w$}", "", w = w + 2));
            out.push('|');
        }
        out.push('\n');
        for row in &self.rows {
            emit(&mut out, row);
        }
        out
    }

    /// Prints to stdout with a title.
    pub fn print(&self, title: &str) {
        println!("\n### {title}\n");
        print!("{}", self.render());
    }
}

/// Formats a duration in the unit the paper uses for the context.
pub fn fmt_ms(d: std::time::Duration) -> String {
    format!("{:.2} ms", d.as_secs_f64() * 1e3)
}

/// Seconds with two decimals.
pub fn fmt_s(d: std::time::Duration) -> String {
    format!("{:.2} s", d.as_secs_f64())
}

/// Mebibytes with two decimals.
pub fn fmt_mb(bytes: usize) -> String {
    format!("{:.2} MB", bytes as f64 / (1024.0 * 1024.0))
}

/// A ratio like `4.3x`.
pub fn fmt_ratio(num: f64, den: f64) -> String {
    if den == 0.0 {
        "n/a".to_string()
    } else {
        format!("{:.1}x", num / den)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_markdown() {
        let mut t = Table::new(vec!["name", "value"]);
        t.row(vec!["a", "1"]).row(vec!["longer", "22"]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("| name"));
        assert!(lines[1].starts_with("|---"));
        // All lines equal width.
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn rejects_ragged_rows() {
        Table::new(vec!["a", "b"]).row(vec!["only one"]);
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_ms(std::time::Duration::from_micros(1500)), "1.50 ms");
        assert_eq!(fmt_s(std::time::Duration::from_millis(2500)), "2.50 s");
        assert_eq!(fmt_mb(1024 * 1024), "1.00 MB");
        assert_eq!(fmt_ratio(9.0, 2.0), "4.5x");
        assert_eq!(fmt_ratio(1.0, 0.0), "n/a");
    }
}
