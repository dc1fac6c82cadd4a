//! Minimal fixed-width table printer for experiment output.

/// A printable table with a title and aligned columns.
#[derive(Debug)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Self {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Renders the table to a string.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("\n== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("| ");
            for i in 0..ncols {
                line.push_str(&format!("{:>w$} ", cells[i], w = widths[i]));
                line.push_str("| ");
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        // Each cell is padded by one space either side, as in `fmt_row`.
        out.push('|');
        for w in &widths {
            out.push_str(&"-".repeat(w + 2));
            out.push('|');
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Format a float with 3 significant-ish decimals.
pub fn f(x: f64) -> String {
    if x == 0.0 {
        "0".into()
    } else if x.abs() >= 1000.0 {
        format!("{x:.0}")
    } else if x.abs() >= 10.0 {
        format!("{x:.1}")
    } else {
        format!("{x:.3}")
    }
}

/// Format an integer-valued count.
pub fn n(x: u64) -> String {
    x.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("demo", &["a", "long_header"]);
        t.row(&["1".into(), "2".into()]);
        t.row(&["100".into(), "20000".into()]);
        let s = t.render();
        assert!(s.contains("demo"));
        assert!(s.contains("long_header"));
        assert_eq!(s.lines().filter(|l| l.starts_with('|')).count(), 4);
    }

    #[test]
    fn separator_matches_the_header_row() {
        let mut t = Table::new("demo", &["a", "long_header", "c"]);
        t.row(&["1".into(), "2".into(), "3".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().filter(|l| l.starts_with('|')).collect();
        let (header, sep) = (lines[0], lines[1]);
        assert_eq!(sep.matches('|').count(), header.matches('|').count(), "{s}");
        assert_eq!(sep.len(), header.len(), "{s}");
        assert!(sep.chars().all(|c| c == '|' || c == '-'), "{sep}");
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(&["1".into()]);
    }

    #[test]
    fn float_formats() {
        assert_eq!(f(0.0), "0");
        assert_eq!(f(1234.6), "1235");
        assert_eq!(f(42.26), "42.3");
        assert_eq!(f(1.23456), "1.235");
    }
}
