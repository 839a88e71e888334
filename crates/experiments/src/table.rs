//! Tiny table formatter behind [`render`](crate::render).

use std::fmt::Write as _;

/// One table cell: either text or a number formatted with one decimal.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// Verbatim text.
    Text(String),
    /// A numeric value, printed with one decimal place.
    Number(f64),
}

impl From<&str> for Cell {
    fn from(s: &str) -> Self {
        Cell::Text(s.to_string())
    }
}

impl From<String> for Cell {
    fn from(s: String) -> Self {
        Cell::Text(s)
    }
}

impl From<f64> for Cell {
    fn from(v: f64) -> Self {
        Cell::Number(v)
    }
}

impl Cell {
    fn render(&self) -> String {
        match self {
            Cell::Text(s) => s.clone(),
            Cell::Number(v) => format!("{v:.1}"),
        }
    }
}

/// Formats a GitHub-flavoured markdown table with aligned columns.
///
/// ```
/// use msmr_experiments::{format_markdown_table, Cell};
///
/// let table = format_markdown_table(
///     &["beta", "AR"],
///     &[vec![Cell::from("0.05"), Cell::from(97.0)]],
/// );
/// assert!(table.contains("| beta | AR   |"));
/// assert!(table.contains("97.0"));
/// ```
#[must_use]
pub fn format_markdown_table(headers: &[&str], rows: &[Vec<Cell>]) -> String {
    let columns = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    let rendered: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            assert_eq!(row.len(), columns, "row width must match the header");
            row.iter().map(Cell::render).collect()
        })
        .collect();
    for row in &rendered {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }

    let mut out = String::new();
    let mut write_row = |cells: &[String]| {
        let mut line = String::from("|");
        for (i, cell) in cells.iter().enumerate() {
            let _ = write!(line, " {:<width$} |", cell, width = widths[i]);
        }
        out.push_str(&line);
        out.push('\n');
    };
    write_row(&headers.iter().map(|h| (*h).to_string()).collect::<Vec<_>>());
    write_row(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in &rendered {
        write_row(row);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_aligned_and_complete() {
        let table = format_markdown_table(
            &["param", "DM", "OPT"],
            &[
                vec![Cell::from("0.05"), Cell::from(97.5), Cell::from(99.0)],
                vec![Cell::from("0.2"), Cell::from(12.0), Cell::from(55.5)],
            ],
        );
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("param"));
        assert!(lines[1].starts_with("| ---"));
        assert!(lines[2].contains("97.5"));
        assert!(lines[3].contains("55.5"));
        // All lines have the same width.
        assert_eq!(lines[0].len(), lines[2].len());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_rows_are_rejected() {
        let _ = format_markdown_table(&["a", "b"], &[vec![Cell::from("x")]]);
    }

    #[test]
    fn cell_conversions() {
        assert_eq!(Cell::from("x"), Cell::Text("x".to_string()));
        assert_eq!(Cell::from(String::from("y")), Cell::Text("y".to_string()));
        assert_eq!(Cell::from(1.25), Cell::Number(1.25));
    }
}
