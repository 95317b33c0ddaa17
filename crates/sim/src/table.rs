//! Fixed-width text tables for terminal output.

use std::fmt;

/// A simple column-aligned text table, used by `bp` to print rows in
/// the same layout as the paper's tables.
///
/// ```
/// use bp_sim::TextTable;
/// let mut t = TextTable::new(vec!["config", "CBP4", "CBP3"]);
/// t.row(vec!["TAGE-GSC".into(), "2.473".into(), "3.902".into()]);
/// let s = t.to_string();
/// assert!(s.contains("TAGE-GSC"));
/// assert!(s.lines().count() >= 3);
/// ```
#[derive(Debug, Clone)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    ///
    /// # Panics
    ///
    /// Panics if `headers` is empty.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        assert!(!headers.is_empty(), "table needs at least one column");
        TextTable {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; missing cells render empty, extra cells are
    /// rejected.
    ///
    /// # Panics
    ///
    /// Panics if the row has more cells than there are headers.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert!(
            cells.len() <= self.headers.len(),
            "row has {} cells for {} columns",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn widths(&self) -> Vec<usize> {
        let mut w: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                w[i] = w[i].max(cell.len());
            }
        }
        w
    }
}

impl fmt::Display for TextTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let widths = self.widths();
        let render = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for (i, width) in widths.iter().enumerate() {
                let cell = cells.get(i).map_or("", String::as_str);
                if i + 1 == widths.len() {
                    writeln!(f, "{cell:<width$}")?;
                } else {
                    write!(f, "{cell:<width$}  ")?;
                }
            }
            Ok(())
        };
        render(f, &self.headers)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            render(f, row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(vec!["name", "mpki"]);
        t.row(vec!["short".into(), "1.0".into()]);
        t.row(vec!["a-much-longer-name".into(), "12.345".into()]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // All mpki cells start at the same column.
        let col = lines[0].find("mpki").unwrap();
        assert_eq!(lines[2].find("1.0").unwrap(), col);
        assert_eq!(lines[3].find("12.345").unwrap(), col);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn short_rows_render_empty_cells() {
        let mut t = TextTable::new(vec!["a", "b", "c"]);
        t.row(vec!["x".into()]);
        assert!(t.to_string().contains('x'));
    }

    #[test]
    #[should_panic(expected = "row has")]
    fn rejects_oversized_rows() {
        let mut t = TextTable::new(vec!["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn rejects_empty_headers() {
        let _ = TextTable::new(Vec::<String>::new());
    }
}
