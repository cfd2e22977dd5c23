//! Labeled row frames: the TSV row container.
//!
//! A [`Frame`] is a small table of [`Value`] rows under named columns — the
//! in-memory form of the paper's on-disk arrays (`io.rs` of `tempo-graph`
//! writes and reads a graph as a directory of them) and of exported
//! aggregates.

use crate::error::ColumnarError;
use crate::value::Value;

/// A small row-oriented table with named columns.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    columns: Vec<String>,
    rows: Vec<Vec<Value>>,
}

impl Frame {
    /// Creates an empty frame with the given column names.
    ///
    /// # Errors
    /// Returns an error if column names are duplicated.
    pub fn new<S: Into<String>>(columns: Vec<S>) -> Result<Self, ColumnarError> {
        let columns: Vec<String> = columns.into_iter().map(Into::into).collect();
        for (i, c) in columns.iter().enumerate() {
            if columns[..i].contains(c) {
                return Err(ColumnarError::DuplicateColumn(c.clone()));
            }
        }
        Ok(Frame {
            columns,
            rows: Vec::new(),
        })
    }

    /// Column names in order.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.rows.len()
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.columns.len()
    }

    /// True if the frame has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Index of a column by name.
    ///
    /// # Errors
    /// Returns an error if the column does not exist.
    fn col_index(&self, name: &str) -> Result<usize, ColumnarError> {
        self.columns
            .iter()
            .position(|c| c == name)
            .ok_or_else(|| ColumnarError::UnknownColumn(name.to_owned()))
    }

    /// Appends a row.
    ///
    /// # Errors
    /// Returns an error if the row arity does not match the column count.
    pub fn push_row(&mut self, row: Vec<Value>) -> Result<(), ColumnarError> {
        if row.len() != self.columns.len() {
            return Err(ColumnarError::ArityMismatch {
                expected: self.columns.len(),
                got: row.len(),
            });
        }
        self.rows.push(row);
        Ok(())
    }

    /// Borrows row `r`.
    ///
    /// # Panics
    /// Panics if `r` is out of range.
    pub fn row(&self, r: usize) -> &[Value] {
        &self.rows[r]
    }

    /// Iterates all rows.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[Value]> {
        self.rows.iter().map(|r| r.as_slice())
    }

    /// Reads cell `(r, col)` by column name.
    ///
    /// # Errors
    /// Returns an error for an unknown column.
    ///
    /// # Panics
    /// Panics if `r` is out of range.
    pub fn get(&self, r: usize, col: &str) -> Result<&Value, ColumnarError> {
        let c = self.col_index(col)?;
        Ok(&self.rows[r][c])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Frame {
        // Mirrors the paper's Table 2 attribute array A (#Publications)
        let mut f = Frame::new(vec!["id", "t0", "t1", "t2"]).unwrap();
        f.push_row(vec![
            Value::Int(1),
            Value::Int(3),
            Value::Int(1),
            Value::Null,
        ])
        .unwrap();
        f.push_row(vec![
            Value::Int(2),
            Value::Int(1),
            Value::Int(1),
            Value::Int(1),
        ])
        .unwrap();
        f.push_row(vec![Value::Int(3), Value::Int(1), Value::Null, Value::Null])
            .unwrap();
        f
    }

    #[test]
    fn new_rejects_duplicate_columns() {
        assert!(matches!(
            Frame::new(vec!["a", "a"]),
            Err(ColumnarError::DuplicateColumn(_))
        ));
    }

    #[test]
    fn push_row_arity_checked() {
        let mut f = Frame::new(vec!["a", "b"]).unwrap();
        assert!(matches!(
            f.push_row(vec![Value::Int(1)]),
            Err(ColumnarError::ArityMismatch { .. })
        ));
        assert!(f.push_row(vec![Value::Int(1), Value::Int(2)]).is_ok());
        assert_eq!(f.nrows(), 1);
    }

    #[test]
    fn get_by_column_name() {
        let f = sample();
        assert_eq!(f.get(0, "t1").unwrap(), &Value::Int(1));
        assert_eq!(f.get(2, "id").unwrap(), &Value::Int(3));
        assert!(f.get(0, "zzz").is_err());
    }
}
