//! Column-chunked value matrices.
//!
//! The paper stores each time-varying attribute `A_i` as a labeled array with
//! one row per node and one column per time point; cell `A_i[v, t]` holds the
//! attribute value of `v` at `t`, or "–" when `v` does not exist at `t`
//! (Table 2). [`ValueMatrix`] is that array; row labels are kept by the
//! graph layer.
//!
//! Storage is one `Arc`-shared chunk per column, truncated at the last
//! non-`Null` row — rows past `col.len()` are implicitly `Null`. Cloning,
//! [`widen`](ValueMatrix::widen)ing, and
//! [`restrict_columns`](ValueMatrix::restrict_columns) only copy the column
//! spine, so an appended snapshot shares every untouched attribute column
//! with its predecessor (copy-on-write via `Arc::make_mut`), and appending
//! a time point adds one fresh column without rewriting history.

use std::sync::Arc;

use crate::value::Value;

/// The implicit cell value past a column chunk's materialized length.
static NULL: Value = Value::Null;

/// A matrix of [`Value`]s with a fixed column count and `Arc`-shared
/// column-chunk storage (implicit-`Null` tails).
#[derive(Clone, Debug)]
pub struct ValueMatrix {
    ncols: usize,
    nrows: usize,
    cols: Vec<Arc<Vec<Value>>>,
}

impl PartialEq for ValueMatrix {
    fn eq(&self, other: &Self) -> bool {
        if self.ncols != other.ncols || self.nrows != other.nrows {
            return false;
        }
        self.cols.iter().zip(&other.cols).all(|(a, b)| {
            if Arc::ptr_eq(a, b) {
                return true;
            }
            // semantic equality under implicit-Null tails
            let n = a.len().min(b.len());
            a[..n] == b[..n]
                && a[n..].iter().all(Value::is_null)
                && b[n..].iter().all(Value::is_null)
        })
    }
}

impl Eq for ValueMatrix {}

impl ValueMatrix {
    /// Creates an empty matrix with `ncols` columns and no rows.
    pub fn new(ncols: usize) -> Self {
        ValueMatrix {
            ncols,
            nrows: 0,
            // columns deliberately share one empty allocation;
            // `Arc::make_mut` un-shares on first write
            #[allow(clippy::rc_clone_in_vec_init)]
            cols: vec![Arc::new(Vec::new()); ncols],
        }
    }

    /// Creates an all-`Null` matrix with the given shape.
    pub fn nulls(nrows: usize, ncols: usize) -> Self {
        let mut m = ValueMatrix::new(ncols);
        m.nrows = nrows;
        m
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Appends an all-`Null` row, returning its index. O(1): trailing
    /// `Null` rows are implicit.
    pub fn push_null_row(&mut self) -> usize {
        self.nrows += 1;
        self.nrows - 1
    }

    /// Appends a row, returning its index. Only columns receiving a
    /// non-`Null` cell are materialized (and un-shared if copy-on-write
    /// shared).
    ///
    /// # Panics
    /// Panics if the row arity differs from `ncols`.
    pub fn push_row(&mut self, row: Vec<Value>) -> usize {
        assert_eq!(row.len(), self.ncols, "row arity mismatch");
        for (col, v) in self.cols.iter_mut().zip(row) {
            if !v.is_null() {
                let col = Arc::make_mut(col);
                col.resize(self.nrows, Value::Null);
                col.push(v);
            }
        }
        self.nrows += 1;
        self.nrows - 1
    }

    /// Appends one column, returning its index; `cells` holds the new
    /// column's values top-down and may be shorter than `nrows` (the rest
    /// is implicitly `Null`). This is the copy-on-write append behind
    /// versioned snapshots: prior columns stay `Arc`-shared with earlier
    /// epochs.
    ///
    /// # Panics
    /// Panics if `cells` is longer than `nrows`.
    pub fn push_col(&mut self, cells: Vec<Value>) -> usize {
        assert!(
            cells.len() <= self.nrows,
            "pushed column spans {} rows, more than nrows {}",
            cells.len(),
            self.nrows
        );
        self.cols.push(Arc::new(cells));
        self.ncols += 1;
        self.ncols - 1
    }

    /// Reads cell `(r, c)`; rows past the column chunk's materialized
    /// length read as [`Value::Null`].
    ///
    /// # Panics
    /// Panics if out of range.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> &Value {
        assert!(r < self.nrows && c < self.ncols, "index out of range");
        self.cols[c].get(r).unwrap_or(&NULL)
    }

    /// Writes cell `(r, c)`, un-sharing (copy-on-write) and growing the
    /// column chunk as needed.
    ///
    /// # Panics
    /// Panics if out of range.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: Value) {
        assert!(r < self.nrows && c < self.ncols, "index out of range");
        let col = &mut self.cols[c];
        if v.is_null() && col.len() <= r {
            return; // already implicitly Null
        }
        let col = Arc::make_mut(col);
        if col.len() <= r {
            col.resize(r + 1, Value::Null);
        }
        col[r] = v;
    }

    /// Copies row `r` out, gathering one cell per column.
    ///
    /// # Panics
    /// Panics if out of range.
    pub fn row(&self, r: usize) -> Vec<Value> {
        assert!(r < self.nrows, "row out of range");
        self.cols
            .iter()
            .map(|col| col.get(r).cloned().unwrap_or(Value::Null))
            .collect()
    }

    /// Builds a new matrix keeping only the listed columns, in that order.
    /// Cheap: the kept column chunks are `Arc`-shared, not copied.
    ///
    /// # Panics
    /// Panics if any column is out of range.
    pub fn restrict_columns(&self, cols: &[usize]) -> ValueMatrix {
        for &c in cols {
            assert!(c < self.ncols, "column {c} out of range {}", self.ncols);
        }
        ValueMatrix {
            ncols: cols.len(),
            nrows: self.nrows,
            cols: cols.iter().map(|&c| Arc::clone(&self.cols[c])).collect(),
        }
    }

    /// Builds a copy with `new_ncols >= ncols` columns; existing cells keep
    /// their positions, new columns are `Null`. Cheap copy-on-write: the
    /// existing column chunks are `Arc`-shared and the new columns are
    /// implicit-`Null`.
    ///
    /// # Panics
    /// Panics if `new_ncols < ncols`.
    pub fn widen(&self, new_ncols: usize) -> ValueMatrix {
        assert!(
            new_ncols >= self.ncols,
            "widen cannot shrink: {} -> {new_ncols}",
            self.ncols
        );
        let mut cols = self.cols.clone();
        cols.resize_with(new_ncols, || Arc::new(Vec::new()));
        ValueMatrix {
            ncols: new_ncols,
            nrows: self.nrows,
            cols,
        }
    }

    /// Builds a new matrix keeping only the listed rows, in that order.
    ///
    /// # Panics
    /// Panics if any row is out of range.
    pub fn select_rows(&self, rows: &[usize]) -> ValueMatrix {
        for &r in rows {
            assert!(r < self.nrows, "row out of range");
        }
        ValueMatrix {
            ncols: self.ncols,
            nrows: rows.len(),
            cols: self
                .cols
                .iter()
                .map(|col| {
                    Arc::new(
                        rows.iter()
                            .map(|&r| col.get(r).cloned().unwrap_or(Value::Null))
                            .collect::<Vec<Value>>(),
                    )
                })
                .collect(),
        }
    }

    /// Count of column chunks physically shared (same allocation) with
    /// `other` — a test/bench hook for asserting copy-on-write appends
    /// actually share prior storage instead of deep-copying it.
    pub fn shared_cols(&self, other: &ValueMatrix) -> usize {
        self.cols
            .iter()
            .zip(&other.cols)
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_set() {
        let mut m = ValueMatrix::new(3);
        m.push_row(vec![Value::Int(1), Value::Null, Value::Int(3)]);
        m.push_null_row();
        assert_eq!(m.nrows(), 2);
        assert_eq!(m.get(0, 2), &Value::Int(3));
        assert!(m.get(1, 0).is_null());
        m.set(1, 1, Value::Int(9));
        assert_eq!(m.get(1, 1), &Value::Int(9));
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn push_row_wrong_arity_panics() {
        ValueMatrix::new(2).push_row(vec![Value::Int(1)]);
    }

    #[test]
    fn restrict_and_select() {
        let mut m = ValueMatrix::new(3);
        m.push_row(vec![Value::Int(0), Value::Int(1), Value::Int(2)]);
        m.push_row(vec![Value::Int(10), Value::Int(11), Value::Int(12)]);
        let r = m.restrict_columns(&[2, 0]);
        assert_eq!(r.row(1), &[Value::Int(12), Value::Int(10)]);
        let s = m.select_rows(&[1]);
        assert_eq!(s.nrows(), 1);
        assert_eq!(s.row(0)[0], Value::Int(10));
    }

    #[test]
    fn widen_preserves_and_pads() {
        let mut m = ValueMatrix::new(2);
        m.push_row(vec![Value::Int(1), Value::Int(2)]);
        let w = m.widen(4);
        assert_eq!(w.ncols(), 4);
        assert_eq!(w.get(0, 1), &Value::Int(2));
        assert!(w.get(0, 3).is_null());
        // widening shares every existing chunk with the source
        assert_eq!(w.shared_cols(&m), 2);
    }

    #[test]
    #[should_panic(expected = "cannot shrink")]
    fn widen_shrink_panics() {
        ValueMatrix::new(3).widen(2);
    }

    #[test]
    fn nulls_shape() {
        let m = ValueMatrix::nulls(2, 4);
        assert_eq!((m.nrows(), m.ncols()), (2, 4));
        assert!(m.get(1, 3).is_null());
    }

    #[test]
    fn push_col_appends_and_shares_history() {
        let mut m = ValueMatrix::new(2);
        m.push_row(vec![Value::Int(1), Value::Int(2)]);
        m.push_row(vec![Value::Int(3), Value::Null]);
        let snapshot = m.clone();
        // short column: row 1 implicitly Null
        m.push_col(vec![Value::Int(7)]);
        assert_eq!(m.ncols(), 3);
        assert_eq!(m.get(0, 2), &Value::Int(7));
        assert!(m.get(1, 2).is_null());
        assert_eq!(m.shared_cols(&snapshot), 2, "old columns stay shared");
        // the snapshot is unperturbed
        assert_eq!(snapshot.ncols(), 2);
        assert_eq!(snapshot.get(0, 0), &Value::Int(1));
    }

    #[test]
    #[should_panic(expected = "more than nrows")]
    fn push_col_too_long_panics() {
        let mut m = ValueMatrix::new(1);
        m.push_null_row();
        m.push_col(vec![Value::Int(1), Value::Int(2)]);
    }

    #[test]
    fn implicit_null_rows_are_semantically_equal() {
        let mut a = ValueMatrix::new(2);
        a.push_row(vec![Value::Int(1), Value::Null]);
        a.push_null_row();
        let mut b = ValueMatrix::new(2);
        b.push_row(vec![Value::Int(1), Value::Null]);
        b.push_row(vec![Value::Null, Value::Null]);
        assert_eq!(a, b);
        assert_eq!(a.row(1), vec![Value::Null, Value::Null]);
    }
}
