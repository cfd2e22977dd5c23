//! Dictionary-coded value matrices.
//!
//! The paper stores each time-varying attribute `A_i` as a labeled array with
//! one row per node and one column per time point; cell `A_i[v, t]` holds the
//! attribute value of `v` at `t`, or "–" when `v` does not exist at `t`
//! (Table 2). [`ValueMatrix`] is that array; row labels are kept by the
//! graph layer.
//!
//! A matrix holds one dictionary of its distinct non-`Null` values and, per
//! column, one `Arc`-shared chunk of `u32` codes into it — 4 bytes a cell
//! whatever the value, [`NULL_CODE`] for `Null` — truncated at its last
//! non-`Null` row: rows past `col.len()` are implicitly `Null`. Cloning
//! copies the column spine and shares the dictionary, so an appended
//! snapshot shares every untouched column with its predecessor
//! (copy-on-write via `Arc::make_mut`) and appending a time point adds one
//! fresh code column without rewriting history. The dictionary only grows,
//! so a code keeps its meaning in every matrix derived from one source;
//! only a write that interns a value the dictionary lacks un-shares it.
//!
//! The layout pays off when values repeat (domains of 3–18 values in the
//! paper's datasets). An attribute whose cells are all distinct costs a
//! dictionary as large as the data (each value twice: listed, and as a hash
//! key) on top of the codes, cloned once per epoch that adds a value to it.

use std::sync::Arc;

use crate::interner::Interner;
use crate::value::Value;

/// The code of a `Null` cell; no dictionary entry ever takes it.
pub const NULL_CODE: u32 = u32::MAX;

/// What [`ValueMatrix::get`] borrows for a `Null` cell.
static NULL: Value = Value::Null;

/// A matrix of [`Value`]s with a fixed column count, stored as a shared
/// dictionary plus `Arc`-shared columns of `u32` codes (implicit-`Null`
/// tails).
#[derive(Clone, Debug)]
pub struct ValueMatrix {
    ncols: usize,
    nrows: usize,
    dict: Arc<Interner<Value>>,
    cols: Vec<Arc<Vec<u32>>>,
}

/// Cell equality: dictionaries may list the same values in another order
/// (an incrementally appended graph against a rebuilt one) and chunks may
/// end at different rows.
impl PartialEq for ValueMatrix {
    fn eq(&self, other: &Self) -> bool {
        let cols = self.cols.iter().zip(&other.cols).enumerate();
        (self.ncols, self.nrows) == (other.ncols, other.nrows)
            && cols.into_iter().all(|(c, (a, b))| {
                // codes never change meaning, so a shared chunk is equal cells
                Arc::ptr_eq(a, b)
                    || (0..a.len().max(b.len())).all(|r| self.get(r, c) == other.get(r, c))
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
            dict: Arc::new(Interner::new()),
            // columns deliberately share one empty allocation;
            // `Arc::make_mut` un-shares on first write
            #[allow(clippy::rc_clone_in_vec_init)]
            cols: vec![Arc::new(Vec::new()); ncols],
        }
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
        let r = self.push_null_row();
        for (c, v) in row.into_iter().enumerate() {
            self.set(r, c, v);
        }
        r
    }

    /// Appends one column from its `(row, value)` cells, returning its
    /// index; rows not named are `Null` and a later cell of a row replaces
    /// an earlier one. This is the copy-on-write append behind versioned
    /// snapshots: prior columns stay `Arc`-shared with earlier epochs, and
    /// the cells are interned as they come — no dense `Value` column is built.
    ///
    /// # Panics
    /// Panics if a cell's row is out of range.
    pub fn push_col(&mut self, cells: impl IntoIterator<Item = (usize, Value)>) -> usize {
        let c = self.ncols;
        self.cols.push(Arc::default());
        self.ncols += 1;
        for (r, v) in cells {
            self.set(r, c, v);
        }
        Arc::make_mut(&mut self.cols[c]).shrink_to_fit();
        c
    }

    /// Reads cell `(r, c)`, borrowed from the dictionary; rows past the
    /// column chunk's materialized length read as [`Value::Null`].
    ///
    /// # Panics
    /// Panics if out of range.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> &Value {
        self.decode(self.code(r, c))
    }

    /// The value cells holding `code` carry.
    ///
    /// # Panics
    /// Panics if no cell was ever given such a code.
    #[inline]
    pub fn decode(&self, code: u32) -> &Value {
        match code {
            NULL_CODE => &NULL,
            code => &self.dict.labels()[code as usize],
        }
    }

    /// The dictionary code of cell `(r, c)`, [`NULL_CODE`] for `Null`.
    ///
    /// # Panics
    /// Panics if out of range.
    #[inline]
    pub fn code(&self, r: usize, c: usize) -> u32 {
        assert!(r < self.nrows && c < self.ncols, "index out of range");
        self.cols[c].get(r).copied().unwrap_or(NULL_CODE)
    }

    /// The materialized codes of column `c`, top-down (rows past them are
    /// `Null`), in the allocation a reader may share.
    ///
    /// # Panics
    /// Panics if out of range.
    pub fn col_codes(&self, c: usize) -> &Arc<Vec<u32>> {
        &self.cols[c]
    }

    /// The distinct values written so far, indexed by code. A value stays
    /// listed after its last cell is overwritten.
    pub fn dict(&self) -> &[Value] {
        self.dict.labels()
    }

    /// The code cells holding `v` carry: [`NULL_CODE`] for `Null`, `None`
    /// for a value no cell was ever given.
    pub fn code_of(&self, v: &Value) -> Option<u32> {
        match v {
            Value::Null => Some(NULL_CODE),
            v => self.dict.code(v),
        }
    }

    /// Writes cell `(r, c)`, un-sharing (copy-on-write) and growing the
    /// column chunk as needed; the dictionary is un-shared only to intern a
    /// value it lacks.
    ///
    /// # Panics
    /// Panics if out of range.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: Value) {
        assert!(r < self.nrows && c < self.ncols, "index out of range");
        let code = match self.code_of(&v) {
            Some(code) => code,
            None => Arc::make_mut(&mut self.dict).intern(v),
        };
        let col = &mut self.cols[c];
        if code == NULL_CODE && col.len() <= r {
            return; // already implicitly Null
        }
        let col = Arc::make_mut(col);
        if col.len() <= r {
            col.resize(r + 1, NULL_CODE);
        }
        col[r] = code;
    }

    /// Builds a new matrix keeping only the listed rows, in that order; it
    /// shares the dictionary, so only codes are gathered.
    ///
    /// # Panics
    /// Panics if any row is out of range.
    pub fn select_rows(&self, rows: &[usize]) -> ValueMatrix {
        for &r in rows {
            assert!(r < self.nrows, "row out of range");
        }
        let gather = |col: &Arc<Vec<u32>>| {
            let codes = rows
                .iter()
                .map(|&r| col.get(r).copied().unwrap_or(NULL_CODE));
            Arc::new(codes.collect::<Vec<u32>>())
        };
        ValueMatrix {
            ncols: self.ncols,
            nrows: rows.len(),
            dict: Arc::clone(&self.dict),
            cols: self.cols.iter().map(gather).collect(),
        }
    }

    /// Gives back the spare capacity cell-by-cell writes leave behind (a
    /// chunk grown by [`set`](Self::set) holds up to twice its length), once
    /// a writer is done. Chunks without any are left shared.
    pub fn shrink_to_fit(&mut self) {
        for col in self
            .cols
            .iter_mut()
            .filter(|col| col.capacity() > col.len())
        {
            Arc::make_mut(col).shrink_to_fit();
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
    fn select_rows_gathers_codes() {
        let mut m = ValueMatrix::new(3);
        m.push_row(vec![Value::Int(0), Value::Int(1), Value::Int(2)]);
        m.push_row(vec![Value::Int(10), Value::Int(11), Value::Int(12)]);
        let s = m.select_rows(&[1]);
        assert_eq!(s.nrows(), 1);
        assert_eq!(s.get(0, 0), &Value::Int(10));
        assert_eq!(s.get(0, 2), &Value::Int(12));
    }

    #[test]
    fn push_col_appends_and_shares_history() {
        let mut m = ValueMatrix::new(2);
        m.push_row(vec![Value::Int(1), Value::Int(2)]);
        m.push_row(vec![Value::Int(3), Value::Null]);
        let snapshot = m.clone();
        // short column: row 1 implicitly Null; the later cell of row 0 wins
        m.push_col([(0, Value::Int(5)), (1, Value::Null), (0, Value::Int(7))]);
        assert_eq!(m.ncols(), 3);
        assert_eq!(m.get(0, 2), &Value::Int(7));
        assert!(m.get(1, 2).is_null());
        assert_eq!(m.col_codes(2)[..], [m.code_of(&Value::Int(7)).unwrap()]);
        assert_eq!(m.shared_cols(&snapshot), 2, "old columns stay shared");
        // 5 and 7 are new values: the dictionary was copied, not written through
        assert!(!std::ptr::eq(m.dict(), snapshot.dict()));
        assert_eq!(
            snapshot.dict(),
            [Value::Int(1), Value::Int(2), Value::Int(3)]
        );
        // the snapshot is unperturbed
        assert_eq!(snapshot.ncols(), 2);
        assert_eq!(snapshot.get(0, 0), &Value::Int(1));
    }

    #[test]
    #[should_panic(expected = "index out of range")]
    fn push_col_past_the_last_row_panics() {
        let mut m = ValueMatrix::new(1);
        m.push_null_row();
        m.push_col([(0, Value::Int(1)), (1, Value::Int(2))]);
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
        assert!(a.get(1, 0).is_null() && a.get(1, 1).is_null());
    }

    #[test]
    fn codes_read_through_the_dictionary() {
        let mut m = ValueMatrix::new(2);
        m.push_row(vec![Value::Int(4), Value::Str("x".into())]);
        m.push_row(vec![Value::Null, Value::Int(4)]);
        m.push_null_row();
        assert_eq!(m.dict(), [Value::Int(4), Value::Str("x".into())]);
        assert_eq!((m.code(0, 0), m.code(0, 1), m.code(1, 1)), (0, 1, 0));
        assert_eq!((m.code(1, 0), m.code(2, 1)), (NULL_CODE, NULL_CODE));
        assert_eq!(m.col_codes(0)[..], [0]);
        assert_eq!(m.code_of(&Value::Str("x".into())), Some(1));
        assert_eq!(m.code_of(&Value::Null), Some(NULL_CODE));
        assert_eq!(m.code_of(&Value::Int(5)), None);
        // overwriting with Null clears the cell; the value stays listed
        m.set(0, 1, Value::Null);
        assert!(m.get(0, 1).is_null());
        assert_eq!(m.dict().len(), 2);
    }

    #[test]
    fn equality_ignores_dictionary_order() {
        let mut a = ValueMatrix::new(1);
        let mut b = ValueMatrix::new(1);
        for v in [1, 2, 1] {
            a.push_row(vec![Value::Int(v)]);
        }
        // same cells, written so that 2 is interned first
        for _ in 0..3 {
            b.push_null_row();
        }
        b.set(1, 0, Value::Int(2));
        b.set(0, 0, Value::Int(1));
        b.set(2, 0, Value::Int(1));
        assert_ne!(a.dict(), b.dict());
        assert_eq!(a, b);
        b.set(2, 0, Value::Int(3)); // a value `a` lacks
        assert_ne!(a, b);
        assert_ne!(b, a);
        b.set(2, 0, Value::Null); // null against a value
        assert_ne!(a, b);
        assert_ne!(b, a);
    }

    /// What the module doc says a high-cardinality attribute costs: the
    /// layout still round-trips it, through the hashed side of the
    /// dictionary.
    #[test]
    fn high_cardinality_columns_round_trip() {
        let n = 100_000;
        let mut m = ValueMatrix::new(2);
        let name = |r: usize| Value::Str(format!("s{}", r % 5));
        for r in 0..n {
            m.push_row(vec![Value::Int(r as i64 * 7), name(r)]);
        }
        assert_eq!(m.dict().len(), n + 5);
        for r in 0..n {
            assert_eq!(m.get(r, 0), &Value::Int(r as i64 * 7));
            assert_eq!(m.get(r, 1), &name(r));
        }
        m.shrink_to_fit();
        assert_eq!(m.col_codes(0).capacity(), n);
    }
}
