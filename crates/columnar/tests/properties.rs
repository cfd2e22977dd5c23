//! Property-based tests of the columnar engine: bitset algebra, the
//! dictionary-coded value matrix against a plain model, and delimited-text
//! round-trips.

use proptest::prelude::*;
use std::io::Cursor;
use tempo_columnar::{
    read_frame, write_frame, BitVec, Frame, PresenceColumn, PresenceColumns, SparseMode, Value,
    ValueMatrix, NULL_CODE,
};

/// Widths crossing the word-tail boundaries (63/64/65) plus small and
/// multi-word shapes.
const WIDTHS: [usize; 8] = [1, 7, 63, 64, 65, 127, 129, 190];

/// Bits from a threshold over uniform draws: `t` sweeps the density from
/// all-zero (`t = 0`) through ~1% / ~10% / ~50% up to all-one (`t = 100`),
/// the shapes the hybrid column's auto-pick must handle.
fn threshold_bits(vals: &[u32], t: u32) -> BitVec {
    BitVec::from_bools(&vals.iter().map(|&v| v < t).collect::<Vec<bool>>())
}

/// One presence-column test case: the column bits plus an independent
/// same-width operand vector, each at its own random density.
fn column_case() -> impl Strategy<Value = (BitVec, BitVec)> {
    (0usize..WIDTHS.len(), 0u32..101, 0u32..101).prop_flat_map(|(wi, tc, ta)| {
        let n = WIDTHS[wi];
        (
            proptest::collection::vec(0u32..100, n),
            proptest::collection::vec(0u32..100, n),
        )
            .prop_map(move |(c, a)| (threshold_bits(&c, tc), threshold_bits(&a, ta)))
    })
}

/// The width a column built from `bits` stores: up to the word of its last
/// set bit, and no wider than `bits`.
fn stored_width(bits: &BitVec) -> usize {
    bits.last_one()
        .map_or(0, |l| bits.len().min((l / 64 + 1) * 64))
}

/// `bits` at the width a column built from them stores.
fn trimmed(bits: &BitVec) -> BitVec {
    BitVec::from_indices(stored_width(bits), bits.iter_ones())
}

/// Columns of unequal stored widths: each is `WIDTHS`-wide at a random
/// density, with its bits cut off past a random end (so that it may end
/// words before its width, or reach its last word).
fn uneven_columns() -> impl Strategy<Value = Vec<BitVec>> {
    let column = (0usize..WIDTHS.len(), 0u32..101, 0usize..200).prop_flat_map(|(wi, t, end)| {
        let n = WIDTHS[wi];
        proptest::collection::vec(0u32..100, n).prop_map(move |vals| {
            let bits = threshold_bits(&vals, t);
            BitVec::from_indices(n, bits.iter_ones().filter(|&i| i < end))
        })
    });
    proptest::collection::vec(column, 2..5)
}

fn bitvec_strategy(max_bits: usize) -> impl Strategy<Value = BitVec> {
    (1..max_bits).prop_flat_map(|n| {
        proptest::collection::vec(any::<bool>(), n).prop_map(|bits| BitVec::from_bools(&bits))
    })
}

/// Two bit vectors of the same width.
fn bitvec_pair(max_bits: usize) -> impl Strategy<Value = (BitVec, BitVec)> {
    (1..max_bits).prop_flat_map(|n| {
        (
            proptest::collection::vec(any::<bool>(), n),
            proptest::collection::vec(any::<bool>(), n),
        )
            .prop_map(|(a, b)| (BitVec::from_bools(&a), BitVec::from_bools(&b)))
    })
}

/// A cell value from a small draw: nulls, repeats and all three payload
/// kinds, so dictionaries stay small enough to repeat and mixed enough to
/// order differently.
fn cell(draw: usize) -> Value {
    match draw % 7 {
        0 | 1 => Value::Null,
        2 | 3 => Value::Int((draw / 7 % 4) as i64),
        4 => Value::Cat((draw / 7 % 3) as u32),
        _ => Value::Str(format!("s{}", draw / 7 % 3)),
    }
}

/// One random step of a matrix history: `(kind, a, b, draws)`, where `kind`
/// picks the operation and the rest is reduced to the current shape.
type MatrixStep = (usize, usize, usize, Vec<usize>);

/// Applies one random step to the matrix and to its `rows × cols` model.
fn matrix_step(m: &mut ValueMatrix, model: &mut Vec<Vec<Value>>, step: MatrixStep) {
    let (kind, a, b, draws) = step;
    let (nrows, ncols) = (m.nrows(), m.ncols());
    match kind {
        0 | 1 if nrows > 0 && ncols > 0 => {
            m.set(a % nrows, b % ncols, cell(draws[0]));
            model[a % nrows][b % ncols] = cell(draws[0]);
        }
        2 => {
            let row: Vec<Value> = (0..ncols)
                .map(|c| cell(draws[c % draws.len()] + c))
                .collect();
            assert_eq!(m.push_row(row.clone()), nrows);
            model.push(row);
        }
        3 => {
            assert_eq!(m.push_null_row(), nrows);
            model.push(vec![Value::Null; ncols]);
        }
        4 if nrows > 0 => {
            // repeated rows: the later cell wins
            let cells: Vec<(usize, Value)> = (draws.iter().enumerate())
                .map(|(i, &d)| ((d + i * a) % nrows, cell(d + b)))
                .collect();
            assert_eq!(m.push_col(cells.clone()), ncols);
            model.iter_mut().for_each(|row| row.push(Value::Null));
            for (r, v) in cells {
                model[r][ncols] = v;
            }
        }
        5 if nrows > 0 => {
            let rows: Vec<usize> = draws.iter().map(|d| d % nrows).collect();
            *m = m.select_rows(&rows);
            *model = rows.iter().map(|&r| model[r].clone()).collect();
        }
        _ => {}
    }
}

/// A random history of matrix steps, starting from `ncols` empty columns.
fn matrix_history() -> impl Strategy<Value = (usize, Vec<MatrixStep>)> {
    let step = (
        0usize..6,
        0usize..64,
        0usize..64,
        proptest::collection::vec(0usize..1000, 1..6),
    );
    (1usize..4, proptest::collection::vec(step, 1..40))
}

fn replay(ncols: usize, steps: &[MatrixStep]) -> (ValueMatrix, Vec<Vec<Value>>) {
    let (mut m, mut model) = (ValueMatrix::new(ncols), Vec::new());
    for step in steps {
        matrix_step(&mut m, &mut model, step.clone());
    }
    (m, model)
}

proptest! {
    /// Every read of the dictionary-coded matrix agrees with a plain
    /// `Vec<Vec<Value>>` after every step of a random write / reshape
    /// history, cell by cell and code by code.
    #[test]
    fn value_matrix_matches_model((ncols, steps) in matrix_history()) {
        let (mut m, mut model) = (ValueMatrix::new(ncols), Vec::new());
        for step in steps {
            matrix_step(&mut m, &mut model, step);
            prop_assert_eq!(m.nrows(), model.len());
            for (r, row) in model.iter().enumerate() {
                prop_assert_eq!(m.ncols(), row.len());
                for (c, want) in row.iter().enumerate() {
                    prop_assert_eq!(m.get(r, c), want);
                    let code = m.code(r, c);
                    prop_assert_eq!(m.code_of(want), Some(code));
                    prop_assert_eq!(code == NULL_CODE, want.is_null());
                    if code != NULL_CODE {
                        prop_assert_eq!(&m.dict()[code as usize], want);
                        prop_assert_eq!(m.col_codes(c)[r], code);
                    }
                }
            }
            for c in 0..m.ncols() {
                prop_assert!(m.col_codes(c).len() <= m.nrows());
            }
        }
    }

    /// Equality is about cells: the same matrix rebuilt bottom-up (another
    /// dictionary order, explicit instead of implicit tails) is equal, and
    /// stops being so with any one cell changed.
    #[test]
    fn value_matrix_equality_is_semantic(
        (ncols, steps) in matrix_history(),
        (r, c, draw) in (0usize..64, 0usize..64, 0usize..1000),
    ) {
        let (m, model) = replay(ncols, &steps);
        let mut rebuilt = ValueMatrix::new(m.ncols());
        for _ in 0..m.nrows() {
            rebuilt.push_null_row();
        }
        for (r, row) in model.iter().enumerate().rev() {
            for (c, v) in row.iter().enumerate().rev() {
                rebuilt.set(r, c, Value::Int(-1)); // materialize, then settle
                rebuilt.set(r, c, v.clone());
            }
        }
        prop_assert_eq!(&m, &rebuilt);
        prop_assert_eq!(&rebuilt, &m);
        if m.nrows() > 0 && m.ncols() > 0 {
            let (r, c) = (r % m.nrows(), c % m.ncols());
            let other = cell(draw);
            rebuilt.set(r, c, other.clone());
            prop_assert_eq!(m == rebuilt, *m.get(r, c) == other);
            prop_assert_eq!(rebuilt == m, *m.get(r, c) == other);
        }
    }

    /// Copy-on-write: a write to a clone un-shares the touched column only,
    /// and the dictionary only when it interns a value the matrix lacked;
    /// the original reads as before either way.
    #[test]
    fn value_matrix_clone_shares_until_written(
        (ncols, steps) in matrix_history(),
        (r, c, draw) in (0usize..64, 0usize..64, 0usize..1000),
    ) {
        let (m, model) = replay(ncols, &steps);
        prop_assume!(m.nrows() > 0 && m.ncols() > 0);
        let (r, c) = (r % m.nrows(), c % m.ncols());
        for (v, known) in [(cell(draw), true), (Value::Int(-7), false)] {
            let known = known && m.code_of(&v).is_some();
            let mut copy = m.clone();
            prop_assert_eq!(copy.shared_cols(&m), m.ncols());
            copy.set(r, c, v.clone());
            prop_assert_eq!(copy.get(r, c), &v);
            prop_assert!(copy.shared_cols(&m) >= m.ncols() - 1);
            prop_assert_eq!(std::ptr::eq(copy.dict(), m.dict()), known);
            for (r, row) in model.iter().enumerate() {
                for (c, want) in row.iter().enumerate() {
                    prop_assert_eq!(m.get(r, c), want);
                }
            }
        }
    }

    /// Both `PresenceColumn` representations of the same bits satisfy the
    /// container contract: invariants hold, each is stored up to the word
    /// of its last set bit, accessors agree, and the round-trip through
    /// `to_bitvec` is lossless up to that width — at densities from
    /// all-zero to all-one and widths crossing the 63/64/65 tails.
    #[test]
    fn presence_column_representations_agree((bits, _a) in column_case()) {
        let dense = PresenceColumn::from_bitvec(bits.clone(), SparseMode::ForceDense);
        let sparse = PresenceColumn::from_bitvec(bits.clone(), SparseMode::ForceSparse);
        let auto = PresenceColumn::from_bitvec(bits.clone(), SparseMode::Auto);
        let width = stored_width(&bits);
        for col in [&dense, &sparse, &auto] {
            prop_assert_eq!(col.check_invariants(), Ok(()));
            prop_assert_eq!(col.len(), width);
            prop_assert_eq!(col.count_ones(), bits.count_ones());
            prop_assert_eq!(&col.to_bitvec(), &trimmed(&bits));
            prop_assert_eq!(col.iter_ones().collect::<Vec<_>>(), bits.iter_ones().collect::<Vec<_>>());
            for i in [0, bits.len() / 2, bits.len() - 1] {
                prop_assert_eq!(col.get(i), bits.get(i));
            }
        }
        prop_assert!(!dense.is_sparse());
        prop_assert!(sparse.is_sparse());
        // the auto pick is by the documented density rule on the stored
        // width, never by luck
        prop_assert_eq!(auto.is_sparse(), bits.count_ones() * 64 <= width);
    }

    /// Every in-place fold of the op surface produces bit-identical output
    /// (with clean invariants) whichever representation the column uses,
    /// and matches naive `BitVec` algebra at the width the fold takes: the
    /// column's stored width for a copy, the hull for an OR and the
    /// intersection for an AND.
    #[test]
    fn presence_column_folds_match_dense((bits, a) in column_case()) {
        let dense = PresenceColumn::from_bitvec(bits.clone(), SparseMode::ForceDense);
        let sparse = PresenceColumn::from_bitvec(bits.clone(), SparseMode::ForceSparse);
        type Fold = fn(&PresenceColumn, &mut BitVec);
        let folds: [(&str, Fold); 3] = [
            ("copy_into", |c, out| c.copy_into(out)),
            ("or_into", |c, out| c.or_into(out)),
            ("and_assign_into", |c, out| c.and_assign_into(out)),
        ];
        for (name, f) in folds {
            // seed the output/accumulator with `a` so accumulator folds
            // (or_into / and_assign_into) start from a meaningful state
            let mut from_dense = a.clone();
            let mut from_sparse = a.clone();
            f(&dense, &mut from_dense);
            f(&sparse, &mut from_sparse);
            prop_assert_eq!(&from_dense, &from_sparse, "fold {} diverged", name);
            prop_assert_eq!(from_sparse.check_invariants(), Ok(()));
            let expect: BitVec = match name {
                "copy_into" => trimmed(&bits),
                "or_into" => a.or(&bits),
                "and_assign_into" => {
                    let width = a.len().min(stored_width(&bits));
                    BitVec::from_indices(width, a.and(&bits).iter_ones())
                }
                _ => unreachable!(),
            };
            prop_assert_eq!(&from_sparse, &expect, "fold {} wrong", name);
        }
    }

    /// The column × column intersection count returns the same value
    /// whichever representation either column uses, and matches a naive
    /// per-bit count.
    #[test]
    fn presence_column_counts_match_naive((bits, a) in column_case()) {
        let dense = PresenceColumn::from_bitvec(bits.clone(), SparseMode::ForceDense);
        let sparse = PresenceColumn::from_bitvec(bits.clone(), SparseMode::ForceSparse);
        let other_dense = PresenceColumn::from_bitvec(a.clone(), SparseMode::ForceDense);
        let other_sparse = PresenceColumn::from_bitvec(a.clone(), SparseMode::ForceSparse);
        let expect = (0..bits.len()).filter(|&i| bits.get(i) && a.get(i)).count();
        for x in [&dense, &sparse] {
            for y in [&other_dense, &other_sparse] {
                prop_assert_eq!(x.count_ones_and(y), expect);
            }
        }
    }

    /// Folds and counts across columns of unequal stored widths, in every
    /// layout: a chain that copies the first column, then ORs and ANDs the
    /// others in turn (growing past a column's end and shrinking below
    /// it), matches the same algebra on the columns zero-extended to one
    /// width, bit for bit and in the width it takes; and a column's count
    /// against another's bits, as a column or as a packed vector.
    #[test]
    fn presence_column_folds_across_stored_widths(cols in uneven_columns()) {
        let wide = cols.iter().map(BitVec::len).max().unwrap_or(0);
        let extended = |bits: &BitVec| BitVec::from_indices(wide, bits.iter_ones());
        for mode in [SparseMode::ForceDense, SparseMode::ForceSparse, SparseMode::Auto] {
            let built: Vec<PresenceColumn> =
                cols.iter().map(|c| PresenceColumn::from_bitvec(c.clone(), mode)).collect();
            for (op, and) in [("or", false), ("and", true)] {
                let mut acc = BitVec::zeros(wide);
                built[0].copy_into(&mut acc);
                let (mut want, mut width) = (extended(&cols[0]), stored_width(&cols[0]));
                for (col, bits) in built.iter().zip(&cols).skip(1) {
                    if and {
                        col.and_assign_into(&mut acc);
                        want.and_assign(&extended(bits));
                        width = width.min(col.len());
                    } else {
                        col.or_into(&mut acc);
                        want.or_assign(&extended(bits));
                        width = width.max(col.len());
                    }
                    prop_assert_eq!(acc.check_invariants(), Ok(()));
                    prop_assert_eq!(acc.len(), width, "{} width under {:?}", op, mode);
                    prop_assert!(acc.iter_ones().eq(want.iter_ones()), "{} bits under {:?}", op, mode);
                }
            }
            for (a, x) in built.iter().zip(&cols) {
                for (b, y) in built.iter().zip(&cols) {
                    let naive = extended(x).count_ones_and(&extended(y));
                    prop_assert_eq!(a.count_ones_and(b), naive);
                    // against a packed vector at its own width
                    prop_assert_eq!(a.count_ones_and_bits(y), naive);
                }
            }
        }
    }

    #[test]
    fn iter_ones_roundtrips(v in bitvec_strategy(200)) {
        let rebuilt = BitVec::from_indices(v.len(), v.iter_ones());
        prop_assert_eq!(&rebuilt, &v);
        prop_assert_eq!(v.iter_ones().count(), v.count_ones());
    }

    #[test]
    fn and_or_de_morgan_style((a, b) in bitvec_pair(200)) {
        // |a ∪ b| + |a ∩ b| = |a| + |b|
        prop_assert_eq!(
            a.or(&b).count_ones() + a.and(&b).count_ones(),
            a.count_ones() + b.count_ones()
        );
        // intersects ⟺ non-empty and
        prop_assert_eq!(a.intersects(&b), !a.and(&b).is_zero());
        // contains_all ⟺ and == b
        prop_assert_eq!(a.contains_all(&b), a.and(&b) == b);
    }

    #[test]
    fn first_last_consistent(v in bitvec_strategy(200)) {
        match (v.first_one(), v.last_one()) {
            (Some(f), Some(l)) => {
                prop_assert!(f <= l);
                prop_assert!(v.get(f) && v.get(l));
            }
            (None, None) => prop_assert!(v.is_zero()),
            _ => prop_assert!(false, "first/last disagree"),
        }
    }

    /// Every `BitVec` operation preserves `check_invariants`: tail-word
    /// hygiene must hold by construction, not by luck — a dirty tail would
    /// silently corrupt every popcount-based kernel downstream.
    #[test]
    fn bitvec_ops_preserve_invariants((a, b) in bitvec_pair(200)) {
        prop_assert_eq!(a.check_invariants(), Ok(()));
        prop_assert_eq!(b.check_invariants(), Ok(()));
        let n = a.len();
        prop_assert_eq!(BitVec::zeros(n).check_invariants(), Ok(()));
        prop_assert_eq!(BitVec::ones(n).check_invariants(), Ok(()));
        prop_assert_eq!(a.and(&b).check_invariants(), Ok(()));
        prop_assert_eq!(a.or(&b).check_invariants(), Ok(()));

        let mut c = a.clone();
        c.and_assign(&b);
        prop_assert_eq!(c.check_invariants(), Ok(()));
        c.or_assign(&b);
        prop_assert_eq!(c.check_invariants(), Ok(()));

        // a word writer that sets the bits past `len()` leaves them clear
        let mut out = BitVec::zeros(n);
        out.set_words(n, a.words().iter().map(|&w| !w));
        prop_assert_eq!(out.check_invariants(), Ok(()));
        prop_assert_eq!(out.count_ones(), n - a.count_ones());
        out.set_words(n, std::iter::repeat(u64::MAX));
        prop_assert_eq!(&out, &BitVec::ones(n));

        c.clear_all();
        prop_assert_eq!(c.check_invariants(), Ok(()));
        if n > 0 {
            c.set(n - 1, true);
            prop_assert_eq!(c.check_invariants(), Ok(()));
        }
    }

    /// A column list built under one layout and re-laid out under each
    /// other keeps its structural invariants and reads back the cells it
    /// was built from, each column stored up to the word of its last set
    /// bit.
    #[test]
    fn presence_columns_relayout_keeps_cells(
        cols in proptest::collection::vec(proptest::collection::vec(any::<bool>(), 0..70), 1..6),
    ) {
        let rows = cols.iter().map(Vec::len).max().unwrap_or(0);
        let mut built = PresenceColumns::new(rows);
        for c in &cols {
            built.push_col(PresenceColumn::from_bitvec(BitVec::from_bools(c), SparseMode::Auto));
        }
        for mode in [SparseMode::ForceDense, SparseMode::ForceSparse, SparseMode::Auto] {
            let t = built.transposed_with(mode);
            prop_assert_eq!(t.check_invariants(), Ok(()));
            prop_assert_eq!(&t, &built);
            for (c, bits) in cols.iter().enumerate() {
                prop_assert_eq!(t.col(c).len(), stored_width(&BitVec::from_bools(bits)));
                for r in 0..rows {
                    prop_assert_eq!(t.col(c).get(r), bits.get(r).copied().unwrap_or(false));
                }
            }
        }
    }

    #[test]
    fn tsv_roundtrip(
        rows in proptest::collection::vec((any::<i64>(), proptest::option::of(0i64..50)), 0..30),
    ) {
        let mut f = Frame::new(vec!["a", "b"]).unwrap();
        for (a, b) in &rows {
            f.push_row(vec![
                Value::Int(*a),
                b.map(Value::Int).unwrap_or(Value::Null),
            ])
            .unwrap();
        }
        let mut buf = Vec::new();
        write_frame(&f, &mut buf, '\t').unwrap();
        let g = read_frame(Cursor::new(buf), '\t').unwrap();
        prop_assert_eq!(f, g);
    }
}
