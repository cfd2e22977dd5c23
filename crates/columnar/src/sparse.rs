//! Hybrid dense/sparse presence columns, and the per-time-point column list
//! that is a graph's presence.
//!
//! A presence column ("which entities exist at time point `t`") is often extremely sparse on large graphs: a 1M-node graph stores each
//! column as 15 625 packed words even when only a few hundred nodes are
//! alive. [`PresenceColumn`] keeps the dense [`BitVec`] layout for columns
//! where word-parallel folds win, and switches to a sorted-ID list when the
//! column holds fewer set bits than the dense form holds *words* — at that
//! point walking the IDs touches strictly less memory than reading the
//! words. The op surface mirrors the dense accumulator kernels used by the
//! chain-incremental cursor, so callers fold either representation into a
//! dense accumulator without branching at every word.
//!
//! Columns are **zero-extended**: a column may be *shorter* than the dense
//! operands it folds into, in which case its missing suffix reads as all
//! zeros. This is what lets a versioned snapshot carry a time point's
//! column forward unchanged while the entity space keeps growing —
//! entities created after the column's epoch are absent at it by
//! construction. Dense operands of one call must still agree with each
//! other exactly; only the column itself may be short.

use std::sync::Arc;

use crate::bitset::{kernels, word_ones, BitVec};

/// Number of bits per storage word (kept in sync with `bitset`).
const WORD_BITS: usize = 64;

/// Representation policy for presence columns built by
/// [`PresenceColumn::from_bitvec`] (and re-laid out by
/// [`PresenceColumns::transposed_with`]).
///
/// The policy is always an explicit parameter, and everything the program
/// serves runs under [`SparseMode::Auto`]: no option, environment variable
/// or command selects another. The forced modes exist so tests can drive
/// every kernel through both representations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SparseMode {
    /// Pick per column: sparse iff the column has fewer set bits than the
    /// dense form has words (`nnz * 64 <= nbits`).
    #[default]
    Auto,
    /// Every column stays dense (the pre-hybrid layout).
    ForceDense,
    /// Every column goes sparse regardless of density (worst-case probe of
    /// the sparse kernels).
    ForceSparse,
}

/// Widest bit-space a sparse column can address with `u32` entity IDs.
const SPARSE_MAX_BITS: usize = u32::MAX as usize + 1;

/// Asserts the column fits inside a dense operand (shorter columns are
/// legal and read as zero-extended).
#[inline]
fn check_col_width(col: usize, operand: usize) {
    assert!(
        col <= operand,
        "presence column wider than operand: {col} vs {operand}"
    );
}

/// Asserts two dense operands of one call agree exactly.
#[inline]
fn check_same_width(a: usize, b: usize) {
    assert_eq!(a, b, "bit vector width mismatch: {a} vs {b}");
}

/// Whether a column goes sparse: the `mode` policy, vetoed for columns
/// wider than the `u32` ID range.
fn choose_representation(nbits: usize, nnz: usize, mode: SparseMode) -> bool {
    let want_sparse = match mode {
        SparseMode::ForceDense => false,
        SparseMode::ForceSparse => true,
        SparseMode::Auto => nnz * WORD_BITS <= nbits,
    };
    want_sparse && nbits <= SPARSE_MAX_BITS
}

/// Sorted strictly-increasing entity IDs of the set bits of one column.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SparseIds {
    nbits: usize,
    ids: Vec<u32>,
}

/// One presence column in either representation.
///
/// Equality is structural: a dense and a sparse column holding the same
/// bits compare *unequal*. Compare contents via
/// [`PresenceColumn::to_bitvec`] or the op surface when representation
/// independence is needed.
#[must_use = "a column built and dropped is a lost result"]
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PresenceColumn {
    /// Packed-word representation; ops are word-parallel folds.
    Dense(BitVec),
    /// Sorted-ID representation; ops walk the IDs and probe bitmap words.
    Sparse(SparseIds),
}

impl PresenceColumn {
    /// Wraps a [`BitVec`] choosing the representation per `mode`.
    ///
    /// Columns wider than the `u32` ID range can never go sparse: the
    /// policy is overridden to dense instead of failing the build.
    pub fn from_bitvec(bv: BitVec, mode: SparseMode) -> Self {
        if choose_representation(bv.len(), bv.count_ones(), mode) {
            let ids: Vec<u32> = bv.iter_ones().map(|i| i as u32).collect();
            PresenceColumn::Sparse(SparseIds {
                nbits: bv.len(),
                ids,
            })
        } else {
            PresenceColumn::Dense(bv)
        }
    }

    /// Width of the column in bits (the entity rows it spans).
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            PresenceColumn::Dense(bv) => bv.len(),
            PresenceColumn::Sparse(s) => s.nbits,
        }
    }

    /// True if the column has zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True if this column uses the sorted-ID representation.
    #[inline]
    pub fn is_sparse(&self) -> bool {
        matches!(self, PresenceColumn::Sparse(_))
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        match self {
            PresenceColumn::Dense(bv) => bv.count_ones(),
            PresenceColumn::Sparse(s) => s.ids.len(),
        }
    }

    /// Reads bit `i`; positions at or beyond `len()` read as zero (the
    /// zero-extension contract — an entity created after this column's
    /// epoch is absent at its time point).
    pub fn get(&self, i: usize) -> bool {
        match self {
            PresenceColumn::Dense(bv) => i < bv.len() && bv.get(i),
            PresenceColumn::Sparse(s) => i < s.nbits && s.ids.binary_search(&(i as u32)).is_ok(),
        }
    }

    /// True if both columns hold the same set of bits, ignoring stored
    /// width (zero-extension) and representation. This is the equality an
    /// appended epoch's columns satisfy against a from-scratch build.
    pub fn bits_eq(&self, other: &PresenceColumn) -> bool {
        self.iter_ones().eq(other.iter_ones())
    }

    /// Iterates positions of set bits in increasing order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        let (dense, sparse) = match self {
            PresenceColumn::Dense(bv) => (Some(bv), None),
            PresenceColumn::Sparse(s) => (None, Some(s)),
        };
        dense.into_iter().flat_map(BitVec::iter_ones).chain(
            sparse
                .into_iter()
                .flat_map(|s| s.ids.iter().map(|&i| i as usize)),
        )
    }

    /// Iterates positions of set bits of `col & other` in increasing order,
    /// nothing materialized: word by word for a dense column, one bitmap
    /// probe per ID for a sparse one.
    ///
    /// # Panics
    /// Panics if the column is wider than `other`.
    pub fn iter_ones_and<'a>(&'a self, other: &'a BitVec) -> impl Iterator<Item = usize> + 'a {
        check_col_width(self.len(), other.len());
        let (dense, sparse) = match self {
            PresenceColumn::Dense(bv) => (Some(bv), None),
            PresenceColumn::Sparse(s) => (None, Some(s)),
        };
        let words = dense
            .into_iter()
            .flat_map(|bv| bv.words().iter().zip(other.words()));
        let dense_ones = words
            .enumerate()
            .flat_map(|(wi, (&a, &b))| word_ones(a & b).map(move |bit| wi * WORD_BITS + bit));
        let ids = sparse
            .into_iter()
            .flat_map(|s| s.ids.iter().map(|&i| i as usize));
        dense_ones.chain(ids.filter(|&i| other.get(i)))
    }

    /// A reader of the column's 64-entity words, asked for in non-decreasing
    /// word order ([`BlockWords::word`]): a dense column reads its word `b`,
    /// and zero past `len()` (zero-extension); a sparse one advances a
    /// cursor through its IDs, so one pass over the words costs O(nnz).
    pub fn block_words(&self) -> BlockWords<'_> {
        match self {
            PresenceColumn::Dense(bv) => BlockWords {
                words: bv.words(),
                ids: &[],
            },
            PresenceColumn::Sparse(s) => BlockWords {
                words: &[],
                ids: &s.ids,
            },
        }
    }

    /// Materializes the column as a dense [`BitVec`] (tests and one-off
    /// conversions; hot paths use the `*_into` ops instead).
    pub fn to_bitvec(&self) -> BitVec {
        match self {
            PresenceColumn::Dense(bv) => bv.clone(),
            PresenceColumn::Sparse(s) => {
                BitVec::from_indices(s.nbits, s.ids.iter().map(|&i| i as usize))
            }
        }
    }

    /// Validates the representation invariants: a dense column satisfies
    /// [`BitVec::check_invariants`]; a sparse column's IDs are strictly
    /// increasing and all below `len()` (the galloping intersection and
    /// every word-walk kernel assume sorted unique in-range IDs).
    ///
    /// # Errors
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        match self {
            PresenceColumn::Dense(bv) => bv.check_invariants(),
            PresenceColumn::Sparse(s) => {
                for w in s.ids.windows(2) {
                    if w[0] >= w[1] {
                        return Err(format!(
                            "sparse column IDs not strictly increasing: {} then {}",
                            w[0], w[1]
                        ));
                    }
                }
                if let Some(&last) = s.ids.last() {
                    if last as usize >= s.nbits {
                        return Err(format!("sparse column ID {last} out of range {}", s.nbits));
                    }
                }
                Ok(())
            }
        }
    }

    /// Overwrites `out` with this column's bits (`out = col`), zeroing any
    /// suffix of `out` beyond the column's stored width.
    ///
    /// # Panics
    /// Panics if the column is wider than `out`.
    pub fn copy_into(&self, out: &mut BitVec) {
        match self {
            PresenceColumn::Dense(bv) => {
                check_col_width(bv.len(), out.len());
                let wl = bv.words().len();
                let words = out.words_mut();
                words[..wl].copy_from_slice(bv.words());
                words[wl..].fill(0);
            }
            PresenceColumn::Sparse(s) => {
                s.check_width(out);
                out.clear_all();
                let words = out.words_mut();
                for &id in &s.ids {
                    words[id as usize / WORD_BITS] |= 1u64 << (id as usize % WORD_BITS);
                }
            }
        }
    }

    /// `acc |= col`, the cursor's union-extension fold.
    ///
    /// # Panics
    /// Panics if the column is wider than `acc`.
    pub fn or_into(&self, acc: &mut BitVec) {
        match self {
            PresenceColumn::Dense(bv) => {
                check_col_width(bv.len(), acc.len());
                let wl = bv.words().len();
                kernels::or_assign(bv.words(), &mut acc.words_mut()[..wl]);
            }
            PresenceColumn::Sparse(s) => {
                s.check_width(acc);
                let words = acc.words_mut();
                for &id in &s.ids {
                    words[id as usize / WORD_BITS] |= 1u64 << (id as usize % WORD_BITS);
                }
            }
        }
    }

    /// `acc &= col`, the cursor's intersection-extension fold. The sparse
    /// path zeroes the gaps between occupied words with slice fills
    /// (memset-speed) and masks only the words the ID list touches, so the
    /// traffic is one write stream plus O(nnz) — less than the dense
    /// two-read-one-write AND, not just competitive with it.
    ///
    /// # Panics
    /// Panics if the column is wider than `acc`.
    pub fn and_assign_into(&self, acc: &mut BitVec) {
        match self {
            PresenceColumn::Dense(bv) => {
                check_col_width(bv.len(), acc.len());
                let wl = bv.words().len();
                let words = acc.words_mut();
                kernels::and_assign(bv.words(), &mut words[..wl]);
                // zero-extension: the column is all-zero past its width
                words[wl..].fill(0);
            }
            PresenceColumn::Sparse(s) => {
                s.check_width(acc);
                let words = acc.words_mut();
                let mut next = 0usize; // first word not yet finalized
                let mut p = 0usize;
                while p < s.ids.len() {
                    let w = s.ids[p] as usize / WORD_BITS;
                    let mut mask = 0u64;
                    while p < s.ids.len() && s.ids[p] as usize / WORD_BITS == w {
                        mask |= 1u64 << (s.ids[p] as usize % WORD_BITS);
                        p += 1;
                    }
                    words[next..w].fill(0);
                    words[w] &= mask;
                    next = w + 1;
                }
                words[next..].fill(0);
            }
        }
    }

    /// `out = col & other`.
    ///
    /// # Panics
    /// Panics if the column is wider than the operands, or `other` and
    /// `out` disagree in width.
    pub fn and_into(&self, other: &BitVec, out: &mut BitVec) {
        check_same_width(other.len(), out.len());
        match self {
            PresenceColumn::Dense(bv) => {
                check_col_width(bv.len(), other.len());
                let wl = bv.words().len();
                kernels::and_into(bv.words(), &other.words()[..wl], &mut out.words_mut()[..wl]);
                out.words_mut()[wl..].fill(0);
            }
            PresenceColumn::Sparse(s) => {
                s.check_width(other);
                out.clear_all();
                let ow = other.words();
                let dst = out.words_mut();
                for &id in &s.ids {
                    let (w, b) = (id as usize / WORD_BITS, id as usize % WORD_BITS);
                    dst[w] |= ow[w] & (1u64 << b);
                }
            }
        }
    }

    /// `out = col & !other`.
    ///
    /// # Panics
    /// Panics if the column is wider than the operands, or `other` and
    /// `out` disagree in width.
    pub fn and_not_into(&self, other: &BitVec, out: &mut BitVec) {
        check_same_width(other.len(), out.len());
        match self {
            PresenceColumn::Dense(bv) => {
                check_col_width(bv.len(), other.len());
                let wl = bv.words().len();
                kernels::and_not_into(bv.words(), &other.words()[..wl], &mut out.words_mut()[..wl]);
                out.words_mut()[wl..].fill(0);
            }
            PresenceColumn::Sparse(s) => {
                s.check_width(other);
                out.clear_all();
                let ow = other.words();
                let dst = out.words_mut();
                for &id in &s.ids {
                    let (w, b) = (id as usize / WORD_BITS, id as usize % WORD_BITS);
                    dst[w] |= !ow[w] & (1u64 << b);
                }
            }
        }
    }

    /// `out = other & !col` (the column as the *subtrahend*; difference
    /// events need both orders). Bits of `other` past the column's stored
    /// width survive untouched (the column is zero there).
    ///
    /// # Panics
    /// Panics if the column is wider than the operands, or `other` and
    /// `out` disagree in width.
    pub fn and_not_from(&self, other: &BitVec, out: &mut BitVec) {
        check_same_width(other.len(), out.len());
        match self {
            PresenceColumn::Dense(bv) => {
                check_col_width(bv.len(), other.len());
                out.copy_from(other);
                let wl = bv.words().len();
                kernels::and_not_assign(bv.words(), &mut out.words_mut()[..wl]);
            }
            PresenceColumn::Sparse(s) => {
                s.check_width(other);
                out.copy_from(other);
                let dst = out.words_mut();
                for &id in &s.ids {
                    dst[id as usize / WORD_BITS] &= !(1u64 << (id as usize % WORD_BITS));
                }
            }
        }
    }

    /// `acc |= col & other`, the fused incident-endpoint fix-up fold.
    ///
    /// # Panics
    /// Panics if the column is wider than the operands, or `other` and
    /// `acc` disagree in width.
    pub fn or_and_into(&self, other: &BitVec, acc: &mut BitVec) {
        check_same_width(other.len(), acc.len());
        match self {
            PresenceColumn::Dense(bv) => {
                check_col_width(bv.len(), other.len());
                let wl = bv.words().len();
                kernels::or_and_into(bv.words(), &other.words()[..wl], &mut acc.words_mut()[..wl]);
            }
            PresenceColumn::Sparse(s) => {
                s.check_width(other);
                let ow = other.words();
                let dst = acc.words_mut();
                for &id in &s.ids {
                    let (w, b) = (id as usize / WORD_BITS, id as usize % WORD_BITS);
                    dst[w] |= ow[w] & (1u64 << b);
                }
            }
        }
    }

    /// `popcount(col & other)` between two columns: word-parallel for
    /// dense×dense, a bitmap probe per ID when exactly one side is sparse,
    /// and a galloping sorted-list intersection for sparse×sparse.
    ///
    /// The columns may differ in stored width (zero-extension): the
    /// intersection lives entirely in the common prefix.
    pub fn count_ones_and(&self, other: &PresenceColumn) -> usize {
        match (self, other) {
            (PresenceColumn::Sparse(a), PresenceColumn::Sparse(b)) => {
                if a.ids.len() <= b.ids.len() {
                    galloping_intersect_count(&a.ids, &b.ids)
                } else {
                    galloping_intersect_count(&b.ids, &a.ids)
                }
            }
            (PresenceColumn::Sparse(a), PresenceColumn::Dense(bv))
            | (PresenceColumn::Dense(bv), PresenceColumn::Sparse(a)) => {
                sparse_dense_intersect_count(&a.ids, bv)
            }
            (PresenceColumn::Dense(a), PresenceColumn::Dense(b)) => {
                let n = a.words().len().min(b.words().len());
                // the shorter side's clean tail masks the longer side's
                // partial boundary word
                kernels::count_ones_and(&a.words()[..n], &b.words()[..n])
            }
        }
    }
}

/// The presence array of one side of a graph (the paper's **V** or **E**):
/// one [`PresenceColumn`] over the entity rows per time point.
///
/// A column answers "which entities exist at time point `t`?" as one
/// vector, the layout every read folds with `acc |= col[t]` /
/// `acc &= col[t]` in O(rows/64) words per point (or O(nnz) when the column
/// chose the sparse representation).
///
/// Columns are individually `Arc`-shared, so cloning the list for a new
/// epoch copies only its spine; appending a time point is
/// [`grow_rows`](Self::grow_rows) + [`push_col`](Self::push_col), with every
/// prior column left physically shared and read as zero-extended up to the
/// new `source_rows` (an entity created after a column's time point is
/// absent at it by construction).
#[must_use = "a column list built and dropped is a lost result"]
#[derive(Clone, Debug)]
pub struct PresenceColumns {
    source_rows: usize,
    cols: Vec<Arc<PresenceColumn>>,
}

impl PartialEq for PresenceColumns {
    fn eq(&self, other: &Self) -> bool {
        // semantic equality under zero-extension: carried-forward columns
        // may be stored shorter than freshly built ones
        self.source_rows == other.source_rows
            && self.cols.len() == other.cols.len()
            && self
                .cols
                .iter()
                .zip(&other.cols)
                .all(|(a, b)| Arc::ptr_eq(a, b) || a.bits_eq(b))
    }
}

impl Eq for PresenceColumns {}

impl PresenceColumns {
    /// An empty list (no time points) over `source_rows` entity rows.
    pub fn new(source_rows: usize) -> Self {
        PresenceColumns {
            source_rows,
            cols: Vec::new(),
        }
    }

    /// Number of columns (time points).
    #[inline]
    pub fn n_cols(&self) -> usize {
        self.cols.len()
    }

    /// Number of entity rows. Columns may be stored shorter
    /// (zero-extended): a column appended at an earlier epoch spans only
    /// the entities that existed then.
    #[inline]
    pub fn source_rows(&self) -> usize {
        self.source_rows
    }

    /// The presence column of time point `c`.
    ///
    /// # Panics
    /// Panics if `c` is out of range.
    #[inline]
    pub fn col(&self, c: usize) -> &PresenceColumn {
        self.cols[c].as_ref()
    }

    /// Number of columns stored in the sparse sorted-ID representation.
    #[must_use]
    pub fn n_sparse_cols(&self) -> usize {
        self.cols.iter().filter(|c| c.is_sparse()).count()
    }

    /// Number of columns stored in the dense packed-word representation.
    #[must_use]
    pub fn n_dense_cols(&self) -> usize {
        self.cols.len() - self.n_sparse_cols()
    }

    /// Appends one column (a freshly appended time point). The column
    /// picks its own dense/sparse representation upstream
    /// ([`PresenceColumn::from_bitvec`]); prior columns are untouched and
    /// stay `Arc`-shared with earlier epochs.
    ///
    /// # Panics
    /// Panics if the column spans more bits than `source_rows`.
    pub fn push_col(&mut self, col: PresenceColumn) {
        assert!(
            col.len() <= self.source_rows,
            "pushed column spans {} bits, more than source_rows {}",
            col.len(),
            self.source_rows
        );
        self.cols.push(Arc::new(col));
    }

    /// Declares a larger row span (entities appended since the columns were
    /// built). Existing columns keep their stored width and are read as
    /// zero-extended: a new entity is absent at every old time point.
    ///
    /// # Panics
    /// Panics if `rows` is smaller than the current span.
    pub fn grow_rows(&mut self, rows: usize) {
        assert!(
            rows >= self.source_rows,
            "grow_rows cannot shrink: {} -> {rows}",
            self.source_rows
        );
        self.source_rows = rows;
    }

    /// Count of columns physically shared (same allocation) with `other`: a
    /// test/bench hook for asserting that an append shares the prior
    /// columns instead of copying them.
    pub fn shared_cols(&self, other: &PresenceColumns) -> usize {
        self.cols
            .iter()
            .zip(&other.cols)
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count()
    }

    /// The same columns re-laid out under `mode`, each at its stored width:
    /// what `TemporalGraph::set_sparse_mode` does to a graph's presence.
    ///
    /// Nothing is transposed; the name stays because
    /// `benchmark/src/layers.rs:496` calls this method by it.
    pub fn transposed_with(&self, mode: SparseMode) -> PresenceColumns {
        PresenceColumns {
            source_rows: self.source_rows,
            cols: (self.cols.iter())
                .map(|c| Arc::new(PresenceColumn::from_bitvec(c.to_bitvec(), mode)))
                .collect(),
        }
    }

    /// Validates the structural invariants: every column spans at most
    /// `source_rows` bits (shorter columns are zero-extended) and
    /// satisfies [`PresenceColumn::check_invariants`].
    ///
    /// # Errors
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (c, col) in self.cols.iter().enumerate() {
            if col.len() > self.source_rows {
                return Err(format!(
                    "presence column {c} spans {} bits, more than source_rows {}",
                    col.len(),
                    self.source_rows
                ));
            }
            col.check_invariants()
                .map_err(|e| format!("presence column {c}: {e}"))?;
        }
        Ok(())
    }
}

/// Probe count of sorted IDs against a dense bitmap that may be *shorter*
/// than the ID space: IDs past the bitmap's storage cannot intersect
/// (zero-extension) and terminate the scan early since the list is sorted.
fn sparse_dense_intersect_count(ids: &[u32], bv: &BitVec) -> usize {
    let ow = bv.words();
    let mut count = 0usize;
    for &id in ids {
        let (w, b) = (id as usize / WORD_BITS, id as usize % WORD_BITS);
        match ow.get(w) {
            Some(&x) => count += ((x >> b) & 1) as usize,
            None => break,
        }
    }
    count
}

/// The word reader of [`PresenceColumn::block_words`]: one of its two
/// slices is empty, so neither representation branches per word.
#[derive(Debug)]
pub struct BlockWords<'a> {
    /// A dense column's words.
    words: &'a [u64],
    /// A sparse column's IDs not yet passed.
    ids: &'a [u32],
}

impl BlockWords<'_> {
    /// Word `b` of the column: bit `i` is entity `64·b + i`.
    ///
    /// A sparse column reads correctly only while `b` does not decrease
    /// from one call to the next: the IDs below word `b` are passed for good.
    #[inline]
    pub fn word(&mut self, b: usize) -> u64 {
        let start = b * WORD_BITS;
        while self.ids.first().is_some_and(|&id| (id as usize) < start) {
            self.ids = &self.ids[1..];
        }
        let mut w = self.words.get(b).copied().unwrap_or(0);
        for &id in self.ids {
            let i = id as usize - start;
            if i >= WORD_BITS {
                break;
            }
            w |= 1 << i;
        }
        w
    }
}

impl SparseIds {
    /// Sparse columns only require the operand to cover the ID space
    /// (zero-extension lets the column be shorter than the operand; every
    /// stored ID is below `nbits`, hence in range for the operand too).
    #[inline]
    fn check_width(&self, other: &BitVec) {
        check_col_width(self.nbits, other.len());
    }
}

/// Counts common elements of two sorted strictly-increasing ID lists,
/// iterating the smaller list and galloping (exponential probe + binary
/// search) through the remaining suffix of the larger — O(s·log(l/s)),
/// which beats a linear merge whenever the sizes are lopsided.
fn galloping_intersect_count(small: &[u32], mut large: &[u32]) -> usize {
    let mut count = 0usize;
    for &x in small {
        if large.is_empty() {
            break;
        }
        let mut step = 1usize;
        while step < large.len() && large[step - 1] < x {
            step <<= 1;
        }
        let lo = step >> 1;
        let hi = step.min(large.len());
        match large[lo..hi].binary_search(&x) {
            Ok(i) => {
                count += 1;
                large = &large[lo + i + 1..];
            }
            Err(i) => {
                large = &large[lo + i..];
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sparse(nbits: usize, ids: &[usize]) -> PresenceColumn {
        PresenceColumn::from_bitvec(
            BitVec::from_indices(nbits, ids.iter().copied()),
            SparseMode::ForceSparse,
        )
    }

    fn dense(nbits: usize, ids: &[usize]) -> PresenceColumn {
        PresenceColumn::from_bitvec(
            BitVec::from_indices(nbits, ids.iter().copied()),
            SparseMode::ForceDense,
        )
    }

    #[test]
    fn auto_threshold_picks_by_density() {
        // 128 bits = 2 words: sparse iff nnz <= 2
        let lo = PresenceColumn::from_bitvec(BitVec::from_indices(128, [5, 99]), SparseMode::Auto);
        assert!(lo.is_sparse());
        let hi =
            PresenceColumn::from_bitvec(BitVec::from_indices(128, [5, 9, 99]), SparseMode::Auto);
        assert!(!hi.is_sparse());
    }

    // Boundary check on the pure chooser: exercising the veto through
    // `from_bitvec` would need a 512 MiB allocation.
    #[test]
    fn u32_overflow_vetoes_sparse_without_panicking() {
        // exactly at the limit: the policy is honored
        assert!(choose_representation(
            SPARSE_MAX_BITS,
            0,
            SparseMode::ForceSparse
        ));
        // one past the limit: sparse is vetoed, never chosen
        for mode in [
            SparseMode::ForceSparse,
            SparseMode::Auto,
            SparseMode::ForceDense,
        ] {
            assert!(!choose_representation(SPARSE_MAX_BITS + 1, 0, mode));
        }
    }

    #[test]
    fn basic_accessors_agree_across_representations() {
        let ids = [0usize, 5, 63, 64, 65, 129];
        let s = sparse(130, &ids);
        let d = dense(130, &ids);
        assert_eq!(s.len(), d.len());
        assert_eq!(s.count_ones(), d.count_ones());
        for i in 0..130 {
            assert_eq!(s.get(i), d.get(i), "bit {i}");
        }
        assert_eq!(
            s.iter_ones().collect::<Vec<_>>(),
            d.iter_ones().collect::<Vec<_>>()
        );
        assert_eq!(s.to_bitvec(), d.to_bitvec());
        assert_eq!(s.check_invariants(), Ok(()));
        assert_eq!(d.check_invariants(), Ok(()));
    }

    /// Both layouts read the same words, skipped words included; a column
    /// shorter than the entity space reads zero past its end.
    #[test]
    fn block_words_read_both_layouts_alike() {
        let ids = [0usize, 5, 63, 64, 65, 129, 200];
        let want = |b: usize| {
            let bits = ids.iter().filter(|&&i| i / 64 == b);
            bits.fold(0u64, |w, &i| w | 1 << (i % 64))
        };
        for c in [sparse(201, &ids), dense(201, &ids)] {
            let mut all = c.block_words();
            assert_eq!(
                (0..6).map(|b| all.word(b)).collect::<Vec<_>>(),
                (0..6).map(want).collect::<Vec<_>>()
            );
            // words 1 and 2 skipped, word 3 asked twice
            let mut some = c.block_words();
            for b in [0, 3, 3, 5] {
                assert_eq!(some.word(b), want(b), "word {b} of {c:?}");
            }
        }
    }

    #[test]
    fn fold_ops_match_dense_oracle() {
        let col_ids = [1usize, 63, 64, 100];
        let other = BitVec::from_indices(130, [1, 64, 99, 129]);
        let s = sparse(130, &col_ids);
        let d = dense(130, &col_ids);
        let mut so = BitVec::zeros(130);
        let mut dd = BitVec::zeros(130);

        for (name, op) in [
            (
                "copy_into",
                (|c: &PresenceColumn, _o: &BitVec, out: &mut BitVec| c.copy_into(out))
                    as fn(&PresenceColumn, &BitVec, &mut BitVec),
            ),
            ("and_into", |c, o, out| c.and_into(o, out)),
            ("and_not_into", |c, o, out| c.and_not_into(o, out)),
            ("and_not_from", |c, o, out| c.and_not_from(o, out)),
        ] {
            so.clear_all();
            dd.clear_all();
            op(&s, &other, &mut so);
            op(&d, &other, &mut dd);
            assert_eq!(so, dd, "{name}");
        }

        // accumulating ops start from a non-trivial accumulator
        let acc0 = BitVec::from_indices(130, [2, 63, 128]);
        for (name, op) in [
            (
                "or_into",
                (|c: &PresenceColumn, _o: &BitVec, acc: &mut BitVec| c.or_into(acc))
                    as fn(&PresenceColumn, &BitVec, &mut BitVec),
            ),
            ("and_assign_into", |c, _o, acc| c.and_assign_into(acc)),
            ("or_and_into", |c, o, acc| c.or_and_into(o, acc)),
        ] {
            so.copy_from(&acc0);
            dd.copy_from(&acc0);
            op(&s, &other, &mut so);
            op(&d, &other, &mut dd);
            assert_eq!(so, dd, "{name}");
        }

        for c in [&s, &d] {
            assert_eq!(c.iter_ones_and(&other).collect::<Vec<_>>(), [1, 64]);
        }
    }

    #[test]
    fn count_ones_and_all_representation_pairs() {
        let a_ids = [0usize, 5, 64, 100, 129];
        let b_ids = [5usize, 63, 64, 128];
        let expect = 2; // {5, 64}
        for a in [sparse(130, &a_ids), dense(130, &a_ids)] {
            for b in [sparse(130, &b_ids), dense(130, &b_ids)] {
                assert_eq!(a.count_ones_and(&b), expect, "{a:?} x {b:?}");
            }
        }
    }

    #[test]
    fn galloping_handles_lopsided_and_disjoint_lists() {
        let small: Vec<u32> = vec![0, 500, 999];
        let large: Vec<u32> = (0..1000).collect();
        assert_eq!(galloping_intersect_count(&small, &large), 3);
        let odd: Vec<u32> = (0..1000).filter(|x| x % 2 == 1).collect();
        let even: Vec<u32> = (0..1000).filter(|x| x % 2 == 0).collect();
        assert_eq!(galloping_intersect_count(&small, &odd), 1); // 999
        assert_eq!(galloping_intersect_count(&[], &even), 0);
        assert_eq!(galloping_intersect_count(&small, &[]), 0);
    }

    #[test]
    fn empty_and_full_columns() {
        for n in [0usize, 63, 64, 65] {
            let none = sparse(n, &[]);
            assert_eq!(none.count_ones(), 0);
            assert_eq!(none.check_invariants(), Ok(()));
            let all: Vec<usize> = (0..n).collect();
            let full = sparse(n, &all);
            assert_eq!(full.count_ones(), n);
            assert_eq!(full.check_invariants(), Ok(()));
            let mut acc = BitVec::ones(n);
            full.and_assign_into(&mut acc);
            assert_eq!(acc.count_ones(), n);
            none.and_assign_into(&mut acc);
            assert!(acc.is_zero());
        }
    }

    #[test]
    #[should_panic(expected = "wider than operand")]
    fn column_wider_than_operand_panics() {
        let s = sparse(12, &[3]);
        let mut acc = BitVec::zeros(11);
        s.or_into(&mut acc);
    }

    #[test]
    #[should_panic(expected = "wider than operand")]
    fn dense_column_wider_than_operand_panics() {
        let d = dense(12, &[3]);
        let mut acc = BitVec::zeros(11);
        d.and_assign_into(&mut acc);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn dense_operand_pair_mismatch_panics() {
        let d = dense(10, &[3]);
        let other = BitVec::zeros(12);
        let mut out = BitVec::zeros(11);
        d.and_into(&other, &mut out);
    }

    /// Every op on a short column against wider operands must agree with
    /// the same op on the column explicitly zero-extended to full width.
    #[test]
    fn short_columns_fold_as_zero_extended() {
        let col_ids = [1usize, 63, 64, 69];
        let wide = 130usize;
        let other = BitVec::from_indices(wide, [1, 64, 69, 99, 129]);
        let acc0 = BitVec::from_indices(wide, [2, 63, 69, 100, 128]);
        for short in [sparse(70, &col_ids), dense(70, &col_ids)] {
            // oracle: same bits stored at the full operand width
            let full = PresenceColumn::from_bitvec(
                BitVec::from_indices(wide, col_ids.iter().copied()),
                if short.is_sparse() {
                    SparseMode::ForceSparse
                } else {
                    SparseMode::ForceDense
                },
            );
            let mut got = BitVec::zeros(wide);
            let mut want = BitVec::zeros(wide);

            short.copy_into(&mut got);
            full.copy_into(&mut want);
            assert_eq!(got, want, "copy_into");

            short.and_into(&other, &mut got);
            full.and_into(&other, &mut want);
            assert_eq!(got, want, "and_into");

            short.and_not_into(&other, &mut got);
            full.and_not_into(&other, &mut want);
            assert_eq!(got, want, "and_not_into");

            short.and_not_from(&other, &mut got);
            full.and_not_from(&other, &mut want);
            assert_eq!(got, want, "and_not_from");

            got.copy_from(&acc0);
            want.copy_from(&acc0);
            short.or_into(&mut got);
            full.or_into(&mut want);
            assert_eq!(got, want, "or_into");

            got.copy_from(&acc0);
            want.copy_from(&acc0);
            short.and_assign_into(&mut got);
            full.and_assign_into(&mut want);
            assert_eq!(got, want, "and_assign_into");

            got.copy_from(&acc0);
            want.copy_from(&acc0);
            short.or_and_into(&other, &mut got);
            full.or_and_into(&other, &mut want);
            assert_eq!(got, want, "or_and_into");

            assert!(
                short.iter_ones_and(&other).eq(full.iter_ones_and(&other)),
                "iter_ones_and"
            );
            assert!(short.bits_eq(&full), "bits_eq across widths");
        }
    }

    #[test]
    fn count_ones_and_mixed_widths_all_representation_pairs() {
        // short column {1, 64} x long column {1, 64, 100}: intersection 2
        let a_ids = [1usize, 64];
        let b_ids = [1usize, 64, 100];
        for a in [sparse(70, &a_ids), dense(70, &a_ids)] {
            for b in [sparse(130, &b_ids), dense(130, &b_ids)] {
                assert_eq!(a.count_ones_and(&b), 2, "{a:?} x {b:?}");
                assert_eq!(b.count_ones_and(&a), 2, "{b:?} x {a:?}");
            }
        }
    }

    #[test]
    fn push_col_and_grow_rows_match_a_full_build() {
        let bits =
            |n: usize, c: usize| BitVec::from_indices(n, (0..n).filter(|r| (r + c) % (c + 2) == 1));
        let mut t = PresenceColumns::new(70);
        for c in 0..3 {
            t.push_col(PresenceColumn::from_bitvec(bits(70, c), SparseMode::Auto));
        }
        let before = t.clone();
        // grow the entity space and append a time point
        t.grow_rows(80);
        t.push_col(PresenceColumn::from_bitvec(bits(80, 3), SparseMode::Auto));
        assert_eq!(t.check_invariants(), Ok(()));
        assert_eq!((t.n_cols(), t.source_rows()), (4, 80));
        assert_eq!(t.shared_cols(&before), 3);
        // the same bits built at full width compare equal
        let mut full = PresenceColumns::new(80);
        for c in 0..4 {
            let mut bv = bits(if c < 3 { 70 } else { 80 }, c);
            bv.grow(80);
            full.push_col(PresenceColumn::from_bitvec(bv, SparseMode::ForceDense));
        }
        assert_eq!(t, full);
        // zero-extension: old columns read absent for new entities
        assert!((0..3).all(|c| (70..80).all(|r| !t.col(c).get(r))));
    }

    #[test]
    fn transposed_with_relays_out_every_column() {
        let mut t = PresenceColumns::new(130);
        t.push_col(dense(130, &[0, 64, 129]));
        t.push_col(dense(100, &[]));
        for mode in [
            SparseMode::ForceSparse,
            SparseMode::ForceDense,
            SparseMode::Auto,
        ] {
            let r = t.transposed_with(mode);
            assert_eq!(r, t);
            assert_eq!(r.check_invariants(), Ok(()));
            assert_eq!(r.col(1).len(), 100, "stored width kept");
            let sparse = (0..2).filter(|&c| r.col(c).is_sparse()).count();
            // Auto: three ones in 130 bits stay dense, the empty column goes sparse
            let want = match mode {
                SparseMode::ForceSparse => 2,
                SparseMode::Auto => 1,
                SparseMode::ForceDense => 0,
            };
            assert_eq!(
                (sparse, r.n_sparse_cols(), r.n_dense_cols()),
                (want, want, 2 - want)
            );
        }
    }

    #[test]
    #[should_panic(expected = "more than source_rows")]
    fn push_col_too_wide_panics() {
        let mut t = PresenceColumns::new(10);
        t.push_col(dense(11, &[]));
    }

    #[test]
    fn get_reads_past_len_as_zero() {
        let s = sparse(10, &[3, 9]);
        let d = dense(10, &[3, 9]);
        for col in [s, d] {
            assert!(col.get(3) && col.get(9));
            assert!(!col.get(10) && !col.get(1000));
        }
    }
}
