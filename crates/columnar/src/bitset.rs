//! Packed bit vectors.
//!
//! The GraphTempo paper (§4) stores the existence of every node and edge in
//! two binary arrays, **V** and **E**, with one column per time point. A
//! [`BitVec`] is one such column (bit `r` set iff entity `r` exists at the
//! point) as well as a mask over entities or time points; the columns
//! themselves are [`PresenceColumn`](crate::PresenceColumn)s.

/// Number of bits per storage word.
const WORD_BITS: usize = 64;

#[inline]
fn words_for(bits: usize) -> usize {
    bits.div_ceil(WORD_BITS)
}

/// The positions of the set bits of one word, lowest first.
#[inline]
pub fn word_ones(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let bit = (word != 0).then(|| word.trailing_zeros() as usize)?;
        word &= word - 1;
        Some(bit)
    })
}

/// Unrolled word-parallel kernels shared by [`BitVec`] and the presence
/// columns.
///
/// The whole-vector folds and counts route through these loops, which process
/// [`CHUNK`](kernels::CHUNK) words per iteration as straight-line code. The
/// compiler turns each chunk body into wide vector loads/stores (256-bit on
/// x86-64, 128-bit on aarch64) — no `unsafe`, no explicit SIMD types, no
/// target-feature dispatch. The scalar tail covers the final `len % CHUNK`
/// words, so callers never need padded storage.
pub(crate) mod kernels {
    /// Words per unrolled iteration.
    pub(crate) const CHUNK: usize = 4;

    /// `out[i] |= a[i]`.
    #[inline]
    pub(crate) fn or_assign(a: &[u64], out: &mut [u64]) {
        debug_assert_eq!(a.len(), out.len());
        let mut oc = out.chunks_exact_mut(CHUNK);
        let mut ac = a.chunks_exact(CHUNK);
        for (o, x) in (&mut oc).zip(&mut ac) {
            o[0] |= x[0];
            o[1] |= x[1];
            o[2] |= x[2];
            o[3] |= x[3];
        }
        for (o, x) in oc.into_remainder().iter_mut().zip(ac.remainder()) {
            *o |= x;
        }
    }

    /// `out[i] &= a[i]`.
    #[inline]
    pub(crate) fn and_assign(a: &[u64], out: &mut [u64]) {
        debug_assert_eq!(a.len(), out.len());
        let mut oc = out.chunks_exact_mut(CHUNK);
        let mut ac = a.chunks_exact(CHUNK);
        for (o, x) in (&mut oc).zip(&mut ac) {
            o[0] &= x[0];
            o[1] &= x[1];
            o[2] &= x[2];
            o[3] &= x[3];
        }
        for (o, x) in oc.into_remainder().iter_mut().zip(ac.remainder()) {
            *o &= x;
        }
    }

    /// `Σ popcount(a[i] & b[i])`, with four independent accumulators so the
    /// per-lane popcounts pipeline instead of serializing on one sum.
    #[inline]
    pub(crate) fn count_ones_and(a: &[u64], b: &[u64]) -> usize {
        debug_assert_eq!(a.len(), b.len());
        let mut ac = a.chunks_exact(CHUNK);
        let mut bc = b.chunks_exact(CHUNK);
        let (mut c0, mut c1, mut c2, mut c3) = (0u64, 0u64, 0u64, 0u64);
        for (x, y) in (&mut ac).zip(&mut bc) {
            c0 += u64::from((x[0] & y[0]).count_ones());
            c1 += u64::from((x[1] & y[1]).count_ones());
            c2 += u64::from((x[2] & y[2]).count_ones());
            c3 += u64::from((x[3] & y[3]).count_ones());
        }
        let mut rest = 0u64;
        for (x, y) in ac.remainder().iter().zip(bc.remainder()) {
            rest += u64::from((x & y).count_ones());
        }
        (c0 + c1 + c2 + c3 + rest) as usize
    }

    /// `Σ popcount(a[i])`, four-lane accumulation as in
    /// [`count_ones_and`].
    #[inline]
    pub(crate) fn count_ones(a: &[u64]) -> usize {
        let mut ac = a.chunks_exact(CHUNK);
        let (mut c0, mut c1, mut c2, mut c3) = (0u64, 0u64, 0u64, 0u64);
        for x in &mut ac {
            c0 += u64::from(x[0].count_ones());
            c1 += u64::from(x[1].count_ones());
            c2 += u64::from(x[2].count_ones());
            c3 += u64::from(x[3].count_ones());
        }
        let mut rest = 0u64;
        for x in ac.remainder() {
            rest += u64::from(x.count_ones());
        }
        (c0 + c1 + c2 + c3 + rest) as usize
    }

    /// True if any `a[i] & b[i] != 0`, testing a whole chunk per branch.
    #[inline]
    pub(crate) fn intersects(a: &[u64], b: &[u64]) -> bool {
        debug_assert_eq!(a.len(), b.len());
        let mut ac = a.chunks_exact(CHUNK);
        let mut bc = b.chunks_exact(CHUNK);
        for (x, y) in (&mut ac).zip(&mut bc) {
            if ((x[0] & y[0]) | (x[1] & y[1]) | (x[2] & y[2]) | (x[3] & y[3])) != 0 {
                return true;
            }
        }
        ac.remainder()
            .iter()
            .zip(bc.remainder())
            .any(|(x, y)| x & y != 0)
    }

    /// True if `a[i] & b[i] == b[i]` for every word (`a ⊇ b`), testing a
    /// whole chunk per branch.
    #[inline]
    pub(crate) fn contains_all(a: &[u64], b: &[u64]) -> bool {
        debug_assert_eq!(a.len(), b.len());
        let mut ac = a.chunks_exact(CHUNK);
        let mut bc = b.chunks_exact(CHUNK);
        for (x, y) in (&mut ac).zip(&mut bc) {
            if ((!x[0] & y[0]) | (!x[1] & y[1]) | (!x[2] & y[2]) | (!x[3] & y[3])) != 0 {
                return false;
            }
        }
        ac.remainder()
            .iter()
            .zip(bc.remainder())
            .all(|(x, y)| x & y == *y)
    }
}

/// A fixed-width packed bit vector.
///
/// Used both as an entity's presence vector over the time domain and as a
/// column mask selecting a subset of time points.
#[must_use = "a mask computed and dropped is a lost result"]
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitVec {
    nbits: usize,
    words: Vec<u64>,
}

impl std::fmt::Debug for BitVec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BitVec[")?;
        for i in 0..self.nbits {
            write!(f, "{}", u8::from(self.get(i)))?;
        }
        write!(f, "]")
    }
}

impl BitVec {
    /// Creates an all-zero vector of `nbits` bits.
    pub fn zeros(nbits: usize) -> Self {
        BitVec {
            nbits,
            words: vec![0; words_for(nbits)],
        }
    }

    /// Creates an all-one vector of `nbits` bits.
    pub fn ones(nbits: usize) -> Self {
        let mut v = BitVec {
            nbits,
            words: vec![u64::MAX; words_for(nbits)],
        };
        v.clear_tail();
        v.debug_validate();
        v
    }

    /// Builds a vector from an iterator of set-bit positions.
    ///
    /// # Panics
    /// Panics if any position is out of range.
    pub fn from_indices<I: IntoIterator<Item = usize>>(nbits: usize, idx: I) -> Self {
        let mut v = Self::zeros(nbits);
        for i in idx {
            v.set(i, true);
        }
        v
    }

    /// Builds a vector from a slice of boolean flags.
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut v = Self::zeros(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            if b {
                v.set(i, true);
            }
        }
        v
    }

    /// The packed words: bit `i` is bit `i % 64` of word `i / 64`, and
    /// the final word's bits past `len()` are clear.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Widens the vector to `nbits` bits; the new bits are clear (a
    /// presence column growing with the entities appended after it).
    ///
    /// # Panics
    /// Panics if `nbits` is smaller than `len()`.
    pub fn grow(&mut self, nbits: usize) {
        assert!(
            nbits >= self.nbits,
            "grow cannot shrink: {} -> {nbits}",
            self.nbits
        );
        self.nbits = nbits;
        self.words.resize(words_for(nbits), 0);
        self.debug_validate();
    }

    /// Zeroes any bits in the final partial word beyond `nbits`.
    fn clear_tail(&mut self) {
        let tail = self.nbits % WORD_BITS;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Validates the structural invariants every word-level kernel relies
    /// on: the backing store holds exactly `words_for(nbits)` words, and no
    /// bit beyond `nbits` is set in the final partial word. A dirty tail
    /// silently corrupts every popcount-based operator (`count_ones`,
    /// `count_ones_and`, …), so this is checked by `debug_assert!` at
    /// each mutation seam and compiled out of release builds.
    ///
    /// # Errors
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.words.len() != words_for(self.nbits) {
            return Err(format!(
                "BitVec backing store holds {} words, want {} for {} bits",
                self.words.len(),
                words_for(self.nbits),
                self.nbits
            ));
        }
        let tail = self.nbits % WORD_BITS;
        if tail != 0 {
            if let Some(&last) = self.words.last() {
                let dirty = last & !((1u64 << tail) - 1);
                if dirty != 0 {
                    return Err(format!(
                        "BitVec tail is dirty: bits beyond {} set in final word ({dirty:#x})",
                        self.nbits
                    ));
                }
            }
        }
        Ok(())
    }

    /// Debug-build contract check; a no-op in release builds.
    #[inline]
    fn debug_validate(&self) {
        debug_assert_eq!(self.check_invariants(), Ok(()));
    }

    /// Number of bits in the vector.
    #[inline]
    pub fn len(&self) -> usize {
        self.nbits
    }

    /// True if the vector has zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nbits == 0
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.nbits, "bit index {i} out of range {}", self.nbits);
        (self.words[i / WORD_BITS] >> (i % WORD_BITS)) & 1 == 1
    }

    /// Writes bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.nbits, "bit index {i} out of range {}", self.nbits);
        let w = &mut self.words[i / WORD_BITS];
        let mask = 1u64 << (i % WORD_BITS);
        if value {
            *w |= mask;
        } else {
            *w &= !mask;
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        kernels::count_ones(&self.words)
    }

    /// True if no bit is set.
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// True if any bit set in both `self` and `mask`.
    ///
    /// # Panics
    /// Panics on width mismatch.
    pub fn intersects(&self, mask: &BitVec) -> bool {
        self.check_width(mask);
        kernels::intersects(&self.words, &mask.words)
    }

    /// True if every bit of `mask` is also set in `self`.
    ///
    /// # Panics
    /// Panics on width mismatch.
    pub fn contains_all(&self, mask: &BitVec) -> bool {
        self.check_width(mask);
        kernels::contains_all(&self.words, &mask.words)
    }

    /// Count of bits set in both `self` and `mask`: one AND+popcount pass
    /// over the packed words, no intermediate vector.
    ///
    /// # Panics
    /// Panics on width mismatch.
    pub fn count_ones_and(&self, mask: &BitVec) -> usize {
        self.check_width(mask);
        kernels::count_ones_and(&self.words, &mask.words)
    }

    /// Clears every bit, keeping the width (reusable scratch buffers).
    pub fn clear_all(&mut self) {
        self.words.fill(0);
    }

    /// Makes the vector `nbits` wide and fills it with `words`, one item
    /// per word in order (extra items are ignored, and a word without an
    /// item reads zero), then clears every bit past `nbits` the items set:
    /// the writer for callers that compute whole 64-entity words. The
    /// allocation is reused when it is large enough, and no word is
    /// written twice.
    pub fn set_words(&mut self, nbits: usize, words: impl IntoIterator<Item = u64>) {
        let n = words_for(nbits);
        self.nbits = nbits;
        self.words.clear();
        if self.words.capacity() < n {
            // a fresh block: the old words need no copy
            self.words = Vec::new();
            self.words.reserve_exact(n);
        }
        self.words.extend(words.into_iter().take(n));
        self.words.resize(n, 0);
        self.clear_tail();
        self.debug_validate();
    }

    /// Makes room for `nbits` bits without changing the vector's width or
    /// bits, so that [`set_words`](Self::set_words) up to that width
    /// reuses one allocation.
    pub fn reserve(&mut self, nbits: usize) {
        let n = words_for(nbits);
        self.words.reserve_exact(n.saturating_sub(self.words.len()));
    }

    /// Drops the trailing zero words: the vector ends at its last non-zero
    /// word (or at `len()`, if that is sooner), and frees what it no
    /// longer stores.
    pub(crate) fn trim(&mut self) {
        let n = self
            .words
            .iter()
            .rposition(|&w| w != 0)
            .map_or(0, |w| w + 1);
        self.nbits = self.nbits.min(n * WORD_BITS);
        self.words.truncate(n);
        self.words.shrink_to_fit();
        self.debug_validate();
    }

    /// The width and the words at once, for the folds that set an
    /// accumulator to the width of what it holds. Callers keep
    /// `words.len()` at the width's word count and the tail clean.
    #[inline]
    pub(crate) fn raw_mut(&mut self) -> (&mut usize, &mut Vec<u64>) {
        (&mut self.nbits, &mut self.words)
    }

    /// In-place bitwise OR.
    ///
    /// # Panics
    /// Panics on width mismatch.
    pub fn or_assign(&mut self, other: &BitVec) {
        self.check_width(other);
        kernels::or_assign(&other.words, &mut self.words);
    }

    /// In-place bitwise AND.
    ///
    /// # Panics
    /// Panics on width mismatch.
    pub fn and_assign(&mut self, other: &BitVec) {
        self.check_width(other);
        kernels::and_assign(&other.words, &mut self.words);
    }

    /// Returns `self & mask` as a new vector.
    pub fn and(&self, mask: &BitVec) -> BitVec {
        let mut out = self.clone();
        out.and_assign(mask);
        out
    }

    /// Returns `self | mask` as a new vector.
    pub fn or(&self, mask: &BitVec) -> BitVec {
        let mut out = self.clone();
        out.or_assign(mask);
        out
    }

    /// Iterates positions of set bits in increasing order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        let words = self.words.iter().enumerate();
        words.flat_map(|(wi, &w)| word_ones(w).map(move |b| wi * WORD_BITS + b))
    }

    /// Position of the lowest set bit, if any.
    pub fn first_one(&self) -> Option<usize> {
        self.iter_ones().next()
    }

    /// Position of the highest set bit, if any.
    pub fn last_one(&self) -> Option<usize> {
        for (wi, &w) in self.words.iter().enumerate().rev() {
            if w != 0 {
                return Some(wi * WORD_BITS + (WORD_BITS - 1 - w.leading_zeros() as usize));
            }
        }
        None
    }

    #[inline]
    fn check_width(&self, other: &BitVec) {
        assert_eq!(
            self.nbits, other.nbits,
            "bit vector width mismatch: {} vs {}",
            self.nbits, other.nbits
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_ones() {
        let z = BitVec::zeros(70);
        assert_eq!(z.len(), 70);
        assert_eq!(z.count_ones(), 0);
        assert!(z.is_zero());

        let o = BitVec::ones(70);
        assert_eq!(o.count_ones(), 70);
        assert!(!o.is_zero());
        // tail bits beyond nbits must be clear so counts stay exact
        assert_eq!(o.words.len(), 2);
        assert_eq!(o.words[1].count_ones(), 6);
    }

    #[test]
    fn set_get_roundtrip() {
        let mut v = BitVec::zeros(130);
        for i in [0, 1, 63, 64, 65, 127, 128, 129] {
            v.set(i, true);
            assert!(v.get(i));
        }
        assert_eq!(v.count_ones(), 8);
        v.set(64, false);
        assert!(!v.get(64));
        assert_eq!(v.count_ones(), 7);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        BitVec::zeros(8).get(8);
    }

    #[test]
    fn from_indices_and_iter_ones() {
        let v = BitVec::from_indices(100, [3, 64, 99]);
        let ones: Vec<_> = v.iter_ones().collect();
        assert_eq!(ones, vec![3, 64, 99]);
        assert_eq!(v.first_one(), Some(3));
        assert_eq!(v.last_one(), Some(99));
    }

    #[test]
    fn empty_first_last() {
        let v = BitVec::zeros(10);
        assert_eq!(v.first_one(), None);
        assert_eq!(v.last_one(), None);
    }

    #[test]
    fn intersects_and_contains() {
        let a = BitVec::from_indices(10, [1, 3, 5]);
        let b = BitVec::from_indices(10, [3]);
        let c = BitVec::from_indices(10, [2, 4]);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        assert!(a.contains_all(&b));
        assert!(!b.contains_all(&a));
        assert!(a.contains_all(&BitVec::zeros(10)));
        // across a word boundary
        let a = BitVec::from_indices(100, [1, 3, 64, 99]);
        let b = BitVec::from_indices(100, [3, 64]);
        let c = BitVec::from_indices(100, [2, 4]);
        assert!(a.intersects(&b) && !a.intersects(&c));
        assert!(a.contains_all(&b) && !b.contains_all(&a));
        assert_eq!(a.count_ones_and(&b), 2);
    }

    #[test]
    fn boolean_ops() {
        let a = BitVec::from_indices(10, [1, 3, 5]);
        let b = BitVec::from_indices(10, [3, 4]);
        assert_eq!(a.and(&b).iter_ones().collect::<Vec<_>>(), vec![3]);
        assert_eq!(a.or(&b).iter_ones().collect::<Vec<_>>(), vec![1, 3, 4, 5]);
        assert_eq!(a.count_ones_and(&b), 1);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn width_mismatch_panics() {
        let a = BitVec::zeros(10);
        let b = BitVec::zeros(11);
        a.intersects(&b);
    }

    #[test]
    fn clear_all_keeps_the_width() {
        let mut buf = BitVec::from_indices(130, [0, 5, 64, 100, 129]);
        buf.clear_all();
        assert!(buf.is_zero());
        assert_eq!(buf.len(), 130);
    }

    #[test]
    fn set_words_keeps_the_tail_clean() {
        let mut v = BitVec::ones(300);
        v.set_words(130, [u64::MAX, 1 << 63, u64::MAX, u64::MAX]);
        assert_eq!(v.check_invariants(), Ok(()));
        assert_eq!(v.len(), 130);
        assert_eq!(v.count_ones(), 64 + 1 + 2);
        assert_eq!(v.iter_ones().skip(64).collect::<Vec<_>>(), [127, 128, 129]);
        // a word without an item reads zero
        v.set_words(200, [1]);
        assert_eq!((v.len(), v.words().len()), (200, 4));
        assert_eq!(v.iter_ones().collect::<Vec<_>>(), [0]);
    }

    #[test]
    fn set_words_within_the_reserve_keeps_the_allocation() {
        let mut v = BitVec::zeros(0);
        v.reserve(300);
        let block = v.words().as_ptr();
        for nbits in [64, 130, 300, 10, 257] {
            v.set_words(nbits, [u64::MAX; 5]);
            assert_eq!(v.check_invariants(), Ok(()));
            assert_eq!(v.count_ones(), nbits);
            assert_eq!(v.words().as_ptr(), block, "{nbits} bits");
        }
    }

    #[test]
    fn trim_ends_at_the_last_non_zero_word() {
        let mut v = BitVec::from_indices(300, [3, 70]);
        v.trim();
        assert_eq!((v.len(), v.words().len()), (128, 2));
        let mut v = BitVec::from_indices(130, [129]);
        v.trim();
        assert_eq!((v.len(), v.words().len()), (130, 3));
        let mut v = BitVec::zeros(130);
        v.trim();
        assert_eq!((v.len(), v.words().len()), (0, 0));
    }

    #[test]
    fn grow_keeps_bits_and_clears_the_new_ones() {
        let mut v = BitVec::from_indices(63, [0, 62]);
        v.grow(130);
        assert_eq!(v.len(), 130);
        assert_eq!(v.check_invariants(), Ok(()));
        assert_eq!(v.iter_ones().collect::<Vec<_>>(), [0, 62]);
        v.set(129, true);
        assert_eq!(v.count_ones(), 3);
    }

    #[test]
    #[should_panic(expected = "cannot shrink")]
    fn grow_cannot_shrink() {
        BitVec::zeros(8).grow(7);
    }
}
