//! Packed bit vectors and bit matrices.
//!
//! The GraphTempo paper (§4) stores the existence of every node and edge as a
//! binary vector over the time domain: element `t` is 1 iff the entity exists
//! at time point `t`. [`BitVec`] is one such vector; [`BitMatrix`] stacks one
//! row per entity, which is exactly the paper's labeled arrays **V** and
//! **E** (the labels themselves live with the caller).

use std::sync::Arc;

use crate::sparse::{PresenceColumn, SparseMode};

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

/// Unrolled word-parallel kernels shared by [`BitVec`] and [`BitMatrix`].
///
/// Every hot ternary primitive routes through these loops, which process
/// [`CHUNK`](kernels::CHUNK) words per iteration as straight-line code. The
/// compiler turns each chunk body into wide vector loads/stores (256-bit on
/// x86-64, 128-bit on aarch64) — no `unsafe`, no explicit SIMD types, no
/// target-feature dispatch. The scalar tail covers the final `len % CHUNK`
/// words, so callers never need padded storage.
pub(crate) mod kernels {
    /// Words per unrolled iteration.
    pub(crate) const CHUNK: usize = 4;

    /// `out[i] = a[i] & b[i]`.
    #[inline]
    pub(crate) fn and_into(a: &[u64], b: &[u64], out: &mut [u64]) {
        debug_assert!(a.len() == b.len() && b.len() == out.len());
        let mut oc = out.chunks_exact_mut(CHUNK);
        let mut ac = a.chunks_exact(CHUNK);
        let mut bc = b.chunks_exact(CHUNK);
        for ((o, x), y) in (&mut oc).zip(&mut ac).zip(&mut bc) {
            o[0] = x[0] & y[0];
            o[1] = x[1] & y[1];
            o[2] = x[2] & y[2];
            o[3] = x[3] & y[3];
        }
        for ((o, x), y) in oc
            .into_remainder()
            .iter_mut()
            .zip(ac.remainder())
            .zip(bc.remainder())
        {
            *o = x & y;
        }
    }

    /// `out[i] = a[i] & !b[i]`.
    #[inline]
    pub(crate) fn and_not_into(a: &[u64], b: &[u64], out: &mut [u64]) {
        debug_assert!(a.len() == b.len() && b.len() == out.len());
        let mut oc = out.chunks_exact_mut(CHUNK);
        let mut ac = a.chunks_exact(CHUNK);
        let mut bc = b.chunks_exact(CHUNK);
        for ((o, x), y) in (&mut oc).zip(&mut ac).zip(&mut bc) {
            o[0] = x[0] & !y[0];
            o[1] = x[1] & !y[1];
            o[2] = x[2] & !y[2];
            o[3] = x[3] & !y[3];
        }
        for ((o, x), y) in oc
            .into_remainder()
            .iter_mut()
            .zip(ac.remainder())
            .zip(bc.remainder())
        {
            *o = x & !y;
        }
    }

    /// `out[i] |= a[i] & b[i]`.
    #[inline]
    pub(crate) fn or_and_into(a: &[u64], b: &[u64], out: &mut [u64]) {
        debug_assert!(a.len() == b.len() && b.len() == out.len());
        let mut oc = out.chunks_exact_mut(CHUNK);
        let mut ac = a.chunks_exact(CHUNK);
        let mut bc = b.chunks_exact(CHUNK);
        for ((o, x), y) in (&mut oc).zip(&mut ac).zip(&mut bc) {
            o[0] |= x[0] & y[0];
            o[1] |= x[1] & y[1];
            o[2] |= x[2] & y[2];
            o[3] |= x[3] & y[3];
        }
        for ((o, x), y) in oc
            .into_remainder()
            .iter_mut()
            .zip(ac.remainder())
            .zip(bc.remainder())
        {
            *o |= x & y;
        }
    }

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

    /// `out[i] &= !a[i]`.
    #[inline]
    pub(crate) fn and_not_assign(a: &[u64], out: &mut [u64]) {
        debug_assert_eq!(a.len(), out.len());
        let mut oc = out.chunks_exact_mut(CHUNK);
        let mut ac = a.chunks_exact(CHUNK);
        for (o, x) in (&mut oc).zip(&mut ac) {
            o[0] &= !x[0];
            o[1] &= !x[1];
            o[2] &= !x[2];
            o[3] &= !x[3];
        }
        for (o, x) in oc.into_remainder().iter_mut().zip(ac.remainder()) {
            *o &= !x;
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

    /// `Σ popcount(a[i] & b[i] & c[i])`, four-lane accumulation as in
    /// [`count_ones_and`].
    #[inline]
    pub(crate) fn count_ones_and3(a: &[u64], b: &[u64], c: &[u64]) -> usize {
        debug_assert!(a.len() == b.len() && b.len() == c.len());
        let mut ac = a.chunks_exact(CHUNK);
        let mut bc = b.chunks_exact(CHUNK);
        let mut cc = c.chunks_exact(CHUNK);
        let (mut c0, mut c1, mut c2, mut c3) = (0u64, 0u64, 0u64, 0u64);
        for ((x, y), z) in (&mut ac).zip(&mut bc).zip(&mut cc) {
            c0 += u64::from((x[0] & y[0] & z[0]).count_ones());
            c1 += u64::from((x[1] & y[1] & z[1]).count_ones());
            c2 += u64::from((x[2] & y[2] & z[2]).count_ones());
            c3 += u64::from((x[3] & y[3] & z[3]).count_ones());
        }
        let mut rest = 0u64;
        for ((x, y), z) in ac
            .remainder()
            .iter()
            .zip(bc.remainder())
            .zip(cc.remainder())
        {
            rest += u64::from((x & y & z).count_ones());
        }
        (c0 + c1 + c2 + c3 + rest) as usize
    }

    /// `Σ popcount(k[i] & (!d[i] | r[i]))` — the fused Definition-2.5 node
    /// count (kept = member of the keep side, not of the drop side unless
    /// rescued by an incident kept edge) with no mask materialized. Tail
    /// hygiene: `!d` sets bits past the logical width in the final word,
    /// but `k`'s clean tail masks them back off.
    #[inline]
    pub(crate) fn count_difference(k: &[u64], d: &[u64], r: &[u64]) -> usize {
        debug_assert!(k.len() == d.len() && d.len() == r.len());
        let mut kc = k.chunks_exact(CHUNK);
        let mut dc = d.chunks_exact(CHUNK);
        let mut rc = r.chunks_exact(CHUNK);
        let (mut c0, mut c1, mut c2, mut c3) = (0u64, 0u64, 0u64, 0u64);
        for ((x, y), z) in (&mut kc).zip(&mut dc).zip(&mut rc) {
            c0 += u64::from((x[0] & (!y[0] | z[0])).count_ones());
            c1 += u64::from((x[1] & (!y[1] | z[1])).count_ones());
            c2 += u64::from((x[2] & (!y[2] | z[2])).count_ones());
            c3 += u64::from((x[3] & (!y[3] | z[3])).count_ones());
        }
        let mut rest = 0u64;
        for ((x, y), z) in kc
            .remainder()
            .iter()
            .zip(dc.remainder())
            .zip(rc.remainder())
        {
            rest += u64::from((x & (!y | z)).count_ones());
        }
        (c0 + c1 + c2 + c3 + rest) as usize
    }

    /// [`count_difference`] restricted to a selector mask:
    /// `Σ popcount(k[i] & (!d[i] | r[i]) & s[i])`.
    #[inline]
    pub(crate) fn count_difference_sel(k: &[u64], d: &[u64], r: &[u64], s: &[u64]) -> usize {
        debug_assert!(k.len() == d.len() && d.len() == r.len() && r.len() == s.len());
        let mut kc = k.chunks_exact(CHUNK);
        let mut dc = d.chunks_exact(CHUNK);
        let mut rc = r.chunks_exact(CHUNK);
        let mut sc = s.chunks_exact(CHUNK);
        let (mut c0, mut c1, mut c2, mut c3) = (0u64, 0u64, 0u64, 0u64);
        for (((x, y), z), w) in (&mut kc).zip(&mut dc).zip(&mut rc).zip(&mut sc) {
            c0 += u64::from((x[0] & (!y[0] | z[0]) & w[0]).count_ones());
            c1 += u64::from((x[1] & (!y[1] | z[1]) & w[1]).count_ones());
            c2 += u64::from((x[2] & (!y[2] | z[2]) & w[2]).count_ones());
            c3 += u64::from((x[3] & (!y[3] | z[3]) & w[3]).count_ones());
        }
        let mut rest = 0u64;
        for (((x, y), z), w) in kc
            .remainder()
            .iter()
            .zip(dc.remainder())
            .zip(rc.remainder())
            .zip(sc.remainder())
        {
            rest += u64::from((x & (!y | z) & w).count_ones());
        }
        (c0 + c1 + c2 + c3 + rest) as usize
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

/// Transposes a 64×64 bit tile in place: output word `j` holds, at bit `i`,
/// the input's word `i` bit `j` (LSB-first column numbering throughout).
///
/// Classic mask-and-shift block transpose (Hacker's Delight §7-3, adapted
/// to LSB-first indexing): six passes of 32/16/8/4/2/1-bit block swaps,
/// each pass word-parallel over the tile.
fn transpose64(a: &mut [u64; WORD_BITS]) {
    let mut j: u32 = 32;
    let mut m: u64 = 0x0000_0000_FFFF_FFFF;
    while j != 0 {
        let jj = j as usize;
        let mut k = 0usize;
        while k < WORD_BITS {
            let t = ((a[k] >> j) ^ a[k + jj]) & m;
            a[k + jj] ^= t;
            a[k] ^= t << j;
            k = (k + jj + 1) & !jj;
        }
        j >>= 1;
        m ^= m << j;
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

    /// Crate-internal mutable view of the packed words. Callers must keep
    /// the tail clean (only set bits below `len()`).
    #[inline]
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Crate-internal constructor from pre-packed words (the blocked
    /// transpose builds column words directly).
    ///
    /// # Panics
    /// Debug builds panic if the store violates [`check_invariants`]
    /// (wrong word count or dirty tail).
    #[inline]
    pub(crate) fn from_raw_words(nbits: usize, words: Vec<u64>) -> Self {
        let v = BitVec { nbits, words };
        v.debug_validate();
        v
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

    /// Overwrites `self` with a copy of `other`'s bits (no reallocation).
    ///
    /// # Panics
    /// Panics on width mismatch.
    pub fn copy_from(&mut self, other: &BitVec) {
        self.check_width(other);
        self.words.copy_from_slice(&other.words);
        self.clear_tail();
        self.debug_validate();
    }

    /// Ternary AND: writes `self & other` into `out` without allocating.
    ///
    /// # Panics
    /// Panics on width mismatch.
    pub fn and_into(&self, other: &BitVec, out: &mut BitVec) {
        self.check_width(other);
        self.check_width(out);
        kernels::and_into(&self.words, &other.words, &mut out.words);
    }

    /// Ternary AND-NOT: writes `self & !other` into `out` without
    /// allocating.
    ///
    /// # Panics
    /// Panics on width mismatch.
    pub fn and_not_into(&self, other: &BitVec, out: &mut BitVec) {
        self.check_width(other);
        self.check_width(out);
        kernels::and_not_into(&self.words, &other.words, &mut out.words);
        out.clear_tail();
        out.debug_validate();
    }

    /// Fused OR-of-AND: `self |= a & b`, one pass over the packed words.
    ///
    /// # Panics
    /// Panics on width mismatch.
    pub fn or_and_assign(&mut self, a: &BitVec, b: &BitVec) {
        self.check_width(a);
        self.check_width(b);
        kernels::or_and_into(&a.words, &b.words, &mut self.words);
        self.clear_tail();
        self.debug_validate();
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

    /// In-place bitwise AND-NOT (`self &= !other`).
    ///
    /// # Panics
    /// Panics on width mismatch.
    pub fn and_not_assign(&mut self, other: &BitVec) {
        self.check_width(other);
        kernels::and_not_assign(&other.words, &mut self.words);
        self.clear_tail();
        self.debug_validate();
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

/// A matrix of bits with copy-on-write word-band storage.
///
/// Rows are appended dynamically; this is the storage for the paper's
/// labeled arrays **V** (node presence) and **E** (edge presence), where
/// columns correspond to time points.
///
/// Storage is *banded*: band `b` is an `Arc`-shared vector holding word `b`
/// of every row (columns `64·b .. 64·b+63`), truncated at the last row with
/// any bit set in that word — rows past `band.len()` are implicitly zero.
/// Cloning the matrix (or [`widen`](Self::widen)ing it) only clones the
/// band spine, so an appended snapshot shares every untouched band with its
/// predecessor; mutation goes through `Arc::make_mut`, which deep-copies a
/// band only when it is actually shared (copy-on-write). Appending a time
/// point via [`push_col`](Self::push_col) therefore touches just the final
/// band, leaving all full bands of the history physically shared.
#[must_use = "a matrix computed and dropped is a lost result"]
#[derive(Clone)]
pub struct BitMatrix {
    ncols: usize,
    nrows: usize,
    bands: Vec<Arc<Vec<u64>>>,
}

impl PartialEq for BitMatrix {
    fn eq(&self, other: &Self) -> bool {
        if self.ncols != other.ncols || self.nrows != other.nrows {
            return false;
        }
        self.bands.iter().zip(&other.bands).all(|(a, b)| {
            if Arc::ptr_eq(a, b) {
                return true;
            }
            // bands truncate at their last nonzero row, so equality is
            // semantic: common prefix equal, remainder all-zero
            let n = a.len().min(b.len());
            a[..n] == b[..n] && a[n..].iter().all(|&w| w == 0) && b[n..].iter().all(|&w| w == 0)
        })
    }
}

impl Eq for BitMatrix {}

impl std::fmt::Debug for BitMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "BitMatrix({}x{})", self.nrows, self.ncols)?;
        for r in 0..self.nrows.min(16) {
            writeln!(f, "  {:?}", self.row(r))?;
        }
        if self.nrows > 16 {
            writeln!(f, "  ... {} more rows", self.nrows - 16)?;
        }
        Ok(())
    }
}

impl BitMatrix {
    /// Creates an empty matrix with `ncols` columns and no rows.
    pub fn new(ncols: usize) -> Self {
        BitMatrix {
            ncols,
            nrows: 0,
            // all bands deliberately share one empty allocation;
            // `Arc::make_mut` un-shares on first write
            #[allow(clippy::rc_clone_in_vec_init)]
            bands: vec![Arc::new(Vec::new()); words_for(ncols)],
        }
    }

    /// Creates an all-zero matrix with `nrows` rows.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        let mut m = BitMatrix::new(ncols);
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

    /// Appends an all-zero row, returning its index. O(1): bands represent
    /// trailing zero rows implicitly, so nothing allocates.
    pub fn push_empty_row(&mut self) -> usize {
        self.nrows += 1;
        self.nrows - 1
    }

    /// Appends a row copied from a [`BitVec`], returning its index. Only
    /// bands with a nonzero word in the new row are materialized (and
    /// un-shared if copy-on-write shared); all-zero words stay implicit.
    ///
    /// # Panics
    /// Panics if the vector width differs from `ncols`.
    pub fn push_row(&mut self, row: &BitVec) -> usize {
        assert_eq!(row.len(), self.ncols, "row width mismatch");
        for (band, &w) in self.bands.iter_mut().zip(row.words.iter()) {
            if w != 0 {
                let band = Arc::make_mut(band);
                band.resize(self.nrows, 0);
                band.push(w);
            }
        }
        self.nrows += 1;
        self.debug_validate();
        self.nrows - 1
    }

    /// Appends one column, returning its index; `rows` lists the row
    /// indices set in the new column. This is the copy-on-write append
    /// behind versioned snapshots: only the final word-band is written
    /// (a fresh empty band when the new column crosses a word boundary),
    /// so every full band of the history stays physically shared with
    /// prior epochs.
    ///
    /// # Panics
    /// Panics if any row index is out of range — grow the row space first
    /// ([`push_empty_row`](Self::push_empty_row) / [`push_row`](Self::push_row)).
    pub fn push_col<I: IntoIterator<Item = usize>>(&mut self, rows: I) -> usize {
        let c = self.ncols;
        self.ncols += 1;
        if self.bands.len() < words_for(self.ncols) {
            self.bands.push(Arc::new(Vec::new()));
        }
        for r in rows {
            self.set(r, c, true);
        }
        self.debug_validate();
        c
    }

    /// Validates the structural invariants of the banded storage: the band
    /// count matches the column count, no band extends past `nrows`, and
    /// the final band is free of bits beyond `ncols` in its partial word (a
    /// dirty tail corrupts [`row_any`](Self::row_any) and every other
    /// word-level row operator, and would leak stale bits into
    /// the next [`push_col`](Self::push_col) / [`widen`](Self::widen)).
    ///
    /// # Errors
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.bands.len() != words_for(self.ncols) {
            return Err(format!(
                "BitMatrix holds {} word-bands, want {} for {} columns",
                self.bands.len(),
                words_for(self.ncols),
                self.ncols
            ));
        }
        for (b, band) in self.bands.iter().enumerate() {
            if band.len() > self.nrows {
                return Err(format!(
                    "BitMatrix band {b} spans {} rows, more than nrows {}",
                    band.len(),
                    self.nrows
                ));
            }
        }
        let tail = self.ncols % WORD_BITS;
        if tail != 0 {
            if let Some(last) = self.bands.last() {
                let keep = (1u64 << tail) - 1;
                for (r, &w) in last.iter().enumerate() {
                    if w & !keep != 0 {
                        return Err(format!(
                            "BitMatrix row {r} tail is dirty: bits beyond {} set ({:#x})",
                            self.ncols,
                            w & !keep
                        ));
                    }
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

    /// Word `b` of row `r`, reading rows past the band's materialized
    /// length as zero.
    #[inline]
    fn band_word(band: &[u64], r: usize) -> u64 {
        band.get(r).copied().unwrap_or(0)
    }

    /// Number of word-bands (the granularity of structural sharing).
    #[inline]
    pub fn n_bands(&self) -> usize {
        self.bands.len()
    }

    /// Count of word-bands physically shared (same allocation) with
    /// `other` — a test/bench hook for asserting that copy-on-write appends
    /// actually share prior storage instead of deep-copying it.
    pub fn shared_bands(&self, other: &BitMatrix) -> usize {
        self.bands
            .iter()
            .zip(&other.bands)
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count()
    }

    /// Reads cell `(r, c)`.
    ///
    /// # Panics
    /// Panics if out of range.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> bool {
        assert!(r < self.nrows && c < self.ncols, "index out of range");
        (Self::band_word(&self.bands[c / WORD_BITS], r) >> (c % WORD_BITS)) & 1 == 1
    }

    /// Writes cell `(r, c)`, un-sharing (copy-on-write) and growing the
    /// band as needed.
    ///
    /// # Panics
    /// Panics if out of range.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, value: bool) {
        assert!(r < self.nrows && c < self.ncols, "index out of range");
        let band = &mut self.bands[c / WORD_BITS];
        let mask = 1u64 << (c % WORD_BITS);
        if value {
            let band = Arc::make_mut(band);
            if band.len() <= r {
                band.resize(r + 1, 0);
            }
            band[r] |= mask;
        } else if band.len() > r {
            Arc::make_mut(band)[r] &= !mask;
        }
    }

    /// Copies row `r` out as a [`BitVec`], gathering one word per band.
    ///
    /// # Panics
    /// Panics if `r` is out of range.
    pub fn row(&self, r: usize) -> BitVec {
        assert!(r < self.nrows, "row {r} out of range {}", self.nrows);
        BitVec {
            nbits: self.ncols,
            words: self
                .bands
                .iter()
                .map(|band| Self::band_word(band, r))
                .collect(),
        }
    }

    /// True if row `r` has any set bit within `mask` (the paper's
    /// "any `V[v, t] = 1` for `t ∈ 𝒯`" test used by the union operator).
    pub fn row_any(&self, r: usize, mask: &BitVec) -> bool {
        assert_eq!(mask.len(), self.ncols, "mask width mismatch");
        assert!(r < self.nrows, "row {r} out of range {}", self.nrows);
        self.bands
            .iter()
            .zip(mask.words.iter())
            .any(|(band, &mw)| Self::band_word(band, r) & mw != 0)
    }

    /// True if row `r` has every bit of `mask` set (the projection test
    /// "`𝒯 ⊆ τ(u)`").
    pub fn row_all(&self, r: usize, mask: &BitVec) -> bool {
        assert_eq!(mask.len(), self.ncols, "mask width mismatch");
        assert!(r < self.nrows, "row {r} out of range {}", self.nrows);
        self.bands
            .iter()
            .zip(mask.words.iter())
            .all(|(band, &mw)| Self::band_word(band, r) & mw == mw)
    }

    /// Returns row `r` restricted to `mask` (bits outside `mask` cleared).
    pub fn row_masked(&self, r: usize, mask: &BitVec) -> BitVec {
        assert_eq!(mask.len(), self.ncols, "mask width mismatch");
        assert!(r < self.nrows, "row {r} out of range {}", self.nrows);
        BitVec {
            nbits: self.ncols,
            words: self
                .bands
                .iter()
                .zip(&mask.words)
                .map(|(band, &mw)| Self::band_word(band, r) & mw)
                .collect(),
        }
    }

    /// Total number of set bits.
    pub fn count_ones(&self) -> usize {
        self.bands
            .iter()
            .map(|band| kernels::count_ones(band))
            .sum()
    }

    /// Builds a new matrix keeping only the listed columns, in the given
    /// order (the paper's "restrict the arrays to the columns of 𝒯").
    pub fn restrict_columns(&self, cols: &[usize]) -> BitMatrix {
        for &c in cols {
            assert!(c < self.ncols, "column {c} out of range {}", self.ncols);
        }
        let mut out = BitMatrix::zeros(self.nrows, cols.len());
        for (new_c, &old_c) in cols.iter().enumerate() {
            let src = &self.bands[old_c / WORD_BITS];
            let src_mask = 1u64 << (old_c % WORD_BITS);
            let dst_mask = 1u64 << (new_c % WORD_BITS);
            let dst = Arc::make_mut(&mut out.bands[new_c / WORD_BITS]);
            if dst.len() < src.len() {
                dst.resize(src.len(), 0);
            }
            for (d, &s) in dst.iter_mut().zip(src.iter()) {
                if s & src_mask != 0 {
                    *d |= dst_mask;
                }
            }
        }
        out.debug_validate();
        out
    }

    /// Builds a copy with `new_ncols ≥ ncols` columns; existing bits keep
    /// their positions, new columns start clear (used when a temporal
    /// graph's domain is extended with fresh time points).
    ///
    /// Copy-on-write: the existing bands are `Arc`-shared with `self`, and
    /// the appended column range starts as empty bands — nothing about the
    /// history is copied. (The old final band's clean tail is exactly what
    /// makes its spare bits valid all-zero columns of the widened matrix.)
    ///
    /// # Panics
    /// Panics if `new_ncols < ncols`.
    pub fn widen(&self, new_ncols: usize) -> BitMatrix {
        assert!(
            new_ncols >= self.ncols,
            "widen cannot shrink: {} -> {new_ncols}",
            self.ncols
        );
        let mut bands = self.bands.clone();
        bands.resize_with(words_for(new_ncols), || Arc::new(Vec::new()));
        let out = BitMatrix {
            ncols: new_ncols,
            nrows: self.nrows,
            bands,
        };
        out.debug_validate();
        out
    }

    /// Builds a new matrix keeping only the listed rows, in the given order.
    pub fn select_rows(&self, rows: &[usize]) -> BitMatrix {
        for &r in rows {
            assert!(r < self.nrows, "row {r} out of range {}", self.nrows);
        }
        let bands = self
            .bands
            .iter()
            .map(|band| {
                Arc::new(
                    rows.iter()
                        .map(|&r| Self::band_word(band, r))
                        .collect::<Vec<u64>>(),
                )
            })
            .collect();
        let out = BitMatrix {
            ncols: self.ncols,
            nrows: rows.len(),
            bands,
        };
        out.debug_validate();
        out
    }

    /// Iterates set-bit column positions of row `r`.
    ///
    /// # Panics
    /// Panics if `r` is out of range.
    pub fn iter_row_ones(&self, r: usize) -> impl Iterator<Item = usize> + '_ {
        assert!(r < self.nrows, "row {r} out of range {}", self.nrows);
        self.bands.iter().enumerate().flat_map(move |(wi, band)| {
            word_ones(Self::band_word(band, r)).map(move |b| wi * WORD_BITS + b)
        })
    }

    /// Builds the column-major companion of this matrix: one presence
    /// column over the rows per source column (for presence matrices,
    /// "which entities exist at time point `c`" as a single packed vector).
    ///
    /// Equivalent to [`transposed_with`](Self::transposed_with) with
    /// [`SparseMode::Auto`]: each column independently picks the dense or
    /// sparse representation by its own density.
    pub fn transposed(&self) -> TransposedBitMatrix {
        self.transposed_with(SparseMode::Auto)
    }

    /// Builds the column-major companion with an explicit representation
    /// policy for the resulting columns.
    ///
    /// The transpose itself is cache-blocked: the matrix is walked in
    /// 64×64-bit tiles (64 consecutive rows × one word of columns), each
    /// tile is flipped in registers by `transpose64`, and the flipped
    /// words are scattered into per-column stores. One pass touches each
    /// source word exactly once, all-zero tiles short-circuit, and the
    /// write stream per tile stays within 64 columns — unlike the naive
    /// per-set-bit scatter, whose writes stride the full column array.
    /// The result is immutable and intended to be built once and cached
    /// (see `TemporalGraph::node_presence_columns`).
    pub fn transposed_with(&self, mode: SparseMode) -> TransposedBitMatrix {
        let col_words = words_for(self.nrows);
        let mut col_data: Vec<Vec<u64>> = vec![vec![0u64; col_words]; self.ncols];
        let mut tile = [0u64; WORD_BITS];
        // Band-major: each band is one contiguous word stream covering 64
        // columns, so the gather reads sequentially.
        for (wb, band) in self.bands.iter().enumerate() {
            let c0 = wb * WORD_BITS;
            let cols_here = (self.ncols - c0).min(WORD_BITS);
            // `rb` both indexes `col_data` rows-of-words and derives `r0`,
            // with an early break past the band's materialized length
            #[allow(clippy::needless_range_loop)]
            for rb in 0..col_words {
                let r0 = rb * WORD_BITS;
                if r0 >= band.len() {
                    // rows past the band's materialized length are all
                    // zero, and `rb` only increases from here
                    break;
                }
                let rows = (self.nrows - r0).min(WORD_BITS);
                // Gather: word `wb` of 64 consecutive rows.
                let mut nonzero = 0u64;
                for (i, t) in tile.iter_mut().take(rows).enumerate() {
                    let w = Self::band_word(band, r0 + i);
                    *t = w;
                    nonzero |= w;
                }
                // Entries past `rows` may hold stale words from the
                // previous tile; they must not leak into these columns.
                for t in tile.iter_mut().skip(rows) {
                    *t = 0;
                }
                if nonzero == 0 {
                    continue;
                }
                transpose64(&mut tile);
                for (j, &t) in tile.iter().take(cols_here).enumerate() {
                    if t != 0 {
                        col_data[c0 + j][rb] = t;
                    }
                }
            }
        }
        let cols: Vec<Arc<PresenceColumn>> = col_data
            .into_iter()
            .map(|words| Arc::new(PresenceColumn::from_raw_words(self.nrows, words, mode)))
            .collect();
        let t = TransposedBitMatrix {
            source_rows: self.nrows,
            cols,
        };
        debug_assert_eq!(t.check_invariants(), Ok(()));
        // Round-trip sampling: corner and center cells must agree with the
        // row-major source (full verification would double the build cost).
        #[cfg(debug_assertions)]
        if self.nrows > 0 && self.ncols > 0 {
            for r in [0, self.nrows / 2, self.nrows - 1] {
                for c in [0, self.ncols / 2, self.ncols - 1] {
                    debug_assert_eq!(
                        self.get(r, c),
                        t.cols[c].get(r),
                        "transpose round-trip mismatch at ({r}, {c})"
                    );
                }
            }
        }
        t
    }
}

/// Column-major view of a [`BitMatrix`]: one packed [`PresenceColumn`] over
/// the source *rows* per source *column*.
///
/// Where a presence [`BitMatrix`] answers "at which time points does entity
/// `r` exist?" row by row, the transposed form answers "which entities
/// exist at time point `c`?" as one whole vector — the layout the
/// chain-incremental exploration cursor folds with `acc |= col[t]` /
/// `acc &= col[t]` in O(rows/64) words per extension step (or O(nnz) when
/// the column chose the sparse representation).
///
/// Columns are individually `Arc`-shared, so cloning the transposed index
/// for a new epoch copies only the column spine; appending a time point is
/// [`push_col`](Self::push_col) + [`grow_rows`](Self::grow_rows), with
/// every prior column left physically shared and read as zero-extended up
/// to the new `source_rows` (entities created after a column's time point
/// are absent at it by construction).
#[must_use = "a transposed index built and dropped is a lost result"]
#[derive(Clone, Debug)]
pub struct TransposedBitMatrix {
    source_rows: usize,
    cols: Vec<Arc<PresenceColumn>>,
}

impl PartialEq for TransposedBitMatrix {
    fn eq(&self, other: &Self) -> bool {
        // semantic equality under zero-extension: carried-forward columns
        // may be stored shorter than freshly transposed ones
        self.source_rows == other.source_rows
            && self.cols.len() == other.cols.len()
            && self
                .cols
                .iter()
                .zip(&other.cols)
                .all(|(a, b)| Arc::ptr_eq(a, b) || a.bits_eq(b))
    }
}

impl Eq for TransposedBitMatrix {}

impl TransposedBitMatrix {
    /// Number of columns (source-matrix columns, e.g. time points).
    #[inline]
    pub fn n_cols(&self) -> usize {
        self.cols.len()
    }

    /// Number of rows of the source matrix. Columns may be stored shorter
    /// (zero-extended): a column appended at an earlier epoch spans only
    /// the entities that existed then.
    #[inline]
    pub fn source_rows(&self) -> usize {
        self.source_rows
    }

    /// The presence column of source rows set in column `c`.
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

    /// Appends one presence column (the incremental-maintenance step for a
    /// freshly appended time point). The column picks its own dense/sparse
    /// representation upstream ([`PresenceColumn::from_bitvec`]); prior
    /// columns are untouched and stay `Arc`-shared with earlier epochs.
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

    /// Declares a larger source-row span (entities appended since this
    /// index was built). Existing columns keep their stored width and are
    /// read as zero-extended — a new entity is absent at every old time
    /// point.
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

    /// Count of columns physically shared (same allocation) with `other` —
    /// a test/bench hook for asserting incremental maintenance shares
    /// prior columns instead of re-transposing them.
    pub fn shared_cols(&self, other: &TransposedBitMatrix) -> usize {
        self.cols
            .iter()
            .zip(&other.cols)
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count()
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
                    "TransposedBitMatrix column {c} spans {} bits, more than source_rows {}",
                    col.len(),
                    self.source_rows
                ));
            }
            col.check_invariants()
                .map_err(|e| format!("TransposedBitMatrix column {c}: {e}"))?;
        }
        Ok(())
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
        let mut d = a.clone();
        d.and_not_assign(&b);
        assert_eq!(d.iter_ones().collect::<Vec<_>>(), vec![1, 5]);
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
    fn matrix_push_and_get() {
        let mut m = BitMatrix::new(5);
        let r0 = m.push_row(&BitVec::from_indices(5, [0, 2]));
        let r1 = m.push_empty_row();
        assert_eq!((r0, r1), (0, 1));
        assert_eq!(m.nrows(), 2);
        assert!(m.get(0, 0) && m.get(0, 2) && !m.get(0, 1));
        m.set(1, 4, true);
        assert!(m.get(1, 4));
        assert_eq!(m.count_ones(), 3);
    }

    #[test]
    fn matrix_row_any_all_masked() {
        let mut m = BitMatrix::new(4);
        m.push_row(&BitVec::from_indices(4, [0, 1]));
        m.push_row(&BitVec::from_indices(4, [2]));
        let mask = BitVec::from_indices(4, [0, 1]);
        assert!(m.row_any(0, &mask));
        assert!(m.row_all(0, &mask));
        assert!(!m.row_any(1, &mask));
        assert!(!m.row_all(1, &mask));
        assert_eq!(
            m.row_masked(0, &BitVec::from_indices(4, [1, 2]))
                .iter_ones()
                .collect::<Vec<_>>(),
            vec![1]
        );
    }

    #[test]
    fn matrix_restrict_columns() {
        let mut m = BitMatrix::new(4);
        m.push_row(&BitVec::from_indices(4, [0, 3]));
        m.push_row(&BitVec::from_indices(4, [1, 2]));
        let r = m.restrict_columns(&[3, 1]);
        assert_eq!(r.ncols(), 2);
        assert!(r.get(0, 0) && !r.get(0, 1));
        assert!(!r.get(1, 0) && r.get(1, 1));
    }

    #[test]
    fn matrix_select_rows() {
        let mut m = BitMatrix::new(3);
        m.push_row(&BitVec::from_indices(3, [0]));
        m.push_row(&BitVec::from_indices(3, [1]));
        m.push_row(&BitVec::from_indices(3, [2]));
        let s = m.select_rows(&[2, 0]);
        assert_eq!(s.nrows(), 2);
        assert!(s.get(0, 2) && s.get(1, 0));
    }

    #[test]
    fn matrix_widen() {
        let mut m = BitMatrix::new(3);
        m.push_row(&BitVec::from_indices(3, [0, 2]));
        let w = m.widen(70);
        assert_eq!(w.ncols(), 70);
        assert!(w.get(0, 0) && w.get(0, 2));
        assert_eq!(w.count_ones(), 2);
    }

    #[test]
    #[should_panic(expected = "cannot shrink")]
    fn matrix_widen_shrink_panics() {
        let _ = BitMatrix::new(3).widen(2);
    }

    /// Set bits of column `c`, counted one `get(r, c)` at a time.
    fn column_ones(m: &BitMatrix, c: usize) -> usize {
        (0..m.nrows()).filter(|&r| m.get(r, c)).count()
    }

    #[test]
    fn matrix_column_ones() {
        let mut m = BitMatrix::new(3);
        m.push_row(&BitVec::from_indices(3, [0, 1]));
        m.push_row(&BitVec::from_indices(3, [1]));
        assert_eq!(column_ones(&m, 0), 1);
        assert_eq!(column_ones(&m, 1), 2);
        assert_eq!(column_ones(&m, 2), 0);
    }

    #[test]
    fn matrix_iter_row_ones_across_words() {
        let mut m = BitMatrix::new(130);
        m.push_row(&BitVec::from_indices(130, [0, 64, 129]));
        assert_eq!(m.iter_row_ones(0).collect::<Vec<_>>(), vec![0, 64, 129]);
    }

    #[test]
    fn ternary_ops_match_assign_forms() {
        let a = BitVec::from_indices(130, [0, 5, 64, 100, 129]);
        let b = BitVec::from_indices(130, [5, 64, 128]);
        let mut out = BitVec::ones(130);
        a.and_into(&b, &mut out);
        assert_eq!(out, a.and(&b));
        a.and_not_into(&b, &mut out);
        let mut expect = a.clone();
        expect.and_not_assign(&b);
        assert_eq!(out, expect);
        // fused |= a & b
        let mut acc = BitVec::from_indices(130, [1]);
        acc.or_and_assign(&a, &b);
        assert_eq!(acc.iter_ones().collect::<Vec<_>>(), vec![1, 5, 64]);
        // copy_from + clear_all reuse the buffer
        let mut buf = BitVec::zeros(130);
        buf.copy_from(&a);
        assert_eq!(buf, a);
        buf.clear_all();
        assert!(buf.is_zero());
        assert_eq!(buf.len(), 130);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn ternary_width_mismatch_panics() {
        let a = BitVec::zeros(10);
        let b = BitVec::zeros(10);
        let mut out = BitVec::zeros(11);
        a.and_into(&b, &mut out);
    }

    #[test]
    fn transposed_round_trips() {
        // 3 columns over 70 rows exercises multi-word column vectors
        let mut m = BitMatrix::new(3);
        for r in 0..70 {
            m.push_row(&BitVec::from_indices(
                3,
                (0..3).filter(|c| (r + c) % (c + 2) == 0),
            ));
        }
        let t = m.transposed();
        assert_eq!(t.n_cols(), 3);
        assert_eq!(t.source_rows(), 70);
        for r in 0..m.nrows() {
            for c in 0..m.ncols() {
                assert_eq!(t.col(c).get(r), m.get(r, c), "({r},{c})");
            }
        }
        // column popcounts agree with the row-major bits
        for c in 0..m.ncols() {
            assert_eq!(t.col(c).count_ones(), column_ones(&m, c));
        }
    }

    #[test]
    fn transposed_empty_and_rowless() {
        let t = BitMatrix::new(4).transposed();
        assert_eq!(t.n_cols(), 4);
        assert_eq!(t.source_rows(), 0);
        assert!(t.col(3).is_empty());
        let t = BitMatrix::zeros(5, 0).transposed();
        assert_eq!(t.n_cols(), 0);
        assert_eq!(t.source_rows(), 5);
    }

    #[test]
    fn transpose64_matches_naive() {
        // deterministic pseudo-random tile (splitmix64)
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut tile = [0u64; 64];
        for t in &mut tile {
            *t = next();
        }
        let orig = tile;
        transpose64(&mut tile);
        for (i, &row) in orig.iter().enumerate() {
            for (j, &col) in tile.iter().enumerate() {
                assert_eq!(
                    (row >> j) & 1,
                    (col >> i) & 1,
                    "bit ({i},{j}) lost in transpose"
                );
            }
        }
        // involution: transposing twice restores the tile
        transpose64(&mut tile);
        assert_eq!(tile, orig);
    }

    #[test]
    fn blocked_transpose_matches_cells_at_boundaries() {
        // word-boundary row counts exercise the partial final tile; the
        // 130-column case exercises multi-tile column blocks
        for nrows in [1, 63, 64, 65, 130] {
            for ncols in [1, 63, 64, 65, 130] {
                let mut m = BitMatrix::zeros(nrows, ncols);
                for r in 0..nrows {
                    for c in 0..ncols {
                        if (r * 31 + c * 17) % 5 == 0 {
                            m.set(r, c, true);
                        }
                    }
                }
                for mode in [
                    SparseMode::Auto,
                    SparseMode::ForceDense,
                    SparseMode::ForceSparse,
                ] {
                    let t = m.transposed_with(mode);
                    assert_eq!(t.check_invariants(), Ok(()));
                    for r in 0..nrows {
                        for c in 0..ncols {
                            assert_eq!(
                                t.col(c).get(r),
                                m.get(r, c),
                                "({r},{c}) {nrows}x{ncols} {mode:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn blocked_transpose_stale_tile_rows_do_not_leak() {
        // 65 rows: the second row-block holds 1 live row; a dense first
        // block must not bleed into rows 64.. of any column.
        let mut m = BitMatrix::zeros(65, 3);
        for r in 0..64 {
            for c in 0..3 {
                m.set(r, c, true);
            }
        }
        let t = m.transposed_with(SparseMode::ForceDense);
        for c in 0..3 {
            assert!(!t.col(c).get(64));
            assert_eq!(t.col(c).count_ones(), 64);
        }
    }

    #[test]
    fn push_col_appends_column_and_matches_push_row_build() {
        // build column-wise and row-wise; results must be equal
        let mut by_col = BitMatrix::new(0);
        for _ in 0..70 {
            by_col.push_empty_row();
        }
        by_col.push_col((0..70).filter(|r| r % 3 == 0));
        by_col.push_col((0..70).filter(|r| r % 7 == 0));
        by_col.push_col(std::iter::empty());
        assert_eq!(by_col.check_invariants(), Ok(()));
        assert_eq!(by_col.ncols(), 3);

        let mut by_row = BitMatrix::new(3);
        for r in 0..70 {
            let mut bits = Vec::new();
            if r % 3 == 0 {
                bits.push(0);
            }
            if r % 7 == 0 {
                bits.push(1);
            }
            by_row.push_row(&BitVec::from_indices(3, bits));
        }
        assert_eq!(by_col, by_row);
        assert_eq!(column_ones(&by_col, 0), column_ones(&by_row, 0));
    }

    #[test]
    fn clone_then_push_col_shares_full_bands() {
        // 130 columns = 3 bands; appending a 131st column touches only
        // the final band — the first two stay physically shared
        let mut m = BitMatrix::new(130);
        for r in 0..50 {
            m.push_row(&BitVec::from_indices(130, [r % 130, (r * 7) % 130]));
        }
        let snapshot = m.clone();
        m.push_col([1, 3, 40]);
        assert_eq!(m.ncols(), 131);
        assert_eq!(m.check_invariants(), Ok(()));
        assert_eq!(m.shared_bands(&snapshot), 2, "full bands must stay shared");
        // the snapshot is unperturbed
        assert_eq!(snapshot.ncols(), 130);
        assert_eq!(snapshot.check_invariants(), Ok(()));
        for r in 0..50 {
            for c in 0..130 {
                assert_eq!(snapshot.get(r, c), m.get(r, c), "({r},{c})");
            }
        }
        assert!(m.get(1, 130) && m.get(3, 130) && m.get(40, 130));
        assert!(!m.get(0, 130));
    }

    #[test]
    fn widen_shares_all_bands_with_source() {
        let mut m = BitMatrix::new(70);
        for r in 0..20 {
            m.push_row(&BitVec::from_indices(70, [r, 69 - r]));
        }
        let w = m.widen(200);
        assert_eq!(w.ncols(), 200);
        assert_eq!(w.check_invariants(), Ok(()));
        assert_eq!(w.shared_bands(&m), m.n_bands());
        assert_eq!(w.count_ones(), m.count_ones());
    }

    #[test]
    fn push_empty_rows_are_implicit_and_semantically_equal() {
        let mut a = BitMatrix::new(5);
        a.push_row(&BitVec::from_indices(5, [1]));
        a.push_empty_row();
        a.push_empty_row();
        let mut b = BitMatrix::new(5);
        b.push_row(&BitVec::from_indices(5, [1]));
        b.push_row(&BitVec::zeros(5));
        b.push_row(&BitVec::zeros(5));
        assert_eq!(a, b);
        assert_eq!(a.row(2), BitVec::zeros(5));
        assert_eq!(a.count_ones(), 1);
        // transposes agree too
        assert_eq!(a.transposed(), b.transposed());
    }

    #[test]
    fn transposed_push_col_and_grow_rows_match_full_rebuild() {
        let mut m = BitMatrix::new(3);
        for r in 0..70 {
            m.push_row(&BitVec::from_indices(
                3,
                (0..3).filter(|c| (r + c) % (c + 2) == 0),
            ));
        }
        let mut t = m.transposed();
        // grow the entity space and append a time point incrementally
        for _ in 0..10 {
            m.push_empty_row();
        }
        m.push_col([0, 64, 75, 79]);
        t.grow_rows(80);
        t.push_col(PresenceColumn::from_bitvec(
            BitVec::from_indices(80, [0, 64, 75, 79]),
            SparseMode::Auto,
        ));
        assert_eq!(t.check_invariants(), Ok(()));
        let rebuilt = m.transposed();
        assert_eq!(t, rebuilt, "incremental must equal from-scratch");
        // all prior columns stayed shared with... themselves (no rebuild)
        assert_eq!(t.n_cols(), 4);
        assert_eq!(t.source_rows(), 80);
        // zero-extension: old columns read absent for new entities
        for c in 0..3 {
            for r in 70..80 {
                assert!(!t.col(c).get(r));
            }
        }
    }

    #[test]
    #[should_panic(expected = "more than source_rows")]
    fn transposed_push_col_too_wide_panics() {
        let mut t = BitMatrix::zeros(10, 2).transposed();
        t.push_col(PresenceColumn::from_bitvec(
            BitVec::zeros(11),
            SparseMode::Auto,
        ));
    }
}
