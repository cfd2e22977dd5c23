//! Time domain, time points, intervals, and sets of time points.
//!
//! GraphTempo assumes a finite ordered set of elementary time points
//! (`t_0 … t_{n-1}`: years for DBLP, months for MovieLens). A temporal
//! graph's timestamps `τu(u)` / `τe(e)` are *sets of intervals* over that
//! domain — represented here as [`TimeSet`], a bitset over the domain,
//! whose maximal contiguous runs [`TimeSet::intervals`] lists.

use crate::error::GraphError;
use std::fmt;
use tempo_columnar::BitVec;

/// An index into a [`TimeDomain`] (an elementary time point).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimePoint(pub u32);

impl TimePoint {
    /// The position of the time point within its domain.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for TimePoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// The ordered, labeled set of elementary time points of a temporal graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TimeDomain {
    labels: Vec<String>,
}

impl TimeDomain {
    /// Creates a domain from ordered labels (e.g. `["2000", …, "2020"]`).
    ///
    /// # Errors
    /// Returns an error if the label list is empty or contains duplicates.
    pub fn new<S: Into<String>>(labels: Vec<S>) -> Result<Self, GraphError> {
        let labels: Vec<String> = labels.into_iter().map(Into::into).collect();
        if labels.is_empty() {
            return Err(GraphError::EmptyTimeDomain);
        }
        for (i, l) in labels.iter().enumerate() {
            if labels[..i].contains(l) {
                return Err(GraphError::DuplicateTimeLabel(l.clone()));
            }
        }
        Ok(TimeDomain { labels })
    }

    /// Creates a domain of `n` points labeled `t0 … t{n-1}`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn indexed(n: usize) -> Self {
        assert!(n > 0, "time domain must not be empty");
        TimeDomain {
            labels: (0..n).map(|i| format!("t{i}")).collect(),
        }
    }

    /// Number of elementary time points.
    #[inline]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Time domains are never empty; this always returns `false`.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The label of point `t`.
    ///
    /// # Panics
    /// Panics if `t` is out of range.
    pub fn label(&self, t: TimePoint) -> &str {
        &self.labels[t.index()]
    }

    /// All labels in order.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// Looks up a point by label.
    pub fn point(&self, label: &str) -> Option<TimePoint> {
        self.labels
            .iter()
            .position(|l| l == label)
            .map(|i| TimePoint(i as u32))
    }

    /// Iterates all points in order.
    pub fn iter(&self) -> impl Iterator<Item = TimePoint> + '_ {
        (0..self.labels.len()).map(|i| TimePoint(i as u32))
    }

    /// The full domain as a [`TimeSet`].
    pub fn all(&self) -> TimeSet {
        TimeSet {
            bits: BitVec::ones(self.len()),
        }
    }
}

/// A set of time points over a fixed domain — the paper's set of
/// intervals 𝒯, stored as a bitset.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct TimeSet {
    bits: BitVec,
}

impl fmt::Debug for TimeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "𝒯{{")?;
        let mut first = true;
        for (start, end) in self.intervals() {
            if !first {
                write!(f, ",")?;
            }
            first = false;
            if start == end {
                write!(f, "{start:?}")?;
            } else {
                write!(f, "{start:?}..{end:?}")?;
            }
        }
        write!(f, "}}")
    }
}

impl TimeSet {
    /// The empty set over a domain of `domain_len` points.
    pub fn empty(domain_len: usize) -> Self {
        TimeSet {
            bits: BitVec::zeros(domain_len),
        }
    }

    /// A singleton set.
    ///
    /// # Panics
    /// Panics if the point is outside the domain.
    pub fn point(domain_len: usize, t: TimePoint) -> Self {
        let mut bits = BitVec::zeros(domain_len);
        bits.set(t.index(), true);
        TimeSet { bits }
    }

    /// Builds a set from explicit point indices.
    ///
    /// # Panics
    /// Panics if any index is outside the domain.
    pub fn from_indices<I: IntoIterator<Item = usize>>(domain_len: usize, idx: I) -> Self {
        TimeSet {
            bits: BitVec::from_indices(domain_len, idx),
        }
    }

    /// Builds a set from a contiguous inclusive index range.
    ///
    /// # Panics
    /// Panics if the range exceeds the domain or is reversed.
    pub fn range(domain_len: usize, start: usize, end: usize) -> Self {
        assert!(start <= end, "range start must not exceed end");
        Self::from_indices(domain_len, start..=end)
    }

    /// Adds a point to the set in place (the exploration cursor grows its
    /// scope by one point per extension step).
    ///
    /// # Panics
    /// Panics if the point is outside the domain.
    pub fn insert(&mut self, t: TimePoint) {
        self.bits.set(t.index(), true);
    }

    /// Removes every point, keeping the domain size.
    pub fn clear(&mut self) {
        self.bits.clear_all();
    }

    /// The underlying bit vector (width = domain size).
    pub fn bits(&self) -> &BitVec {
        &self.bits
    }

    /// Size of the underlying domain.
    pub fn domain_len(&self) -> usize {
        self.bits.len()
    }

    /// Number of points in the set.
    pub fn len(&self) -> usize {
        self.bits.count_ones()
    }

    /// True if the set contains no points.
    pub fn is_empty(&self) -> bool {
        self.bits.is_zero()
    }

    /// True if `t` is in the set.
    pub fn contains(&self, t: TimePoint) -> bool {
        t.index() < self.bits.len() && self.bits.get(t.index())
    }

    /// Set union 𝒯₁ ∪ 𝒯₂.
    ///
    /// # Panics
    /// Panics if the domains differ.
    pub fn union(&self, other: &TimeSet) -> TimeSet {
        TimeSet {
            bits: self.bits.or(&other.bits),
        }
    }

    /// Set intersection 𝒯₁ ∩ 𝒯₂.
    ///
    /// # Panics
    /// Panics if the domains differ.
    pub fn intersect(&self, other: &TimeSet) -> TimeSet {
        TimeSet {
            bits: self.bits.and(&other.bits),
        }
    }

    /// True if the two sets share at least one point.
    pub fn intersects(&self, other: &TimeSet) -> bool {
        self.bits.intersects(&other.bits)
    }

    /// True if `self ⊆ other`.
    pub fn is_subset(&self, other: &TimeSet) -> bool {
        other.bits.contains_all(&self.bits)
    }

    /// Earliest point, if the set is non-empty.
    pub fn min(&self) -> Option<TimePoint> {
        self.bits.first_one().map(|i| TimePoint(i as u32))
    }

    /// Latest point, if the set is non-empty.
    pub fn max(&self) -> Option<TimePoint> {
        self.bits.last_one().map(|i| TimePoint(i as u32))
    }

    /// Iterates points in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = TimePoint> + '_ {
        self.bits.iter_ones().map(|i| TimePoint(i as u32))
    }

    /// Decomposes the set into its maximal contiguous runs, each as its
    /// inclusive `(first, last)` points, in order.
    pub fn intervals(&self) -> Vec<(TimePoint, TimePoint)> {
        let mut out: Vec<(TimePoint, TimePoint)> = Vec::new();
        for t in self.iter() {
            match out.last_mut() {
                Some((_, end)) if end.0 + 1 == t.0 => *end = t,
                _ => out.push((t, t)),
            }
        }
        out
    }

    /// Renders the set using a domain's labels, e.g. `[2000, 2004]`.
    ///
    /// # Panics
    /// Panics if the domain size differs from the set's.
    pub fn display(&self, domain: &TimeDomain) -> String {
        assert_eq!(domain.len(), self.domain_len(), "domain size mismatch");
        if self.is_empty() {
            return "[]".to_owned();
        }
        let parts: Vec<String> = self
            .intervals()
            .into_iter()
            .map(|(start, end)| {
                if start == end {
                    format!("[{}]", domain.label(start))
                } else {
                    format!("[{}, {}]", domain.label(start), domain.label(end))
                }
            })
            .collect();
        parts.join("∪")
    }
}

/// Validates that a time set is non-empty, as required by the temporal
/// operators' interval arguments.
///
/// # Errors
/// Returns [`GraphError::EmptyInterval`] when the set has no points.
pub fn require_non_empty(t: &TimeSet, what: &str) -> Result<(), GraphError> {
    if t.is_empty() {
        Err(GraphError::EmptyInterval(what.to_owned()))
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domain_new_rejects_bad_input() {
        assert!(matches!(
            TimeDomain::new(Vec::<String>::new()),
            Err(GraphError::EmptyTimeDomain)
        ));
        assert!(matches!(
            TimeDomain::new(vec!["a", "a"]),
            Err(GraphError::DuplicateTimeLabel(_))
        ));
    }

    #[test]
    fn domain_lookup() {
        let d = TimeDomain::new(vec!["2000", "2001", "2002"]).unwrap();
        assert_eq!(d.len(), 3);
        assert_eq!(d.point("2001"), Some(TimePoint(1)));
        assert_eq!(d.point("1999"), None);
        assert_eq!(d.label(TimePoint(2)), "2002");
        assert_eq!(d.iter().count(), 3);
        assert_eq!(d.all().len(), 3);
    }

    #[test]
    fn indexed_domain_labels() {
        let d = TimeDomain::indexed(3);
        assert_eq!(d.labels(), &["t0", "t1", "t2"]);
    }

    #[test]
    fn set_ops() {
        let a = TimeSet::from_indices(6, [0, 1, 2]);
        let b = TimeSet::from_indices(6, [2, 3]);
        assert_eq!(a.union(&b).len(), 4);
        assert_eq!(a.intersect(&b).len(), 1);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&TimeSet::from_indices(6, [4, 5])));
        assert!(TimeSet::from_indices(6, [1]).is_subset(&a));
        assert!(!a.is_subset(&b));
        assert_eq!(a.min(), Some(TimePoint(0)));
        assert_eq!(a.max(), Some(TimePoint(2)));
    }

    #[test]
    fn empty_set() {
        let e = TimeSet::empty(4);
        assert!(e.is_empty());
        assert_eq!(e.min(), None);
        assert_eq!(e.intervals(), vec![]);
        assert!(require_non_empty(&e, "𝒯₁").is_err());
        assert!(require_non_empty(&TimeSet::point(4, TimePoint(0)), "𝒯₁").is_ok());
    }

    #[test]
    fn insert_and_clear_mutate_in_place() {
        let mut s = TimeSet::empty(5);
        s.insert(TimePoint(1));
        s.insert(TimePoint(3));
        assert_eq!(s.iter().map(|t| t.0).collect::<Vec<_>>(), vec![1, 3]);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.domain_len(), 5);
    }

    #[test]
    fn intervals_decomposition() {
        let s = TimeSet::from_indices(10, [0, 1, 2, 5, 7, 8]);
        let ivs = s.intervals();
        let run = |a, b| (TimePoint(a), TimePoint(b));
        assert_eq!(ivs, vec![run(0, 2), run(5, 5), run(7, 8)]);
    }

    #[test]
    fn display_with_labels() {
        let d = TimeDomain::new(vec!["May", "Jun", "Jul", "Aug"]).unwrap();
        let s = TimeSet::range(4, 0, 2);
        assert_eq!(s.display(&d), "[May, Jul]");
        let p = TimeSet::point(4, TimePoint(3));
        assert_eq!(p.display(&d), "[Aug]");
        let u = s.union(&p);
        // 0..2 and 3 are adjacent, so they merge into one run
        assert_eq!(u.display(&d), "[May, Aug]");
        assert_eq!(TimeSet::empty(4).display(&d), "[]");
    }

    #[test]
    fn debug_rendering() {
        let s = TimeSet::from_indices(6, [0, 1, 4]);
        assert_eq!(format!("{s:?}"), "𝒯{t0..t1,t4}");
    }
}
