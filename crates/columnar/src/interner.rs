//! Label interning.
//!
//! The paper's arrays are *labeled*: rows carry node or edge identifiers and
//! categorical attributes carry string labels ("m", "f", occupation names).
//! [`Interner`] maps such labels to dense `u32` codes and back, so the hot
//! paths work on integers.

use std::collections::HashMap;
use std::hash::Hash;

/// Interners up to this size answer [`Interner::code`] by a linear scan.
const LINEAR_PROBE_MAX: usize = 32;

/// A bidirectional map from labels to dense `u32` codes.
#[derive(Clone, Debug, Default)]
pub struct Interner<T: Eq + Hash + Clone> {
    to_code: HashMap<T, u32>,
    items: Vec<T>,
}

impl<T: Eq + Hash + Clone> Interner<T> {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Interner {
            to_code: HashMap::new(),
            items: Vec::new(),
        }
    }

    /// Interns `label`, returning its code (existing or freshly assigned).
    ///
    /// # Panics
    /// Panics if more than `u32::MAX` distinct labels are interned.
    pub fn intern(&mut self, label: T) -> u32 {
        if let Some(c) = self.code(&label) {
            return c;
        }
        #[allow(clippy::expect_used)]
        let code = u32::try_from(self.items.len())
            .expect("invariant: fewer than u32::MAX distinct labels (documented capacity)");
        self.items.push(label.clone());
        self.to_code.insert(label, code);
        code
    }

    /// Looks up the code of `label` without interning. A small interner is
    /// probed linearly: comparing a handful of labels is cheaper than
    /// hashing one, and attribute dictionaries rarely grow past that.
    pub fn code(&self, label: &T) -> Option<u32> {
        if self.items.len() <= LINEAR_PROBE_MAX {
            return self.items.iter().position(|l| l == label).map(|i| i as u32);
        }
        self.to_code.get(label).copied()
    }

    /// Resolves a code back to its label.
    pub fn resolve(&self, code: u32) -> Option<&T> {
        self.items.get(code as usize)
    }

    /// The labels, indexed by code.
    pub fn labels(&self) -> &[T] {
        &self.items
    }

    /// Number of distinct labels interned.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Iterates `(code, label)` pairs in code order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &T)> {
        self.items.iter().enumerate().map(|(i, l)| (i as u32, l))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("alpha".to_string());
        let b = i.intern("beta".to_string());
        assert_eq!(i.intern("alpha".to_string()), a);
        assert_ne!(a, b);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn resolve_roundtrip() {
        let mut i = Interner::new();
        let c = i.intern(42u64);
        assert_eq!(i.resolve(c), Some(&42));
        assert_eq!(i.code(&42), Some(c));
        assert_eq!(i.code(&43), None);
        assert_eq!(i.resolve(99), None);
    }

    #[test]
    fn lookups_agree_across_the_linear_probe_boundary() {
        let mut i = Interner::new();
        for n in 0..3 * LINEAR_PROBE_MAX as u64 {
            assert_eq!(i.code(&n), None);
            assert_eq!(i.intern(n), n as u32);
            assert_eq!(i.intern(n), n as u32);
            assert_eq!(i.code(&(n / 2)), Some((n / 2) as u32));
        }
        assert_eq!(i.labels().len(), 3 * LINEAR_PROBE_MAX);
    }

    #[test]
    fn iter_in_code_order() {
        let mut i = Interner::new();
        i.intern("x");
        i.intern("y");
        let pairs: Vec<_> = i.iter().collect();
        assert_eq!(pairs, vec![(0, &"x"), (1, &"y")]);
    }

    #[test]
    fn empty() {
        let i: Interner<String> = Interner::new();
        assert!(i.is_empty());
        assert_eq!(i.len(), 0);
    }
}
