//! Named registry of immutable graph snapshots.
//!
//! Snapshots are `Arc<TemporalGraph>`: once registered they are never
//! mutated, so any number of request handlers can hold and query one
//! concurrently while the registry itself stays behind a short-lived lock.
//!
//! Every name carries a monotonically increasing **epoch id**, starting at
//! 1 and bumped on every replacement (a `load`/`generate` over an existing
//! name, or an `append`). Responses echo the epoch so a client can always
//! tell which version of a snapshot answered, and
//! [`SnapshotRegistry::replace_if_current`] gives writers a compare-and-swap
//! primitive: an append computed against an epoch that has since been
//! replaced is rejected instead of silently clobbering the newer graph.
//!
//! The `(graph, epoch)` pair lives in one map entry behind one mutex, and
//! every method is a single lock section: `get` can never pair a graph with
//! another version's epoch, and `replace_if_current` compares and swaps
//! without a window for a second writer. The unit tests below and
//! `tests/registry_concurrency.rs` hold both properties.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use tempo_graph::TemporalGraph;

/// A concurrent map from snapshot name to an immutable shared graph.
#[derive(Default)]
pub struct SnapshotRegistry {
    inner: Mutex<BTreeMap<String, (Arc<TemporalGraph>, u64)>>,
}

impl std::fmt::Debug for SnapshotRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotRegistry")
            .field("len", &self.len())
            .finish()
    }
}

impl SnapshotRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Locks the map. A poisoned lock is recovered: every update below is
    /// one `insert`/`remove` or two field stores on an entry, so a handler
    /// that panicked while holding the guard left the map valid.
    fn lock(&self) -> MutexGuard<'_, BTreeMap<String, (Arc<TemporalGraph>, u64)>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers (or replaces) a snapshot under `name`, returning the new
    /// epoch id: 1 for a fresh name, the previous epoch + 1 on replacement.
    pub fn insert(&self, name: &str, graph: Arc<TemporalGraph>) -> u64 {
        let mut map = self.lock();
        let epoch = map.get(name).map_or(1, |(_, e)| e + 1);
        map.insert(name.to_owned(), (graph, epoch));
        epoch
    }

    /// Returns the snapshot registered under `name` with its epoch, if any.
    /// Graph and epoch are read in one lock section; the `Arc` is cloned
    /// and the lock released before returning, so callers never hold the
    /// registry across query execution.
    pub fn get(&self, name: &str) -> Option<(Arc<TemporalGraph>, u64)> {
        self.lock().get(name).map(|(g, e)| (Arc::clone(g), *e))
    }

    /// Atomically replaces `name` with `next` **only if** the registered
    /// graph is still exactly `current` (pointer identity). Returns the new
    /// epoch on success, or `None` if the entry was removed or replaced in
    /// the meantime — the caller computed against a stale epoch.
    pub fn replace_if_current(
        &self,
        name: &str,
        current: &Arc<TemporalGraph>,
        next: Arc<TemporalGraph>,
    ) -> Option<u64> {
        let mut map = self.lock();
        let entry = map.get_mut(name)?;
        if !Arc::ptr_eq(&entry.0, current) {
            return None;
        }
        entry.0 = next;
        entry.1 += 1;
        Some(entry.1)
    }

    /// Removes a snapshot; returns whether it existed.
    pub fn remove(&self, name: &str) -> bool {
        self.lock().remove(name).is_some()
    }

    /// Lists `(name, graph, epoch)` triples in name order.
    pub fn list(&self) -> Vec<(String, Arc<TemporalGraph>, u64)> {
        self.lock()
            .iter()
            .map(|(k, (g, e))| (k.clone(), Arc::clone(g), *e))
            .collect()
    }

    /// Number of registered snapshots.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_graph::fixtures;

    #[test]
    fn insert_get_remove_roundtrip() {
        let reg = SnapshotRegistry::new();
        assert!(reg.is_empty());
        let g = Arc::new(fixtures::fig1());
        assert_eq!(reg.insert("a", Arc::clone(&g)), 1);
        assert_eq!(reg.insert("b", Arc::clone(&g)), 1);
        assert_eq!(reg.len(), 2);
        let (got, epoch) = reg.get("a").expect("invariant: just inserted");
        assert!(Arc::ptr_eq(&got, &g));
        assert_eq!(epoch, 1);
        assert!(reg.get("zzz").is_none());
        let names: Vec<String> = reg.list().into_iter().map(|(n, _, _)| n).collect();
        assert_eq!(names, vec!["a".to_owned(), "b".to_owned()]);
        assert!(reg.remove("a"));
        assert!(!reg.remove("a"));
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn replacement_bumps_epoch_monotonically() {
        let reg = SnapshotRegistry::new();
        let g1 = Arc::new(fixtures::fig1());
        let g2 = Arc::new(fixtures::fig1());
        assert_eq!(reg.insert("g", Arc::clone(&g1)), 1);
        assert_eq!(reg.insert("g", Arc::clone(&g2)), 2);
        let (got, epoch) = reg.get("g").expect("invariant: present");
        assert!(Arc::ptr_eq(&got, &g2));
        assert_eq!(epoch, 2);
        // re-registering after a drop starts a fresh epoch line
        assert!(reg.remove("g"));
        assert_eq!(reg.insert("g", g1), 1);
    }

    #[test]
    fn replace_if_current_is_a_cas() {
        let reg = SnapshotRegistry::new();
        let g1 = Arc::new(fixtures::fig1());
        let g2 = Arc::new(fixtures::fig1());
        let g3 = Arc::new(fixtures::fig1());
        reg.insert("g", Arc::clone(&g1));
        // succeeds while g1 is still current
        assert_eq!(reg.replace_if_current("g", &g1, Arc::clone(&g2)), Some(2));
        // a writer that computed against g1 loses the race
        assert_eq!(reg.replace_if_current("g", &g1, Arc::clone(&g3)), None);
        let (got, epoch) = reg.get("g").expect("invariant: present");
        assert!(Arc::ptr_eq(&got, &g2));
        assert_eq!(epoch, 2);
        // and against a missing name
        assert_eq!(reg.replace_if_current("x", &g1, g3), None);
    }
}
