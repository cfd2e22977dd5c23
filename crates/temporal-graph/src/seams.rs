//! Cache-seam registry: the closed list of functions allowed to mutate
//! presence matrices without calling `invalidate_index_caches()`.
//!
//! A [`crate::TemporalGraph`] carries two lazily built indexes derived
//! from its data: the transposed presence columns and the group-id columns
//! (`groups.rs`, derived from the *attribute tables* and keyed by the
//! ordered attribute list). `invalidate_index_caches()` drops and
//! un-shares both.
//!
//! The workspace `cache-seam` lint (`tempo-lint`) flags any function in
//! this crate that touches `node_presence`/`edge_presence` mutators
//! (`set`, `push_empty_row`, `push_col`, `widen`) without invalidating the
//! derived index caches — a stale cache silently corrupts every downstream
//! aggregation. Construction-time mutators are exempt because no caches
//! exist yet (they are built lazily on first query), and the versioned
//! append path carries caches forward explicitly. The lint reads this file
//! as data: it extracts the string literals below, so every exempt function
//! must be named here *and* the list stays reviewable in one place.
//!
//! Attribute cells have the same two seams and no others, because the
//! tables are `pub(crate)` and nothing mutates them in place on a built
//! graph: the builder (`from_graph` consumes the graph, `build` assembles a
//! new one with empty caches) and `append_timepoint`. An append leaves
//! every old cell as it was unless its patch sets a static value of a node
//! the previous epoch already had, so the next epoch gets a group-id cache
//! of its own holding the previous epoch's columns as bases to extend by
//! the appended cells — and an *empty* one when a static cell was
//! rewritten.

/// Functions exempt from the `cache-seam` lint, with why each is safe.
///
/// Builder-phase mutators (no caches can exist before the first query):
/// - `from_graph`, `register_node`, `set_presence`, `set_presence_set`,
///   `set_time_varying`, `edge_row`, `add_edge_at`,
///   `add_edge_at_unchecked`, `get_or_add`
///
/// Versioned append (invalidation handled structurally):
/// - `append_timepoint` — widens presence under the snapshot
///   copy-on-write protocol, which rebuilds or forwards caches itself.
pub const CACHE_SEAM_FNS: &[&str] = &[
    "from_graph",
    "register_node",
    "set_presence",
    "set_presence_set",
    "set_time_varying",
    "edge_row",
    "add_edge_at",
    "add_edge_at_unchecked",
    "get_or_add",
    "append_timepoint",
];

#[cfg(test)]
mod tests {
    use super::CACHE_SEAM_FNS;

    #[test]
    fn seam_list_is_sorted_free_of_duplicates() {
        let mut seen = std::collections::BTreeSet::new();
        for name in CACHE_SEAM_FNS {
            assert!(seen.insert(name), "duplicate seam entry {name}");
            assert!(!name.is_empty());
        }
    }
}
