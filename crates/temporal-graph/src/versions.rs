//! Versioned copy-on-write snapshots: append timepoints without rebuilding.
//!
//! GraphTempo's evaluation graphs (DBLP, MovieLens, Primary School) grow
//! one timepoint at a time, and the ROADMAP names live ingestion with
//! versioned snapshots directly. [`GraphVersions`] is the writer side of
//! that model, following Raphtory's ingest-while-query design: readers
//! keep querying a published immutable `Arc<TemporalGraph>` epoch while
//! the writer assembles the next epoch copy-on-write and publishes it as a
//! *fresh* `Arc` — no epoch is ever mutated in place.
//!
//! Appending a timepoint is cheap in the history length `T`:
//!
//! * presence is one column per time point and side, each `Arc`-shared:
//!   the new epoch clones the previous epoch's column lists (their spines
//!   only), declares the new entities with
//!   [`PresenceColumns::grow_rows`] and adds one
//!   [`PresenceColumns::push_col`] per side for the new timepoint, laid out
//!   dense or sparse under the graph's [`SparseMode`]; no old column is
//!   copied or touched;
//! * attribute tables share their dictionary and their `Arc`-backed code
//!   columns, with one [`ValueMatrix::push_col`] per time-varying table,
//!   interned straight from the patch's `(row, value)` cells;
//! * the group-id columns are carried forward as *bases*: the new epoch's
//!   cache (un-shared from the old one) names the previous epoch's columns,
//!   and the first request per attribute list extends them by the appended
//!   cells (sharing every old id column) instead of re-interning the whole
//!   history — unless the patch
//!   rewrote a static cell of an existing node, which starts the cache
//!   empty.
//!
//! Total per-append cost is `O(V + E + Δ)` — independent of `T` — where
//! `Δ` is the patch size (the `O(V + E)` is the interner, edge list and edge
//! index, which are still copied whole, and the two new columns); the
//! benchmark's `ingest_mixed` workload measures
//! it as `graph.append_ms` and `graph.append_late_over_early`.

use crate::attrs::AttrId;
use crate::error::GraphError;
use crate::graph::{NodeId, TemporalGraph};
use crate::time::TimeDomain;
use std::collections::BTreeSet;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use tempo_columnar::{BitVec, Interner, PresenceColumn, SparseMode, Value, ValueMatrix};

/// Everything that happens at one new timepoint, addressed by entity
/// *names* (new nodes are registered on first reference, exactly like
/// [`crate::GraphBuilder::get_or_add_node`]).
///
/// The setters mirror the builder's convenience semantics: a time-varying
/// value marks the node present, an edge marks both endpoints present, an
/// edge value marks the edge (and endpoints) present — so a patch can
/// never violate Definition 2.1.
#[derive(Clone, Debug, Default)]
pub struct TimepointPatch {
    label: String,
    nodes: Vec<String>,
    statics: Vec<(String, AttrId, Value)>,
    tv_values: Vec<(String, AttrId, Value)>,
    edges: Vec<(String, String)>,
    edge_values: Vec<(String, String, Value)>,
}

impl TimepointPatch {
    /// Starts an empty patch introducing the time label `label`.
    pub fn new(label: impl Into<String>) -> Self {
        TimepointPatch {
            label: label.into(),
            ..TimepointPatch::default()
        }
    }

    /// The time label this patch appends.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Marks `node` present at the new timepoint.
    pub fn mark_node(&mut self, node: impl Into<String>) -> &mut Self {
        self.nodes.push(node.into());
        self
    }

    /// Sets a static attribute value for `node` (does not imply presence,
    /// like [`crate::GraphBuilder::set_static`]).
    pub fn set_static(&mut self, node: impl Into<String>, attr: AttrId, value: Value) -> &mut Self {
        self.statics.push((node.into(), attr, value));
        self
    }

    /// Sets a time-varying attribute value at the new timepoint, marking
    /// the node present there.
    pub fn set_time_varying(
        &mut self,
        node: impl Into<String>,
        attr: AttrId,
        value: Value,
    ) -> &mut Self {
        self.tv_values.push((node.into(), attr, value));
        self
    }

    /// Records edge `(u, v)` at the new timepoint, marking both endpoints
    /// present there.
    pub fn add_edge(&mut self, u: impl Into<String>, v: impl Into<String>) -> &mut Self {
        self.edges.push((u.into(), v.into()));
        self
    }

    /// Records a numeric value for edge `(u, v)` at the new timepoint,
    /// marking the edge and both endpoints present there.
    pub fn set_edge_value(
        &mut self,
        u: impl Into<String>,
        v: impl Into<String>,
        value: Value,
    ) -> &mut Self {
        self.edge_values.push((u.into(), v.into(), value));
        self
    }

    /// Replays this patch onto a builder at time `t` — the from-scratch
    /// reference path the `append_equivalence` tests compare against: a
    /// graph built by successive appends must be bit-identical to one
    /// built by replaying every patch through [`crate::GraphBuilder`].
    /// Entities intern in the same order as
    /// [`GraphVersions::append_timepoint`], so ids line up exactly.
    ///
    /// # Errors
    /// Returns an error if `t` is outside the builder's domain or an
    /// attribute is addressed with the wrong temporality.
    pub fn apply_to_builder(
        &self,
        b: &mut crate::GraphBuilder,
        t: crate::TimePoint,
    ) -> Result<(), GraphError> {
        for n in &self.nodes {
            let id = b.get_or_add_node(n);
            b.set_presence(id, t)?;
        }
        for (n, attr, v) in &self.statics {
            let id = b.get_or_add_node(n);
            b.set_static(id, *attr, v.clone())?;
        }
        for (n, attr, v) in &self.tv_values {
            let id = b.get_or_add_node(n);
            b.set_time_varying(id, *attr, t, v.clone())?;
        }
        for (u, v) in &self.edges {
            let ui = b.get_or_add_node(u);
            let vi = b.get_or_add_node(v);
            b.add_edge_at(ui, vi, t)?;
        }
        for (u, v, val) in &self.edge_values {
            let ui = b.get_or_add_node(u);
            let vi = b.get_or_add_node(v);
            b.set_edge_value(ui, vi, t, val.clone())?;
        }
        Ok(())
    }
}

/// Writer over a sequence of immutable [`TemporalGraph`] epochs.
///
/// Holds the current epoch as an `Arc<TemporalGraph>`;
/// [`append_timepoint`](Self::append_timepoint) builds the next epoch
/// copy-on-write and atomically replaces the held `Arc`. Readers that
/// cloned an earlier `Arc` keep an unchanged view for as long as they
/// hold it — publish-and-forget, no locks on the read path.
#[derive(Debug)]
pub struct GraphVersions {
    current: Arc<TemporalGraph>,
}

impl GraphVersions {
    /// Starts versioning from an existing graph (epoch taken from the
    /// graph's own stamp, `0` for a freshly built one).
    pub fn new(graph: TemporalGraph) -> Self {
        GraphVersions {
            current: Arc::new(graph),
        }
    }

    /// Starts versioning from an already-shared snapshot.
    pub fn from_arc(graph: Arc<TemporalGraph>) -> Self {
        GraphVersions { current: graph }
    }

    /// The current epoch's snapshot (cheap `Arc` clone).
    pub fn current(&self) -> Arc<TemporalGraph> {
        Arc::clone(&self.current)
    }

    /// The current epoch number.
    pub fn epoch(&self) -> u64 {
        self.current.epoch()
    }

    /// Appends one timepoint copy-on-write and publishes the result as a
    /// fresh immutable epoch, which is both returned and installed as
    /// [`current`](Self::current).
    ///
    /// Cost is `O(V + E + patch)` — independent of the history length:
    /// the presence column lists and the value matrices share every old
    /// column with the previous epoch, and each side gains one column.
    ///
    /// # Errors
    /// Returns an error if the patch's label duplicates an existing time
    /// label or an attribute is addressed with the wrong temporality.
    pub fn append_timepoint(
        &mut self,
        patch: &TimepointPatch,
    ) -> Result<Arc<TemporalGraph>, GraphError> {
        let g = &*self.current;
        let mut labels: Vec<String> = g.domain.labels().to_vec();
        labels.push(patch.label.clone());
        let domain = TimeDomain::new(labels)?;
        let t_new = domain.len() - 1;

        // COW working copies: O(V + E) pointer-sized state (interner and
        // edge list), Arc clones for every presence column / column chunk.
        let mut node_names = g.node_names.clone();
        let mut node_presence = g.node_presence.clone();
        let mut edges = g.edges.clone();
        let mut edge_index = g.edge_index.clone();
        let mut edge_presence = g.edge_presence.clone();
        let mut static_table = g.static_table.clone();
        let mut tv_tables = g.tv_tables.clone();
        let mut edge_values = g.edge_values.clone();
        let schema = g.schema.clone();

        // Registers a (possibly new) node by name; new rows push in O(1)
        // thanks to implicit zero/null tails.
        fn get_or_add(
            name: &str,
            names: &mut Interner<String>,
            static_table: &mut ValueMatrix,
            tv_tables: &mut [ValueMatrix],
        ) -> u32 {
            match names.code(&name.to_owned()) {
                Some(c) => c,
                None => {
                    let c = names.intern(name.to_owned());
                    static_table.push_null_row();
                    for tbl in tv_tables.iter_mut() {
                        tbl.push_null_row();
                    }
                    c
                }
            }
        }

        let mut present_nodes: BTreeSet<u32> = BTreeSet::new();
        let mut present_edges: BTreeSet<u32> = BTreeSet::new();
        // Per-slot (row, value) cells for the new time column.
        let mut tv_cells: Vec<Vec<(usize, Value)>> = vec![Vec::new(); tv_tables.len()];
        let mut ev_cells: Vec<(usize, Value)> = Vec::new();

        for name in &patch.nodes {
            present_nodes.insert(get_or_add(
                name,
                &mut node_names,
                &mut static_table,
                &mut tv_tables,
            ));
        }
        // A static cell of a node the previous epoch already had: group
        // ids derived from the old cells no longer hold.
        let mut rewrote_static = false;
        for (name, attr, value) in &patch.statics {
            let slot =
                schema
                    .static_slot(*attr)
                    .ok_or_else(|| GraphError::AttributeKindMismatch {
                        name: schema.def(*attr).name().to_owned(),
                        expected: "static",
                    })?;
            let row = get_or_add(name, &mut node_names, &mut static_table, &mut tv_tables);
            rewrote_static |= (row as usize) < g.n_nodes();
            static_table.set(row as usize, slot, value.clone());
        }
        for (name, attr, value) in &patch.tv_values {
            let slot = schema.time_varying_slot(*attr).ok_or_else(|| {
                GraphError::AttributeKindMismatch {
                    name: schema.def(*attr).name().to_owned(),
                    expected: "time-varying",
                }
            })?;
            let row = get_or_add(name, &mut node_names, &mut static_table, &mut tv_tables);
            present_nodes.insert(row);
            tv_cells[slot].push((row as usize, value.clone()));
        }

        // Resolves a (possibly new) edge row; a new row pushes (when the
        // graph carries them) a null value row.
        fn edge_row(
            u: u32,
            v: u32,
            edges: &mut Vec<(NodeId, NodeId)>,
            edge_index: &mut HashMap<(u32, u32), u32>,
            edge_values: &mut Option<ValueMatrix>,
        ) -> u32 {
            match edge_index.get(&(u, v)) {
                Some(&i) => i,
                None => {
                    let i = edges.len() as u32;
                    edges.push((NodeId(u), NodeId(v)));
                    if let Some(ev) = edge_values {
                        ev.push_null_row();
                    }
                    edge_index.insert((u, v), i);
                    i
                }
            }
        }

        // Edge values require the value matrix to exist; materialize it
        // (all-null, old width) before any new edge rows push into it.
        if !patch.edge_values.is_empty() && edge_values.is_none() {
            let mut m = ValueMatrix::new(g.domain.len());
            for _ in 0..edges.len() {
                m.push_null_row();
            }
            edge_values = Some(m);
        }

        for (u, v, val) in patch.edges.iter().map(|(u, v)| (u, v, None)).chain(
            patch
                .edge_values
                .iter()
                .map(|(u, v, val)| (u, v, Some(val))),
        ) {
            let ur = get_or_add(u, &mut node_names, &mut static_table, &mut tv_tables);
            let vr = get_or_add(v, &mut node_names, &mut static_table, &mut tv_tables);
            present_nodes.insert(ur);
            present_nodes.insert(vr);
            let row = edge_row(ur, vr, &mut edges, &mut edge_index, &mut edge_values);
            present_edges.insert(row);
            if let Some(val) = val {
                ev_cells.push((row as usize, val.clone()));
            }
        }

        // One new presence column per side, over every entity so far; the
        // old columns stay shared and read the new rows as absent.
        let mode = g.sparse_mode;
        node_presence.grow_rows(node_names.len());
        node_presence.push_col(column(node_names.len(), &present_nodes, mode));
        edge_presence.grow_rows(edges.len());
        edge_presence.push_col(column(edges.len(), &present_edges, mode));
        debug_assert_eq!(node_presence.n_cols(), t_new + 1);

        // later cells of a row win, like repeated builder sets
        for (tbl, cells) in tv_tables.iter_mut().zip(tv_cells) {
            tbl.push_col(cells);
        }
        if let Some(ev) = &mut edge_values {
            ev.push_col(ev_cells);
        }

        let next = TemporalGraph {
            domain,
            schema,
            node_names,
            node_presence,
            edges,
            edge_index,
            edge_presence,
            static_table,
            tv_tables,
            edge_values,
            sparse_mode: mode,
            // Group ids of old cells stay valid unless the patch rewrote
            // one of the static cells they were derived from; the new
            // epoch's own cache names the old columns as bases to extend.
            group_cols: if rewrote_static {
                Arc::default()
            } else {
                let prev = g
                    .group_cols
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                Arc::new(Mutex::new(prev.carried_forward()))
            },
            epoch: g.epoch.wrapping_add(1),
        };
        debug_assert_eq!(next.validate().map_err(|e| e.to_string()), Ok(()));
        let published = Arc::new(next);
        self.current = Arc::clone(&published);
        Ok(published)
    }
}

/// The appended point's presence column over `rows` entities, laid out
/// under `mode`.
fn column(rows: usize, present: &BTreeSet<u32>, mode: SparseMode) -> PresenceColumn {
    let bv = BitVec::from_indices(rows, present.iter().map(|&r| r as usize));
    PresenceColumn::from_bitvec(bv, mode)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::TimePoint;
    use crate::{fixtures, GraphBuilder};

    fn pubs_patch() -> TimepointPatch {
        let g = fixtures::fig1();
        let gender = g.schema().id("gender").unwrap();
        let pubs = g.schema().id("publications").unwrap();
        let f = g.schema().category(gender, "f").unwrap();
        let mut p = TimepointPatch::new("t3");
        p.mark_node("u2")
            .add_edge("u2", "u6")
            .set_time_varying("u6", pubs, Value::Int(4))
            .set_static("u6", gender, f)
            .set_edge_value("u3", "u6", Value::Int(2));
        p
    }

    fn assert_graphs_identical(a: &TemporalGraph, b: &TemporalGraph) {
        assert_eq!(a.domain().labels(), b.domain().labels());
        assert_eq!(a.n_nodes(), b.n_nodes());
        for n in a.node_ids() {
            assert_eq!(a.node_name(n), b.node_name(n));
        }
        assert_eq!(a.node_presence_columns(), b.node_presence_columns());
        assert_eq!(a.edge_presence_columns(), b.edge_presence_columns());
        assert_eq!(a.edges, b.edges);
        assert_eq!(a.static_table(), b.static_table());
        assert_eq!(a.tv_tables, b.tv_tables);
        assert_eq!(a.edge_values, b.edge_values);
    }

    #[test]
    fn append_matches_builder_rebuild() {
        let patch = pubs_patch();
        let mut v = GraphVersions::new(fixtures::fig1());
        let appended = v.append_timepoint(&patch).unwrap();

        let mut b = GraphBuilder::from_graph(fixtures::fig1(), &["t3"]).unwrap();
        patch.apply_to_builder(&mut b, TimePoint(3)).unwrap();
        let rebuilt = b.build().unwrap();

        assert_graphs_identical(&appended, &rebuilt);
        assert_eq!(appended.epoch(), 1);
        assert!(appended.validate().is_ok());
        assert!(appended.has_edge_values());
        let u3 = appended.node_id("u3").unwrap();
        let u6 = appended.node_id("u6").unwrap();
        let e = appended.edge_between(u3, u6).unwrap();
        assert_eq!(appended.edge_value(e, TimePoint(3)), Value::Int(2));
    }

    #[test]
    fn readers_of_an_old_epoch_keep_an_unchanged_view() {
        let mut v = GraphVersions::new(fixtures::fig1());
        let old = v.current();
        let new = v.append_timepoint(&pubs_patch()).unwrap();
        assert_eq!(old.domain().len(), 3);
        assert_eq!(old.n_nodes(), 5);
        assert_eq!(old.epoch(), 0);
        assert_eq!(old.node_presence_columns().n_cols(), 3);
        assert_eq!(new.domain().len(), 4);
        assert_eq!(new.n_nodes(), 6);
        assert_eq!(v.epoch(), 1);
        assert!(Arc::ptr_eq(&new, &v.current()));
    }

    #[test]
    fn an_append_shares_every_old_column_and_adds_one() {
        let mut v = GraphVersions::new(fixtures::fig1());
        let old = v.current();
        let new = v.append_timepoint(&pubs_patch()).unwrap();
        for (nc, old_nc, rows) in [
            (
                new.node_presence_columns(),
                old.node_presence_columns(),
                new.n_nodes(),
            ),
            (
                new.edge_presence_columns(),
                old.edge_presence_columns(),
                new.n_edges(),
            ),
        ] {
            // all three old columns are Arc-shared, one appended column
            assert_eq!(nc.n_cols(), 4);
            assert_eq!(nc.shared_cols(old_nc), 3);
            assert_eq!(nc.source_rows(), rows);
            assert_eq!(nc.col(3).len(), rows);
        }
        // u2, u3 and u6 are present at the new point, and only there for u6
        let present: Vec<&str> = (new.node_ids())
            .filter(|&n| new.node_alive_at(n, TimePoint(3)))
            .map(|n| new.node_name(n))
            .collect();
        assert_eq!(present, ["u2", "u3", "u6"]);
        let u6 = new.node_id("u6").unwrap();
        assert_eq!(
            new.node_timestamp(u6).iter().collect::<Vec<_>>(),
            [TimePoint(3)]
        );
    }

    #[test]
    fn sparse_mode_carries_into_appended_columns() {
        for mode in [SparseMode::ForceDense, SparseMode::ForceSparse] {
            let mut g = fixtures::fig1();
            g.set_sparse_mode(mode);
            let mut v = GraphVersions::new(g);
            let new = v.append_timepoint(&pubs_patch()).unwrap();
            assert_eq!(new.sparse_mode(), mode);
            let nc = new.node_presence_columns();
            assert_eq!(
                nc.col(3).is_sparse(),
                matches!(mode, SparseMode::ForceSparse)
            );
        }
        // Auto, the only mode anything served runs under, picks each
        // appended column's layout from that column's own density
        // (`nnz * 64 <= rows`), for nodes and for edges: a time point
        // touching every `w` entity lands dense, the next one touching a
        // single edge of the same ~200-row graph lands sparse.
        let mut v = GraphVersions::new(fixtures::fig1());
        let mut wide = TimepointPatch::new("t3");
        for i in 0..200 {
            wide.add_edge(format!("w{i}"), format!("w{}", i + 1));
        }
        let mut narrow = TimepointPatch::new("t4");
        narrow.add_edge("w0", "w1");
        for (patch, sparse) in [(wide, false), (narrow, true)] {
            let new = v.append_timepoint(&patch).unwrap();
            assert_eq!(new.sparse_mode(), SparseMode::Auto);
            let t = new.domain().len() - 1;
            assert_eq!(new.node_presence_columns().col(t).is_sparse(), sparse);
            assert_eq!(new.edge_presence_columns().col(t).is_sparse(), sparse);
        }
    }

    #[test]
    fn duplicate_label_is_rejected_and_epoch_unchanged() {
        let mut v = GraphVersions::new(fixtures::fig1());
        let err = v.append_timepoint(&TimepointPatch::new("t1"));
        assert!(matches!(err, Err(GraphError::DuplicateTimeLabel(_))));
        assert_eq!(v.epoch(), 0);
        assert_eq!(v.current().domain().len(), 3);
    }

    #[test]
    fn wrong_attribute_kind_is_rejected() {
        let g = fixtures::fig1();
        let gender = g.schema().id("gender").unwrap();
        let pubs = g.schema().id("publications").unwrap();
        let mut v = GraphVersions::new(g);
        let mut p = TimepointPatch::new("t3");
        p.set_time_varying("u1", gender, Value::Int(1));
        assert!(matches!(
            v.append_timepoint(&p),
            Err(GraphError::AttributeKindMismatch { .. })
        ));
        let mut p = TimepointPatch::new("t3");
        p.set_static("u1", pubs, Value::Int(1));
        assert!(matches!(
            v.append_timepoint(&p),
            Err(GraphError::AttributeKindMismatch { .. })
        ));
    }

    #[test]
    fn successive_appends_stack_and_bump_epochs() {
        let mut v = GraphVersions::new(fixtures::fig1());
        for (i, label) in ["t3", "t4", "t5"].iter().enumerate() {
            let mut p = TimepointPatch::new(*label);
            p.mark_node("u1").add_edge("u1", "u4");
            let g = v.append_timepoint(&p).unwrap();
            assert_eq!(g.epoch(), i as u64 + 1);
            assert_eq!(g.domain().len(), 4 + i);
            assert_eq!(g.node_presence_columns().n_cols(), 4 + i);
            assert!(g.validate().is_ok());
        }
    }
}
