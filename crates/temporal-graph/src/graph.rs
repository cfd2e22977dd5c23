//! The temporal attributed graph (Definition 2.1).
//!
//! A [`TemporalGraph`] stores, following §4 of the paper:
//!
//! * a node presence bit matrix **V** (`|V| × |𝒯|`),
//! * an edge presence bit matrix **E** (`|E| × |𝒯|`),
//! * a static attribute table **S** (`|V| × #static`),
//! * one value matrix **A_i** (`|V| × |𝒯|`) per time-varying attribute.
//!
//! Node labels are interned to dense [`NodeId`]s; edges are directed pairs
//! of node ids deduplicated into [`EdgeId`] rows (an edge that exists in
//! several time points is one row with several presence bits).

use crate::attrs::{AttrId, AttributeSchema, Temporality};
use crate::error::GraphError;
use crate::groups::{CachedColumns, GroupColumns, GroupColumnsCache};
use crate::time::{TimeDomain, TimePoint, TimeSet};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
use tempo_columnar::{
    BitMatrix, Interner, SparseMode, TransposedBitMatrix, Value, ValueMatrix, NULL_CODE,
};

/// Dense node identifier (row in the node arrays).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Row index of the node.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Dense edge identifier (row in the edge arrays).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// Row index of the edge.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A temporal attributed graph `G(V, E, τu, τe, A)` over a [`TimeDomain`].
///
/// Optionally, edges carry one numeric *value* per time point (e.g. papers
/// co-authored that year) — the "attributed edges" the paper notes would
/// enable aggregate functions beyond COUNT.
#[derive(Clone, Debug)]
pub struct TemporalGraph {
    pub(crate) domain: TimeDomain,
    pub(crate) schema: AttributeSchema,
    pub(crate) node_names: Interner<String>,
    pub(crate) node_presence: BitMatrix,
    pub(crate) edges: Vec<(NodeId, NodeId)>,
    pub(crate) edge_index: HashMap<(u32, u32), u32>,
    pub(crate) edge_presence: BitMatrix,
    pub(crate) static_table: ValueMatrix,
    pub(crate) tv_tables: Vec<ValueMatrix>,
    pub(crate) edge_values: Option<ValueMatrix>,
    /// Representation policy for the cached presence-column indexes. Kept
    /// per graph (never read from the environment) so graphs built under
    /// different policies can coexist in one process; see
    /// [`TemporalGraph::set_sparse_mode`].
    pub(crate) sparse_mode: SparseMode,
    /// Lazily built column-major (time-major) presence indexes, shared
    /// across threads. A clone of the graph carries the cached value along.
    pub(crate) node_cols: OnceLock<TransposedBitMatrix>,
    pub(crate) edge_cols: OnceLock<TransposedBitMatrix>,
    /// Lazily built group-id columns, keyed by the ordered attribute list
    /// (clones share the cache; see [`TemporalGraph::group_columns`]).
    pub(crate) group_cols: Arc<Mutex<GroupColumnsCache>>,
    /// Monotonic version stamp: `0` for a freshly built graph, bumped by
    /// [`crate::GraphVersions::append_timepoint`] for every published
    /// epoch. Epoch-aware caches downstream compare this on lookup.
    pub(crate) epoch: u64,
}

impl TemporalGraph {
    /// Assembles a graph from raw parts, checking structural invariants:
    /// consistent array shapes, edge endpoints in range, every edge present
    /// only when both endpoints are present, time-varying values only
    /// where the node is present, and — for the optional edge-value matrix
    /// (`|E| × |𝒯|`) — a non-null cell only where the edge is present.
    ///
    /// # Errors
    /// Returns the first violated invariant.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts_with_edge_values(
        domain: TimeDomain,
        schema: AttributeSchema,
        node_names: Interner<String>,
        node_presence: BitMatrix,
        edges: Vec<(NodeId, NodeId)>,
        edge_presence: BitMatrix,
        static_table: ValueMatrix,
        tv_tables: Vec<ValueMatrix>,
        edge_values: Option<ValueMatrix>,
    ) -> Result<Self, GraphError> {
        Self::assemble(
            domain,
            schema,
            node_names,
            node_presence,
            edges,
            None,
            edge_presence,
            static_table,
            tv_tables,
            edge_values,
        )
    }

    /// [`TemporalGraph::from_parts_with_edge_values`] for a caller that may
    /// already hold the `(source, destination) → row` index of `edges` (the
    /// builder, which deduplicated edges through it): `Some` is trusted and
    /// kept, `None` is built here with the endpoint and duplicate checks.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn assemble(
        domain: TimeDomain,
        schema: AttributeSchema,
        node_names: Interner<String>,
        node_presence: BitMatrix,
        edges: Vec<(NodeId, NodeId)>,
        edge_index: Option<HashMap<(u32, u32), u32>>,
        edge_presence: BitMatrix,
        static_table: ValueMatrix,
        tv_tables: Vec<ValueMatrix>,
        edge_values: Option<ValueMatrix>,
    ) -> Result<Self, GraphError> {
        let nt = domain.len();
        let nv = node_names.len();
        if node_presence.nrows() != nv || node_presence.ncols() != nt {
            return Err(GraphError::Format(format!(
                "node presence shape {}x{} does not match {nv} nodes x {nt} time points",
                node_presence.nrows(),
                node_presence.ncols()
            )));
        }
        if edge_presence.nrows() != edges.len() || edge_presence.ncols() != nt {
            return Err(GraphError::Format(format!(
                "edge presence shape {}x{} does not match {} edges x {nt} time points",
                edge_presence.nrows(),
                edge_presence.ncols(),
                edges.len()
            )));
        }
        let n_static = schema.static_ids().len();
        if static_table.nrows() != nv || static_table.ncols() != n_static {
            return Err(GraphError::Format(format!(
                "static table shape {}x{} does not match {nv} nodes x {n_static} static attributes",
                static_table.nrows(),
                static_table.ncols()
            )));
        }
        let n_tv = schema.time_varying_ids().len();
        if tv_tables.len() != n_tv {
            return Err(GraphError::Format(format!(
                "expected {n_tv} time-varying tables, got {}",
                tv_tables.len()
            )));
        }
        for tbl in &tv_tables {
            if tbl.nrows() != nv || tbl.ncols() != nt {
                return Err(GraphError::Format(format!(
                    "time-varying table shape {}x{} does not match {nv} nodes x {nt} time points",
                    tbl.nrows(),
                    tbl.ncols()
                )));
            }
        }
        if let Some(ev) = &edge_values {
            if ev.nrows() != edges.len() || ev.ncols() != nt {
                return Err(GraphError::Format(format!(
                    "edge values shape {}x{} does not match {} edges x {nt} time points",
                    ev.nrows(),
                    ev.ncols(),
                    edges.len()
                )));
            }
        }
        let edge_index = match edge_index {
            Some(index) => index,
            None => {
                let mut index = HashMap::with_capacity(edges.len());
                for (i, &(u, v)) in edges.iter().enumerate() {
                    if u.index() >= nv || v.index() >= nv {
                        return Err(GraphError::DanglingEdge {
                            src: format!("{u:?}"),
                            dst: format!("{v:?}"),
                        });
                    }
                    if index.insert((u.0, v.0), i as u32).is_some() {
                        return Err(GraphError::Format(format!(
                            "edge ({u:?}, {v:?}) listed twice"
                        )));
                    }
                }
                index
            }
        };
        debug_assert_eq!(edge_index.len(), edges.len());
        let g = TemporalGraph {
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
            sparse_mode: SparseMode::Auto,
            node_cols: OnceLock::new(),
            edge_cols: OnceLock::new(),
            group_cols: Arc::default(),
            epoch: 0,
        };
        g.validate()?;
        Ok(g)
    }

    /// Verifies the semantic invariants of Definition 2.1:
    /// * the presence bit matrices are structurally sound (row stride and
    ///   per-row tail hygiene per [`BitMatrix::check_invariants`]) and
    ///   shaped `nodes × |domain|` / `edges × |domain|`;
    /// * an edge exists at `t` only if both endpoints exist at `t`;
    /// * a time-varying attribute has a value at `t` only if the node exists
    ///   at `t`.
    ///
    /// # Errors
    /// Returns the first violation found.
    pub fn validate(&self) -> Result<(), GraphError> {
        self.node_presence
            .check_invariants()
            .map_err(|e| GraphError::Format(format!("node presence matrix: {e}")))?;
        self.edge_presence
            .check_invariants()
            .map_err(|e| GraphError::Format(format!("edge presence matrix: {e}")))?;
        let nt = self.domain.len();
        if self.node_presence.nrows() != self.n_nodes() || self.node_presence.ncols() != nt {
            return Err(GraphError::Format(format!(
                "node presence shape {}x{} does not match {} nodes x {nt} time points",
                self.node_presence.nrows(),
                self.node_presence.ncols(),
                self.n_nodes()
            )));
        }
        if self.edge_presence.nrows() != self.n_edges() || self.edge_presence.ncols() != nt {
            return Err(GraphError::Format(format!(
                "edge presence shape {}x{} does not match {} edges x {nt} time points",
                self.edge_presence.nrows(),
                self.edge_presence.ncols(),
                self.n_edges()
            )));
        }
        for (ei, &(u, v)) in self.edges.iter().enumerate() {
            for t in self.edge_presence.iter_row_ones(ei) {
                if !self.node_presence.get(u.index(), t) || !self.node_presence.get(v.index(), t) {
                    return Err(GraphError::EdgeWithoutEndpoint {
                        src: self.node_name(u).to_owned(),
                        dst: self.node_name(v).to_owned(),
                        time: self.domain.label(TimePoint(t as u32)).to_owned(),
                    });
                }
            }
        }
        // The first (row, time) cell of `tbl`, in row-major order, that holds
        // a value where `presence` has no bit: one pass over the materialized
        // codes, a bit test per value.
        let stray = |tbl: &ValueMatrix, presence: &BitMatrix| {
            (0..tbl.ncols())
                .flat_map(|t| {
                    let codes = tbl.col_codes(t).iter().enumerate();
                    codes.filter_map(move |(r, &code)| {
                        (code != NULL_CODE && !presence.get(r, t)).then_some((r, t))
                    })
                })
                .min()
        };
        if let Some((e, t)) = self
            .edge_values
            .as_ref()
            .and_then(|ev| stray(ev, &self.edge_presence))
        {
            let (u, v) = self.edges[e];
            return Err(GraphError::AttributePresenceMismatch {
                node: format!("edge ({}, {})", self.node_name(u), self.node_name(v)),
                attr: "edge value".to_owned(),
                time: self.domain.label(TimePoint(t as u32)).to_owned(),
            });
        }
        for (tbl, &attr) in self.tv_tables.iter().zip(&self.schema.time_varying_ids()) {
            if let Some((n, t)) = stray(tbl, &self.node_presence) {
                return Err(GraphError::AttributePresenceMismatch {
                    node: self.node_name(NodeId(n as u32)).to_owned(),
                    attr: self.schema.def(attr).name().to_owned(),
                    time: self.domain.label(TimePoint(t as u32)).to_owned(),
                });
            }
        }
        Ok(())
    }

    /// The time domain of the graph.
    pub fn domain(&self) -> &TimeDomain {
        &self.domain
    }

    /// The attribute schema.
    pub fn schema(&self) -> &AttributeSchema {
        &self.schema
    }

    /// Monotonic version stamp of this snapshot: `0` for a freshly built
    /// graph, incremented by [`crate::GraphVersions::append_timepoint`] for
    /// every published epoch. Caches that can outlive a snapshot (the
    /// materialization and evolution caches in `tempo-core`) store this
    /// stamp and treat a mismatch on lookup as a miss.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of node rows (nodes that exist at any point in the domain).
    pub fn n_nodes(&self) -> usize {
        self.node_names.len()
    }

    /// Number of edge rows.
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    /// The label of a node.
    ///
    /// # Panics
    /// Panics if the id is out of range.
    #[allow(clippy::expect_used)]
    pub fn node_name(&self, n: NodeId) -> &str {
        self.node_names
            .resolve(n.0)
            .expect("invariant: node id is in range (documented precondition)")
    }

    /// Looks up a node by label.
    pub fn node_id(&self, name: &str) -> Option<NodeId> {
        self.node_names.code(&name.to_owned()).map(NodeId)
    }

    /// Iterates all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.n_nodes() as u32).map(NodeId)
    }

    /// Iterates all edge ids.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> {
        (0..self.n_edges() as u32).map(EdgeId)
    }

    /// The endpoints of an edge.
    ///
    /// # Panics
    /// Panics if the id is out of range.
    pub fn edge_endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        self.edges[e.index()]
    }

    /// The edge id between two nodes, if such an edge row exists.
    pub fn edge_between(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        self.edge_index.get(&(u.0, v.0)).map(|&i| EdgeId(i))
    }

    /// The timestamp `τu(u)` of a node as a [`TimeSet`].
    ///
    /// # Panics
    /// Panics if the id is out of range.
    pub fn node_timestamp(&self, n: NodeId) -> TimeSet {
        TimeSet::from_bits(self.node_presence.row(n.index()))
    }

    /// The timestamp `τe(e)` of an edge as a [`TimeSet`].
    ///
    /// # Panics
    /// Panics if the id is out of range.
    pub fn edge_timestamp(&self, e: EdgeId) -> TimeSet {
        TimeSet::from_bits(self.edge_presence.row(e.index()))
    }

    /// True if node `n` exists at time `t`.
    ///
    /// # Panics
    /// Panics if out of range.
    pub fn node_alive_at(&self, n: NodeId, t: TimePoint) -> bool {
        self.node_presence.get(n.index(), t.index())
    }

    /// True if edge `e` exists at time `t`.
    ///
    /// # Panics
    /// Panics if out of range.
    pub fn edge_alive_at(&self, e: EdgeId, t: TimePoint) -> bool {
        self.edge_presence.get(e.index(), t.index())
    }

    /// The value of attribute `attr` for node `n` at time `t`.
    ///
    /// Static attributes return their single value whenever the node exists
    /// at `t` (and `Null` otherwise); time-varying attributes return the
    /// stored cell.
    ///
    /// # Panics
    /// Panics if ids are out of range.
    pub fn attr_value(&self, n: NodeId, attr: AttrId, t: TimePoint) -> Value {
        match self.schema.def(attr).temporality() {
            Temporality::Static => {
                if self.node_alive_at(n, t) {
                    #[allow(clippy::expect_used)]
                    let slot = self
                        .schema
                        .static_slot(attr)
                        .expect("invariant: static slot exists for a static attribute");
                    self.static_table.get(n.index(), slot).clone()
                } else {
                    Value::Null
                }
            }
            Temporality::TimeVarying => {
                #[allow(clippy::expect_used)]
                let slot = self
                    .schema
                    .time_varying_slot(attr)
                    .expect("invariant: time-varying slot exists for a time-varying attribute");
                self.tv_tables[slot].get(n.index(), t.index()).clone()
            }
        }
    }

    /// The static value of a static attribute, independent of time.
    ///
    /// # Errors
    /// Returns an error if the attribute is not static.
    ///
    /// # Panics
    /// Panics if ids are out of range.
    pub fn static_value(&self, n: NodeId, attr: AttrId) -> Result<Value, GraphError> {
        let slot =
            self.schema
                .static_slot(attr)
                .ok_or_else(|| GraphError::AttributeKindMismatch {
                    name: self.schema.def(attr).name().to_owned(),
                    expected: "static",
                })?;
        Ok(self.static_table.get(n.index(), slot).clone())
    }

    /// Node ids whose timestamp intersects `mask` ("exists in at least one
    /// point of 𝒯" — union-style membership).
    pub fn nodes_alive_any(&self, mask: &TimeSet) -> Vec<NodeId> {
        (0..self.n_nodes())
            .filter(|&r| self.node_presence.row_any(r, mask.bits()))
            .map(|r| NodeId(r as u32))
            .collect()
    }

    /// Edge ids whose timestamp intersects `mask`.
    pub fn edges_alive_any(&self, mask: &TimeSet) -> Vec<EdgeId> {
        (0..self.n_edges())
            .filter(|&r| self.edge_presence.row_any(r, mask.bits()))
            .map(|r| EdgeId(r as u32))
            .collect()
    }

    /// Number of nodes existing at time `t`: the popcount of its node
    /// presence column.
    pub fn nodes_at(&self, t: TimePoint) -> usize {
        self.node_presence_columns().col(t.index()).count_ones()
    }

    /// Number of edges existing at time `t`: the popcount of its edge
    /// presence column.
    pub fn edges_at(&self, t: TimePoint) -> usize {
        self.edge_presence_columns().col(t.index()).count_ones()
    }

    /// Raw node presence matrix (the paper's array **V**).
    pub fn node_presence_matrix(&self) -> &BitMatrix {
        &self.node_presence
    }

    /// Raw edge presence matrix (the paper's array **E**).
    pub fn edge_presence_matrix(&self) -> &BitMatrix {
        &self.edge_presence
    }

    /// Column-major (time-major) view of the node presence matrix: one
    /// bitset over node rows per time point. Built lazily on first use,
    /// cached for the lifetime of the graph, and shared across threads —
    /// the index backing chain-incremental exploration.
    pub fn node_presence_columns(&self) -> &TransposedBitMatrix {
        self.node_cols
            .get_or_init(|| self.build_transposed(&self.node_presence))
    }

    /// Column-major (time-major) view of the edge presence matrix; see
    /// [`node_presence_columns`](Self::node_presence_columns).
    pub fn edge_presence_columns(&self) -> &TransposedBitMatrix {
        self.edge_cols
            .get_or_init(|| self.build_transposed(&self.edge_presence))
    }

    /// The presence-column representation policy used when the transposed
    /// indexes are built.
    pub fn sparse_mode(&self) -> SparseMode {
        self.sparse_mode
    }

    /// Sets the representation policy for the transposed presence-column
    /// indexes, dropping any index already built under a different policy.
    ///
    /// This is a test seam, not configuration: every graph the shell and
    /// the server build keeps the default [`SparseMode::Auto`], which picks
    /// each column's layout from its own density, and nothing a user can
    /// set reaches this method. Outside this crate its one caller is
    /// `tempo_testkit::both_layouts`, which forces every kernel through both
    /// representations; the policy is per-graph state so two graphs in one
    /// process can differ.
    #[doc(hidden)]
    pub fn set_sparse_mode(&mut self, mode: SparseMode) {
        if self.sparse_mode != mode {
            self.sparse_mode = mode;
            self.invalidate_index_caches();
        }
    }

    /// Drops — and, crucially, *un-shares* — every lazily built index
    /// cache: the `node_cols`/`edge_cols` transposed-presence locks and the
    /// group-id columns, exactly as
    /// [`set_sparse_mode`](Self::set_sparse_mode) does on a policy change.
    ///
    /// A clone shares `group_cols` through its `Arc`, so every mutation
    /// seam (the builder and append paths) must call this — or install
    /// freshly built indexes into fresh locks — before publishing mutated
    /// matrices or attribute tables; otherwise a mutated clone keeps
    /// serving group ids built from the pre-mutation data, and inserting
    /// new ones would poison the pristine original's cache too.
    pub(crate) fn invalidate_index_caches(&mut self) {
        self.node_cols = OnceLock::new();
        self.edge_cols = OnceLock::new();
        self.group_cols = Arc::default();
    }

    /// The group-id columns of this snapshot for the ordered attribute list
    /// `attrs`: built on first use, then shared by every later request on
    /// the same snapshot (and its clones) until a mutation seam starts from
    /// an empty cache. A [`crate::GraphVersions`] epoch inherits the lists
    /// of the epoch before it and extends each by the appended cells on
    /// first use, unless the patch rewrote a static cell of an existing
    /// node, in which case it starts empty as well.
    ///
    /// At most a fixed small number of attribute lists stay cached (least
    /// recently used evicted), which bounds what permuting `attrs` can pin.
    /// The build runs outside the cache lock; when two threads miss on the
    /// same list the first insert wins and both return that entry.
    ///
    /// # Panics
    /// Panics if any id is not from this graph's schema.
    pub fn group_columns(&self, attrs: &[AttrId]) -> Arc<GroupColumns> {
        let found = self
            .group_cols
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(attrs);
        let built = match found {
            Some(CachedColumns::Ready(cols)) => {
                tempo_instrument::metrics::GROUP_TABLE_CACHE_HITS.inc();
                return cols;
            }
            Some(CachedColumns::Earlier(base)) => {
                tempo_instrument::metrics::GROUP_TABLE_CACHE_EXTENDS.inc();
                Arc::new(base.extended(self, attrs))
            }
            #[allow(clippy::disallowed_methods)] // the cache's miss arm
            None => {
                tempo_instrument::metrics::GROUP_TABLE_CACHE_MISSES.inc();
                Arc::new(GroupColumns::build(self, attrs))
            }
        };
        let mut cache = self
            .group_cols
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(CachedColumns::Ready(first)) = cache.get(attrs) {
            return first;
        }
        cache.insert(attrs, Arc::clone(&built));
        built
    }

    fn build_transposed(&self, m: &BitMatrix) -> TransposedBitMatrix {
        let _span = tempo_instrument::metrics::GRAPH_TRANSPOSE_BUILD_NS.span();
        tempo_instrument::metrics::GRAPH_TRANSPOSE_BUILDS.inc();
        m.transposed_with(self.sparse_mode)
    }

    /// Raw static attribute table (the paper's array **S**).
    pub fn static_table(&self) -> &ValueMatrix {
        &self.static_table
    }

    /// Raw value matrix of a time-varying attribute (the paper's **A_i**).
    ///
    /// # Errors
    /// Returns an error if the attribute is not time-varying.
    pub fn tv_table(&self, attr: AttrId) -> Result<&ValueMatrix, GraphError> {
        let slot = self.schema.time_varying_slot(attr).ok_or_else(|| {
            GraphError::AttributeKindMismatch {
                name: self.schema.def(attr).name().to_owned(),
                expected: "time-varying",
            }
        })?;
        Ok(&self.tv_tables[slot])
    }

    /// True if the graph carries per-timepoint edge values.
    pub fn has_edge_values(&self) -> bool {
        self.edge_values.is_some()
    }

    /// The value of edge `e` at time `t` (`Null` when the graph has no
    /// edge values, the edge is absent, or no value was recorded).
    ///
    /// # Panics
    /// Panics if ids are out of range.
    pub fn edge_value(&self, e: EdgeId, t: TimePoint) -> Value {
        match &self.edge_values {
            Some(ev) => ev.get(e.index(), t.index()).clone(),
            None => Value::Null,
        }
    }

    /// The raw edge-value matrix, when present.
    pub fn edge_values_matrix(&self) -> Option<&ValueMatrix> {
        self.edge_values.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    /// Builds the paper's running example (Fig. 1): 5 authors over
    /// {t0, t1, t2} with static gender and time-varying #publications.
    pub(crate) fn fig1_graph() -> TemporalGraph {
        crate::fixtures::fig1()
    }

    #[test]
    fn transposed_presence_columns_match_matrices() {
        let g = fig1_graph();
        let nc = g.node_presence_columns();
        assert_eq!(nc.n_cols(), g.domain().len());
        assert_eq!(nc.source_rows(), g.n_nodes());
        for t in 0..g.domain().len() {
            for r in 0..g.n_nodes() {
                assert_eq!(nc.col(t).get(r), g.node_presence_matrix().get(r, t));
            }
            assert_eq!(nc.col(t).count_ones(), g.nodes_at(TimePoint(t as u32)));
        }
        let ec = g.edge_presence_columns();
        for t in 0..g.domain().len() {
            assert_eq!(ec.col(t).count_ones(), g.edges_at(TimePoint(t as u32)));
        }
        // the index is cached: repeated calls return the same allocation
        assert!(std::ptr::eq(nc, g.node_presence_columns()));
        // a clone carries the cache along without rebuilding
        let g2 = g.clone();
        assert_eq!(g2.node_presence_columns(), nc);
    }

    // A clone that is about to mutate its matrices must drop the presence
    // columns it carried along (the same way `set_sparse_mode` does) or it
    // keeps serving columns built from the pre-mutation data. The group-id
    // half of the seam is checked in `groups.rs`.
    #[test]
    fn invalidated_clone_serves_fresh_columns() {
        let g = fig1_graph();
        let warm_cols = g.node_presence_columns() as *const _;
        let mut c = g.clone();
        c.invalidate_index_caches();
        assert!(!std::ptr::eq(warm_cols, c.node_presence_columns()));
        // the pristine original keeps its own warm cache
        assert!(std::ptr::eq(warm_cols, g.node_presence_columns()));
    }

    // Regression for the env-driven policy: building one graph used to
    // flip the representation for every other graph in the process.
    #[test]
    fn per_graph_sparse_mode_is_independent() {
        let mut a = fig1_graph();
        let mut b = fig1_graph();
        a.set_sparse_mode(SparseMode::ForceSparse);
        b.set_sparse_mode(SparseMode::ForceDense);
        assert_eq!(a.sparse_mode(), SparseMode::ForceSparse);
        for t in 0..a.domain().len() {
            assert!(a.node_presence_columns().col(t).is_sparse());
            assert!(a.edge_presence_columns().col(t).is_sparse());
            assert!(!b.node_presence_columns().col(t).is_sparse());
            assert!(!b.edge_presence_columns().col(t).is_sparse());
        }
        // flipping the policy after a build drops the cached index …
        a.set_sparse_mode(SparseMode::ForceDense);
        assert!(!a.node_presence_columns().col(0).is_sparse());
        // … while re-setting the same policy keeps it
        let before = a.node_presence_columns() as *const _;
        a.set_sparse_mode(SparseMode::ForceDense);
        assert!(std::ptr::eq(before, a.node_presence_columns()));
    }

    #[test]
    fn fig1_shape() {
        let g = fig1_graph();
        assert_eq!(g.n_nodes(), 5);
        assert_eq!(g.domain().len(), 3);
        // per-timepoint counts from Fig. 1
        assert_eq!(g.nodes_at(TimePoint(0)), 4);
        assert_eq!(g.nodes_at(TimePoint(1)), 3);
        assert_eq!(g.nodes_at(TimePoint(2)), 3);
    }

    #[test]
    fn fig1_timestamps_match_table2() {
        let g = fig1_graph();
        let u1 = g.node_id("u1").unwrap();
        let u5 = g.node_id("u5").unwrap();
        assert_eq!(
            g.node_timestamp(u1).iter().map(|t| t.0).collect::<Vec<_>>(),
            vec![0, 1]
        );
        assert_eq!(
            g.node_timestamp(u5).iter().map(|t| t.0).collect::<Vec<_>>(),
            vec![2]
        );
    }

    #[test]
    fn fig1_attribute_values() {
        let g = fig1_graph();
        let u1 = g.node_id("u1").unwrap();
        let gender = g.schema().id("gender").unwrap();
        let pubs = g.schema().id("publications").unwrap();
        let m = g.schema().category(gender, "m").unwrap();
        assert_eq!(g.attr_value(u1, gender, TimePoint(0)), m);
        // u1 absent at t2 → static attr reads Null
        assert_eq!(g.attr_value(u1, gender, TimePoint(2)), Value::Null);
        assert_eq!(g.attr_value(u1, pubs, TimePoint(0)), Value::Int(3));
        assert_eq!(g.attr_value(u1, pubs, TimePoint(1)), Value::Int(1));
        assert_eq!(g.attr_value(u1, pubs, TimePoint(2)), Value::Null);
        assert_eq!(g.static_value(u1, gender).unwrap(), m);
        assert!(g.static_value(u1, pubs).is_err());
        assert!(g.tv_table(pubs).is_ok());
        assert!(g.tv_table(gender).is_err());
    }

    #[test]
    fn alive_queries() {
        let g = fig1_graph();
        let t0t1 = TimeSet::range(3, 0, 1);
        let alive = g.nodes_alive_any(&t0t1);
        assert_eq!(alive.len(), 4); // u1..u4 (u5 only at t2)
        let t2 = TimeSet::point(3, TimePoint(2));
        assert_eq!(g.nodes_alive_any(&t2).len(), 3);
        assert!(!g.edges_alive_any(&t2).is_empty());
    }

    #[test]
    fn edge_lookup() {
        let g = fig1_graph();
        let u1 = g.node_id("u1").unwrap();
        let u2 = g.node_id("u2").unwrap();
        let e = g.edge_between(u1, u2).expect("u1-u2 collaborate");
        let (a, b) = g.edge_endpoints(e);
        assert_eq!((a, b), (u1, u2));
        assert!(g.edge_alive_at(e, TimePoint(0)));
    }

    #[test]
    fn validate_rejects_edge_without_endpoint() {
        let mut b = GraphBuilder::new(TimeDomain::indexed(2), AttributeSchema::new());
        let u = b.add_node("u").unwrap();
        let v = b.add_node("v").unwrap();
        b.set_presence(u, TimePoint(0)).unwrap();
        // v never present, but edge claimed at t0
        b.add_edge_at_unchecked(u, v, TimePoint(0)).unwrap();
        assert!(matches!(
            b.build(),
            Err(GraphError::EdgeWithoutEndpoint { .. })
        ));
    }

    #[test]
    fn validate_rejects_attr_on_absent_node() {
        let mut schema = AttributeSchema::new();
        schema.declare("pubs", Temporality::TimeVarying).unwrap();
        let mut b = GraphBuilder::new(TimeDomain::indexed(2), schema);
        let u = b.add_node("u").unwrap();
        b.set_presence(u, TimePoint(0)).unwrap();
        let pubs = b.schema().id("pubs").unwrap();
        b.set_time_varying_unchecked(u, pubs, TimePoint(1), Value::Int(3))
            .unwrap();
        assert!(matches!(
            b.build(),
            Err(GraphError::AttributePresenceMismatch { .. })
        ));
    }
}
