//! The temporal attributed graph (Definition 2.1).
//!
//! A [`TemporalGraph`] stores, following §4 of the paper:
//!
//! * the node presence array **V**: one bit column over the nodes per time
//!   point,
//! * the edge presence array **E**: one bit column over the edges per time
//!   point,
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
use std::sync::{Arc, Mutex};
use tempo_columnar::{
    BitVec, Interner, PresenceColumn, PresenceColumns, SparseMode, Value, ValueMatrix, NULL_CODE,
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
    /// **V**: one presence column over the node rows per time point.
    pub(crate) node_presence: PresenceColumns,
    pub(crate) edges: Vec<(NodeId, NodeId)>,
    pub(crate) edge_index: HashMap<(u32, u32), u32>,
    /// **E**: one presence column over the edge rows per time point.
    pub(crate) edge_presence: PresenceColumns,
    pub(crate) static_table: ValueMatrix,
    pub(crate) tv_tables: Vec<ValueMatrix>,
    pub(crate) edge_values: Option<ValueMatrix>,
    /// Representation policy of the presence columns an append adds. Kept
    /// per graph (never read from the environment) so graphs built under
    /// different policies can coexist in one process; see
    /// [`TemporalGraph::set_sparse_mode`].
    pub(crate) sparse_mode: SparseMode,
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
    /// A caller that already holds the `(source, destination) → row` index
    /// of `edges` (the builder, which deduplicated edges through it) passes
    /// it as `Some`, which is trusted and kept; `None` is built here with
    /// the endpoint and duplicate checks.
    ///
    /// # Errors
    /// Returns the first violated invariant.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn assemble(
        domain: TimeDomain,
        schema: AttributeSchema,
        node_names: Interner<String>,
        node_presence: PresenceColumns,
        edges: Vec<(NodeId, NodeId)>,
        edge_index: Option<HashMap<(u32, u32), u32>>,
        edge_presence: PresenceColumns,
        static_table: ValueMatrix,
        tv_tables: Vec<ValueMatrix>,
        edge_values: Option<ValueMatrix>,
    ) -> Result<Self, GraphError> {
        let nt = domain.len();
        let nv = node_names.len();
        check_shape("node", &node_presence, nv, nt)?;
        check_shape("edge", &edge_presence, edges.len(), nt)?;
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
            group_cols: Arc::default(),
            epoch: 0,
        };
        g.validate()?;
        Ok(g)
    }

    /// A graph derived from this one over `domain`: output point `i` holds
    /// the node rows set in `nodes[i]` and the edge rows set in `edges[i]`
    /// (each as wide as this graph's nodes or edges). Rows held at no
    /// output point are dropped; the rest keep their order, names, static
    /// values and endpoints. A time-varying or edge-value cell at `i` is
    /// the latest non-null value of this graph over the inclusive fine
    /// range `windows[i]`, where the row holds `i`, and `Null` elsewhere.
    /// Alg. 1's operators derive with each point its own window, the time
    /// zoom with one window per coarse point.
    ///
    /// # Errors
    /// Returns the first model invariant the result violates.
    ///
    /// # Panics
    /// Panics unless `nodes`, `edges` and `windows` hold one item per
    /// output point, each row set as wide as this graph's rows and each
    /// window inside this graph's domain.
    pub fn derive(
        &self,
        domain: TimeDomain,
        nodes: &[BitVec],
        edges: &[BitVec],
        windows: &[(usize, usize)],
    ) -> Result<TemporalGraph, GraphError> {
        let (node_rows, node_row, node_presence) = renumber(nodes, self.n_nodes());
        let (edge_rows, _, edge_presence) = renumber(edges, self.n_edges());
        let mut names = Interner::new();
        for &r in &node_rows {
            names.intern(self.node_name(NodeId(r as u32)).to_owned());
        }
        let kept_edges = edge_rows.iter().map(|&e| {
            let (u, v) = self.edges[e];
            let (nu, nv) = (node_row[u.index()], node_row[v.index()]);
            debug_assert!(
                nu != u32::MAX && nv != u32::MAX,
                "kept edge must have kept endpoints"
            );
            (NodeId(nu), NodeId(nv))
        });
        // written row by row, so the values enter the dictionary in the
        // order they are met
        let cells = |src: &ValueMatrix, rows: &[usize], held: &[BitVec]| {
            let mut out = ValueMatrix::new(windows.len());
            for (i, &r) in rows.iter().enumerate() {
                out.push_null_row();
                let held_windows = windows.iter().enumerate();
                for (c, &(a, b)) in held_windows.filter(|&(c, _)| held[c].get(r)) {
                    let mut window = (a..=b).rev().map(|t| src.get(r, t));
                    if let Some(latest) = window.find(|v| !v.is_null()) {
                        out.set(i, c, latest.clone());
                    }
                }
            }
            out
        };
        let tv_tables = (self.tv_tables.iter())
            .map(|tbl| cells(tbl, &node_rows, nodes))
            .collect();
        let edge_values = (self.edge_values.as_ref()).map(|ev| cells(ev, &edge_rows, edges));
        Self::assemble(
            domain,
            self.schema.clone(),
            names,
            node_presence,
            kept_edges.collect(),
            None,
            edge_presence,
            self.static_table.select_rows(&node_rows),
            tv_tables,
            edge_values,
        )
    }

    /// Verifies the semantic invariants of Definition 2.1:
    /// * the presence columns are structurally sound (per
    ///   [`PresenceColumns::check_invariants`]) and span `nodes` / `edges`
    ///   rows at `|domain|` points;
    /// * an edge exists at `t` only if both endpoints exist at `t`;
    /// * a time-varying attribute has a value at `t` only if the node exists
    ///   at `t`.
    ///
    /// The walk goes column by column, but of several violations of one
    /// kind it reports the one a row-major walk meets first: the lowest
    /// row, then the earliest point.
    ///
    /// # Errors
    /// Returns the first violation found.
    pub fn validate(&self) -> Result<(), GraphError> {
        self.node_presence
            .check_invariants()
            .map_err(|e| GraphError::Format(format!("node presence: {e}")))?;
        self.edge_presence
            .check_invariants()
            .map_err(|e| GraphError::Format(format!("edge presence: {e}")))?;
        let nt = self.domain.len();
        check_shape("node", &self.node_presence, self.n_nodes(), nt)?;
        check_shape("edge", &self.edge_presence, self.n_edges(), nt)?;
        // per point the lowest edge row with an absent endpoint
        let bad_edge = (0..nt)
            .filter_map(|t| {
                let nodes = self.node_presence.col(t);
                let mut edges = self.edge_presence.col(t).iter_ones();
                edges
                    .find(|&e| {
                        let (u, v) = self.edges[e];
                        !nodes.get(u.index()) || !nodes.get(v.index())
                    })
                    .map(|e| (e, t))
            })
            .min();
        if let Some((e, t)) = bad_edge {
            let (u, v) = self.edges[e];
            return Err(GraphError::EdgeWithoutEndpoint {
                src: self.node_name(u).to_owned(),
                dst: self.node_name(v).to_owned(),
                time: self.domain.label(TimePoint(t as u32)).to_owned(),
            });
        }
        // The first (row, time) cell of `tbl`, in row-major order, that holds
        // a value where `presence` has no bit: one pass over the materialized
        // codes, a bit test per value.
        let stray = |tbl: &ValueMatrix, presence: &PresenceColumns| {
            (0..tbl.ncols())
                .flat_map(|t| {
                    let codes = tbl.col_codes(t).iter().enumerate();
                    let present = presence.col(t);
                    codes.filter_map(move |(r, &code)| {
                        (code != NULL_CODE && !present.get(r)).then_some((r, t))
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

    /// The timestamp `τu(u)` of a node as a [`TimeSet`]: one probe of
    /// each point's column.
    ///
    /// # Panics
    /// Panics if the id is out of range.
    pub fn node_timestamp(&self, n: NodeId) -> TimeSet {
        timestamp(&self.node_presence, n.index())
    }

    /// The timestamp `τe(e)` of an edge as a [`TimeSet`]; see
    /// [`node_timestamp`](Self::node_timestamp).
    ///
    /// # Panics
    /// Panics if the id is out of range.
    pub fn edge_timestamp(&self, e: EdgeId) -> TimeSet {
        timestamp(&self.edge_presence, e.index())
    }

    /// True if node `n` exists at time `t`: a probe of `t`'s column.
    ///
    /// # Panics
    /// Panics if out of range.
    pub fn node_alive_at(&self, n: NodeId, t: TimePoint) -> bool {
        alive(&self.node_presence, n.index(), t)
    }

    /// True if edge `e` exists at time `t`: a probe of `t`'s column.
    ///
    /// # Panics
    /// Panics if out of range.
    pub fn edge_alive_at(&self, e: EdgeId, t: TimePoint) -> bool {
        alive(&self.edge_presence, e.index(), t)
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

    /// Number of nodes existing at time `t`: the popcount of its node
    /// presence column.
    pub fn nodes_at(&self, t: TimePoint) -> usize {
        self.node_presence.col(t.index()).count_ones()
    }

    /// Number of edges existing at time `t`: the popcount of its edge
    /// presence column.
    pub fn edges_at(&self, t: TimePoint) -> usize {
        self.edge_presence.col(t.index()).count_ones()
    }

    /// The node presence array **V**: one column over the node rows per
    /// time point.
    pub fn node_presence_columns(&self) -> &PresenceColumns {
        &self.node_presence
    }

    /// The edge presence array **E**: one column over the edge rows per
    /// time point.
    pub fn edge_presence_columns(&self) -> &PresenceColumns {
        &self.edge_presence
    }

    /// Alias of [`node_presence_columns`](Self::node_presence_columns),
    /// kept for `benchmark/src/layers.rs`.
    #[doc(hidden)]
    pub fn node_presence_matrix(&self) -> &PresenceColumns {
        self.node_presence_columns()
    }

    /// Alias of [`edge_presence_columns`](Self::edge_presence_columns),
    /// kept for `benchmark/src/layers.rs`.
    #[doc(hidden)]
    pub fn edge_presence_matrix(&self) -> &PresenceColumns {
        self.edge_presence_columns()
    }

    /// The representation policy of the presence columns appended to this
    /// graph.
    pub fn sparse_mode(&self) -> SparseMode {
        self.sparse_mode
    }

    /// Sets the representation policy and re-lays out every presence
    /// column under it (and drops the group-id columns, whose match
    /// columns follow the policy too).
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
            self.node_presence = self.node_presence.transposed_with(mode);
            self.edge_presence = self.edge_presence.transposed_with(mode);
            // a clone shares the cache through its `Arc`: un-share it
            self.group_cols = Arc::default();
        }
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

/// Errors unless `cols` spans `rows` entity rows at `nt` points.
fn check_shape(
    side: &str,
    cols: &PresenceColumns,
    rows: usize,
    nt: usize,
) -> Result<(), GraphError> {
    if cols.source_rows() != rows || cols.n_cols() != nt {
        return Err(GraphError::Format(format!(
            "{side} presence shape {}x{} does not match {rows} {side}s x {nt} time points",
            cols.source_rows(),
            cols.n_cols()
        )));
    }
    Ok(())
}

/// The rows of `n` set in any of `held` (ascending), each row's position
/// among them (`u32::MAX` for the others), and `held` renumbered onto them
/// as presence columns.
///
/// # Panics
/// Panics if a set of `held` is not `n` wide.
fn renumber(held: &[BitVec], n: usize) -> (Vec<usize>, Vec<u32>, PresenceColumns) {
    let mut any = BitVec::zeros(n);
    held.iter().for_each(|h| any.or_assign(h));
    let rows: Vec<usize> = any.iter_ones().collect();
    let mut new_row = vec![u32::MAX; n];
    for (i, &r) in rows.iter().enumerate() {
        new_row[r] = i as u32;
    }
    let mut cols = PresenceColumns::new(rows.len());
    for h in held {
        let bits = BitVec::from_indices(rows.len(), h.iter_ones().map(|r| new_row[r] as usize));
        cols.push_col(PresenceColumn::from_bitvec(bits, SparseMode::Auto));
    }
    (rows, new_row, cols)
}

/// Whether row `r` is set in column `t`.
///
/// # Panics
/// Panics if `r` or `t` is out of range.
fn alive(cols: &PresenceColumns, r: usize, t: TimePoint) -> bool {
    assert!(
        r < cols.source_rows(),
        "row {r} out of range {}",
        cols.source_rows()
    );
    cols.col(t.index()).get(r)
}

/// The points whose column has row `r` set.
///
/// # Panics
/// Panics if `r` is out of range.
fn timestamp(cols: &PresenceColumns, r: usize) -> TimeSet {
    let nt = cols.n_cols();
    TimeSet::from_indices(nt, (0..nt).filter(|&t| alive(cols, r, TimePoint(t as u32))))
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
    fn presence_columns_are_the_counts_and_probes() {
        let g = fig1_graph();
        let nc = g.node_presence_columns();
        assert_eq!(nc.n_cols(), g.domain().len());
        assert_eq!(nc.source_rows(), g.n_nodes());
        for t in g.domain().iter() {
            for n in g.node_ids() {
                assert_eq!(nc.col(t.index()).get(n.index()), g.node_alive_at(n, t));
            }
            assert_eq!(nc.col(t.index()).count_ones(), g.nodes_at(t));
            let ec = g.edge_presence_columns();
            assert_eq!(ec.col(t.index()).count_ones(), g.edges_at(t));
        }
        // a clone shares every column
        assert_eq!(g.clone().node_presence_columns().shared_cols(nc), 3);
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
        // flipping the policy re-lays out the columns …
        a.set_sparse_mode(SparseMode::ForceDense);
        assert!(!a.node_presence_columns().col(0).is_sparse());
        assert_eq!(a.node_presence_columns(), b.node_presence_columns());
        // … while re-setting the same policy keeps them
        let before = a.node_presence_columns().clone();
        a.set_sparse_mode(SparseMode::ForceDense);
        assert_eq!(a.node_presence_columns().shared_cols(&before), 3);
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

    // With two offenders of a kind, `validate` names the one a row-major
    // walk meets first: the lower row, even when the other one sits at an
    // earlier time point.
    #[test]
    fn validate_names_the_lowest_row_first() {
        let mut b = GraphBuilder::new(TimeDomain::indexed(3), AttributeSchema::new());
        let [u, v, w] = ["u", "v", "w"].map(|name| b.add_node(name).unwrap());
        for t in 0..3 {
            b.set_presence(u, TimePoint(t)).unwrap();
        }
        b.set_presence(v, TimePoint(0)).unwrap();
        b.set_presence(w, TimePoint(1)).unwrap();
        // row 0, (u, v), is bad at t2; row 1, (u, w), at t0
        b.add_edge_at_unchecked(u, v, TimePoint(2)).unwrap();
        b.add_edge_at_unchecked(u, w, TimePoint(0)).unwrap();
        assert_eq!(
            b.build().unwrap_err(),
            GraphError::EdgeWithoutEndpoint {
                src: "u".into(),
                dst: "v".into(),
                time: "t2".into(),
            }
        );

        let mut schema = AttributeSchema::new();
        schema.declare("pubs", Temporality::TimeVarying).unwrap();
        let mut b = GraphBuilder::new(TimeDomain::indexed(3), schema);
        let pubs = b.schema().id("pubs").unwrap();
        let [x, y] = ["x", "y"].map(|name| b.add_node(name).unwrap());
        b.set_presence(x, TimePoint(0)).unwrap();
        b.set_presence(y, TimePoint(1)).unwrap();
        // row 0 holds a stray value at t2, row 1 at t0
        b.set_time_varying_unchecked(x, pubs, TimePoint(2), Value::Int(1))
            .unwrap();
        b.set_time_varying_unchecked(y, pubs, TimePoint(0), Value::Int(2))
            .unwrap();
        assert_eq!(
            b.build().unwrap_err(),
            GraphError::AttributePresenceMismatch {
                node: "x".into(),
                attr: "pubs".into(),
                time: "t2".into(),
            }
        );
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
