//! Attribute aggregation (§2.2, Definition 2.6; Algorithm 2; §4.2).
//!
//! Aggregation groups nodes by a tuple of attribute values and counts, with
//! two weight semantics:
//!
//! * **DIST** ([`AggMode::Distinct`]) — each (entity, tuple) pair counts
//!   once no matter how many time points it appears at;
//! * **ALL** ([`AggMode::All`]) — every appearance at every time point
//!   counts.
//!
//! One production implementation and one oracle, tested equivalent:
//! [`GroupTable::aggregate_masked`] is what every read query runs (group ids
//! counted into dense accumulators under an [`EventMask`]; the paper's §4.2
//! static fast path is its one-id-per-node layout), and [`aggregate`] is the
//! direct hash aggregation over the presence matrices of a materialized
//! graph it is checked against.

use std::borrow::Borrow;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use tempo_columnar::{Value, ValueTuple};
use tempo_graph::{
    AttrId, GraphError, GroupColumns, MatchColumns, MatchKey, NodeId, TemporalGraph, Temporality,
    TimePoint,
};

use crate::ops::EventMask;

/// Borrowed view of an aggregate edge key, letting [`AggregateGraph::edge_weight`]
/// probe the edge map from two slices without allocating owned tuples.
///
/// Safe as a [`Borrow`] target because `(ValueTuple, ValueTuple)` and
/// `(&[Value], &[Value])` hash identically (tuples hash field by field,
/// `Vec` and slice both hash as length-prefixed element sequences).
trait PairKey {
    fn key(&self) -> (&[Value], &[Value]);
}

impl PairKey for (ValueTuple, ValueTuple) {
    fn key(&self) -> (&[Value], &[Value]) {
        (&self.0, &self.1)
    }
}

impl PairKey for (&[Value], &[Value]) {
    fn key(&self) -> (&[Value], &[Value]) {
        (self.0, self.1)
    }
}

impl std::hash::Hash for dyn PairKey + '_ {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.key().hash(state);
    }
}

impl PartialEq for dyn PairKey + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for dyn PairKey + '_ {}

impl<'a> Borrow<dyn PairKey + 'a> for (ValueTuple, ValueTuple) {
    fn borrow(&self) -> &(dyn PairKey + 'a) {
        self
    }
}

/// Distinct (DIST) vs non-distinct (ALL) weight semantics.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum AggMode {
    /// Count each distinct (entity, tuple) pair once.
    Distinct,
    /// Count every appearance at every time point.
    All,
}

/// A weighted aggregate graph `G'(V', E', W_V', W_E', A')`.
///
/// Nodes are attribute tuples; edges are ordered pairs of attribute tuples
/// (the underlying graphs are directed). Weights are COUNT aggregates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AggregateGraph {
    attr_names: Vec<String>,
    nodes: HashMap<ValueTuple, u64>,
    edges: HashMap<(ValueTuple, ValueTuple), u64>,
}

impl AggregateGraph {
    /// Creates an empty aggregate graph over the given attribute names.
    pub fn new(attr_names: Vec<String>) -> Self {
        AggregateGraph {
            attr_names,
            nodes: HashMap::new(),
            edges: HashMap::new(),
        }
    }

    /// Names of the aggregation attributes, in tuple order.
    pub fn attr_names(&self) -> &[String] {
        &self.attr_names
    }

    /// Number of aggregate nodes (distinct attribute tuples).
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of aggregate edges (distinct tuple pairs).
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    /// Weight of an aggregate node (0 when absent).
    pub fn node_weight(&self, tuple: &[Value]) -> u64 {
        self.nodes.get(tuple).copied().unwrap_or(0)
    }

    /// Weight of an aggregate edge (0 when absent).
    pub fn edge_weight(&self, src: &[Value], dst: &[Value]) -> u64 {
        self.edges
            .get(&(src, dst) as &dyn PairKey)
            .copied()
            .unwrap_or(0)
    }

    /// Sum of all node weights.
    pub fn total_node_weight(&self) -> u64 {
        self.nodes.values().sum()
    }

    /// Sum of all edge weights.
    pub fn total_edge_weight(&self) -> u64 {
        self.edges.values().sum()
    }

    /// Adds `w` to a node tuple's weight.
    pub fn add_node_weight(&mut self, tuple: ValueTuple, w: u64) {
        if w > 0 {
            *self.nodes.entry(tuple).or_insert(0) += w;
        }
    }

    /// Adds `w` to an edge tuple pair's weight.
    pub fn add_edge_weight(&mut self, src: ValueTuple, dst: ValueTuple, w: u64) {
        if w > 0 {
            *self.edges.entry((src, dst)).or_insert(0) += w;
        }
    }

    /// Iterates nodes sorted by tuple (deterministic order).
    pub fn iter_nodes(&self) -> Vec<(&ValueTuple, u64)> {
        let mut v: Vec<_> = self.nodes.iter().map(|(k, &w)| (k, w)).collect();
        v.sort();
        v
    }

    /// Iterates edges sorted by tuple pair (deterministic order).
    pub fn iter_edges(&self) -> Vec<(&(ValueTuple, ValueTuple), u64)> {
        let mut v: Vec<_> = self.edges.iter().map(|(k, &w)| (k, w)).collect();
        v.sort();
        v
    }

    /// Pointwise weight addition (used by the T-distributive union of
    /// §4.3: the ALL-aggregate of a union graph is the sum of per-timepoint
    /// ALL-aggregates).
    pub fn merge_add(&mut self, other: &AggregateGraph) {
        debug_assert_eq!(self.attr_names, other.attr_names, "attribute mismatch");
        for (k, &w) in &other.nodes {
            *self.nodes.entry(k.clone()).or_insert(0) += w;
        }
        for (k, &w) in &other.edges {
            *self.edges.entry(k.clone()).or_insert(0) += w;
        }
    }

    /// Renders the aggregate graph as text, resolving categorical codes
    /// through the source graph's schema.
    pub fn render(&self, g: &TemporalGraph) -> String {
        use std::fmt::Write as _;
        let attrs: Vec<AttrId> = self
            .attr_names
            .iter()
            .filter_map(|n| g.schema().id(n).ok())
            .collect();
        let fmt_tuple = |tuple: &ValueTuple| -> String {
            if attrs.len() == tuple.len() {
                crate::ops::render_tuple(g, &attrs, tuple)
            } else {
                format!("{tuple:?}")
            }
        };
        let mut out = String::new();
        let _ = writeln!(out, "aggregate on ({})", self.attr_names.join(","));
        for (tuple, w) in self.iter_nodes() {
            let _ = writeln!(out, "  node {} w={w}", fmt_tuple(tuple));
        }
        for ((s, d), w) in self.iter_edges() {
            let _ = writeln!(out, "  edge {} -> {} w={w}", fmt_tuple(s), fmt_tuple(d));
        }
        out
    }
}

/// A predicate restricting which (node, time) appearances participate in an
/// aggregation — e.g. the paper's Fig. 12 filter "authors with
/// #Publications > 4".
pub type NodeTimeFilter<'a> = dyn Fn(&TemporalGraph, NodeId, TimePoint) -> bool + 'a;

/// Resolved attribute accessor avoiding schema lookups in inner loops.
enum Resolved {
    Static(usize),
    TimeVarying(usize),
}

#[allow(clippy::expect_used)]
fn resolve_attrs(g: &TemporalGraph, attrs: &[AttrId]) -> Vec<Resolved> {
    attrs
        .iter()
        .map(|&a| match g.schema().def(a).temporality() {
            Temporality::Static => Resolved::Static(
                g.schema()
                    .static_slot(a)
                    .expect("invariant: static attrs have a static slot"),
            ),
            Temporality::TimeVarying => Resolved::TimeVarying(
                g.schema()
                    .time_varying_slot(a)
                    .expect("invariant: time-varying attrs have a time-varying slot"),
            ),
        })
        .collect()
}

fn tuple_at(
    g: &TemporalGraph,
    resolved: &[Resolved],
    tv_tables: &[&tempo_columnar::ValueMatrix],
    n: usize,
    t: usize,
) -> ValueTuple {
    resolved
        .iter()
        .map(|r| match r {
            Resolved::Static(slot) => g.static_table().get(n, *slot).clone(),
            Resolved::TimeVarying(slot) => tv_tables[*slot].get(n, t).clone(),
        })
        .collect()
}

/// Aggregates `g` on `attrs` with the given mode (Definition 2.6),
/// considering every time point at which each entity exists. This is the
/// paper's tuple-hashing algorithm and the test oracle: no served verb
/// calls it — they count cached group ids ([`GroupTable::aggregate_masked`]).
///
/// ```
/// use graphtempo::aggregate::{aggregate, AggMode};
/// use tempo_graph::fixtures::fig1;
///
/// let g = fig1();
/// let gender = g.schema().id("gender").unwrap();
/// let dist = aggregate(&g, &[gender], AggMode::Distinct);
/// // 5 distinct authors: 2 male, 3 female
/// assert_eq!(dist.total_node_weight(), 5);
/// let all = aggregate(&g, &[gender], AggMode::All);
/// // 10 author appearances across the three time points
/// assert_eq!(all.total_node_weight(), 10);
/// ```
///
/// # Panics
/// Panics if any id is not from `g`'s schema.
pub fn aggregate(g: &TemporalGraph, attrs: &[AttrId], mode: AggMode) -> AggregateGraph {
    aggregate_filtered(g, attrs, mode, None)
}

/// [`aggregate`] with an optional per-(node, time) filter; a filtered-out
/// node contributes no appearances, and an edge appearance requires both
/// endpoints to pass. Like [`aggregate`], an oracle no served verb calls.
///
/// # Panics
/// Panics if any id is not from `g`'s schema.
pub fn aggregate_filtered(
    g: &TemporalGraph,
    attrs: &[AttrId],
    mode: AggMode,
    filter: Option<&NodeTimeFilter<'_>>,
) -> AggregateGraph {
    let names: Vec<String> = attrs
        .iter()
        .map(|&a| g.schema().def(a).name().to_owned())
        .collect();
    let mut agg = AggregateGraph::new(names);
    let resolved = resolve_attrs(g, attrs);
    #[allow(clippy::expect_used)]
    let tv_tables: Vec<&tempo_columnar::ValueMatrix> = g
        .schema()
        .time_varying_ids()
        .iter()
        .map(|&a| {
            g.tv_table(a)
                .expect("invariant: every time-varying id has a table")
        })
        .collect();

    let passes = |n: usize, t: usize| -> bool {
        filter.is_none_or(|f| f(g, NodeId(n as u32), TimePoint(t as u32)))
    };

    // Nodes.
    match mode {
        AggMode::Distinct => {
            let mut seen: HashSet<(usize, ValueTuple)> = HashSet::new();
            for n in 0..g.n_nodes() {
                for t in g.node_presence_matrix().iter_row_ones(n) {
                    if !passes(n, t) {
                        continue;
                    }
                    let tuple = tuple_at(g, &resolved, &tv_tables, n, t);
                    if seen.insert((n, tuple.clone())) {
                        agg.add_node_weight(tuple, 1);
                    }
                }
            }
        }
        AggMode::All => {
            for n in 0..g.n_nodes() {
                for t in g.node_presence_matrix().iter_row_ones(n) {
                    if !passes(n, t) {
                        continue;
                    }
                    let tuple = tuple_at(g, &resolved, &tv_tables, n, t);
                    agg.add_node_weight(tuple, 1);
                }
            }
        }
    }

    // Edges.
    match mode {
        AggMode::Distinct => {
            let mut seen: HashSet<(usize, (ValueTuple, ValueTuple))> = HashSet::new();
            for e in 0..g.n_edges() {
                let (u, v) = g.edge_endpoints(tempo_graph::EdgeId(e as u32));
                for t in g.edge_presence_matrix().iter_row_ones(e) {
                    if !passes(u.index(), t) || !passes(v.index(), t) {
                        continue;
                    }
                    let tu = tuple_at(g, &resolved, &tv_tables, u.index(), t);
                    let tv = tuple_at(g, &resolved, &tv_tables, v.index(), t);
                    if seen.insert((e, (tu.clone(), tv.clone()))) {
                        agg.add_edge_weight(tu, tv, 1);
                    }
                }
            }
        }
        AggMode::All => {
            for e in 0..g.n_edges() {
                let (u, v) = g.edge_endpoints(tempo_graph::EdgeId(e as u32));
                for t in g.edge_presence_matrix().iter_row_ones(e) {
                    if !passes(u.index(), t) || !passes(v.index(), t) {
                        continue;
                    }
                    let tu = tuple_at(g, &resolved, &tv_tables, u.index(), t);
                    let tv = tuple_at(g, &resolved, &tv_tables, v.index(), t);
                    agg.add_edge_weight(tu, tv, 1);
                }
            }
        }
    }
    agg
}

/// Attribute roll-up (§4.3): derives the aggregate on a subset of the
/// attributes directly from a finer aggregate by grouping tuples and
/// summing weights (COUNT is D-distributive).
///
/// Exact for per-timepoint aggregates and for ALL aggregates over any
/// interval. For DIST over a multi-point interval it over-counts entities
/// whose dropped attributes changed value (the same caveat the paper notes
/// for T-distributivity of distinct aggregation).
///
/// # Errors
/// Returns an error if `keep` is not a subset of the aggregate's attributes.
pub fn rollup(agg: &AggregateGraph, keep: &[&str]) -> Result<AggregateGraph, GraphError> {
    let positions: Vec<usize> = keep
        .iter()
        .map(|k| {
            agg.attr_names()
                .iter()
                .position(|n| n == k)
                .ok_or_else(|| GraphError::UnknownAttribute((*k).to_owned()))
        })
        .collect::<Result<_, _>>()?;
    let mut out = AggregateGraph::new(keep.iter().map(|s| (*s).to_owned()).collect());
    for (tuple, w) in &agg.nodes {
        let sub: ValueTuple = positions.iter().map(|&p| tuple[p].clone()).collect();
        out.add_node_weight(sub, *w);
    }
    for ((src, dst), w) in &agg.edges {
        let s: ValueTuple = positions.iter().map(|&p| src[p].clone()).collect();
        let d: ValueTuple = positions.iter().map(|&p| dst[p].clone()).collect();
        out.add_edge_weight(s, d, *w);
    }
    Ok(out)
}

/// Group-pair grids up to this many cells are accumulated densely.
const DENSE_PAIR_CELLS: usize = 1 << 16;

/// Weights per ordered group-id pair `(src, dst)` — the edge side of the
/// dense node accumulators. A `n_groups²` grid indexed `src * n_groups +
/// dst` while that is small (one add per kept edge appearance, no hashing);
/// a hash map keyed by the pair for attribute lists with many groups, where
/// zeroing the grid would cost more than the edges it saves.
pub(crate) enum PairAccumulator<W> {
    Dense { n_groups: usize, cells: Vec<W> },
    Sparse(HashMap<(u32, u32), W>),
}

impl<W: Clone + Default + PartialEq> PairAccumulator<W> {
    pub(crate) fn new(n_groups: usize) -> Self {
        match n_groups.checked_mul(n_groups) {
            Some(cells) if cells <= DENSE_PAIR_CELLS => PairAccumulator::Dense {
                n_groups,
                cells: vec![W::default(); cells],
            },
            _ => PairAccumulator::Sparse(HashMap::new()),
        }
    }

    /// The weight slot of pair `(src, dst)`.
    #[inline]
    pub(crate) fn slot(&mut self, src: u32, dst: u32) -> &mut W {
        match self {
            PairAccumulator::Dense { n_groups, cells } => {
                &mut cells[src as usize * *n_groups + dst as usize]
            }
            PairAccumulator::Sparse(map) => map.entry((src, dst)).or_default(),
        }
    }

    /// Visits every pair whose weight differs from `W::default()`.
    pub(crate) fn for_each_nonzero(&self, mut f: impl FnMut(u32, u32, &W)) {
        let zero = W::default();
        match self {
            PairAccumulator::Dense { n_groups, cells } => {
                for (i, w) in cells.iter().enumerate().filter(|(_, w)| **w != zero) {
                    f((i / n_groups) as u32, (i % n_groups) as u32, w);
                }
            }
            PairAccumulator::Sparse(map) => {
                for (&(s, d), w) in map.iter().filter(|(_, w)| **w != zero) {
                    f(s, d, w);
                }
            }
        }
    }
}

pub use tempo_graph::NO_GROUP;

/// Interned attribute-tuple groups for one `(graph, attrs)` pair — the
/// aggregation half of the mask → group-id evaluation path.
///
/// Each node's aggregation tuple is resolved and interned into a dense
/// `u32` group id **once** (the [`GroupColumns`] of `tempo-graph`, which
/// this type wraps): per node when every attribute is static, else per
/// (node, present time point). Aggregating an event ([`EventMask`]) then
/// counts group ids into dense accumulators —
/// [`aggregate_masked`](Self::aggregate_masked) — or, for exploration,
/// short-circuits into a bare count with no accumulator at all
/// ([`count_distinct`](Self::count_distinct)) — instead of re-building
/// heap-allocated [`ValueTuple`] hash keys per entity per interval pair.
///
/// The table is immutable after construction and `Sync`, so one instance is
/// shared across all pairs of an exploration run, and the columns behind
/// [`cached`](Self::cached) across every request on one snapshot.
#[must_use = "a group table built and dropped is a lost result"]
pub struct GroupTable {
    cols: Arc<GroupColumns>,
}

impl GroupTable {
    /// Builds the group table of `g` for the aggregation attributes `attrs`
    /// from scratch, bypassing the snapshot's cache.
    ///
    /// # Panics
    /// Panics if any id is not from `g`'s schema.
    #[allow(clippy::disallowed_methods)] // the uncached constructor itself
    pub fn build(g: &TemporalGraph, attrs: &[AttrId]) -> GroupTable {
        GroupTable {
            cols: Arc::new(GroupColumns::build(g, attrs)),
        }
    }

    /// The group table of `g` for `attrs` over the columns cached on the
    /// snapshot ([`TemporalGraph::group_columns`]): the first request per
    /// attribute list and snapshot version builds them, later ones share
    /// them.
    ///
    /// # Panics
    /// Panics if any id is not from `g`'s schema.
    pub fn cached(g: &TemporalGraph, attrs: &[AttrId]) -> GroupTable {
        GroupTable {
            cols: g.group_columns(attrs),
        }
    }

    /// Validates the interning bijection of the wrapped columns; see
    /// [`GroupColumns::check_invariants`].
    ///
    /// # Errors
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.cols.check_invariants()
    }

    /// Names of the aggregation attributes, in tuple order.
    pub fn attr_names(&self) -> &[String] {
        self.cols.attr_names()
    }

    /// Number of distinct attribute tuples seen in the source graph.
    pub fn n_groups(&self) -> usize {
        self.cols.tuples().len()
    }

    /// True when every aggregation attribute is static (one gid per node).
    pub fn is_static(&self) -> bool {
        self.cols.static_gids().is_some()
    }

    /// The attribute tuple of a group id.
    pub fn tuple(&self, gid: u32) -> &ValueTuple {
        &self.cols.tuples()[gid as usize]
    }

    /// Group id of an attribute tuple, if it occurs anywhere in the graph.
    pub fn lookup(&self, tuple: &[Value]) -> Option<u32> {
        self.cols.lookup(tuple)
    }

    /// Group id of node `n` at time `t`, or `None` when absent.
    pub fn gid_at(&self, n: usize, t: usize) -> Option<u32> {
        match self.cols.static_gids() {
            Some(gids) => Some(gids[n]),
            None => {
                let gid = self.cols.time_gid(n, t);
                (gid != NO_GROUP).then_some(gid)
            }
        }
    }

    /// One group id per node, when every aggregation attribute is static.
    pub(crate) fn static_gids(&self) -> Option<&[u32]> {
        self.cols.static_gids()
    }

    /// The snapshot's cached match columns of a tuple selector resolved to
    /// `key`; see [`GroupColumns::match_columns`].
    pub(crate) fn match_columns(&self, g: &TemporalGraph, key: MatchKey) -> Arc<MatchColumns> {
        self.cols.match_columns(g, key)
    }

    #[inline]
    pub(crate) fn time_gid(&self, n: usize, t: usize) -> u32 {
        let gid = self.cols.time_gid(n, t);
        debug_assert_ne!(gid, NO_GROUP, "present entity must have a group id");
        gid
    }

    /// Aggregates the event graph described by `mask` directly against the
    /// source presence matrices: no subgraph is materialized, node weights
    /// accumulate into a dense `Vec` indexed by group id.
    ///
    /// Equivalent to `aggregate(&event_graph(..), attrs, mode)` for the
    /// [`EventMask`] produced by the same arguments (property-tested).
    ///
    /// # Panics
    /// Panics if `g` is not the graph this table was built from.
    pub fn aggregate_masked(
        &self,
        g: &TemporalGraph,
        mask: &EventMask,
        mode: AggMode,
    ) -> AggregateGraph {
        let mut counts = Vec::new();
        let node_acc = self.node_weights(g, mask, mode, &mut counts);
        let edge_acc = self.edge_weights(g, mask, mode, &mut counts);
        let tuples = self.cols.tuples();
        let mut agg = AggregateGraph::new(self.attr_names().to_vec());
        for (gid, &w) in node_acc.iter().enumerate() {
            if w > 0 {
                agg.add_node_weight(tuples[gid].clone(), w);
            }
        }
        edge_acc.for_each_nonzero(|s, d, &w| {
            agg.add_edge_weight(tuples[s as usize].clone(), tuples[d as usize].clone(), w);
        });
        agg
    }

    /// The Definition 2.6 node weights of the event graph described by
    /// `mask`, indexed by group id (0 for a tuple the event graph lacks).
    /// `counts` is the popcount scratch handed to [`masked_popcounts_into`],
    /// overwritten in place.
    ///
    /// [`masked_popcounts_into`]: tempo_columnar::BitMatrix::masked_popcounts_into
    pub(crate) fn node_weights(
        &self,
        g: &TemporalGraph,
        mask: &EventMask,
        mode: AggMode,
        counts: &mut Vec<u32>,
    ) -> Vec<u64> {
        let scope = mask.scope().bits();
        debug_assert_eq!(self.check_invariants(), Ok(()));
        debug_assert_eq!(scope.check_invariants(), Ok(()));
        debug_assert_eq!(mask.keep_nodes().check_invariants(), Ok(()));
        let mut node_acc = vec![0u64; self.n_groups()];
        match (self.cols.static_gids(), mode) {
            (Some(gids), AggMode::Distinct) => {
                for n in mask.keep_nodes().iter_ones() {
                    debug_assert!(
                        g.node_presence_matrix().row_count_masked(n, scope) > 0,
                        "kept node must appear within scope"
                    );
                    node_acc[gids[n] as usize] += 1;
                }
            }
            (Some(gids), AggMode::All) => {
                g.node_presence_matrix()
                    .masked_popcounts_into(scope, counts);
                for n in mask.keep_nodes().iter_ones() {
                    node_acc[gids[n] as usize] += u64::from(counts[n]);
                }
            }
            (None, _) => {
                // Sorted scratch: binary-search insert keeps per-entity
                // dedup O(k log k) in the scope size instead of O(k²).
                let mut seen: Vec<u32> = Vec::new();
                for n in mask.keep_nodes().iter_ones() {
                    seen.clear();
                    for t in g.node_presence_matrix().iter_row_ones_and(n, scope) {
                        let gid = self.time_gid(n, t);
                        match mode {
                            AggMode::All => node_acc[gid as usize] += 1,
                            AggMode::Distinct => {
                                if let Err(pos) = seen.binary_search(&gid) {
                                    seen.insert(pos, gid);
                                    node_acc[gid as usize] += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
        node_acc
    }

    /// The edge half of [`node_weights`](Self::node_weights): weights per
    /// ordered pair of group ids.
    pub(crate) fn edge_weights(
        &self,
        g: &TemporalGraph,
        mask: &EventMask,
        mode: AggMode,
        counts: &mut Vec<u32>,
    ) -> PairAccumulator<u64> {
        let scope = mask.scope().bits();
        let mut edge_acc: PairAccumulator<u64> = PairAccumulator::new(self.n_groups());
        match self.cols.static_gids() {
            Some(gids) => {
                let weighted = matches!(mode, AggMode::All);
                if weighted {
                    g.edge_presence_matrix()
                        .masked_popcounts_into(scope, counts);
                }
                for e in mask.keep_edges().iter_ones() {
                    let (u, v) = g.edge_endpoints(tempo_graph::EdgeId(e as u32));
                    let w = if weighted { u64::from(counts[e]) } else { 1 };
                    *edge_acc.slot(gids[u.index()], gids[v.index()]) += w;
                }
            }
            None => {
                let mut seen: Vec<(u32, u32)> = Vec::new();
                for e in mask.keep_edges().iter_ones() {
                    let (u, v) = g.edge_endpoints(tempo_graph::EdgeId(e as u32));
                    seen.clear();
                    for t in g.edge_presence_matrix().iter_row_ones_and(e, scope) {
                        let pair = (self.time_gid(u.index(), t), self.time_gid(v.index(), t));
                        match mode {
                            AggMode::All => *edge_acc.slot(pair.0, pair.1) += 1,
                            AggMode::Distinct => {
                                if let Err(pos) = seen.binary_search(&pair) {
                                    seen.insert(pos, pair);
                                    *edge_acc.slot(pair.0, pair.1) += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
        edge_acc
    }

    /// Counts `result(G)` of the event graph described by `mask` under
    /// distinct (DIST) semantics — the exploration hot path. No aggregate
    /// graph, no hash map, no tuple is built: group ids are compared
    /// directly, and per-entity scans short-circuit on the first match.
    ///
    /// Equivalent to `selector.count(&aggregate(&event_graph(..), attrs,
    /// AggMode::Distinct))` with `target` resolved from the selector
    /// (property-tested).
    pub fn count_distinct(&self, g: &TemporalGraph, mask: &EventMask, target: &CountTarget) -> u64 {
        self.count_distinct_with_scratch(g, mask, target, &mut Vec::new(), &mut Vec::new())
    }

    /// Buffer-reusing form of [`count_distinct`](Self::count_distinct):
    /// the per-entity dedup scratches are the caller's, cleared per entity
    /// rather than reallocated per call, so a cursor counting in a loop
    /// hoists the allocation across its whole run.
    pub fn count_distinct_with_scratch(
        &self,
        g: &TemporalGraph,
        mask: &EventMask,
        target: &CountTarget,
        seen_gids: &mut Vec<u32>,
        seen_pairs: &mut Vec<(u32, u32)>,
    ) -> u64 {
        let scope = mask.scope().bits();
        match (target, self.cols.static_gids()) {
            // A tuple that occurs nowhere in the source graph can never
            // occur in an event graph of it.
            (CountTarget::Node(None), _) | (CountTarget::Edge(None), _) => 0,
            (CountTarget::AllNodes, Some(_)) => mask.keep_nodes().count_ones() as u64,
            (CountTarget::AllNodes, None) => {
                let mut total = 0u64;
                // Sorted scratch, as in aggregate_masked.
                for n in mask.keep_nodes().iter_ones() {
                    seen_gids.clear();
                    for t in g.node_presence_matrix().iter_row_ones_and(n, scope) {
                        let gid = self.time_gid(n, t);
                        if let Err(pos) = seen_gids.binary_search(&gid) {
                            seen_gids.insert(pos, gid);
                        }
                    }
                    total += seen_gids.len() as u64;
                }
                total
            }
            (CountTarget::Node(Some(gid)), Some(gids)) => mask
                .keep_nodes()
                .iter_ones()
                .filter(|&n| gids[n] == *gid)
                .count() as u64,
            (CountTarget::Node(Some(gid)), None) => mask
                .keep_nodes()
                .iter_ones()
                .filter(|&n| {
                    g.node_presence_matrix()
                        .iter_row_ones_and(n, scope)
                        .any(|t| self.time_gid(n, t) == *gid)
                })
                .count() as u64,
            (CountTarget::AllEdges, Some(_)) => mask.keep_edges().count_ones() as u64,
            (CountTarget::AllEdges, None) => {
                let mut total = 0u64;
                for e in mask.keep_edges().iter_ones() {
                    let (u, v) = g.edge_endpoints(tempo_graph::EdgeId(e as u32));
                    seen_pairs.clear();
                    for t in g.edge_presence_matrix().iter_row_ones_and(e, scope) {
                        let pair = (self.time_gid(u.index(), t), self.time_gid(v.index(), t));
                        if let Err(pos) = seen_pairs.binary_search(&pair) {
                            seen_pairs.insert(pos, pair);
                        }
                    }
                    total += seen_pairs.len() as u64;
                }
                total
            }
            (CountTarget::Edge(Some((gs, gd))), Some(gids)) => mask
                .keep_edges()
                .iter_ones()
                .filter(|&e| {
                    let (u, v) = g.edge_endpoints(tempo_graph::EdgeId(e as u32));
                    gids[u.index()] == *gs && gids[v.index()] == *gd
                })
                .count() as u64,
            (CountTarget::Edge(Some((gs, gd))), None) => mask
                .keep_edges()
                .iter_ones()
                .filter(|&e| {
                    let (u, v) = g.edge_endpoints(tempo_graph::EdgeId(e as u32));
                    g.edge_presence_matrix()
                        .iter_row_ones_and(e, scope)
                        .any(|t| {
                            self.time_gid(u.index(), t) == *gs && self.time_gid(v.index(), t) == *gd
                        })
                })
                .count() as u64,
        }
    }
}

/// What [`GroupTable::count_distinct`] counts, with selector tuples
/// pre-resolved to group ids once per run. `None` ids mean the requested
/// tuple occurs nowhere in the source graph, so the count is always zero.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CountTarget {
    /// Sum of all aggregate node weights.
    AllNodes,
    /// Sum of all aggregate edge weights.
    AllEdges,
    /// Weight of one aggregate node.
    Node(Option<u32>),
    /// Weight of one aggregate edge.
    Edge(Option<(u32, u32)>),
}

impl CountTarget {
    /// Resolves a node-tuple target against the table.
    pub fn node(table: &GroupTable, tuple: &[Value]) -> CountTarget {
        CountTarget::Node(table.lookup(tuple))
    }

    /// Resolves an edge-tuple-pair target against the table.
    pub fn edge(table: &GroupTable, src: &[Value], dst: &[Value]) -> CountTarget {
        CountTarget::Edge(match (table.lookup(src), table.lookup(dst)) {
            (Some(s), Some(d)) => Some((s, d)),
            _ => None,
        })
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // the oracle side builds its tables uncached
mod tests {
    use super::*;
    use crate::ops::{project_point, union};
    use tempo_graph::fixtures::fig1;
    use tempo_graph::TimeSet;

    fn attrs(g: &TemporalGraph, names: &[&str]) -> Vec<AttrId> {
        names.iter().map(|n| g.schema().id(n).unwrap()).collect()
    }

    fn cat(g: &TemporalGraph, attr: &str, label: &str) -> Value {
        let a = g.schema().id(attr).unwrap();
        g.schema().category(a, label).unwrap()
    }

    #[test]
    fn fig3a_aggregate_t0() {
        // Fig. 3a: aggregation of the t0 projection on (gender, pubs).
        let g = fig1();
        let p0 = project_point(&g, TimePoint(0)).unwrap();
        let ga = attrs(&p0, &["gender", "publications"]);
        let agg = aggregate(&p0, &ga, AggMode::Distinct);
        let m = cat(&p0, "gender", "m");
        let f = cat(&p0, "gender", "f");
        // t0 nodes: u1 (m,3), u2 (f,1), u3 (f,1), u4 (f,2)
        assert_eq!(agg.node_weight(&[m.clone(), Value::Int(3)]), 1);
        assert_eq!(agg.node_weight(&[f.clone(), Value::Int(1)]), 2);
        assert_eq!(agg.node_weight(&[f.clone(), Value::Int(2)]), 1);
        assert_eq!(agg.n_nodes(), 3);
        // at a single time point DIST == ALL
        let all = aggregate(&p0, &ga, AggMode::All);
        assert_eq!(agg, all);
    }

    #[test]
    fn fig3d_e_union_dist_vs_all() {
        // Fig. 3d/e: union graph of [t0,t1], node (f,1) has DIST 3, ALL 4.
        let g = fig1();
        let u = union(
            &g,
            &TimeSet::from_indices(3, [0]),
            &TimeSet::from_indices(3, [1]),
        )
        .unwrap();
        let ga = attrs(&u, &["gender", "publications"]);
        let f = cat(&u, "gender", "f");
        let dist = aggregate(&u, &ga, AggMode::Distinct);
        let all = aggregate(&u, &ga, AggMode::All);
        assert_eq!(dist.node_weight(&[f.clone(), Value::Int(1)]), 3);
        assert_eq!(all.node_weight(&[f.clone(), Value::Int(1)]), 4);
    }

    #[test]
    fn edge_weights_fig1_t0() {
        let g = fig1();
        let p0 = project_point(&g, TimePoint(0)).unwrap();
        let ga = attrs(&p0, &["gender"]);
        let agg = aggregate(&p0, &ga, AggMode::Distinct);
        let m = cat(&p0, "gender", "m");
        let f = cat(&p0, "gender", "f");
        // t0 edges: u1->u2 (m->f), u3->u2 (f->f), u4->u2 (f->f)
        assert_eq!(
            agg.edge_weight(std::slice::from_ref(&m), std::slice::from_ref(&f)),
            1
        );
        assert_eq!(
            agg.edge_weight(std::slice::from_ref(&f), std::slice::from_ref(&f)),
            2
        );
        assert_eq!(agg.edge_weight(&[f], &[m]), 0);
    }

    #[test]
    fn filtered_aggregation() {
        let g = fig1();
        let pubs = g.schema().id("publications").unwrap();
        let ga = attrs(&g, &["gender"]);
        // keep only appearances with publications >= 2
        let filter = move |gr: &TemporalGraph, n: NodeId, t: TimePoint| {
            gr.attr_value(n, pubs, t).as_int().unwrap_or(0) >= 2
        };
        let agg = aggregate_filtered(&g, &ga, AggMode::All, Some(&filter));
        let m = cat(&g, "gender", "m");
        let f = cat(&g, "gender", "f");
        // appearances with pubs>=2: u1@t0 (m,3), u4@t0 (f,2), u5@t2 (m,3)
        assert_eq!(agg.node_weight(&[m]), 2);
        assert_eq!(agg.node_weight(&[f]), 1);
        // no edge has both endpoints passing at the same time
        assert_eq!(agg.n_edges(), 0);
    }

    #[test]
    fn rollup_matches_direct_on_timepoint() {
        let g = fig1();
        let p0 = project_point(&g, TimePoint(0)).unwrap();
        let both = attrs(&p0, &["gender", "publications"]);
        let full = aggregate(&p0, &both, AggMode::Distinct);
        let rolled = rollup(&full, &["gender"]).unwrap();
        let direct = aggregate(&p0, &attrs(&p0, &["gender"]), AggMode::Distinct);
        assert_eq!(rolled, direct);
        // unknown attribute errors
        assert!(rollup(&full, &["nope"]).is_err());
    }

    #[test]
    fn rollup_exact_for_all_mode_over_intervals() {
        let g = fig1();
        let both = attrs(&g, &["gender", "publications"]);
        let full = aggregate(&g, &both, AggMode::All);
        let rolled = rollup(&full, &["gender"]).unwrap();
        let direct = aggregate(&g, &attrs(&g, &["gender"]), AggMode::All);
        assert_eq!(rolled, direct);
    }

    #[test]
    fn merge_add_accumulates() {
        let g = fig1();
        let ga = attrs(&g, &["gender"]);
        let mut acc = AggregateGraph::new(vec!["gender".into()]);
        for t in g.domain().iter() {
            let p = project_point(&g, t).unwrap();
            let a = aggregate(&p, &attrs(&p, &["gender"]), AggMode::All);
            acc.merge_add(&a);
        }
        // summing per-timepoint ALL aggregates == ALL aggregate of the full graph
        let direct = aggregate(&g, &ga, AggMode::All);
        assert_eq!(acc, direct);
    }

    #[test]
    fn weights_zero_for_missing() {
        let g = fig1();
        let agg = aggregate(&g, &attrs(&g, &["gender"]), AggMode::All);
        assert_eq!(agg.node_weight(&[Value::Int(999)]), 0);
        assert_eq!(agg.edge_weight(&[Value::Int(1)], &[Value::Int(2)]), 0);
    }

    #[test]
    fn render_contains_weights() {
        let g = fig1();
        let agg = aggregate(&g, &attrs(&g, &["gender"]), AggMode::Distinct);
        let text = agg.render(&g);
        assert!(text.contains("aggregate on (gender)"));
        assert!(text.contains("w="));
    }

    #[test]
    fn group_table_static_and_mixed_layouts() {
        let g = fig1();
        let static_tbl = GroupTable::build(&g, &attrs(&g, &["gender"]));
        assert!(static_tbl.is_static());
        assert_eq!(static_tbl.n_groups(), 2); // m, f
        let mixed = GroupTable::build(&g, &attrs(&g, &["gender", "publications"]));
        assert!(!mixed.is_static());
        // u1 is male with 3 publications at t0
        let u1 = g.node_id("u1").unwrap().index();
        let m = cat(&g, "gender", "m");
        let gid = mixed.gid_at(u1, 0).unwrap();
        assert_eq!(mixed.tuple(gid), &vec![m, Value::Int(3)]);
        assert_eq!(mixed.lookup(&[Value::Int(999)]), None);
        // u1 is absent at t2
        assert_eq!(mixed.gid_at(u1, 2), None);
    }

    #[test]
    fn aggregate_masked_matches_materializing_path_on_fig1() {
        use crate::ops::{event_graph, event_mask, Event, SideTest};
        let g = fig1();
        let intervals = [
            TimeSet::from_indices(3, [0]),
            TimeSet::from_indices(3, [0, 1]),
            TimeSet::from_indices(3, [2]),
        ];
        for names in [
            &["gender"][..],
            &["publications"][..],
            &["gender", "publications"][..],
        ] {
            let ga = attrs(&g, names);
            let table = GroupTable::build(&g, &ga);
            for event in [Event::Stability, Event::Growth, Event::Shrinkage] {
                for told in &intervals {
                    for tnew in &intervals {
                        for mode in [AggMode::Distinct, AggMode::All] {
                            let mask =
                                event_mask(&g, event, told, tnew, SideTest::Any, SideTest::All)
                                    .unwrap();
                            let fast = table.aggregate_masked(&g, &mask, mode);
                            let ev =
                                event_graph(&g, event, told, tnew, SideTest::Any, SideTest::All)
                                    .unwrap();
                            let slow = aggregate(&ev, &attrs(&ev, names), mode);
                            assert_eq!(
                                fast, slow,
                                "{event:?} {told:?} {tnew:?} {mode:?} attrs {names:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn count_distinct_matches_selector_count() {
        use crate::explore::Selector;
        use crate::ops::{event_graph, event_mask, Event, SideTest};
        let g = fig1();
        let told = TimeSet::from_indices(3, [0, 1]);
        let tnew = TimeSet::from_indices(3, [2]);
        let f = cat(&g, "gender", "f");
        for names in [&["gender"][..], &["gender", "publications"][..]] {
            let ga = attrs(&g, names);
            let table = GroupTable::build(&g, &ga);
            let node_tuple: ValueTuple = if names.len() == 1 {
                vec![f.clone()]
            } else {
                vec![f.clone(), Value::Int(1)]
            };
            let selectors = [
                Selector::AllNodes,
                Selector::AllEdges,
                Selector::NodeTuple(node_tuple.clone()),
                Selector::EdgeTuple(node_tuple.clone(), node_tuple.clone()),
            ];
            let targets = [
                CountTarget::AllNodes,
                CountTarget::AllEdges,
                CountTarget::node(&table, &node_tuple),
                CountTarget::edge(&table, &node_tuple, &node_tuple),
            ];
            for event in [Event::Stability, Event::Growth, Event::Shrinkage] {
                let mask =
                    event_mask(&g, event, &told, &tnew, SideTest::Any, SideTest::Any).unwrap();
                let ev =
                    event_graph(&g, event, &told, &tnew, SideTest::Any, SideTest::Any).unwrap();
                let agg = aggregate(&ev, &attrs(&ev, names), AggMode::Distinct);
                for (sel, target) in selectors.iter().zip(&targets) {
                    assert_eq!(
                        table.count_distinct(&g, &mask, target),
                        sel.count(&agg),
                        "{event:?} selector {sel:?} attrs {names:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn pair_accumulator_dense_and_sparse_agree() {
        let collect = |acc: &PairAccumulator<u64>| {
            let mut out = Vec::new();
            acc.for_each_nonzero(|s, d, &w| out.push((s, d, w)));
            out.sort_unstable();
            out
        };
        // 300² cells exceed the dense cap, 3² do not
        let mut sparse = PairAccumulator::<u64>::new(300);
        let mut dense = PairAccumulator::<u64>::new(3);
        assert!(matches!(sparse, PairAccumulator::Sparse(_)));
        assert!(matches!(dense, PairAccumulator::Dense { .. }));
        for (s, d, w) in [(0, 2, 5), (2, 1, 1), (0, 2, 2)] {
            *sparse.slot(s, d) += w;
            *dense.slot(s, d) += w;
        }
        // a touched slot left at zero is not reported
        *sparse.slot(1, 1) += 0;
        assert_eq!(collect(&sparse), vec![(0, 2, 7), (2, 1, 1)]);
        assert_eq!(collect(&dense), collect(&sparse));
    }

    #[test]
    fn count_target_unknown_tuple_is_zero() {
        use crate::ops::{event_mask, Event, SideTest};
        let g = fig1();
        let table = GroupTable::build(&g, &attrs(&g, &["gender"]));
        let target = CountTarget::node(&table, &[Value::Int(12345)]);
        assert_eq!(target, CountTarget::Node(None));
        let mask = event_mask(
            &g,
            Event::Stability,
            &TimeSet::from_indices(3, [0]),
            &TimeSet::from_indices(3, [1]),
            SideTest::Any,
            SideTest::Any,
        )
        .unwrap();
        assert_eq!(table.count_distinct(&g, &mask, &target), 0);
    }
}
