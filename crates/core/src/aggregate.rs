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
//! direct hash aggregation over the presence columns of a materialized
//! graph it is checked against.

use std::borrow::Borrow;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use tempo_columnar::{word_ones, BitVec, PresenceColumns, Value, ValueTuple};
use tempo_graph::{
    AttrId, EdgeId, GraphError, GroupColumns, MatchColumns, MatchKey, NodeId, TemporalGraph,
    Temporality, TimePoint, TimeSet,
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
                for t in g
                    .node_timestamp(NodeId(n as u32))
                    .iter()
                    .map(TimePoint::index)
                {
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
                for t in g
                    .node_timestamp(NodeId(n as u32))
                    .iter()
                    .map(TimePoint::index)
                {
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
                for t in g
                    .edge_timestamp(tempo_graph::EdgeId(e as u32))
                    .iter()
                    .map(TimePoint::index)
                {
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
                for t in g
                    .edge_timestamp(tempo_graph::EdgeId(e as u32))
                    .iter()
                    .map(TimePoint::index)
                {
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

/// Entities per word of a presence column, and scope points per chunk of
/// the DIST walk's tile.
const WORD_BITS: usize = 64;

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

/// The entities a [`GroupTable`] walk visits, and how it keys them: a node
/// by its group id, an edge by the ordered pair of its endpoints' ids.
pub(crate) trait Entities: Copy {
    /// What an appearance is counted under.
    type Key: Copy + PartialEq + Default;
    /// Which of the entities exist at each time point.
    fn presence(&self) -> &PresenceColumns;
    /// The key of entity `e` under the group ids `gids` of one time point.
    fn key(&self, e: usize, gids: &[u32]) -> Self::Key;
    /// Whether entity `e` passes where a filter lets the nodes of `pass`
    /// through (an edge needs both endpoints).
    fn passes(&self, e: usize, pass: &BitVec) -> bool;
}

/// The nodes of a graph, keyed by group id.
#[derive(Clone, Copy)]
pub(crate) struct Nodes<'g>(pub(crate) &'g TemporalGraph);

/// The edges of a graph, keyed by `(source gid, destination gid)`.
#[derive(Clone, Copy)]
pub(crate) struct Edges<'g>(pub(crate) &'g TemporalGraph);

impl Entities for Nodes<'_> {
    type Key = u32;

    fn presence(&self) -> &PresenceColumns {
        self.0.node_presence_columns()
    }

    #[inline]
    fn key(&self, n: usize, gids: &[u32]) -> u32 {
        gids[n]
    }

    #[inline]
    fn passes(&self, n: usize, pass: &BitVec) -> bool {
        pass.get(n)
    }
}

impl Entities for Edges<'_> {
    type Key = (u32, u32);

    fn presence(&self) -> &PresenceColumns {
        self.0.edge_presence_columns()
    }

    #[inline]
    fn key(&self, e: usize, gids: &[u32]) -> (u32, u32) {
        let (u, v) = self.0.edge_endpoints(EdgeId(e as u32));
        (gids[u.index()], gids[v.index()])
    }

    #[inline]
    fn passes(&self, e: usize, pass: &BitVec) -> bool {
        let (u, v) = self.0.edge_endpoints(EdgeId(e as u32));
        pass.get(u.index()) && pass.get(v.index())
    }
}

/// Interned attribute-tuple groups for one `(graph, attrs)` pair — the
/// aggregation half of the mask → group-id evaluation path.
///
/// Each node's aggregation tuple is resolved and interned into a dense
/// `u32` group id **once** (the [`GroupColumns`] of `tempo-graph`, which
/// this type wraps): per node when every attribute is static, else per
/// (node, present time point). Every read query then counts group ids with
/// one column-major walk into dense accumulators —
/// [`aggregate_masked`](Self::aggregate_masked), the bare
/// [`count_distinct`](Self::count_distinct) of exploration, evolution and
/// measures — instead of re-building heap-allocated [`ValueTuple`] hash
/// keys per entity per interval pair.
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
        self.cols.is_static()
    }

    /// The attribute tuple of a group id.
    pub fn tuple(&self, gid: u32) -> &ValueTuple {
        &self.cols.tuples()[gid as usize]
    }

    /// Group id of an attribute tuple, if it occurs anywhere in the graph.
    pub fn lookup(&self, tuple: &[Value]) -> Option<u32> {
        self.cols.lookup(tuple)
    }

    /// The snapshot's cached match columns of a tuple selector resolved to
    /// `key`; see [`GroupColumns::match_columns`].
    pub(crate) fn match_columns(&self, g: &TemporalGraph, key: MatchKey) -> Arc<MatchColumns> {
        self.cols.match_columns(g, key)
    }

    /// The one Definition 2.6 walk: calls `visit(e, t, key)` for every
    /// appearance that counts of a `keep` entity at a point `t` of `scope`,
    /// keyed through the group ids of `t`. `pass[t]`, when given, holds the
    /// nodes a filter lets through at scope point `t`, and an appearance it
    /// stops does not count.
    ///
    /// Under [`AggMode::All`] every appearance counts, one point at a time:
    /// the entities of `presence_col[t] ∧ keep`. Under [`AggMode::Distinct`]
    /// an appearance counts the first time its entity shows its key in the
    /// scope. The walk then takes the kept entities 64 at a time, word `b`
    /// of `keep` and of every scope point's presence column, in scope order:
    /// an entity's first passing appearance counts at once, and its key
    /// waits in a 64-entry row; a later one, on a list with a time-varying
    /// attribute, is set in a tile of one mask per entity and 64-point chunk
    /// of the scope. Each entity with later appearances then keys them in
    /// scope order against a list that starts with its first key. An entity
    /// that appears once never meets the list, and an all-static list keys
    /// only first appearances. Nothing as long as the entities is allocated:
    /// one cursor per scope point, the row, the tile and the list.
    ///
    /// An all-static list without a filter skips the walk: every kept entity
    /// counts once with its one id (and `t` is the scope's first point),
    /// since a kept entity exists within the scope.
    pub(crate) fn walk<E: Entities>(
        &self,
        entities: E,
        scope: &TimeSet,
        keep: &BitVec,
        mode: AggMode,
        pass: Option<&[BitVec]>,
        mut visit: impl FnMut(usize, usize, E::Key),
    ) {
        let presence = entities.presence();
        let points: Vec<usize> = scope.iter().map(TimePoint::index).collect();
        let passes = |e: usize, t: usize| pass.is_none_or(|p| entities.passes(e, &p[t]));
        let (cols, all_static) = (&*self.cols, self.is_static());
        match mode {
            AggMode::All => {
                for &t in &points {
                    let gids = cols.col(t);
                    for e in presence.col(t).iter_ones_and(keep) {
                        if passes(e, t) {
                            visit(e, t, entities.key(e, gids));
                        }
                    }
                }
                return;
            }
            AggMode::Distinct if all_static && pass.is_none() => {
                let (gids, first) = (cols.col(0), points.first().copied().unwrap_or(0));
                for e in keep.iter_ones() {
                    debug_assert!(
                        points.iter().any(|&t| presence.col(t).get(e)),
                        "kept entity {e} must appear within scope"
                    );
                    visit(e, first, entities.key(e, gids));
                }
                return;
            }
            AggMode::Distinct => {}
        }
        debug_assert!(points.iter().all(|&t| presence.col(t).len() <= keep.len()));
        let mut cursors: Vec<_> = points
            .iter()
            .map(|&t| presence.col(t).block_words())
            .collect();
        let mut first_keys = [E::Key::default(); WORD_BITS];
        // entity `lane` of the word at hand shows again at scope point
        // `64·c + i` iff bit `i` of `tile[lane · chunks + c]` is set
        let chunks = points.len().div_ceil(WORD_BITS);
        let mut tile = vec![0u64; WORD_BITS * chunks];
        let mut keys: Vec<E::Key> = Vec::new();
        for (b, &kept) in keep.words().iter().enumerate().filter(|(_, &w)| w != 0) {
            let entity = |lane: usize| b * WORD_BITS + lane;
            let (mut seen, mut again) = (0u64, 0u64);
            for ((i, cursor), &t) in cursors.iter_mut().enumerate().zip(&points) {
                let mut shown = cursor.word(b) & kept;
                if pass.is_some() {
                    for lane in word_ones(shown).filter(|&lane| !passes(entity(lane), t)) {
                        shown &= !(1 << lane);
                    }
                }
                let gids = cols.col(t);
                for lane in word_ones(shown & !seen) {
                    first_keys[lane] = entities.key(entity(lane), gids);
                    visit(entity(lane), t, first_keys[lane]);
                }
                if !all_static {
                    let (c, bit) = (i / WORD_BITS, 1u64 << (i % WORD_BITS));
                    for lane in word_ones(shown & seen) {
                        tile[lane * chunks + c] |= bit;
                    }
                    again |= shown & seen;
                }
                seen |= shown;
            }
            for lane in word_ones(again) {
                keys.clear();
                keys.push(first_keys[lane]);
                for (c, mask) in tile[lane * chunks..][..chunks].iter_mut().enumerate() {
                    for i in word_ones(std::mem::take(mask)) {
                        let t = points[c * WORD_BITS + i];
                        let key = entities.key(entity(lane), cols.col(t));
                        if !keys.contains(&key) {
                            keys.push(key);
                            visit(entity(lane), t, key);
                        }
                    }
                }
            }
        }
    }

    /// The Definition 2.6 node weights of the `keep` nodes over `scope`
    /// (see [`walk`](Self::walk)), indexed by group id.
    pub(crate) fn node_weights(
        &self,
        g: &TemporalGraph,
        scope: &TimeSet,
        keep: &BitVec,
        mode: AggMode,
        pass: Option<&[BitVec]>,
    ) -> Vec<u64> {
        let mut acc = vec![0u64; self.n_groups()];
        self.walk(Nodes(g), scope, keep, mode, pass, |_, _, gid| {
            acc[gid as usize] += 1;
        });
        acc
    }

    /// The edge half of [`node_weights`](Self::node_weights): weights per
    /// ordered pair of group ids.
    pub(crate) fn edge_weights(
        &self,
        g: &TemporalGraph,
        scope: &TimeSet,
        keep: &BitVec,
        mode: AggMode,
        pass: Option<&[BitVec]>,
    ) -> PairAccumulator<u64> {
        let mut acc = PairAccumulator::new(self.n_groups());
        self.walk(Edges(g), scope, keep, mode, pass, |_, _, (s, d)| {
            *acc.slot(s, d) += 1;
        });
        acc
    }

    /// Aggregates the event graph described by `mask` directly against the
    /// source presence columns: no subgraph is materialized, node weights
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
        let scope = mask.scope();
        let node_acc = self.node_weights(g, scope, mask.keep_nodes(), mode, None);
        let edge_acc = self.edge_weights(g, scope, mask.keep_edges(), mode, None);
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

    /// Counts `result(G)` of the event graph described by `mask` under
    /// distinct (DIST) semantics: the DIST weights of the targeted side,
    /// then the one weight or the sum the target names. No aggregate graph
    /// and no tuple is built.
    ///
    /// Equivalent to `selector.count(&aggregate(&event_graph(..), attrs,
    /// AggMode::Distinct))` with `target` resolved from the selector
    /// (property-tested).
    pub fn count_distinct(&self, g: &TemporalGraph, mask: &EventMask, target: &CountTarget) -> u64 {
        let (scope, mode) = (mask.scope(), AggMode::Distinct);
        let nodes = || self.node_weights(g, scope, mask.keep_nodes(), mode, None);
        let edges = || self.edge_weights(g, scope, mask.keep_edges(), mode, None);
        match *target {
            // A tuple that occurs nowhere in the source graph can never
            // occur in an event graph of it.
            CountTarget::Node(None) | CountTarget::Edge(None) => 0,
            CountTarget::AllNodes => nodes().iter().sum(),
            CountTarget::Node(Some(gid)) => nodes()[gid as usize],
            CountTarget::AllEdges => {
                let mut total = 0;
                edges().for_each_nonzero(|_, _, &w| total += w);
                total
            }
            CountTarget::Edge(Some((s, d))) => *edges().slot(s, d),
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
        let m = cat(&g, "gender", "m");
        let gid = mixed.lookup(&[m.clone(), Value::Int(3)]).unwrap();
        assert_eq!(mixed.tuple(gid), &vec![m, Value::Int(3)]);
        assert_eq!(mixed.lookup(&[Value::Int(999)]), None);
    }

    /// Node `u` and edge `u → v` carry tuple A at t0, are absent at t1, carry
    /// B at t2 and A again at t3; `v` carries X throughout. One scope spans
    /// all four points, so DIST counts A and B once each and ALL counts
    /// three appearances.
    #[test]
    fn walk_counts_a_tuple_that_returns_once() {
        use crate::ops::{event_graph, event_mask, Event, SideTest};
        let (told, tnew) = (TimeSet::range(4, 0, 1), TimeSet::range(4, 2, 3));
        let (a, x) = (Value::Int(1), Value::Int(9));
        for g in tempo_testkit::both_layouts(&tempo_testkit::returning_tuple()) {
            let mask = event_mask(
                &g,
                Event::Stability,
                &told,
                &tnew,
                SideTest::Any,
                SideTest::Any,
            )
            .unwrap();
            let ev = event_graph(
                &g,
                Event::Stability,
                &told,
                &tnew,
                SideTest::Any,
                SideTest::Any,
            )
            .unwrap();
            for names in [&["level"][..], &["kind", "level"][..]] {
                let table = GroupTable::build(&g, &attrs(&g, names));
                for (mode, u_a, u_total) in [(AggMode::Distinct, 1, 2), (AggMode::All, 2, 3)] {
                    let fast = table.aggregate_masked(&g, &mask, mode);
                    assert_eq!(fast, aggregate(&ev, &attrs(&ev, names), mode), "{names:?}");
                    if names.len() == 1 {
                        let (a, x) = (std::slice::from_ref(&a), std::slice::from_ref(&x));
                        assert_eq!(fast.node_weight(a), u_a);
                        assert_eq!(fast.total_edge_weight(), u_total);
                        assert_eq!(fast.edge_weight(a, x), u_a);
                    }
                }
            }
        }
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
