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
//! One production implementation and one oracle, tested equivalent: the
//! [`GroupTable`] walk is what every read query runs (group ids counted into
//! dense accumulators; the paper's §4.2 static fast path is its
//! one-id-per-node layout). It reads the scope's presence columns, and
//! narrows them by a keep set only where a Def. 2.5 event does
//! ([`GroupTable::aggregate_masked`] under an [`EventMask`]); the union
//! graph of Def. 2.3 is the scope itself ([`GroupTable::aggregate_union`]).
//! [`aggregate`] is the direct hash aggregation over the presence columns
//! of a materialized graph it is checked against.

use std::collections::{HashMap, HashSet};
use std::ops::Add;
use std::sync::Arc;
use tempo_columnar::{word_ones, BitVec, PresenceColumns, Value, ValueTuple};
use tempo_graph::{
    AttrId, EdgeId, GraphError, GroupColumns, MatchColumns, MatchKey, NodeId, Repeats,
    TemporalGraph, Temporality, TimePoint, TimeSet,
};

use crate::export::render_tuple;
use crate::ops::EventMask;

/// Distinct (DIST) vs non-distinct (ALL) weight semantics.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum AggMode {
    /// Count each distinct (entity, tuple) pair once.
    Distinct,
    /// Count every appearance at every time point.
    All,
}

/// A weighted aggregate graph `G'(V', E', W_V', W_E', A')` (Definition 2.6).
///
/// Nodes are attribute tuples; edges are ordered pairs of attribute tuples
/// (the underlying graphs are directed). Definition 2.6 leaves the weight
/// functions open, and `W` is what each entity carries: a COUNT
/// ([`AggregateGraph`]), the stability / growth / shrinkage weights of
/// Fig. 4b ([`EvolutionAggregate`](crate::evolution::EvolutionAggregate))
/// or a measure ([`MeasureAggregate`](crate::measures::MeasureAggregate)).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Aggregate<W> {
    attr_names: Vec<String>,
    pub(crate) nodes: HashMap<ValueTuple, W>,
    pub(crate) edges: HashMap<(ValueTuple, ValueTuple), W>,
}

/// An aggregate graph whose weights are COUNT aggregates.
pub type AggregateGraph = Aggregate<u64>;

impl<W: Copy> Aggregate<W> {
    /// Creates an empty aggregate graph over the given attribute names.
    pub fn new(attr_names: Vec<String>) -> Self {
        Aggregate {
            attr_names,
            nodes: HashMap::new(),
            edges: HashMap::new(),
        }
    }

    /// The aggregate graph of `table`'s groups: the kept `(gid, weight)`
    /// nodes and `((src gid, dst gid), weight)` edges, each group id
    /// resolved to its attribute tuple.
    pub(crate) fn from_groups(
        table: &GroupTable,
        nodes: impl IntoIterator<Item = (u32, W)>,
        edges: impl IntoIterator<Item = ((u32, u32), W)>,
    ) -> Self {
        let tuple = |gid: u32| table.tuple(gid).clone();
        Aggregate {
            attr_names: table.attr_names().to_vec(),
            nodes: nodes.into_iter().map(|(gid, w)| (tuple(gid), w)).collect(),
            edges: (edges.into_iter())
                .map(|((s, d), w)| ((tuple(s), tuple(d)), w))
                .collect(),
        }
    }

    /// Names of the aggregation attributes, in tuple order.
    pub fn attr_names(&self) -> &[String] {
        &self.attr_names
    }

    /// The ids of the aggregation attributes in `g`'s schema, skipping
    /// names it does not know.
    pub(crate) fn attr_ids(&self, g: &TemporalGraph) -> Vec<AttrId> {
        let ids = self.attr_names.iter().map(|n| g.schema().id(n));
        ids.filter_map(Result::ok).collect()
    }

    /// Number of aggregate nodes (distinct attribute tuples).
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of aggregate edges (distinct tuple pairs).
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    /// Weight of an aggregate node, if the tuple is one.
    pub fn node(&self, tuple: &[Value]) -> Option<W> {
        self.nodes.get(tuple).copied()
    }

    /// Weight of an aggregate edge, if the tuple pair is one.
    pub fn edge(&self, src: &[Value], dst: &[Value]) -> Option<W> {
        self.edges.get(&(src.to_vec(), dst.to_vec())).copied()
    }

    /// Iterates nodes sorted by tuple (deterministic order).
    pub fn iter_nodes(&self) -> Vec<(&ValueTuple, W)> {
        sorted_by_key(&self.nodes)
    }

    /// Iterates edges sorted by tuple pair (deterministic order).
    pub fn iter_edges(&self) -> Vec<(&(ValueTuple, ValueTuple), W)> {
        sorted_by_key(&self.edges)
    }
}

/// The weights that have a zero (`W::default()`) and add up: COUNT, the
/// evolution weights and the measures.
impl<W: Copy + Default + Add<Output = W>> Aggregate<W> {
    /// Weight of an aggregate node (zero when absent).
    pub fn node_weight(&self, tuple: &[Value]) -> W {
        self.node(tuple).unwrap_or_default()
    }

    /// Weight of an aggregate edge (zero when absent).
    pub fn edge_weight(&self, src: &[Value], dst: &[Value]) -> W {
        self.edge(src, dst).unwrap_or_default()
    }

    /// Sum of all node weights.
    pub fn total_node_weight(&self) -> W {
        self.nodes.values().fold(W::default(), |sum, &w| sum + w)
    }

    /// Sum of all edge weights.
    pub fn total_edge_weight(&self) -> W {
        self.edges.values().fold(W::default(), |sum, &w| sum + w)
    }
}

/// The entries of `map` sorted by key; the keys are unique, so the order
/// is total.
fn sorted_by_key<K: Ord, W: Copy>(map: &HashMap<K, W>) -> Vec<(&K, W)> {
    let mut v: Vec<_> = map.iter().map(|(k, &w)| (k, w)).collect();
    v.sort_unstable_by(|a, b| a.0.cmp(b.0));
    v
}

impl Aggregate<u64> {
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
        let attrs = self.attr_ids(g);
        let tuple = |t: &[Value]| render_tuple(Some(g), &attrs, t);
        let mut out = String::new();
        let _ = writeln!(out, "aggregate on ({})", self.attr_names.join(","));
        for (t, w) in self.iter_nodes() {
            let _ = writeln!(out, "  node ({}) w={w}", tuple(t));
        }
        for ((s, d), w) in self.iter_edges() {
            let _ = writeln!(out, "  edge ({}) -> ({}) w={w}", tuple(s), tuple(d));
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
    // DIST counts an (entity, tuple) the first time it is seen
    let distinct = mode == AggMode::Distinct;
    let mut seen: HashSet<(usize, ValueTuple)> = HashSet::new();
    for n in 0..g.n_nodes() {
        let points = g.node_timestamp(NodeId(n as u32));
        for t in points.iter().map(TimePoint::index) {
            let tuple = tuple_at(g, &resolved, &tv_tables, n, t);
            if !distinct || seen.insert((n, tuple.clone())) {
                agg.add_node_weight(tuple, 1);
            }
        }
    }
    let mut seen: HashSet<(usize, (ValueTuple, ValueTuple))> = HashSet::new();
    for e in 0..g.n_edges() {
        let (u, v) = g.edge_endpoints(EdgeId(e as u32));
        let points = g.edge_timestamp(EdgeId(e as u32));
        for t in points.iter().map(TimePoint::index) {
            let tu = tuple_at(g, &resolved, &tv_tables, u.index(), t);
            let tv = tuple_at(g, &resolved, &tv_tables, v.index(), t);
            if !distinct || seen.insert((e, (tu.clone(), tv.clone()))) {
                agg.add_edge_weight(tu, tv, 1);
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

/// Side tag bit of a scope point in the first side of a
/// [`GroupTable::walk_distinct`], and of a key that shows there.
pub(crate) const SIDE_1: u8 = 1;

/// Side tag bit of the second side.
pub(crate) const SIDE_2: u8 = 2;

/// The points of the union of `sides` in order, and the tag of each: bit
/// `i` set when the point is in `sides[i]`.
fn side_tags<const SIDES: usize>(sides: [&TimeSet; SIDES]) -> (Vec<usize>, Vec<u8>) {
    let words = sides.map(|side| side.bits().words());
    let n_words = words.iter().map(|w| w.len()).max().unwrap_or(0);
    let (mut points, mut tags) = (Vec::new(), Vec::new());
    for b in 0..n_words {
        let on = words.map(|w| w.get(b).copied().unwrap_or(0));
        for lane in word_ones(on.iter().fold(0, |any, w| any | w)) {
            points.push(b * WORD_BITS + lane);
            tags.push(lane_sides(&on, lane));
        }
    }
    (points, tags)
}

/// The 64-entity words a walk reads, with their kept entities, below word
/// `end` (where the columns it reads end): the non-zero words of `keep`,
/// which reads zero past its stored width, or, with no keep set, every
/// word, all kept (the scope's columns alone decide what is visited).
fn kept_words(keep: Option<&BitVec>, end: usize) -> impl Iterator<Item = (usize, u64)> + '_ {
    let words = keep.map(BitVec::words);
    let kept = move |b: usize| (b, words.map_or(!0, |w| w[b]));
    let n_words = words.map_or(end, |w| w.len().min(end));
    (0..n_words).map(kept).filter(|&(_, w)| w != 0)
}

/// The words the presence columns of `points` store: the hull of their
/// stored widths.
fn hull_words(presence: &PresenceColumns, points: impl IntoIterator<Item = usize>) -> usize {
    let words = points
        .into_iter()
        .map(|t| presence.col(t).len().div_ceil(WORD_BITS));
    words.max().unwrap_or(0)
}

/// The side tag of entity `lane` of a word: bit `s` from word `on[s]`.
fn lane_sides<const SIDES: usize>(on: &[u64; SIDES], lane: usize) -> u8 {
    (on.iter().enumerate()).fold(0, |tag, (s, word)| tag | ((word >> lane & 1) as u8) << s)
}

/// Weights per ordered group-id pair `(src, dst)` — the edge side of the
/// dense node accumulators. A `n_groups²` grid indexed `src * n_groups +
/// dst` while that is small (one add per kept edge appearance, no hashing);
/// a hash map keyed by the pair for attribute lists with many groups, where
/// zeroing the grid would cost more than the edges it saves.
pub(crate) enum PairAccumulator<W> {
    Dense { n_groups: usize, cells: Vec<W> },
    Sparse(HashMap<(u32, u32), W>),
}

impl<W: Copy + Default + PartialEq> PairAccumulator<W> {
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

    /// The pairs whose weight differs from `W::default()`, with their
    /// weights.
    pub(crate) fn nonzero(&self) -> impl Iterator<Item = ((u32, u32), W)> + '_ {
        let (dense, sparse) = match self {
            PairAccumulator::Dense { n_groups, cells } => {
                let n = *n_groups;
                let pair = move |i: usize| ((i / n) as u32, (i % n) as u32);
                let cells = cells.iter().enumerate();
                (Some(cells.map(move |(i, &w)| (pair(i), w))), None)
            }
            PairAccumulator::Sparse(map) => (None, Some(map.iter().map(|(&k, &w)| (k, w)))),
        };
        let zero = W::default();
        let pairs = dense
            .into_iter()
            .flatten()
            .chain(sparse.into_iter().flatten());
        pairs.filter(move |&(_, w)| w != zero)
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
    /// The appearances that repeat a key under `cols` ([`Repeats`]).
    fn repeats(&self, cols: &GroupColumns) -> Arc<Repeats>;
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

    fn repeats(&self, cols: &GroupColumns) -> Arc<Repeats> {
        cols.node_repeats(self.0)
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

    fn repeats(&self, cols: &GroupColumns) -> Arc<Repeats> {
        cols.edge_repeats(self.0)
    }
}

/// Interned attribute-tuple groups for one `(graph, attrs)` pair — the
/// aggregation half of the mask → group-id evaluation path.
///
/// Each node's aggregation tuple is resolved and interned into a dense
/// `u32` group id **once** (the [`GroupColumns`] of `tempo-graph`, which
/// this type wraps): per node when every attribute is static, else per
/// (node, present time point). Every read query then counts group ids with
/// a column-major walk into dense accumulators —
/// [`aggregate_masked`](Self::aggregate_masked),
/// [`aggregate_union`](Self::aggregate_union), and the DIST weights the
/// exploration cursor, evolution and measures read — instead of
/// re-building heap-allocated [`ValueTuple`] hash keys per entity per
/// interval pair.
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

    /// The snapshot's repeat index of `entities` under these columns; see
    /// [`GroupColumns::node_repeats`].
    pub(crate) fn repeats<E: Entities>(&self, entities: E) -> Arc<Repeats> {
        entities.repeats(&self.cols)
    }

    /// The Definition 2.6 ALL walk: calls `visit(e, t, key)` for every
    /// appearance of an entity at a point `t` of `scope`, keyed through the
    /// group ids of `t`. `keep`, when given, narrows the entities to its
    /// own; `None` visits every entity the scope's columns show.
    ///
    /// It reads the presence columns one 64-entity word at a time, as the
    /// DIST walk does: for each non-zero word `b` of `keep` (each word
    /// without one) below the end of a column, word `b` of that column
    /// ([`block_words`](tempo_columnar::PresenceColumn::block_words)) ∧
    /// word `b` of `keep`, and visits the set bits of each such word, one
    /// point at a time.
    pub(crate) fn walk_all<E: Entities>(
        &self,
        entities: E,
        scope: &TimeSet,
        keep: Option<&BitVec>,
        mut visit: impl FnMut(usize, usize, E::Key),
    ) {
        let presence = entities.presence();
        for t in scope.iter().map(TimePoint::index) {
            let (gids, mut words) = (self.cols.col(t), presence.col(t).block_words());
            for (b, kept) in kept_words(keep, hull_words(presence, [t])) {
                for lane in word_ones(words.word(b) & kept) {
                    let e = b * WORD_BITS + lane;
                    visit(e, t, entities.key(e, gids));
                }
            }
        }
    }

    /// The one Definition 2.6 DIST walk: calls `visit(e, key, on)` once for
    /// every distinct (entity, key) that an entity shows over the scope,
    /// the union of `sides`, keyed through the group ids of the points it
    /// appears at. `keep`, when given, narrows the entities to its own;
    /// `None` visits every entity the scope's columns show. `on` tags the
    /// sides the key shows on: bit `i` ([`SIDE_1`], [`SIDE_2`]) is set when
    /// the entity shows the key at a point of `sides[i]`. `pass[t]`, when
    /// given, holds the nodes a filter lets through at scope point `t`, and
    /// an appearance it stops does not count.
    ///
    /// The walk goes 64 entities at a time: for each non-zero word `b` of
    /// `keep` (each word without one) below the hull of the scope columns'
    /// stored widths, word `b` of every scope point's column
    /// ([`block_words`](tempo_columnar::PresenceColumn::block_words), zero
    /// past the column's end) in scope order, ∧ word `b` of `keep`. An
    /// entity's first passing appearance is keyed at once, and its key
    /// waits in a 64-entry row; a later one, on a list with a time-varying
    /// attribute, is set in a tile of one mask per entity and 64-point
    /// chunk of the scope. Each entity with later appearances then keys
    /// them in scope order against a list that starts with its first key.
    /// An entity that appears once never meets the list, and an all-static
    /// list keys only first appearances. Nothing as long as the entities is
    /// allocated: one cursor per scope point, the row, the tile and the
    /// list.
    ///
    /// With one side every tag is [`SIDE_1`], and a key is visited as soon
    /// as it is met. With two, a key is visited once its word is done, when
    /// all of its sides are known: the row carries, per side, a word of the
    /// entities whose first key shows there (every appearance on an
    /// all-static list, the first on another), and the list, beside its
    /// keys, one tag per key.
    ///
    /// An all-static list without a filter keys each entity once, with its
    /// one id: per word, the OR of each side's column words are the
    /// entities that show on that side. With one side and a keep set, whose
    /// entities all exist within the scope, the kept word is that OR.
    pub(crate) fn walk_distinct<E: Entities, const SIDES: usize>(
        &self,
        entities: E,
        sides: [&TimeSet; SIDES],
        keep: Option<&BitVec>,
        pass: Option<&[BitVec]>,
        mut visit: impl FnMut(usize, E::Key, u8),
    ) {
        const { assert!(SIDES == 1 || SIDES == 2) };
        let presence = entities.presence();
        let (cols, all_static) = (&*self.cols, self.is_static());
        let (points, tags) = side_tags(sides);
        let mut cursors: Vec<_> = points
            .iter()
            .map(|&t| presence.col(t).block_words())
            .collect();
        let words = kept_words(keep, hull_words(presence, points.iter().copied()));
        if all_static && pass.is_none() {
            let gids = cols.col(0);
            for (b, kept) in words {
                let mut on = [0u64; SIDES];
                if SIDES == 1 && keep.is_some() {
                    on[0] = kept;
                } else {
                    for (cursor, &tag) in cursors.iter_mut().zip(&tags) {
                        let word = cursor.word(b);
                        for (s, on) in on.iter_mut().enumerate() {
                            if tag >> s & 1 != 0 {
                                *on |= word;
                            }
                        }
                    }
                }
                for lane in word_ones(kept & on.iter().fold(0, |any, w| any | w)) {
                    let e = b * WORD_BITS + lane;
                    debug_assert!(
                        points.iter().any(|&t| presence.col(t).get(e)),
                        "kept entity {e} must appear within scope"
                    );
                    visit(e, entities.key(e, gids), lane_sides(&on, lane));
                }
            }
            return;
        }
        let passes = |e: usize, t: usize| pass.is_none_or(|p| entities.passes(e, &p[t]));
        let mut first_keys = [E::Key::default(); WORD_BITS];
        // entity `lane` of the word at hand shows again at scope point
        // `64·c + i` iff bit `i` of `tile[lane · chunks + c]` is set
        let chunks = points.len().div_ceil(WORD_BITS);
        let mut tile = vec![0u64; WORD_BITS * chunks];
        // an entity's keys and, with two sides, the sides each shows on
        let (mut keys, mut key_sides) = (Vec::<E::Key>::new(), Vec::<u8>::new());
        for (b, kept) in words {
            let entity = |lane: usize| b * WORD_BITS + lane;
            // `on[s]`: the entities whose first key shows on side `s` as
            // far as the row knows (two sides only)
            let (mut seen, mut again, mut on) = (0u64, 0u64, [0u64; SIDES]);
            for ((i, cursor), &t) in cursors.iter_mut().enumerate().zip(&points) {
                let mut shown = cursor.word(b) & kept;
                if shown == 0 {
                    continue;
                }
                if pass.is_some() {
                    for lane in word_ones(shown).filter(|&lane| !passes(entity(lane), t)) {
                        shown &= !(1 << lane);
                    }
                }
                let gids = cols.col(t);
                for lane in word_ones(shown & !seen) {
                    first_keys[lane] = entities.key(entity(lane), gids);
                    if SIDES == 1 {
                        visit(entity(lane), first_keys[lane], SIDE_1);
                    }
                }
                if SIDES == 2 {
                    let firsts = if all_static { shown } else { shown & !seen };
                    for (s, on) in on.iter_mut().enumerate() {
                        if tags[i] >> s & 1 != 0 {
                            *on |= firsts;
                        }
                    }
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
            if SIDES == 2 {
                for lane in word_ones(seen & !again) {
                    visit(entity(lane), first_keys[lane], lane_sides(&on, lane));
                }
            }
            for lane in word_ones(again) {
                keys.clear();
                keys.push(first_keys[lane]);
                if SIDES == 2 {
                    key_sides.clear();
                    key_sides.push(lane_sides(&on, lane));
                }
                for (c, mask) in tile[lane * chunks..][..chunks].iter_mut().enumerate() {
                    for i in word_ones(std::mem::take(mask)) {
                        let at = c * WORD_BITS + i;
                        let key = entities.key(entity(lane), cols.col(points[at]));
                        match keys.iter().position(|k| *k == key) {
                            Some(k) if SIDES == 2 => key_sides[k] |= tags[at],
                            Some(_) => {}
                            None => {
                                keys.push(key);
                                if SIDES == 1 {
                                    visit(entity(lane), key, SIDE_1);
                                } else {
                                    key_sides.push(tags[at]);
                                }
                            }
                        }
                    }
                }
                if SIDES == 2 {
                    for (&key, &sides) in keys.iter().zip(&key_sides) {
                        visit(entity(lane), key, sides);
                    }
                }
            }
        }
    }

    /// The Definition 2.6 node weights of the `keep` nodes (all for `None`)
    /// over `scope` (see [`walk_all`](Self::walk_all) and
    /// [`walk_distinct`](Self::walk_distinct)), indexed by group id.
    pub(crate) fn node_weights(
        &self,
        g: &TemporalGraph,
        scope: &TimeSet,
        keep: Option<&BitVec>,
        mode: AggMode,
    ) -> Vec<u64> {
        let mut acc = vec![0u64; self.n_groups()];
        let mut count = |gid: u32| acc[gid as usize] += 1;
        match mode {
            AggMode::All => self.walk_all(Nodes(g), scope, keep, |_, _, gid| count(gid)),
            AggMode::Distinct => {
                self.walk_distinct(Nodes(g), [scope], keep, None, |_, gid, _| count(gid));
            }
        }
        acc
    }

    /// The edge half of [`node_weights`](Self::node_weights): weights per
    /// ordered pair of group ids.
    pub(crate) fn edge_weights(
        &self,
        g: &TemporalGraph,
        scope: &TimeSet,
        keep: Option<&BitVec>,
        mode: AggMode,
    ) -> PairAccumulator<u64> {
        let mut acc = PairAccumulator::new(self.n_groups());
        let mut count = |(s, d): (u32, u32)| *acc.slot(s, d) += 1;
        match mode {
            AggMode::All => self.walk_all(Edges(g), scope, keep, |_, _, pair| count(pair)),
            AggMode::Distinct => {
                self.walk_distinct(Edges(g), [scope], keep, None, |_, pair, _| count(pair));
            }
        }
        acc
    }

    /// The aggregate graph over `scope` of the nodes and edges `mask`
    /// keeps, or of every one the scope shows without a mask.
    fn aggregate_kept(
        &self,
        g: &TemporalGraph,
        scope: &TimeSet,
        mask: Option<&EventMask>,
        mode: AggMode,
    ) -> AggregateGraph {
        let nodes = self.node_weights(g, scope, mask.map(EventMask::keep_nodes), mode);
        let edges = self.edge_weights(g, scope, mask.map(EventMask::keep_edges), mode);
        let kept = (0..).zip(nodes).filter(|&(_, w)| w > 0);
        AggregateGraph::from_groups(self, kept, edges.nonzero())
    }

    /// Aggregates the union graph of `g` over `scope` (Definition 2.3 with
    /// both sides `scope`): every node and edge that exists at a point of
    /// the scope, over those points. The walk reads the scope's presence
    /// columns and no keep set; no graph is built.
    ///
    /// Equivalent to `aggregate(&union(g, scope, scope), attrs, mode)`
    /// (property-tested).
    ///
    /// # Panics
    /// Panics if `g` is not the graph this table was built from, or `scope`
    /// reaches past its time domain.
    pub fn aggregate_union(
        &self,
        g: &TemporalGraph,
        scope: &TimeSet,
        mode: AggMode,
    ) -> AggregateGraph {
        self.aggregate_kept(g, scope, None, mode)
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
        self.aggregate_kept(g, mask.scope(), Some(mask), mode)
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

    /// The two-sided walk over the returning tuple with 𝒯₁ = {t0, t1} and
    /// 𝒯₂ = {t2, t3}: `u` (and `u → v`) shows A on both sides and B on
    /// 𝒯₂ only, each once; with the sides swapped, B is on 𝒯₁ only.
    #[test]
    fn walk_tags_a_tuple_that_returns_on_the_other_side() {
        let (early, late) = (TimeSet::range(4, 0, 1), TimeSet::range(4, 2, 3));
        let both = SIDE_1 | SIDE_2;
        for g in tempo_testkit::both_layouts(&tempo_testkit::returning_tuple()) {
            for names in [&["level"][..], &["kind", "level"][..]] {
                let table = GroupTable::build(&g, &attrs(&g, names));
                let gid = |level: i64| {
                    let kind = (names.len() == 2).then(|| cat(&g, "kind", "k"));
                    let tuple: ValueTuple = kind.into_iter().chain([Value::Int(level)]).collect();
                    table.lookup(&tuple).unwrap()
                };
                let (a, b, x) = (gid(1), gid(2), gid(9));
                for (sides, b_side) in [([&early, &late], SIDE_2), ([&late, &early], SIDE_1)] {
                    let mut nodes = Vec::new();
                    table.walk_distinct(Nodes(&g), sides, None, None, |e, key, on| {
                        nodes.push((e, key, on));
                    });
                    nodes.sort_unstable();
                    let want = [(0, a, both), (0, b, b_side), (1, x, both)];
                    assert_eq!(nodes, want, "{names:?}");
                    let mut edges = Vec::new();
                    table.walk_distinct(Edges(&g), sides, None, None, |e, key, on| {
                        edges.push((e, key, on));
                    });
                    edges.sort_unstable();
                    assert_eq!(edges, [(0, (a, x), both), (0, (b, x), b_side)], "{names:?}");
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
    fn pair_accumulator_dense_and_sparse_agree() {
        let collect = |acc: &PairAccumulator<u64>| {
            let mut out: Vec<_> = acc.nonzero().map(|((s, d), w)| (s, d, w)).collect();
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
}
