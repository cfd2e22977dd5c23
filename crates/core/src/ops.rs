//! Temporal operators (§2.1, Definitions 2.2–2.5, Algorithm 1).
//!
//! Every operator takes the source [`TemporalGraph`] and one or two time
//! sets and materializes a new temporal attributed graph containing the
//! selected nodes/edges, with timestamps restricted to the operator's scope
//! (`𝒯₁ ∪ 𝒯₂` for union/intersection, `𝒯₁` for the difference `𝒯₁ − 𝒯₂`).
//!
//! The membership tests generalize over the *union* and *intersection
//! semantics* of §3.1 through [`SideTest`]: under union semantics an entity
//! belongs to an interval if its timestamp intersects it ([`SideTest::Any`]);
//! under intersection semantics it must span every point
//! ([`SideTest::All`]). Definitions 2.3–2.5 are the [`SideTest::Any`]
//! instances.
//!
//! The materializing operators ([`project`], [`union`], [`intersection`],
//! [`difference`], [`event_graph`]) are the paper's Algorithm 1 and the
//! test oracles: no served verb calls them — the shell and the server
//! answer from [`event_mask`], which selects the same rows without copying
//! them.

use tempo_columnar::{
    BitVec, Interner, PresenceColumn, PresenceColumns, SparseMode, Value, ValueMatrix,
};
use tempo_graph::{require_non_empty, GraphError, NodeId, TemporalGraph, TimePoint, TimeSet};

/// How an entity's timestamp is tested against one side interval.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SideTest {
    /// Union semantics: `τ ∩ 𝒯 ≠ ∅` (exists at *some* point of 𝒯).
    Any,
    /// Intersection semantics: `𝒯 ⊆ τ` (exists at *every* point of 𝒯).
    All,
}

impl SideTest {
    /// Evaluates the membership test of `tau` against `side`.
    #[inline]
    pub fn member(self, tau: &TimeSet, side: &TimeSet) -> bool {
        match self {
            SideTest::Any => tau.intersects(side),
            SideTest::All => side.is_subset(tau),
        }
    }
}

/// The three event operators of §2.3/§3, parameterized by side semantics.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Event {
    /// Entities present in both intervals (intersection graph `G∩`).
    Stability,
    /// Entities present in 𝒯new but not 𝒯old (difference `𝒯new − 𝒯old`).
    Growth,
    /// Entities present in 𝒯old but not 𝒯new (difference `𝒯old − 𝒯new`).
    Shrinkage,
}

/// The membership result of an event operator, expressed as packed bitmasks
/// over the *source* graph's node and edge rows.
///
/// This is the zero-materialization half of the exploration kernel: where
/// [`event_graph`] copies the selected entities into a fresh
/// [`TemporalGraph`], an `EventMask` merely records *which* rows of `g`
/// belong to the event graph and over which `scope` their timestamps count.
/// Aggregation can then run directly against the source presence columns
/// (see `graphtempo::aggregate::GroupTable`).
#[must_use = "a mask computed and dropped is a lost result"]
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EventMask {
    keep_nodes: BitVec,
    keep_edges: BitVec,
    scope: TimeSet,
}

impl EventMask {
    /// Bitmask over source node rows: bit `r` set iff node `r` is in the
    /// event graph.
    #[inline]
    pub fn keep_nodes(&self) -> &BitVec {
        &self.keep_nodes
    }

    /// Bitmask over source edge rows: bit `r` set iff edge `r` is in the
    /// event graph.
    #[inline]
    pub fn keep_edges(&self) -> &BitVec {
        &self.keep_edges
    }

    /// Time scope of the event graph (`𝒯old ∪ 𝒯new` for stability, `𝒯new`
    /// for growth, `𝒯old` for shrinkage): kept entities' timestamps are
    /// restricted to it.
    #[inline]
    pub fn scope(&self) -> &TimeSet {
        &self.scope
    }

    /// Number of nodes in the event graph.
    pub fn n_nodes(&self) -> usize {
        self.keep_nodes.count_ones()
    }

    /// Number of edges in the event graph.
    pub fn n_edges(&self) -> usize {
        self.keep_edges.count_ones()
    }

    /// Source row indices of kept nodes, ascending.
    pub fn node_rows(&self) -> Vec<usize> {
        self.keep_nodes.iter_ones().collect()
    }

    /// Source row indices of kept edges, ascending.
    pub fn edge_rows(&self) -> Vec<usize> {
        self.keep_edges.iter_ones().collect()
    }

    /// Allocates an all-clear mask shaped for `g` (crate-internal: the
    /// chain cursor owns one mask and rewrites it in place per step).
    pub(crate) fn cleared(g: &TemporalGraph) -> EventMask {
        EventMask {
            keep_nodes: BitVec::zeros(g.n_nodes()),
            keep_edges: BitVec::zeros(g.n_edges()),
            scope: TimeSet::empty(g.domain().len()),
        }
    }

    /// Mutable access to the three components for in-place rewriting.
    pub(crate) fn parts_mut(&mut self) -> (&mut BitVec, &mut BitVec, &mut TimeSet) {
        (&mut self.keep_nodes, &mut self.keep_edges, &mut self.scope)
    }
}

/// The entities that are members of `side` under `test`, over the presence
/// columns: the OR (`Any`) or AND (`All`) of the side's time-point columns —
/// one whole-vector pass per point instead of one row test per entity.
pub(crate) fn side_members(cols: &PresenceColumns, side: &TimeSet, test: SideTest) -> BitVec {
    let mut members = BitVec::zeros(cols.source_rows());
    let mut points = side.iter();
    if let Some(first) = points.next() {
        cols.col(first.index()).copy_into(&mut members);
    }
    for t in points {
        match test {
            SideTest::Any => cols.col(t.index()).or_into(&mut members),
            SideTest::All => cols.col(t.index()).and_assign_into(&mut members),
        }
    }
    members
}

/// Computes the [`EventMask`] of the §3 event operators for a pair of
/// intervals under explicit side semantics — the selection half of
/// [`event_graph`] with no subgraph materialization: membership is decided
/// column-wise against the graph's presence columns
/// ([`TemporalGraph::node_presence_columns`]).
///
/// # Errors
/// Returns an error if either interval is empty.
pub fn event_mask(
    g: &TemporalGraph,
    event: Event,
    told: &TimeSet,
    tnew: &TimeSet,
    old_test: SideTest,
    new_test: SideTest,
) -> Result<EventMask, GraphError> {
    require_non_empty(told, "𝒯old")?;
    require_non_empty(tnew, "𝒯new")?;
    let (keep_nodes, keep_edges, scope) = match event {
        Event::Stability => {
            let in_both = |cols: &PresenceColumns| {
                let mut keep = side_members(cols, told, old_test);
                keep.and_assign(&side_members(cols, tnew, new_test));
                keep
            };
            (
                in_both(g.node_presence_columns()),
                in_both(g.edge_presence_columns()),
                told.union(tnew),
            )
        }
        Event::Growth => {
            let (keep_nodes, keep_edges) = difference_masks(g, tnew, new_test, told, old_test);
            (keep_nodes, keep_edges, tnew.clone())
        }
        Event::Shrinkage => {
            let (keep_nodes, keep_edges) = difference_masks(g, told, old_test, tnew, new_test);
            (keep_nodes, keep_edges, told.clone())
        }
    };
    Ok(EventMask {
        keep_nodes,
        keep_edges,
        scope,
    })
}

/// Mask form of the difference selection (Definition 2.5): edges member of
/// `keep_side` and not of `drop_side`; nodes member of `keep_side` and
/// either not member of `drop_side` or incident to a kept edge.
fn difference_masks(
    g: &TemporalGraph,
    keep_side: &TimeSet,
    keep_test: SideTest,
    drop_side: &TimeSet,
    drop_test: SideTest,
) -> (BitVec, BitVec) {
    let (node_cols, edge_cols) = (g.node_presence_columns(), g.edge_presence_columns());
    let mut keep_edges = side_members(edge_cols, keep_side, keep_test);
    keep_edges.and_not_assign(&side_members(edge_cols, drop_side, drop_test));
    let mut incident = BitVec::zeros(g.n_nodes());
    for r in keep_edges.iter_ones() {
        let (u, v) = g.edge_endpoints(tempo_graph::EdgeId(r as u32));
        incident.set(u.index(), true);
        incident.set(v.index(), true);
    }
    // keep & (!drop | incident)  ==  (keep & !drop) | (keep & incident)
    let in_keep = side_members(node_cols, keep_side, keep_test);
    let mut keep_nodes = in_keep.clone();
    keep_nodes.and_not_assign(&side_members(node_cols, drop_side, drop_test));
    keep_nodes.or_and_assign(&in_keep, &incident);
    (keep_nodes, keep_edges)
}

/// For each row set in `keep`, its position among them (`u32::MAX`
/// elsewhere): the row numbers of a materialized subgraph.
pub(crate) fn positions(keep: &BitVec) -> Vec<u32> {
    let mut new_row = vec![u32::MAX; keep.len()];
    for (i, r) in keep.iter_ones().enumerate() {
        new_row[r] = i as u32;
    }
    new_row
}

/// The presence of a materialized subgraph: one column per item of `cols`,
/// each item's rows (all set in `keep`) renumbered by [`positions`].
pub(crate) fn kept_columns<I: Iterator<Item = usize>>(
    cols: impl Iterator<Item = I>,
    keep: &BitVec,
) -> PresenceColumns {
    let (new_row, n) = (positions(keep), keep.count_ones());
    let mut out = PresenceColumns::new(n);
    for rows in cols {
        let bits = BitVec::from_indices(n, rows.map(|r| new_row[r] as usize));
        out.push_col(PresenceColumn::from_bitvec(bits, SparseMode::Auto));
    }
    out
}

/// `cols` restricted to the rows set in `keep` inside `scope`, and empty
/// outside it.
fn scoped<'a>(
    cols: &'a PresenceColumns,
    keep: &'a BitVec,
    scope: &'a TimeSet,
) -> impl Iterator<Item = impl Iterator<Item = usize> + 'a> + 'a {
    (0..cols.n_cols()).map(move |t| {
        let inside = scope.contains(TimePoint(t as u32));
        inside
            .then(|| cols.col(t).iter_ones_and(keep))
            .into_iter()
            .flatten()
    })
}

/// Materializes the subgraph of `g` induced by the kept node and edge rows,
/// with all timestamps and time-varying values masked to `scope`.
fn materialize_subgraph(
    g: &TemporalGraph,
    keep_nodes: &BitVec,
    keep_edges: &BitVec,
    scope: &TimeSet,
) -> Result<TemporalGraph, GraphError> {
    let nt = g.domain().len();
    let node_rows: Vec<usize> = keep_nodes.iter_ones().collect();
    let remap = positions(keep_nodes);
    let mut names = Interner::new();
    for &r in &node_rows {
        names.intern(g.node_name(NodeId(r as u32)).to_owned());
    }
    let (node_cols, edge_cols) = (g.node_presence_columns(), g.edge_presence_columns());
    let node_presence = kept_columns(scoped(node_cols, keep_nodes, scope), keep_nodes);
    let edge_presence = kept_columns(scoped(edge_cols, keep_edges, scope), keep_edges);

    let mut edges = Vec::with_capacity(keep_edges.count_ones());
    let mut edge_values = g.edge_values_matrix().map(|_| ValueMatrix::new(nt));
    for r in keep_edges.iter_ones() {
        let e = tempo_graph::EdgeId(r as u32);
        let (u, v) = g.edge_endpoints(e);
        let (nu, nv) = (remap[u.index()], remap[v.index()]);
        debug_assert!(
            nu != u32::MAX && nv != u32::MAX,
            "kept edge must have kept endpoints"
        );
        edges.push((NodeId(nu), NodeId(nv)));
        if let (Some(out), Some(src)) = (&mut edge_values, g.edge_values_matrix()) {
            let new_r = out.push_null_row();
            for t in g.edge_timestamp(e).intersect(scope).iter() {
                out.set(new_r, t.index(), src.get(r, t.index()).clone());
            }
        }
    }

    let static_table = g.static_table().select_rows(&node_rows);

    let schema = g.schema().clone();
    let mut tv_tables = Vec::new();
    for &attr in &schema.time_varying_ids() {
        #[allow(clippy::expect_used)]
        let src = g
            .tv_table(attr)
            .expect("invariant: id came from time_varying_ids, so a table exists");
        let mut tbl = ValueMatrix::new(nt);
        for (new_r, &r) in node_rows.iter().enumerate() {
            tbl.push_null_row();
            for t in g.node_timestamp(NodeId(r as u32)).intersect(scope).iter() {
                tbl.set(new_r, t.index(), src.get(r, t.index()).clone());
            }
        }
        tv_tables.push(tbl);
    }

    TemporalGraph::from_parts_with_edge_values(
        g.domain().clone(),
        schema,
        names,
        node_presence,
        edges,
        edge_presence,
        static_table,
        tv_tables,
        edge_values,
    )
}

/// Time projection (Definition 2.2): the subgraph of entities that exist
/// throughout `𝒯₁` (i.e. `𝒯₁ ⊆ τ`), with timestamps restricted to `𝒯₁`.
///
/// # Errors
/// Returns an error if `t1` is empty or materialization fails.
pub fn project(g: &TemporalGraph, t1: &TimeSet) -> Result<TemporalGraph, GraphError> {
    require_non_empty(t1, "𝒯₁")?;
    let keep_nodes = side_members(g.node_presence_columns(), t1, SideTest::All);
    let keep_edges = side_members(g.edge_presence_columns(), t1, SideTest::All);
    materialize_subgraph(g, &keep_nodes, &keep_edges, t1)
}

/// The projection of a single time point — the paper's per-timepoint graph
/// used throughout the evaluation (Figs. 3, 5).
///
/// # Errors
/// Returns an error if materialization fails.
pub fn project_point(
    g: &TemporalGraph,
    t: tempo_graph::TimePoint,
) -> Result<TemporalGraph, GraphError> {
    project(g, &TimeSet::point(g.domain().len(), t))
}

/// Union operator (Definition 2.3): entities existing at some point of
/// `𝒯₁` **or** `𝒯₂`; timestamps restricted to `𝒯₁ ∪ 𝒯₂`.
///
/// ```
/// use graphtempo::ops::union;
/// use tempo_graph::{fixtures::fig1, TimePoint, TimeSet};
///
/// let g = fig1();
/// // Fig. 2: the union graph of [t0, t1] has four authors, u5 is absent.
/// let u = union(
///     &g,
///     &TimeSet::point(3, TimePoint(0)),
///     &TimeSet::point(3, TimePoint(1)),
/// )
/// .unwrap();
/// assert_eq!(u.n_nodes(), 4);
/// assert!(u.node_id("u5").is_none());
/// ```
///
/// # Errors
/// Returns an error if either interval is empty or materialization fails.
pub fn union(g: &TemporalGraph, t1: &TimeSet, t2: &TimeSet) -> Result<TemporalGraph, GraphError> {
    require_non_empty(t1, "𝒯₁")?;
    require_non_empty(t2, "𝒯₂")?;
    let scope = t1.union(t2);
    let keep_nodes = side_members(g.node_presence_columns(), &scope, SideTest::Any);
    let keep_edges = side_members(g.edge_presence_columns(), &scope, SideTest::Any);
    materialize_subgraph(g, &keep_nodes, &keep_edges, &scope)
}

/// Intersection operator (Definition 2.4): entities existing at some point
/// of `𝒯₁` **and** some point of `𝒯₂`; timestamps restricted to `𝒯₁ ∪ 𝒯₂`.
///
/// # Errors
/// Returns an error if either interval is empty or materialization fails.
pub fn intersection(
    g: &TemporalGraph,
    t1: &TimeSet,
    t2: &TimeSet,
) -> Result<TemporalGraph, GraphError> {
    event_graph(g, Event::Stability, t1, t2, SideTest::Any, SideTest::Any)
}

/// Difference operator (Definition 2.5): the graph `𝒯₁ − 𝒯₂` of entities
/// existing in `𝒯₁` but not in `𝒯₂` (edges strictly; nodes either absent
/// from `𝒯₂` or incident to a deleted edge); timestamps restricted to `𝒯₁`.
///
/// # Errors
/// Returns an error if either interval is empty or materialization fails.
pub fn difference(
    g: &TemporalGraph,
    t1: &TimeSet,
    t2: &TimeSet,
) -> Result<TemporalGraph, GraphError> {
    event_graph(g, Event::Shrinkage, t1, t2, SideTest::Any, SideTest::Any)
}

/// Builds the event graph of §3 for a pair of intervals under explicit side
/// semantics.
///
/// * [`Event::Stability`] — entities member of both `told` and `tnew`;
///   scope `told ∪ tnew`. With `Any`/`Any` this is Definition 2.4.
/// * [`Event::Growth`] — member of `tnew`, not member of `told`; scope
///   `tnew`. With `Any`/`Any` this is the difference `𝒯new − 𝒯old`.
/// * [`Event::Shrinkage`] — member of `told`, not member of `tnew`; scope
///   `told`. With `Any`/`Any` this is the difference `𝒯old − 𝒯new`.
///
/// For the difference events, a node is also kept when an incident selected
/// edge requires it (the `∃(u,v) ∈ E₋` clause of Definition 2.5).
///
/// # Errors
/// Returns an error if either interval is empty or materialization fails.
pub fn event_graph(
    g: &TemporalGraph,
    event: Event,
    told: &TimeSet,
    tnew: &TimeSet,
    old_test: SideTest,
    new_test: SideTest,
) -> Result<TemporalGraph, GraphError> {
    let mask = event_mask(g, event, told, tnew, old_test, new_test)?;
    materialize_subgraph(g, mask.keep_nodes(), mask.keep_edges(), mask.scope())
}

/// Convenience: renders an aggregate value tuple for error messages/tests.
pub(crate) fn render_tuple(
    g: &TemporalGraph,
    attrs: &[tempo_graph::AttrId],
    tuple: &[Value],
) -> String {
    let parts: Vec<String> = attrs
        .iter()
        .zip(tuple)
        .map(|(&a, v)| g.schema().def(a).render(v))
        .collect();
    format!("({})", parts.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_graph::fixtures::fig1;

    fn ts(points: &[usize]) -> TimeSet {
        TimeSet::from_indices(3, points.iter().copied())
    }

    #[test]
    fn project_requires_full_span() {
        let g = fig1();
        // nodes that exist at BOTH t0 and t1: u1, u2, u4
        let p = project(&g, &ts(&[0, 1])).unwrap();
        assert_eq!(p.n_nodes(), 3);
        assert!(p.node_id("u3").is_none());
        assert!(p.node_id("u1").is_some());
        // edges existing through [t0,t1]: (u1,u2) and (u4,u2)
        assert_eq!(p.n_edges(), 2);
    }

    #[test]
    fn project_point_counts_match_fig1() {
        let g = fig1();
        let p0 = project_point(&g, TimePoint(0)).unwrap();
        assert_eq!((p0.n_nodes(), p0.n_edges()), (4, 3));
        let p2 = project_point(&g, TimePoint(2)).unwrap();
        assert_eq!((p2.n_nodes(), p2.n_edges()), (3, 2));
    }

    #[test]
    fn union_matches_fig2() {
        let g = fig1();
        // Fig. 2: union on [t0, t1] has u1..u4 and edges (u1,u2),(u3,u2),(u4,u2)
        let u = union(&g, &ts(&[0]), &ts(&[1])).unwrap();
        assert_eq!(u.n_nodes(), 4);
        assert!(u.node_id("u5").is_none());
        assert_eq!(u.n_edges(), 3);
        // timestamps restricted to scope: u2 exists at t2 in G but not here
        let u2 = u.node_id("u2").unwrap();
        assert_eq!(
            u.node_timestamp(u2).iter().map(|t| t.0).collect::<Vec<_>>(),
            vec![0, 1]
        );
    }

    #[test]
    fn union_empty_interval_errors() {
        let g = fig1();
        assert!(matches!(
            union(&g, &TimeSet::empty(3), &ts(&[1])),
            Err(GraphError::EmptyInterval(_))
        ));
    }

    #[test]
    fn intersection_keeps_survivors() {
        let g = fig1();
        let i = intersection(&g, &ts(&[0]), &ts(&[2])).unwrap();
        // nodes alive at t0 AND t2: u2, u4
        assert_eq!(i.n_nodes(), 2);
        assert!(i.node_id("u2").is_some() && i.node_id("u4").is_some());
        // edges alive at both: (u4,u2)
        assert_eq!(i.n_edges(), 1);
    }

    #[test]
    fn difference_old_minus_new() {
        let g = fig1();
        // t0 − t1: deleted edge (u3,u2); node u3 disappears; u2 kept as an
        // endpoint of the deleted edge even though it survives
        let d = difference(&g, &ts(&[0]), &ts(&[1])).unwrap();
        assert_eq!(d.n_edges(), 1);
        let names: Vec<&str> = d.node_ids().map(|n| d.node_name(n)).collect();
        assert!(names.contains(&"u3"));
        assert!(names.contains(&"u2"));
        assert!(!names.contains(&"u1"));
        // timestamps restricted to 𝒯₁ = {t0}
        let u3 = d.node_id("u3").unwrap();
        assert_eq!(
            d.node_timestamp(u3).iter().map(|t| t.0).collect::<Vec<_>>(),
            vec![0]
        );
    }

    #[test]
    fn difference_new_minus_old_is_growth() {
        let g = fig1();
        // t2 − t1: new node u5 and new edge (u5,u2)
        let d = difference(&g, &ts(&[2]), &ts(&[1])).unwrap();
        let names: Vec<&str> = d.node_ids().map(|n| d.node_name(n)).collect();
        assert!(names.contains(&"u5"));
        assert_eq!(d.n_edges(), 1);
        let e = d.edge_ids().next().unwrap();
        let (u, v) = d.edge_endpoints(e);
        assert_eq!((d.node_name(u), d.node_name(v)), ("u5", "u2"));
    }

    #[test]
    fn difference_is_asymmetric() {
        let g = fig1();
        let d1 = difference(&g, &ts(&[0]), &ts(&[1])).unwrap();
        let d2 = difference(&g, &ts(&[1]), &ts(&[0])).unwrap();
        assert_ne!(d1.n_edges(), d2.n_edges());
    }

    #[test]
    fn side_test_semantics() {
        let tau = TimeSet::from_indices(4, [1, 2]);
        let side = TimeSet::from_indices(4, [0, 1]);
        assert!(SideTest::Any.member(&tau, &side));
        assert!(!SideTest::All.member(&tau, &side));
        assert!(SideTest::All.member(&tau, &TimeSet::from_indices(4, [1, 2])));
        assert!(SideTest::All.member(&tau, &TimeSet::from_indices(4, [2])));
    }

    #[test]
    fn event_graph_all_semantics_shrinks_result() {
        let g = fig1();
        // stability of [t0,t1] vs t2 under Any: nodes alive in {t0,t1} and t2
        let any = event_graph(
            &g,
            Event::Stability,
            &ts(&[0, 1]),
            &ts(&[2]),
            SideTest::Any,
            SideTest::Any,
        )
        .unwrap();
        // under All on the old side: nodes alive at BOTH t0 and t1, and at t2
        let all = event_graph(
            &g,
            Event::Stability,
            &ts(&[0, 1]),
            &ts(&[2]),
            SideTest::All,
            SideTest::Any,
        )
        .unwrap();
        assert!(all.n_nodes() <= any.n_nodes());
        assert_eq!(any.n_nodes(), 2); // u2, u4
        assert_eq!(all.n_nodes(), 2); // u2, u4 both span t0,t1
    }

    #[test]
    fn event_mask_agrees_with_event_graph_on_fig1() {
        let g = fig1();
        let intervals = [ts(&[0]), ts(&[1]), ts(&[0, 1]), ts(&[2])];
        for event in [Event::Stability, Event::Growth, Event::Shrinkage] {
            for told in &intervals {
                for tnew in &intervals {
                    for old_test in [SideTest::Any, SideTest::All] {
                        for new_test in [SideTest::Any, SideTest::All] {
                            let mask =
                                event_mask(&g, event, told, tnew, old_test, new_test).unwrap();
                            let graph =
                                event_graph(&g, event, told, tnew, old_test, new_test).unwrap();
                            assert_eq!(mask.n_nodes(), graph.n_nodes());
                            assert_eq!(mask.n_edges(), graph.n_edges());
                            // same rows: every kept node's name resolves in the graph
                            for r in mask.node_rows() {
                                assert!(
                                    graph.node_id(g.node_name(NodeId(r as u32))).is_some(),
                                    "{event:?} kept node row {r} missing from event graph"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn event_mask_single_timepoint_domain() {
        use tempo_graph::fixtures::fig1;
        let g = fig1();
        // collapse to a single-point interval on both sides: stability keeps
        // exactly the point's entities, growth/shrinkage keep nothing
        let p = ts(&[1]);
        let stab = event_mask(&g, Event::Stability, &p, &p, SideTest::Any, SideTest::Any).unwrap();
        assert_eq!(stab.n_nodes(), 3); // u1, u2, u4 alive at t1
        let grow = event_mask(&g, Event::Growth, &p, &p, SideTest::Any, SideTest::Any).unwrap();
        assert_eq!((grow.n_nodes(), grow.n_edges()), (0, 0));
        assert!(grow.keep_nodes().is_zero() && grow.keep_edges().is_zero());
    }

    #[test]
    fn event_mask_empty_interval_errors() {
        let g = fig1();
        assert!(matches!(
            event_mask(
                &g,
                Event::Stability,
                &TimeSet::empty(3),
                &ts(&[1]),
                SideTest::Any,
                SideTest::Any
            ),
            Err(GraphError::EmptyInterval(_))
        ));
    }

    #[test]
    fn growth_under_all_old_widens() {
        let g = fig1();
        // Growth t1 − [t0]: edges at t1 absent from t0 → none (both t1 edges exist at t0)
        let any = event_graph(
            &g,
            Event::Growth,
            &ts(&[0]),
            &ts(&[1]),
            SideTest::Any,
            SideTest::Any,
        )
        .unwrap();
        assert_eq!(any.n_edges(), 0);
        // Growth t2 − [t0,t1] with All on old side: an edge counts as "in old"
        // only if present at both t0 and t1; (u4,u2) is, (u5,u2) is not.
        let all_old = event_graph(
            &g,
            Event::Growth,
            &ts(&[0, 1]),
            &ts(&[2]),
            SideTest::All,
            SideTest::Any,
        )
        .unwrap();
        assert_eq!(all_old.n_edges(), 1); // only (u5,u2) is new
    }
}
