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

use tempo_columnar::{word_ones, BitVec, PresenceColumns};
use tempo_graph::{require_non_empty, EdgeId, GraphError, TemporalGraph, TimePoint, TimeSet};

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
/// Where [`event_graph`] copies the selected entities into a fresh
/// [`TemporalGraph`], an `EventMask` merely records *which* rows of `g`
/// belong to the event graph and over which `scope` their timestamps count.
/// Aggregation can then run directly against the source presence columns
/// (see `graphtempo::aggregate::GroupTable`). [`event_mask`] is its one
/// constructor; `agg op=intersect|diff`, the operator verbs and the oracles
/// read it. Exploration stores no mask: its cursor keeps one keep set of the
/// selector's side.
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
}

/// The entities that are members of `side` under `test`, over the presence
/// columns: the OR (`Any`) or AND (`All`) of the side's time-point columns —
/// one whole-vector pass per point instead of one row test per entity —
/// as wide as the entities (the folds narrow it to the columns' widths in
/// its own allocation).
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
    members.grow(cols.source_rows());
    members
}

/// What [`event_words`] does with the words of one side's keep set.
pub(crate) enum WordSink<'a> {
    /// Writes them into a keep set, which takes their width.
    Store(&'a mut BitVec),
    /// Counts their set bits, within the selection when one is given.
    Count(Option<&'a BitVec>),
    /// Reads them as kept edges and writes the nodes they rescue
    /// ([`rescue`]).
    Rescue(&'a TemporalGraph, &'a mut BitVec),
}

impl WordSink<'_> {
    /// Drains the keep words of an `nbits`-wide keep set: `head`, where
    /// both sides are stored, then `tail`, the words of the keep side past
    /// the end of the drop side, each in a loop of its own. The count for
    /// [`WordSink::Count`], 0 otherwise.
    #[inline]
    fn consume(self, nbits: usize, head: impl ExactSizeIterator<Item = u64>, tail: &[u64]) -> u64 {
        let ones = |w: u64| u64::from(w.count_ones());
        let m = head.len();
        match self {
            WordSink::Store(out) => {
                out.set_words(nbits, head.chain(tail.iter().copied()));
                0
            }
            WordSink::Count(None) => {
                head.map(ones).sum::<u64>() + tail.iter().map(|&w| ones(w)).sum::<u64>()
            }
            WordSink::Count(Some(sel)) => {
                let (sel_head, sel_tail) = sel.words().split_at(m.min(sel.words().len()));
                let head = head.zip(sel_head).map(|(w, &s)| ones(w & s)).sum::<u64>();
                head + tail
                    .iter()
                    .zip(sel_tail)
                    .map(|(&w, &s)| ones(w & s))
                    .sum::<u64>()
            }
            WordSink::Rescue(g, incident) => {
                rescue(g, head.chain(tail.iter().copied()), incident);
                0
            }
        }
    }
}

/// The event membership of one side (nodes or edges), the one place
/// Definitions 2.4–2.5 are written: word `b` of `old` and `new` holds the
/// side's members of 𝒯old and 𝒯new among entities `64·b ..`, and the keep
/// words go to `sink`. Stability keeps `old ∧ new`, growth
/// `new ∧ (¬old ∨ rescued)` and shrinkage `old ∧ (¬new ∨ rescued)`, where
/// `rescued` (the node side of a difference event only; see [`rescue`])
/// holds the endpoints of the kept edges.
///
/// The operands may differ in width, and each reads zero past its end.
/// Stability runs over the shorter of `old` and `new`; a difference event
/// over its keep side (`new` for growth, `old` for shrinkage), whose words
/// past the end of the drop side are kept as they are. `rescued` covers
/// the keep side.
#[inline]
pub(crate) fn event_words(
    event: Event,
    old: &BitVec,
    new: &BitVec,
    rescued: Option<&BitVec>,
    sink: WordSink<'_>,
) -> u64 {
    let (keep, drop) = match event {
        Event::Growth => (new, old),
        Event::Stability | Event::Shrinkage => (old, new),
    };
    let (k, d) = (keep.words(), drop.words());
    let m = k.len().min(d.len());
    let sides = k[..m].iter().zip(&d[..m]);
    match (event, rescued) {
        (Event::Stability, _) => {
            let nbits = keep.len().min(drop.len());
            sink.consume(nbits, sides.map(|(k, d)| k & d), &[])
        }
        (_, None) => sink.consume(keep.len(), sides.map(|(k, d)| k & !d), &k[m..]),
        (_, Some(r)) => {
            debug_assert!(
                r.words().len() >= k.len(),
                "rescue set narrower than the keep side"
            );
            let sides = sides.zip(&r.words()[..m]);
            sink.consume(keep.len(), sides.map(|((k, d), r)| k & (!d | r)), &k[m..])
        }
    }
}

/// Clears `incident`, then sets both endpoints of every edge set in
/// `kept_edges` (word `b` covering edges `64·b ..`): the nodes a
/// difference event keeps whatever their own drop test says (the
/// `∃(u,v) ∈ E₋` clause of Definition 2.5).
pub(crate) fn rescue(
    g: &TemporalGraph,
    kept_edges: impl IntoIterator<Item = u64>,
    incident: &mut BitVec,
) {
    incident.clear_all();
    for (b, w) in kept_edges.into_iter().enumerate() {
        for bit in word_ones(w) {
            let (u, v) = g.edge_endpoints(EdgeId((b * 64 + bit) as u32));
            incident.set(u.index(), true);
            incident.set(v.index(), true);
        }
    }
}

/// Computes the [`EventMask`] of the §3 event operators for a pair of
/// intervals under explicit side semantics — the selection half of
/// [`event_graph`] with no subgraph materialization: each side's members
/// are folded from the graph's presence columns
/// ([`TemporalGraph::node_presence_columns`]) and handed to
/// `event_words`, edges first so that they can rescue their endpoints.
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
    let keep = |cols: &PresenceColumns, rescued: Option<&BitVec>| {
        let (old, new) = (
            side_members(cols, told, old_test),
            side_members(cols, tnew, new_test),
        );
        let mut keep = BitVec::zeros(0);
        event_words(event, &old, &new, rescued, WordSink::Store(&mut keep));
        keep
    };
    let keep_edges = keep(g.edge_presence_columns(), None);
    let incident = (event != Event::Stability).then(|| {
        let mut incident = BitVec::zeros(g.n_nodes());
        rescue(g, keep_edges.words().iter().copied(), &mut incident);
        incident
    });
    let keep_nodes = keep(g.node_presence_columns(), incident.as_ref());
    let scope = match event {
        Event::Stability => told.union(tnew),
        Event::Growth => tnew.clone(),
        Event::Shrinkage => told.clone(),
    };
    Ok(EventMask {
        keep_nodes,
        keep_edges,
        scope,
    })
}

/// Time projection (Definition 2.2): the subgraph of entities that exist
/// throughout `𝒯₁` (i.e. `𝒯₁ ⊆ τ`), with timestamps restricted to `𝒯₁` —
/// the [`event_graph`] of stability between `𝒯₁` and itself under `All`.
///
/// # Errors
/// Returns an error if `t1` is empty or materialization fails.
pub fn project(g: &TemporalGraph, t1: &TimeSet) -> Result<TemporalGraph, GraphError> {
    require_non_empty(t1, "𝒯₁")?;
    event_graph(g, Event::Stability, t1, t1, SideTest::All, SideTest::All)
}

/// The projection of a single time point — the paper's per-timepoint graph
/// used throughout the evaluation (Figs. 3, 5).
///
/// # Errors
/// Returns an error if materialization fails.
pub fn project_point(g: &TemporalGraph, t: TimePoint) -> Result<TemporalGraph, GraphError> {
    project(g, &TimeSet::point(g.domain().len(), t))
}

/// Union operator (Definition 2.3): entities existing at some point of
/// `𝒯₁` **or** `𝒯₂`; timestamps restricted to `𝒯₁ ∪ 𝒯₂` — the
/// [`event_graph`] of stability between `𝒯₁ ∪ 𝒯₂` and itself under `Any`.
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
    event_graph(
        g,
        Event::Stability,
        &scope,
        &scope,
        SideTest::Any,
        SideTest::Any,
    )
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
    let nt = g.domain().len();
    // each point holds its kept rows inside the scope; outside it the point
    // is an empty side, whose members are none
    let held = |cols: &PresenceColumns, keep: &BitVec| -> Vec<BitVec> {
        let points =
            (0..nt).map(|t| TimeSet::point(nt, TimePoint(t as u32)).intersect(mask.scope()));
        points
            .map(|p| side_members(cols, &p, SideTest::Any).and(keep))
            .collect()
    };
    let (nodes, edges) = (
        held(g.node_presence_columns(), mask.keep_nodes()),
        held(g.edge_presence_columns(), mask.keep_edges()),
    );
    let windows: Vec<(usize, usize)> = (0..nt).map(|t| (t, t)).collect();
    g.derive(g.domain().clone(), &nodes, &edges, &windows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_graph::fixtures::fig1;
    use tempo_graph::NodeId;

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
                            for r in mask.keep_nodes().iter_ones() {
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

    /// `event_words` on operands of unequal widths, the shorter on either
    /// side, for each event, with and without a rescue set, through the
    /// store and count sinks, against a bit-by-bit reading of the operands
    /// zero-extended to one width. The keep set takes the width of the
    /// shorter side under stability and of the keep side otherwise.
    #[test]
    fn event_words_reads_unequal_widths_as_zero_extended() {
        let short = BitVec::from_indices(130, (0..130).filter(|i| i % 3 != 2));
        let long = BitVec::from_indices(300, (0..300).filter(|i| i % 5 != 1));
        let rescued = BitVec::from_indices(300, (0..300).filter(|i| i % 7 == 3));
        let sel = BitVec::from_indices(200, (0..200).filter(|i| i % 2 == 1));
        let bit = |v: &BitVec, i: usize| i < v.len() && v.get(i);
        for (old, new) in [(&short, &long), (&long, &short), (&short, &short)] {
            for event in [Event::Stability, Event::Growth, Event::Shrinkage] {
                for r in [None, Some(&rescued)] {
                    let kept = |i: usize| {
                        let (o, n, r) = (bit(old, i), bit(new, i), r.is_some_and(|r| bit(r, i)));
                        match event {
                            Event::Stability => o && n,
                            Event::Growth => n && (!o || r),
                            Event::Shrinkage => o && (!n || r),
                        }
                    };
                    let want: Vec<usize> = (0..300).filter(|&i| kept(i)).collect();
                    let width = match event {
                        Event::Stability => old.len().min(new.len()),
                        Event::Growth => new.len(),
                        Event::Shrinkage => old.len(),
                    };
                    let at = format!(
                        "{event:?} {} vs {} rescued {}",
                        old.len(),
                        new.len(),
                        r.is_some()
                    );
                    let mut keep = BitVec::ones(500);
                    event_words(event, old, new, r, WordSink::Store(&mut keep));
                    assert_eq!(keep.check_invariants(), Ok(()), "{at}");
                    assert_eq!(keep.len(), width, "{at}");
                    assert_eq!(keep.iter_ones().collect::<Vec<_>>(), want, "{at}");
                    let count = |sel| event_words(event, old, new, r, WordSink::Count(sel));
                    assert_eq!(count(None), want.len() as u64, "{at}");
                    let in_sel = want.iter().filter(|&&i| bit(&sel, i)).count();
                    assert_eq!(count(Some(&sel)), in_sel as u64, "{at}");
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
