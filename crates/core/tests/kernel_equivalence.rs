//! Property-based equivalence of the zero-materialization exploration
//! kernel with the materializing reference path, on random evolving
//! graphs: the column-wise `event_mask` vs its row-wise oracle and vs
//! `event_graph`, `GroupTable::aggregate_masked`
//! vs `aggregate` of the materialized subgraph, `count_distinct` vs
//! `Selector::count`, `ExploreKernel::evaluate` vs
//! `evaluate_pair_materialized`, and full `explore` runs vs
//! `explore_materializing` / `explore_naive`.

use graphtempo::aggregate::{aggregate, AggMode, CountTarget, GroupTable};
use graphtempo::explore::{
    evaluate_pair_materialized, explore, explore_materializing, explore_naive, ExploreConfig,
    ExploreKernel, ExtendSide, Selector, Semantics,
};
use graphtempo::ops::{event_graph, event_mask, Event, SideTest};
use proptest::prelude::*;
use tempo_columnar::{BitMatrix, BitVec, SparseMode, Value};
use tempo_datagen::RandomGraphConfig;
use tempo_graph::{AttrId, EdgeId, NodeId, TemporalGraph, TimeSet};

/// Strategy: a random evolving graph (same shape as `tests/properties.rs`).
fn graph_strategy() -> impl Strategy<Value = TemporalGraph> {
    (
        10usize..40,  // pool
        3usize..7,    // timepoints
        5usize..15,   // active per tp
        5usize..40,   // edges per tp
        0u8..=10,     // node persistence (tenths)
        0u8..=10,     // edge persistence (tenths)
        1usize..4,    // kinds
        1i64..5,      // levels
        any::<u64>(), // seed
    )
        .prop_map(|(pool, tps, active, edges, np, ep, kinds, levels, seed)| {
            RandomGraphConfig {
                pool,
                timepoints: tps,
                active_per_tp: active.min(pool),
                edges_per_tp: edges,
                node_persistence: f64::from(np) / 10.0,
                edge_persistence: f64::from(ep) / 10.0,
                kinds,
                levels,
                seed,
            }
            .generate()
            .expect("random generator produces valid graphs")
        })
}

/// Random non-empty contiguous interval over `n` points.
fn interval(n: usize, seed: u64) -> TimeSet {
    let a = (seed as usize) % n;
    let b = ((seed >> 8) as usize) % n;
    TimeSet::range(n, a.min(b), a.max(b))
}

fn kind_attr(g: &TemporalGraph) -> AttrId {
    g.schema().id("kind").expect("random graphs have `kind`")
}

fn level_attr(g: &TemporalGraph) -> AttrId {
    g.schema().id("level").expect("random graphs have `level`")
}

/// The attribute sets exercised everywhere below: all-static,
/// all-time-varying, and mixed — the three `GroupTable` layouts.
fn attr_sets(g: &TemporalGraph) -> [Vec<AttrId>; 3] {
    let (kind, level) = (kind_attr(g), level_attr(g));
    [vec![kind], vec![level], vec![kind, level]]
}

const EVENTS: [Event; 3] = [Event::Stability, Event::Growth, Event::Shrinkage];
const TESTS: [SideTest; 2] = [SideTest::Any, SideTest::All];

/// The row-wise oracle for `event_mask`: membership decided entity by
/// entity against the row-major presence matrices (what `event_mask` did
/// before it moved onto the transposed columns). Returns the kept node and
/// edge rows.
fn event_mask_rowwise(
    g: &TemporalGraph,
    event: Event,
    told: &TimeSet,
    tnew: &TimeSet,
    old_test: SideTest,
    new_test: SideTest,
) -> (BitVec, BitVec) {
    let member = |m: &BitMatrix, r: usize, side: &TimeSet, test: SideTest| match test {
        SideTest::Any => m.row_any(r, side.bits()),
        SideTest::All => m.row_all(r, side.bits()),
    };
    let (nodes_m, edges_m) = (g.node_presence_matrix(), g.edge_presence_matrix());
    let mut keep_nodes = BitVec::zeros(g.n_nodes());
    let mut keep_edges = BitVec::zeros(g.n_edges());
    // stability keeps members of both sides; a difference keeps members of
    // `keep` that are not members of `drop`, plus (nodes only) the endpoints
    // of kept edges that are members of `keep`
    let (keep, keep_test, drop, drop_test) = match event {
        Event::Stability => {
            for r in 0..g.n_nodes() {
                let both = member(nodes_m, r, told, old_test) && member(nodes_m, r, tnew, new_test);
                keep_nodes.set(r, both);
            }
            for r in 0..g.n_edges() {
                let both = member(edges_m, r, told, old_test) && member(edges_m, r, tnew, new_test);
                keep_edges.set(r, both);
            }
            return (keep_nodes, keep_edges);
        }
        Event::Growth => (tnew, new_test, told, old_test),
        Event::Shrinkage => (told, old_test, tnew, new_test),
    };
    let mut incident = BitVec::zeros(g.n_nodes());
    for r in 0..g.n_edges() {
        if member(edges_m, r, keep, keep_test) && !member(edges_m, r, drop, drop_test) {
            keep_edges.set(r, true);
            let (u, v) = g.edge_endpoints(EdgeId(r as u32));
            incident.set(u.index(), true);
            incident.set(v.index(), true);
        }
    }
    for r in 0..g.n_nodes() {
        let kept = member(nodes_m, r, keep, keep_test)
            && (!member(nodes_m, r, drop, drop_test) || incident.get(r));
        keep_nodes.set(r, kept);
    }
    (keep_nodes, keep_edges)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The event mask selects exactly the rows the materialized event graph
    /// contains, for every event and side-test combination.
    #[test]
    fn event_mask_matches_event_graph(
        g in graph_strategy(), s1 in any::<u64>(), s2 in any::<u64>()
    ) {
        let n = g.domain().len();
        let (told, tnew) = (interval(n, s1), interval(n, s2));
        for event in EVENTS {
            for old_test in TESTS {
                for new_test in TESTS {
                    let mask = event_mask(&g, event, &told, &tnew, old_test, new_test).unwrap();
                    let graph = event_graph(&g, event, &told, &tnew, old_test, new_test).unwrap();
                    prop_assert_eq!(mask.n_nodes(), graph.n_nodes());
                    prop_assert_eq!(mask.n_edges(), graph.n_edges());
                    for r in mask.node_rows() {
                        prop_assert!(
                            graph.node_id(g.node_name(NodeId(r as u32))).is_some(),
                            "{:?} kept node row {} missing from event graph", event, r
                        );
                    }
                }
            }
        }
    }

    /// The column-wise mask equals the row-wise oracle bit for bit — every
    /// event and side-test combination, whole-domain, single-point and
    /// random sides, dense and sparse columns — and rejects empty sides.
    #[test]
    fn event_mask_columnwise_matches_rowwise(
        g in graph_strategy(), s1 in any::<u64>(), s2 in any::<u64>()
    ) {
        let n = g.domain().len();
        let point = |s: u64| TimeSet::range(n, s as usize % n, s as usize % n);
        let sides = [interval(n, s1), interval(n, s2), point(s1), point(s2), g.domain().all()];
        for mode in [SparseMode::ForceDense, SparseMode::ForceSparse] {
            let mut g = g.clone();
            g.set_sparse_mode(mode);
            for event in EVENTS {
                for told in &sides {
                    for tnew in &sides {
                        for old_test in TESTS {
                            for new_test in TESTS {
                                let mask =
                                    event_mask(&g, event, told, tnew, old_test, new_test).unwrap();
                                let (nodes, edges) =
                                    event_mask_rowwise(&g, event, told, tnew, old_test, new_test);
                                prop_assert_eq!(
                                    mask.keep_nodes(), &nodes,
                                    "{:?} {:?}/{:?} {:?}", event, old_test, new_test, mode
                                );
                                prop_assert_eq!(
                                    mask.keep_edges(), &edges,
                                    "{:?} {:?}/{:?} {:?}", event, old_test, new_test, mode
                                );
                                let scope = match event {
                                    Event::Stability => told.union(tnew),
                                    Event::Growth => tnew.clone(),
                                    Event::Shrinkage => told.clone(),
                                };
                                prop_assert_eq!(mask.scope(), &scope);
                            }
                        }
                    }
                }
                let empty = TimeSet::empty(n);
                prop_assert!(
                    event_mask(&g, event, &empty, &sides[0], SideTest::Any, SideTest::Any).is_err()
                );
                prop_assert!(
                    event_mask(&g, event, &sides[0], &empty, SideTest::All, SideTest::All).is_err()
                );
            }
        }
    }

    /// Aggregating through the mask equals materializing the event graph
    /// and aggregating it, across all group-table layouts and both modes.
    #[test]
    fn aggregate_masked_matches_materializing(
        g in graph_strategy(), s1 in any::<u64>(), s2 in any::<u64>()
    ) {
        let n = g.domain().len();
        let (told, tnew) = (interval(n, s1), interval(n, s2));
        for attrs in attr_sets(&g) {
            let table = GroupTable::build(&g, &attrs);
            for event in EVENTS {
                for test in TESTS {
                    let mask = event_mask(&g, event, &told, &tnew, test, test).unwrap();
                    let sub = event_graph(&g, event, &told, &tnew, test, test).unwrap();
                    for mode in [AggMode::Distinct, AggMode::All] {
                        let fast = table.aggregate_masked(&g, &mask, mode);
                        let slow = aggregate(&sub, &attrs, mode);
                        prop_assert_eq!(
                            &fast, &slow,
                            "{:?}/{:?}/{:?} attrs={:?}", event, test, mode, attrs
                        );
                    }
                }
            }
        }
    }

    /// `count_distinct` against the mask equals `Selector::count` on the
    /// distinct aggregate of the materialized event graph — for the All
    /// selectors and for every per-entity tuple the aggregate contains.
    #[test]
    fn count_distinct_matches_selector_count(
        g in graph_strategy(), s1 in any::<u64>(), s2 in any::<u64>()
    ) {
        let n = g.domain().len();
        let (told, tnew) = (interval(n, s1), interval(n, s2));
        for attrs in attr_sets(&g) {
            let table = GroupTable::build(&g, &attrs);
            for event in EVENTS {
                let mask = event_mask(&g, event, &told, &tnew, SideTest::Any, SideTest::Any)
                    .unwrap();
                let sub = event_graph(&g, event, &told, &tnew, SideTest::Any, SideTest::Any)
                    .unwrap();
                let agg = aggregate(&sub, &attrs, AggMode::Distinct);
                prop_assert_eq!(
                    table.count_distinct(&g, &mask, &CountTarget::AllNodes),
                    Selector::AllNodes.count(&agg)
                );
                prop_assert_eq!(
                    table.count_distinct(&g, &mask, &CountTarget::AllEdges),
                    Selector::AllEdges.count(&agg)
                );
                for (tuple, w) in agg.iter_nodes() {
                    let target = CountTarget::node(&table, tuple);
                    prop_assert_eq!(table.count_distinct(&g, &mask, &target), w);
                }
                for ((src, dst), w) in agg.iter_edges() {
                    let target = CountTarget::edge(&table, src, dst);
                    prop_assert_eq!(table.count_distinct(&g, &mask, &target), w);
                }
            }
        }
    }

    /// The kernel evaluates every interval pair to the same count as the
    /// materializing reference path, over all twelve Table-1 cases and all
    /// four selector shapes.
    #[test]
    fn kernel_evaluation_matches_materialized(
        g in graph_strategy(), s1 in any::<u64>(), s2 in any::<u64>()
    ) {
        let n = g.domain().len();
        let (told, tnew) = (interval(n, s1), interval(n, s2));
        let kind = kind_attr(&g);
        // A tuple that exists plus one that cannot: kind categories are
        // interned from 0, so a large category id is never used.
        let known = vec![Value::Cat(0)];
        let unknown = vec![Value::Cat(u32::MAX)];
        let selectors = [
            Selector::AllNodes,
            Selector::AllEdges,
            Selector::NodeTuple(known.clone()),
            Selector::EdgeTuple(known.clone(), known),
            Selector::NodeTuple(unknown.clone()),
            Selector::EdgeTuple(unknown.clone(), unknown),
        ];
        for event in EVENTS {
            for extend in [ExtendSide::Old, ExtendSide::New] {
                for semantics in [Semantics::Union, Semantics::Intersection] {
                    for selector in &selectors {
                        let cfg = ExploreConfig {
                            event,
                            extend,
                            semantics,
                            k: 1,
                            attrs: vec![kind],
                            selector: selector.clone(),
                        };
                        let kernel = ExploreKernel::new(&g, &cfg);
                        let fast = kernel.evaluate(&told, &tnew).unwrap();
                        let slow = evaluate_pair_materialized(&g, &cfg, &told, &tnew).unwrap();
                        prop_assert_eq!(
                            fast, slow,
                            "{:?}/{:?}/{:?} selector={:?}", event, extend, semantics, selector
                        );
                    }
                }
            }
        }
    }

    /// Full exploration runs agree between the kernel and the materializing
    /// variant — identical pairs AND identical evaluation counts, since both
    /// share the pruning strategies. Mixed static/time-varying attributes
    /// exercise the time-indexed group-table layout.
    #[test]
    fn explore_matches_materializing_variant(g in graph_strategy(), k in 1u64..30) {
        let attrs = vec![kind_attr(&g), level_attr(&g)];
        for event in EVENTS {
            for extend in [ExtendSide::Old, ExtendSide::New] {
                for semantics in [Semantics::Union, Semantics::Intersection] {
                    let cfg = ExploreConfig {
                        event,
                        extend,
                        semantics,
                        k,
                        attrs: attrs.clone(),
                        selector: Selector::AllEdges,
                    };
                    let fast = explore(&g, &cfg).unwrap();
                    let slow = explore_materializing(&g, &cfg).unwrap();
                    prop_assert_eq!(
                        &fast.pairs, &slow.pairs,
                        "k={} case={:?}/{:?}/{:?}", k, event, extend, semantics
                    );
                    prop_assert_eq!(fast.evaluations, slow.evaluations);
                }
            }
        }
    }

    /// With an impossible threshold the kernel and the naive oracle both
    /// return no pairs (empty-result edge case).
    #[test]
    fn impossible_threshold_yields_empty(g in graph_strategy()) {
        let cfg = ExploreConfig {
            event: Event::Stability,
            extend: ExtendSide::New,
            semantics: Semantics::Union,
            k: u64::MAX,
            attrs: vec![kind_attr(&g)],
            selector: Selector::AllNodes,
        };
        let fast = explore(&g, &cfg).unwrap();
        let slow = explore_naive(&g, &cfg).unwrap();
        prop_assert!(fast.pairs.is_empty());
        prop_assert!(slow.pairs.is_empty());
    }
}

/// A single-timepoint graph is rejected identically by every exploration
/// entry point (there is no consecutive pair to explore). The random
/// generator clamps to two timepoints, so the graph is built by hand.
#[test]
fn single_timepoint_domain_errors_everywhere() {
    use tempo_graph::{AttributeSchema, GraphBuilder, Temporality, TimeDomain, TimePoint};

    let domain = TimeDomain::new(vec!["t0"]).unwrap();
    let mut schema = AttributeSchema::new();
    let kind = schema.declare("kind", Temporality::Static).unwrap();
    let mut b = GraphBuilder::new(domain, schema);
    let a = b.add_node("a").unwrap();
    let c = b.add_node("c").unwrap();
    let v = b.intern_category(kind, "k0");
    b.set_static(a, kind, v.clone()).unwrap();
    b.set_static(c, kind, v).unwrap();
    b.set_presence(a, TimePoint(0)).unwrap();
    b.set_presence(c, TimePoint(0)).unwrap();
    b.add_edge_at(a, c, TimePoint(0)).unwrap();
    let g = b.build().unwrap();

    let cfg = ExploreConfig {
        event: Event::Stability,
        extend: ExtendSide::New,
        semantics: Semantics::Union,
        k: 1,
        attrs: vec![kind],
        selector: Selector::AllNodes,
    };
    assert!(explore(&g, &cfg).is_err());
    assert!(explore_materializing(&g, &cfg).is_err());
    assert!(explore_naive(&g, &cfg).is_err());
}
