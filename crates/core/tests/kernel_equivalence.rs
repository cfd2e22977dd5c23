//! The one oracle file for the bit-kernel read path, on random evolving
//! graphs. Every production kernel is held to the materializing reference
//! implementation it replaced:
//!
//! * the column-wise `event_mask` vs its row-wise oracle and vs
//!   `event_graph`;
//! * `GroupTable::aggregate_masked` vs `aggregate` of the materialized
//!   subgraph, `count_distinct` vs `Selector::count`;
//! * both `ChainCursor` steps (`evaluate_chain_pair`, and `mask_chain_pair`
//!   counted by `count_distinct`) vs `evaluate_pair_materialized`, and the
//!   mask of `mask_chain_pair` vs `event_mask` bit for bit, at every chain
//!   coordinate of every Table-1 row, selector shape, group-table layout
//!   and column layout;
//! * `explore` vs `explore_naive`, and budget cancellation;
//! * `initial_threshold` (what `suggest` runs) vs a naive scan of the
//!   consecutive pairs' materialized aggregates;
//! * the DIST walk across 64-entity words and 64-point chunks of a scope,
//!   through `aggregate_masked`, `count_distinct` and `evolution_aggregate`.

use graphtempo::aggregate::{aggregate, AggMode, CountTarget, GroupTable, NodeTimeFilter};
use graphtempo::evolution::{evolution_aggregate, evolution_aggregate_naive};
use graphtempo::explore::{
    evaluate_pair_materialized, explore, explore_budgeted, explore_naive, initial_threshold,
    suggest_k, Budget, ChainCursor, ExploreConfig, ExploreKernel, ExtendSide, Selector, Semantics,
    ThresholdStat,
};
use graphtempo::ops::{event_graph, event_mask, Event, SideTest};
use proptest::prelude::*;
use tempo_columnar::Value;
use tempo_datagen::RandomGraphConfig;
use tempo_graph::{
    AttrId, GraphError, GraphVersions, NodeId, TemporalGraph, TimePoint, TimeSet, TimepointPatch,
};
use tempo_testkit::{
    both_layouts, chain_len, chain_pair, event_mask_rowwise, graph_strategy, interval, kind_attr,
    level_attr, naive_threshold, returning_tuple,
};

/// The attribute sets exercised everywhere below: all-static,
/// all-time-varying, and mixed — the three `GroupTable` layouts.
fn attr_sets(g: &TemporalGraph) -> [Vec<AttrId>; 3] {
    let (kind, level) = (kind_attr(g), level_attr(g));
    [vec![kind], vec![level], vec![kind, level]]
}

const EVENTS: [Event; 3] = [Event::Stability, Event::Growth, Event::Shrinkage];
const EXTENDS: [ExtendSide; 2] = [ExtendSide::Old, ExtendSide::New];
const SEMANTICS: [Semantics; 2] = [Semantics::Union, Semantics::Intersection];
const TESTS: [SideTest; 2] = [SideTest::Any, SideTest::All];

/// The selector shapes: both All selectors, a node tuple and an edge tuple
/// that exist (`kind` categories and `level` values start at 0 and 1), and
/// a node and an edge tuple that occur nowhere in the graph.
fn selectors(attrs: &[AttrId], g: &TemporalGraph) -> Vec<Selector> {
    let kind = kind_attr(g);
    let known: Vec<Value> = attrs
        .iter()
        .map(|&a| {
            if a == kind {
                Value::Cat(0)
            } else {
                Value::Int(1)
            }
        })
        .collect();
    let absent = vec![Value::Cat(u32::MAX); attrs.len()];
    vec![
        Selector::AllNodes,
        Selector::AllEdges,
        Selector::NodeTuple(known.clone()),
        Selector::EdgeTuple(known.clone(), known),
        Selector::NodeTuple(absent.clone()),
        Selector::EdgeTuple(absent.clone(), absent),
    ]
}

/// All twelve Table-1 rows × every selector shape, over each of the given
/// attribute lists, at threshold `k`.
fn table1_configs(g: &TemporalGraph, attr_lists: &[Vec<AttrId>], k: u64) -> Vec<ExploreConfig> {
    let mut out = Vec::new();
    for attrs in attr_lists {
        for selector in selectors(attrs, g) {
            for event in EVENTS {
                for extend in EXTENDS {
                    for semantics in SEMANTICS {
                        out.push(ExploreConfig {
                            event,
                            extend,
                            semantics,
                            k,
                            attrs: attrs.clone(),
                            selector: selector.clone(),
                        });
                    }
                }
            }
        }
    }
    out
}

/// Drives two cursors over each column layout through every chain
/// coordinate — one counting with `evaluate_chain_pair`, one handing the
/// mask of `mask_chain_pair` to `count_distinct` — and checks each count
/// against the materializing oracle and the mask against `event_mask` on
/// the scope and every keep set the selector reads (both oracles computed
/// once per coordinate: they do not depend on the layout). The second
/// cursor of a layout finds the selector's match columns cached by the
/// first.
fn assert_cursors_match_oracle(
    layouts: &[TemporalGraph],
    cfg: &ExploreConfig,
) -> Result<(), TestCaseError> {
    let g = &layouts[0];
    let n = g.domain().len();
    // the fixed reference side is a single point, where Any and All agree
    let (old_test, new_test) = match cfg.extend {
        ExtendSide::Old => (cfg.semantics.side_test(), SideTest::Any),
        ExtendSide::New => (SideTest::Any, cfg.semantics.side_test()),
    };
    // an edge selector reads the kept edges; a node selector the kept
    // nodes, and under a difference event the kept edges that rescue their
    // endpoints
    let read_edges = cfg.selector.is_edge() || cfg.event != Event::Stability;
    let read_nodes = !cfg.selector.is_edge();
    let mut expected = Vec::new();
    for i in 0..n - 1 {
        for j in 0..chain_len(n, i, cfg.extend) {
            let pair = chain_pair(n, i, j, cfg.extend);
            let want = evaluate_pair_materialized(g, cfg, &pair.told, &pair.tnew).unwrap();
            let mask =
                event_mask(g, cfg.event, &pair.told, &pair.tnew, old_test, new_test).unwrap();
            expected.push((i, j, want, mask));
        }
    }
    for g in layouts {
        let kernel = ExploreKernel::new(g, cfg);
        let table = kernel.group_table();
        let target = match &cfg.selector {
            Selector::AllNodes => CountTarget::AllNodes,
            Selector::AllEdges => CountTarget::AllEdges,
            Selector::NodeTuple(t) => CountTarget::node(table, t),
            Selector::EdgeTuple(s, d) => CountTarget::edge(table, s, d),
        };
        let mut counting = ChainCursor::new(&kernel);
        let mut masking = ChainCursor::new(&kernel);
        for &(i, j, want, ref oracle) in &expected {
            let at = || {
                format!(
                    "{:?}/{:?}/{:?} selector={:?} attrs={:?} {:?} i={i} j={j}",
                    cfg.event,
                    cfg.extend,
                    cfg.semantics,
                    cfg.selector,
                    cfg.attrs,
                    g.sparse_mode()
                )
            };
            let mask = masking.mask_chain_pair(i, j);
            prop_assert_eq!(mask.scope(), oracle.scope(), "mask scope: {}", at());
            if read_nodes {
                prop_assert_eq!(
                    mask.keep_nodes(),
                    oracle.keep_nodes(),
                    "kept nodes: {}",
                    at()
                );
            }
            if read_edges {
                prop_assert_eq!(
                    mask.keep_edges(),
                    oracle.keep_edges(),
                    "kept edges: {}",
                    at()
                );
            }
            let masked = table.count_distinct(g, mask, &target);
            for (name, got) in [
                ("counting", counting.evaluate_chain_pair(i, j)),
                ("masking", masked),
            ] {
                prop_assert_eq!(got, want, "{} cursor vs oracle: {}", name, at());
            }
        }
    }
    Ok(())
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
        for g in both_layouts(&g) {
            let mode = g.sparse_mode();
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
            #[allow(clippy::disallowed_methods)] // the oracle side builds its table uncached
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
            #[allow(clippy::disallowed_methods)] // the oracle side builds its table uncached
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

    /// Both cursor steps evaluate every chain coordinate to the oracle's
    /// count — across all twelve Table-1 rows, every selector shape
    /// (present and absent tuples), the three group-table layouts (on
    /// static `kind` every count is a popcount; on time-varying `level` and
    /// the mixed list the tuple selectors are popcounts against the scope's
    /// folded match columns and the All selectors the distinct scan, or a
    /// popcount where the scope is one point) and both column layouts.
    #[test]
    fn cursors_match_oracle_at_every_coordinate(g in graph_strategy()) {
        let layouts = both_layouts(&g);
        for cfg in table1_configs(&g, &attr_sets(&g), 1) {
            assert_cursors_match_oracle(&layouts, &cfg)?;
        }
    }

    /// Two-timepoint graphs have length-1 chains: the base pair is also the
    /// deepest pair, so every strategy degenerates to a single evaluation.
    #[test]
    fn length_one_chains_agree(seed in any::<u64>()) {
        let g = RandomGraphConfig {
            pool: 15,
            timepoints: 2,
            active_per_tp: 8,
            edges_per_tp: 12,
            node_persistence: 0.5,
            edge_persistence: 0.5,
            kinds: 2,
            levels: 2,
            seed,
        }
        .generate()
        .expect("two-timepoint graph");
        let layouts = both_layouts(&g);
        for event in EVENTS {
            for extend in EXTENDS {
                for semantics in SEMANTICS {
                    let cfg = ExploreConfig {
                        event,
                        extend,
                        semantics,
                        k: 1,
                        attrs: vec![kind_attr(&g)],
                        selector: Selector::AllEdges,
                    };
                    assert_cursors_match_oracle(&layouts, &cfg)?;
                    let fast = explore(&g, &cfg).unwrap();
                    let slow = explore_naive(&g, &cfg).unwrap();
                    prop_assert_eq!(&fast.pairs, &slow.pairs);
                    prop_assert_eq!(fast.evaluations, 1, "one chain of one pair");
                }
            }
        }
    }

    /// All twelve Table-1 exploration cases match naive enumeration (with a
    /// static aggregation attribute, where the monotonicity lemmas hold),
    /// for every selector shape and including a threshold nothing reaches.
    #[test]
    fn explore_matches_naive(g in graph_strategy(), k in 1u64..30) {
        let attrs = [vec![kind_attr(&g)]];
        for k in [k, u64::MAX] {
            for cfg in table1_configs(&g, &attrs, k) {
                let fast = explore(&g, &cfg).unwrap();
                let slow = explore_naive(&g, &cfg).unwrap();
                prop_assert_eq!(
                    &fast.pairs, &slow.pairs,
                    "k={} case={:?}/{:?}/{:?} selector={:?}",
                    k, cfg.event, cfg.extend, cfg.semantics, cfg.selector
                );
                prop_assert!(fast.evaluations <= slow.evaluations);
            }
        }
    }

    /// An already-expired deadline and a pre-raised cancel flag both stop
    /// the run at its first checkpoint; an unlimited budget changes nothing.
    #[test]
    fn budget_cancels_exploration(g in graph_strategy()) {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let cfg = ExploreConfig {
            event: Event::Stability,
            extend: ExtendSide::New,
            semantics: Semantics::Union,
            k: 1,
            attrs: vec![kind_attr(&g)],
            selector: Selector::AllNodes,
        };
        let expired = Budget::unlimited().with_deadline_ms(0);
        prop_assert!(matches!(
            explore_budgeted(&g, &cfg, &expired),
            Err(GraphError::Cancelled(_))
        ));
        let raised = Budget::unlimited().with_cancel_flag(Arc::new(AtomicBool::new(true)));
        prop_assert!(matches!(
            explore_budgeted(&g, &cfg, &raised),
            Err(GraphError::Cancelled(_))
        ));
        let free = explore_budgeted(&g, &cfg, &Budget::unlimited()).unwrap();
        let plain = explore(&g, &cfg).unwrap();
        prop_assert_eq!(&free.pairs, &plain.pairs);
        prop_assert_eq!(free.evaluations, plain.evaluations);
    }

    /// `initial_threshold` — the cursor's mask step plus the dense weight
    /// passes — equals the naive scan for both statistics, every event, extend
    /// side, semantics, selector shape, group-table layout and column
    /// layout; `suggest_k` picks the statistic the direction table names.
    #[test]
    fn initial_threshold_matches_naive(g in graph_strategy()) {
        let layouts = both_layouts(&g);
        for cfg in table1_configs(&g, &attr_sets(&g), 0) {
            let min = naive_threshold(&g, &cfg, ThresholdStat::Min);
            let max = naive_threshold(&g, &cfg, ThresholdStat::Max);
            for g in &layouts {
                for (stat, want) in [(ThresholdStat::Min, min), (ThresholdStat::Max, max)] {
                    prop_assert_eq!(
                        initial_threshold(g, &cfg, stat).unwrap(),
                        want,
                        "{:?} {:?}/{:?}/{:?} selector={:?} attrs={:?} {:?}",
                        stat, cfg.event, cfg.extend, cfg.semantics, cfg.selector, cfg.attrs,
                        g.sparse_mode()
                    );
                }
                let suggested = suggest_k(g, &cfg).unwrap();
                prop_assert!(suggested == min || suggested == max);
            }
        }
    }
}

/// A graph whose later time points are empty produces empty event masks:
/// stability across (t0, t1) keeps nothing, growth and shrinkage likewise
/// on at least one side. The cursors must agree with the oracle on zeros.
#[test]
fn empty_masks_agree() {
    use tempo_graph::{AttributeSchema, GraphBuilder, Temporality, TimeDomain};

    let domain = TimeDomain::new(vec!["t0", "t1", "t2"]).unwrap();
    let mut schema = AttributeSchema::new();
    let kind = schema.declare("kind", Temporality::Static).unwrap();
    let mut b = GraphBuilder::new(domain, schema);
    let a = b.add_node("a").unwrap();
    let c = b.add_node("c").unwrap();
    let v = b.intern_category(kind, "k0");
    b.set_static(a, kind, v.clone()).unwrap();
    b.set_static(c, kind, v).unwrap();
    // all presence at t0 only — t1 and t2 are empty time points
    b.set_presence(a, TimePoint(0)).unwrap();
    b.set_presence(c, TimePoint(0)).unwrap();
    b.add_edge_at(a, c, TimePoint(0)).unwrap();
    let g = b.build().unwrap();
    let layouts = both_layouts(&g);

    for event in EVENTS {
        for extend in EXTENDS {
            for semantics in SEMANTICS {
                for selector in [Selector::AllNodes, Selector::AllEdges] {
                    let cfg = ExploreConfig {
                        event,
                        extend,
                        semantics,
                        k: 1,
                        attrs: vec![kind],
                        selector,
                    };
                    assert_cursors_match_oracle(&layouts, &cfg).unwrap();
                }
            }
        }
    }
    // and shrinkage from the populated point is the only non-empty event
    let cfg = ExploreConfig {
        event: Event::Shrinkage,
        extend: ExtendSide::New,
        semantics: Semantics::Union,
        k: 1,
        attrs: vec![kind],
        selector: Selector::AllNodes,
    };
    let kernel = ExploreKernel::new(&g, &cfg);
    let mut cursor = ChainCursor::new(&kernel);
    assert_eq!(
        cursor.evaluate_chain_pair(0, 0),
        2,
        "a and c vanish after t0"
    );
    assert!(cursor.mask_chain_pair(0, 0).keep_edges().count_ones() > 0);
    assert_eq!(
        cursor.evaluate_chain_pair(1, 0),
        0,
        "t1 and t2 are both empty"
    );
    assert!(cursor.mask_chain_pair(1, 0).keep_nodes().is_zero());
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
    assert!(explore_naive(&g, &cfg).is_err());
    assert!(suggest_k(&g, &cfg).is_err());
}

/// The DIST walk against its oracles where the proptests' graphs (at most
/// 39 nodes and 6 points) never reach: hundreds of nodes, so the kept
/// entities span several 64-entity words, and 70–130 points, so a scope
/// of 𝒯₁ ∪ 𝒯₂ with a one-point gap between them spans two 64-point chunks.
/// Each graph is checked under both column layouts and, appended one
/// point, with the old presence columns zero-extended; the returning tuple
/// checks one entity whose key goes A → (absent) → B → A.
#[test]
fn distinct_walk_crosses_words_and_chunks() {
    for (timepoints, seed) in [(70, 3), (130, 4)] {
        let g = RandomGraphConfig {
            pool: 320,
            timepoints,
            active_per_tp: 120,
            edges_per_tp: 160,
            node_persistence: 0.7,
            edge_persistence: 0.5,
            kinds: 3,
            levels: 4,
            seed,
        }
        .generate()
        .unwrap();
        // a gap of one point, and the appended point in 𝒯₂
        let sides = |n: usize| {
            (
                TimeSet::range(n, 0, n / 3),
                TimeSet::range(n, n / 3 + 2, n - 1),
            )
        };
        let (t1, t2) = sides(timepoints);
        assert!(t1.len() + t2.len() > 64);
        for g in both_layouts(&g) {
            assert_walks_match_oracles(&g, &t1, &t2);
        }
        // the appended epoch carries the old columns forward unwidened
        let mut patch = TimepointPatch::new("appended");
        let level = level_attr(&g);
        patch.set_time_varying("fresh", level, Value::Int(2));
        patch.add_edge("fresh", "n0").add_edge("n1", "fresh");
        let g = GraphVersions::new(g).append_timepoint(&patch).unwrap();
        assert!(g.node_presence_columns().col(0).len() < g.n_nodes());
        let (t1, t2) = sides(timepoints + 1);
        assert_walks_match_oracles(&g, &t1, &t2);
    }
    let (t1, t2) = (TimeSet::range(4, 0, 1), TimeSet::range(4, 2, 3));
    for g in both_layouts(&returning_tuple()) {
        assert_walks_match_oracles(&g, &t1, &t2);
    }
}

/// DIST `aggregate_masked` and `count_distinct` over the union 𝒯₁ ∪ 𝒯₂
/// against the materialized union graph, and `evolution_aggregate`
/// between 𝒯₁ and 𝒯₂ against its oracle with and without a `level >= 2`
/// filter, on the static, time-varying and mixed lists.
fn assert_walks_match_oracles(g: &TemporalGraph, t1: &TimeSet, t2: &TimeSet) {
    let scope = t1.union(t2);
    let any = SideTest::Any;
    let mask = event_mask(g, Event::Stability, &scope, &scope, any, any).unwrap();
    let sub = event_graph(g, Event::Stability, &scope, &scope, any, any).unwrap();
    let level = level_attr(g);
    let filter = move |gr: &TemporalGraph, n: NodeId, t: TimePoint| {
        gr.attr_value(n, level, t).as_int().is_some_and(|v| v >= 2)
    };
    for attrs in attr_sets(g) {
        #[allow(clippy::disallowed_methods)] // the oracle side builds its table uncached
        let table = GroupTable::build(g, &attrs);
        let dist = aggregate(&sub, &attrs, AggMode::Distinct);
        assert_eq!(
            table.aggregate_masked(g, &mask, AggMode::Distinct),
            dist,
            "{attrs:?}"
        );
        for (target, selector) in [
            (CountTarget::AllNodes, Selector::AllNodes),
            (CountTarget::AllEdges, Selector::AllEdges),
        ] {
            assert_eq!(
                table.count_distinct(g, &mask, &target),
                selector.count(&dist)
            );
        }
        for f in [None, Some(&filter as &NodeTimeFilter<'_>)] {
            assert_eq!(
                evolution_aggregate(g, t1, t2, &attrs, f).unwrap(),
                evolution_aggregate_naive(g, t1, t2, &attrs, f).unwrap(),
                "{attrs:?} filtered {}",
                f.is_some()
            );
        }
    }
}
