//! The one oracle file for the bit-kernel read path, on random evolving
//! graphs. Every production kernel is held to the materializing reference
//! implementation it replaced:
//!
//! * the column-wise `event_mask` vs its row-wise oracle and vs
//!   `event_graph`;
//! * `GroupTable::aggregate_masked` vs `aggregate` of the materialized
//!   subgraph;
//! * the one exploration object, `ChainCursor`: its count
//!   (`evaluate_chain_pair`) vs `evaluate_pair_materialized`, and its keep
//!   step (`keep_chain_pair`) vs the scope and the selector's side of
//!   `event_mask` bit for bit, at every chain coordinate of every Table-1
//!   row, selector shape, group-table layout and column layout;
//! * `explore` vs `explore_naive`, and budget cancellation;
//! * `initial_threshold` (what `suggest` runs) vs a naive scan of the
//!   consecutive pairs' materialized aggregates, and its two early stops
//!   on hand-built graphs whose answer sits where a wrong stop misses it;
//! * the DIST walk across 64-entity words and 64-point chunks of a scope,
//!   through `aggregate_masked` and `evolution_aggregate`, the last also
//!   with its two sides overlapping, reversed, equal and interleaved;
//! * the ALL walk on the same graphs, through `aggregate_masked`, every
//!   `GraphCube` level and `aggregate_measure`, and `aggregate_measure` of
//!   a static numeric attribute and of edge values against `naive_measure`;
//! * the walk of a scope's own columns, with no keep set
//!   (`aggregate_union`, `evolution_aggregate`), against the same walk
//!   under the union's keep set and the materialized union graph;
//! * all of the cursor's operands at unequal stored widths: columns that
//!   end at different words, an extended side that grows past the
//!   reference's width and shrinks below it;
//! * the repeat index the All selectors' count reads, against a scan of
//!   every (entity, point), on random graphs and their appended epochs, and
//!   the count's `prev ≥ lo` rule on a tuple that comes back.

use graphtempo::aggregate::{aggregate, rollup, AggMode, GroupTable, NodeTimeFilter};
use graphtempo::cube::{GraphCube, Level};
use graphtempo::evolution::{evolution_aggregate, evolution_aggregate_naive, EvolutionWeights};
use graphtempo::explore::{
    evaluate_pair_materialized, explore, explore_budgeted, explore_naive, initial_threshold,
    suggest_k, Budget, ChainCursor, ExploreConfig, ExtendSide, Selector, Semantics, ThresholdStat,
};
use graphtempo::measures::{aggregate_measure, EdgeMeasure, MeasureAggregate, NodeMeasure};
use graphtempo::ops::{event_graph, event_mask, union, Event, SideTest};
use proptest::prelude::*;
use std::sync::Arc;
use tempo_columnar::Value;
use tempo_datagen::RandomGraphConfig;
use tempo_graph::{
    AttrId, AttributeSchema, EdgeId, GraphBuilder, GraphError, GraphVersions, NodeId,
    TemporalGraph, Temporality, TimeDomain, TimePoint, TimeSet, TimepointPatch,
};
use tempo_testkit::{
    both_layouts, by_hand, chain_len, chain_pair, event_mask_rowwise, graph_strategy, interval,
    kept_per_pair, kind_attr, level_attr, naive_measure, naive_threshold, render_tuple,
    returning_tuple, Reduce,
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
/// coordinate — one counting with `evaluate_chain_pair`, one storing with
/// `keep_chain_pair` — and checks each count against the materializing
/// oracle, and each scope and keep set against the scope and the
/// selector's side of `event_mask` (both oracles computed once per
/// coordinate: they do not depend on the layout). The second cursor of a
/// layout finds the selector's match columns cached by the first.
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
        let mut counting = ChainCursor::new(g, cfg);
        let mut keeping = ChainCursor::new(g, cfg);
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
            let (scope, keep) = keeping.keep_chain_pair(i, j);
            prop_assert_eq!(scope, oracle.scope(), "scope: {}", at());
            let side = if cfg.selector.is_edge() {
                oracle.keep_edges()
            } else {
                oracle.keep_nodes()
            };
            // the keep set is stored only as wide as its operands, and
            // reads zero past that
            prop_assert!(keep.len() <= side.len(), "keep set width: {}", at());
            prop_assert_eq!(
                keep.iter_ones().collect::<Vec<_>>(),
                side.iter_ones().collect::<Vec<_>>(),
                "keep set: {}",
                at()
            );
            let got = counting.evaluate_chain_pair(i, j);
            prop_assert_eq!(got, want, "cursor vs oracle: {}", at());
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
                    for r in mask.keep_nodes().iter_ones() {
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

    /// The cursor's count equals the oracle's, and its keep set and scope
    /// the event mask's, at every chain coordinate — across all twelve Table-1 rows, every selector shape
    /// (present and absent tuples), the three group-table layouts (on
    /// static `kind` every count is a popcount; on time-varying `level` and
    /// the mixed list the tuple selectors are popcounts against the scope's
    /// folded match columns and the All selectors the sum of the DIST
    /// weights, or a popcount where the scope is one point) and both column
    /// layouts.
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

    /// An already-expired deadline stops the run at its first checkpoint;
    /// an unlimited budget changes nothing.
    #[test]
    fn budget_cancels_exploration(g in graph_strategy()) {
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
        let free = explore_budgeted(&g, &cfg, &Budget::unlimited()).unwrap();
        let plain = explore(&g, &cfg).unwrap();
        prop_assert_eq!(&free.pairs, &plain.pairs);
        prop_assert_eq!(free.evaluations, plain.evaluations);
    }

    /// `initial_threshold` — the cursor's keep step plus the fold of the
    /// DIST weights — equals the naive scan for both statistics, every event, extend
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

/// Checks `initial_threshold` for `stat` on `g` against `want` and the
/// naive scan, under both column layouts and each of the three attribute
/// lists, and on `g` appended one point where two fresh nodes meet against
/// the naive scan alone.
fn assert_threshold(
    g: &TemporalGraph,
    event: Event,
    selector: Selector,
    stat: ThresholdStat,
    want: Option<u64>,
) {
    let mut patch = TimepointPatch::new("appended");
    for fresh in ["fresh0", "fresh1"] {
        patch.set_time_varying(fresh, level_attr(g), Value::Int(1));
    }
    patch.add_edge("fresh0", "fresh1");
    let appended = GraphVersions::new(g.clone())
        .append_timepoint(&patch)
        .unwrap();
    for (graphs, want) in [
        (both_layouts(g), Some(want)),
        (both_layouts(&appended), None),
    ] {
        for g in &graphs {
            for attrs in attr_sets(g) {
                let cfg = ExploreConfig {
                    event,
                    extend: ExtendSide::New,
                    semantics: Semantics::Union,
                    k: 0,
                    attrs,
                    selector: selector.clone(),
                };
                let got = initial_threshold(g, &cfg, stat).unwrap();
                let at = format!(
                    "{stat:?} {event:?} {selector:?} attrs={:?} {:?} {} points",
                    cfg.attrs,
                    g.sparse_mode(),
                    g.domain().len()
                );
                assert_eq!(got, naive_threshold(g, &cfg, stat), "{at}");
                if let Some(want) = want {
                    assert_eq!(got, want, "{at}");
                }
            }
        }
    }
}

/// The max scan keys pairs in descending `|K_i|` and stops at the first
/// whose `|K_i|` is at most the best weight. The largest keep set (pair 2,
/// six edges of six keys) holds weight 1; the max, 4, sits in pair 3; pair
/// 4 ties it with `|K_4| = 4` and need not be keyed. Pairs 0 and 1 keep one
/// edge each, so a scan in ascending `|K_i|` would stop at pair 1 with 1.
/// On the nodes, two per edge, pair 2 keeps 12 of weight 4 and pairs 3 and
/// 4 keep 8 each, the max 8 in pair 3.
#[test]
fn max_threshold_stops_at_a_keep_set_no_larger_than_the_best() {
    let g = kept_per_pair(&[
        &[(0, 0)],
        &[(1, 1)],
        &[(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)],
        &[(0, 0); 4],
        &[(1, 1), (1, 1), (2, 2), (2, 2)],
    ]);
    let max = ThresholdStat::Max;
    assert_threshold(&g, Event::Stability, Selector::AllEdges, max, Some(4));
    assert_threshold(&g, Event::Stability, Selector::AllNodes, max, Some(8));
}

/// The min scan keys pairs in index order and stops once the best weight
/// is 1. Pairs 0 and 1 hold minima 2 and 3, so a scan that stopped at 2
/// would answer 2; the first weight 1 is in pair 2 on the edges and in
/// pair 3 on the nodes.
#[test]
fn min_threshold_stops_at_weight_one_only() {
    let g = kept_per_pair(&[
        &[(0, 0), (0, 0)],
        &[(1, 1); 3],
        &[(0, 0), (0, 0), (2, 2)],
        &[(1, 2)],
    ]);
    let min = ThresholdStat::Min;
    assert_threshold(&g, Event::Stability, Selector::AllEdges, min, Some(1));
    assert_threshold(&g, Event::Stability, Selector::AllNodes, min, Some(1));
}

/// Under a difference event the node keep set holds the endpoints of the
/// kept edges (Definition 2.5), so `|K_i|` must count them. Four `k0`
/// nodes exist at two points, and the two edges between them at only one:
/// the pair where those edges appear (growth) or vanish (shrinkage) keeps
/// the four nodes by rescue alone, weight 4, while the other pair keeps
/// three `k1` nodes that appear or vanish themselves, weight 3. A sizing
/// step that left the rescue out would take 3 for the max.
#[test]
fn max_threshold_sizes_the_rescued_nodes() {
    let nodes = |x: std::ops::Range<u32>, y: std::ops::Range<u32>| {
        let xs = ["x1", "x2", "x3", "x4"].map(|n| (n, 0, x.clone()));
        let ys = ["y1", "y2", "y3"].map(|n| (n, 1, y.clone()));
        xs.into_iter().chain(ys).collect::<Vec<_>>()
    };
    let edges = [("x1", "x2", 1..2), ("x3", "x4", 1..2)];
    let growth = by_hand(3, &nodes(0..2, 2..3), &edges);
    let shrinkage = by_hand(3, &nodes(1..3, 0..1), &edges);
    for (g, event) in [(growth, Event::Growth), (shrinkage, Event::Shrinkage)] {
        let (nodes, edges) = (Selector::AllNodes, Selector::AllEdges);
        assert_threshold(&g, event, nodes.clone(), ThresholdStat::Max, Some(4));
        assert_threshold(&g, event, nodes, ThresholdStat::Min, Some(3));
        assert_threshold(&g, event, edges.clone(), ThresholdStat::Max, Some(2));
        assert_threshold(&g, event, edges, ThresholdStat::Min, Some(2));
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
    let mut cursor = ChainCursor::new(&g, &cfg);
    assert_eq!(
        cursor.evaluate_chain_pair(0, 0),
        2,
        "a and c vanish after t0"
    );
    assert_eq!(cursor.keep_chain_pair(0, 0).1.count_ones(), 2);
    assert_eq!(
        cursor.evaluate_chain_pair(1, 0),
        0,
        "t1 and t2 are both empty"
    );
    assert!(cursor.keep_chain_pair(1, 0).1.is_zero());
}

/// On an appended epoch the old presence columns are stored more than 64
/// entities short of the entity space, so the cursor copies its reference
/// column to full width (and the column folds zero-extend) where the
/// proptests' graphs never make it: both cursors against the oracle for
/// every Table-1 configuration, and `event_mask` against the row-wise
/// oracle on sides before, across and after the appended point.
#[test]
fn cursors_match_oracle_on_appended_epochs() {
    let g = RandomGraphConfig {
        pool: 150,
        timepoints: 5,
        active_per_tp: 90,
        edges_per_tp: 120,
        node_persistence: 0.6,
        edge_persistence: 0.5,
        kinds: 3,
        levels: 4,
        seed: 5,
    }
    .generate()
    .unwrap();
    let level = level_attr(&g);
    let mut patch = TimepointPatch::new("appended");
    for i in 0..80 {
        let fresh = format!("fresh{i}");
        patch.set_time_varying(fresh.clone(), level, Value::Int(i % 4 + 1));
        patch.add_edge(fresh, format!("n{}", i % 40));
    }
    let appended = both_layouts(&g).map(|g| {
        let g = GraphVersions::new(g).append_timepoint(&patch).unwrap();
        Arc::unwrap_or_clone(g)
    });
    let g = &appended[0];
    assert!(g.node_presence_columns().col(0).len() + 64 < g.n_nodes());
    for cfg in table1_configs(g, &attr_sets(g), 1) {
        assert_cursors_match_oracle(&appended, &cfg).unwrap();
    }
    let n = g.domain().len();
    let point = |t: usize| TimeSet::range(n, t, t);
    let sides = [
        point(0),
        point(n - 2),
        point(n - 1),
        TimeSet::range(n, 0, 2),
        TimeSet::range(n, 3, n - 1),
        g.domain().all(),
    ];
    for g in &appended {
        for event in EVENTS {
            for told in &sides {
                for tnew in &sides {
                    for (old_test, new_test) in TESTS.iter().flat_map(|&o| TESTS.map(|n| (o, n))) {
                        let mask = event_mask(g, event, told, tnew, old_test, new_test).unwrap();
                        let (nodes, edges) =
                            event_mask_rowwise(g, event, told, tnew, old_test, new_test);
                        let at = format!("{event:?} {old_test:?}/{new_test:?} {told:?} {tnew:?}");
                        assert_eq!(mask.keep_nodes(), &nodes, "{at} {:?}", g.sparse_mode());
                        assert_eq!(mask.keep_edges(), &edges, "{at} {:?}", g.sparse_mode());
                    }
                }
            }
        }
    }
}

/// A graph whose presence columns end at different words, the way entity
/// ids handed out in order of first appearance make them: the nodes of
/// point `t` lie below `ENDS[t]` (less a few holes), so the node columns
/// end at words 1, 3, 5, 2, 6 and 4, and each edge column ends where the
/// first-seen id of its last edge sits.
fn uneven_widths() -> TemporalGraph {
    const ENDS: [usize; 6] = [70, 200, 330, 140, 400, 260];
    let mut schema = AttributeSchema::new();
    let kind = schema.declare("kind", Temporality::Static).unwrap();
    let level = schema.declare("level", Temporality::TimeVarying).unwrap();
    let mut b = GraphBuilder::new(TimeDomain::indexed(ENDS.len()), schema);
    let ids: Vec<NodeId> = (0..400)
        .map(|i| b.get_or_add_node(&format!("n{i}")))
        .collect();
    for (i, &u) in ids.iter().enumerate() {
        let k = b.intern_category(kind, &format!("k{}", i % 3));
        b.set_static(u, kind, k).unwrap();
    }
    for (t, &end) in ENDS.iter().enumerate() {
        let present = |i: usize| i < end && (i * 13 + t) % 11 != 5;
        let at = TimePoint(t as u32);
        for i in (0..400).filter(|&i| present(i)) {
            b.set_presence(ids[i], at).unwrap();
            let x = Value::Int(((i + t) % 3 + 1) as i64);
            b.set_time_varying(ids[i], level, at, x).unwrap();
        }
        for i in (0..400).filter(|&i| present(i)) {
            let p = (i * 7 + 3) % 400;
            if p != i && present(p) {
                b.add_edge_at(ids[i], ids[p], at).unwrap();
            }
        }
    }
    b.build().unwrap()
}

/// On [`uneven_widths`], the extended side of a chain grows past the
/// reference column's width and shrinks below it, and `event_words` meets
/// the shorter side on either hand, for every event, with rescue under the
/// difference events: both cursors against the oracle for every Table-1
/// configuration in both layouts, and `event_mask` against the row-wise
/// oracle on every pair of points and of two-point runs.
#[test]
fn cursors_match_oracle_on_uneven_stored_widths() {
    let g = uneven_widths();
    let widths = |g: &TemporalGraph| {
        let nodes = (0..6).map(|t| g.node_presence_columns().col(t).len());
        nodes.collect::<Vec<_>>()
    };
    assert_eq!(widths(&g), [128, 256, 384, 192, 400, 320]);
    let edges: Vec<usize> = (0..6)
        .map(|t| g.edge_presence_columns().col(t).len())
        .collect();
    assert!(edges.windows(2).any(|w| w[1] < w[0]), "{edges:?}");
    let layouts = both_layouts(&g);
    for cfg in table1_configs(&g, &attr_sets(&g), 1) {
        assert_cursors_match_oracle(&layouts, &cfg).unwrap();
    }
    let n = g.domain().len();
    let mut sides: Vec<TimeSet> = (0..n).map(|t| TimeSet::range(n, t, t)).collect();
    sides.extend((0..n - 1).map(|t| TimeSet::range(n, t, t + 1)));
    for g in &layouts {
        for event in EVENTS {
            for told in &sides {
                for tnew in &sides {
                    for (old_test, new_test) in TESTS.iter().flat_map(|&o| TESTS.map(|n| (o, n))) {
                        let mask = event_mask(g, event, told, tnew, old_test, new_test).unwrap();
                        let (nodes, edges) =
                            event_mask_rowwise(g, event, told, tnew, old_test, new_test);
                        let at = format!("{event:?} {old_test:?}/{new_test:?} {told:?} {tnew:?}");
                        assert_eq!(mask.keep_nodes(), &nodes, "{at} {:?}", g.sparse_mode());
                        assert_eq!(mask.keep_edges(), &edges, "{at} {:?}", g.sparse_mode());
                    }
                }
            }
        }
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
    assert!(explore_naive(&g, &cfg).is_err());
    assert!(suggest_k(&g, &cfg).is_err());
}

/// The graphs the walk tests below share, where the proptests' graphs (at
/// most 39 nodes and 6 points) never reach: hundreds of nodes, so the kept
/// entities span several 64-entity words, and 70–130 points, so a scope
/// spans two 64-point chunks. Each graph comes under both column layouts
/// and, appended one point, with the old presence columns zero-extended
/// (again under both layouts): its one new node starts a word of its own.
fn walk_graphs() -> Vec<TemporalGraph> {
    let mut graphs = Vec::new();
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
        graphs.extend(both_layouts(&g));
        // the appended epoch carries the old columns forward unwidened
        let mut patch = TimepointPatch::new("appended");
        let level = level_attr(&g);
        patch.set_time_varying("fresh", level, Value::Int(2));
        patch.add_edge("fresh", "n0").add_edge("n1", "fresh");
        let g = GraphVersions::new(g).append_timepoint(&patch).unwrap();
        for g in both_layouts(&g) {
            assert!(g.node_presence_columns().col(0).len() < g.n_nodes());
            graphs.push(g);
        }
    }
    graphs
}

/// [`walk_graphs`], each with a 𝒯₁ and a 𝒯₂ that leave a one-point gap
/// between them (on an appended epoch the appended point is in 𝒯₂), so
/// that 𝒯₁ ∪ 𝒯₂ spans two 64-point chunks; and the returning tuple under
/// both layouts, whose one entity's key goes A → (absent) → B → A.
fn walk_cases() -> Vec<(TemporalGraph, TimeSet, TimeSet)> {
    let mut cases = Vec::new();
    for g in walk_graphs() {
        let n = g.domain().len();
        let (t1, t2) = (
            TimeSet::range(n, 0, n / 3),
            TimeSet::range(n, n / 3 + 2, n - 1),
        );
        assert!(t1.len() + t2.len() > 64);
        cases.push((g, t1, t2));
    }
    let (t1, t2) = (TimeSet::range(4, 0, 1), TimeSet::range(4, 2, 3));
    for g in both_layouts(&returning_tuple()) {
        cases.push((g, t1.clone(), t2.clone()));
    }
    cases
}

/// `evolution_aggregate` against its oracle on [`walk_graphs`] for every
/// way the two sides can lie: overlapping, 𝒯₂ entirely before 𝒯₁, equal,
/// and interleaved (even points against odd ones, so both sides run
/// through every 64-point chunk) — on every list, with and without a
/// `level >= 2` filter.
#[test]
fn evolution_matches_oracle_on_every_side_shape() {
    for g in walk_graphs() {
        let n = g.domain().len();
        let range = |first: usize, last: usize| TimeSet::range(n, first, last);
        let parity = |p: usize| TimeSet::from_indices(n, (p..n).step_by(2));
        let shapes = [
            ("overlapping", range(0, 2 * n / 3), range(n / 3, n - 1)),
            ("reversed", range(n / 2, n - 1), range(0, n / 2 - 1)),
            ("equal", range(n / 4, n - 1), range(n / 4, n - 1)),
            ("interleaved", parity(0), parity(1)),
        ];
        let level = level_attr(&g);
        let filter = move |gr: &TemporalGraph, n: NodeId, t: TimePoint| {
            gr.attr_value(n, level, t).as_int().is_some_and(|v| v >= 2)
        };
        for (shape, t1, t2) in &shapes {
            for attrs in attr_sets(&g) {
                for f in [None, Some(&filter as &NodeTimeFilter<'_>)] {
                    assert_eq!(
                        evolution_aggregate(&g, t1, t2, &attrs, f).unwrap(),
                        evolution_aggregate_naive(&g, t1, t2, &attrs, f).unwrap(),
                        "{shape} over {n} points, {attrs:?} filtered {}",
                        f.is_some()
                    );
                }
            }
        }
    }
}

/// The walk of a scope's own columns (no keep set) on [`walk_cases`], on
/// the static, time-varying and mixed lists, over one side (𝒯₁), 𝒯₁ ∪ 𝒯₂
/// and the whole domain: ALL and DIST `aggregate_union` against the walk
/// under the union's keep set (`aggregate_masked` of
/// `event_mask(Stability, s, s, Any, Any)`) and against `aggregate` of the
/// materialized `union`. The two-sided walk, `evolution_aggregate` between
/// 𝒯₁ and 𝒯₂, counts each (entity, tuple) of 𝒯₁ ∪ 𝒯₂ under one class, so
/// its three weights add up to the DIST weights under the keep set; with
/// and without a filter it matches its oracle.
#[test]
fn scope_walk_matches_keep_set_walk() {
    let (any, dist) = (SideTest::Any, AggMode::Distinct);
    for (g, t1, t2) in walk_cases() {
        let level = level_attr(&g);
        let filter = move |gr: &TemporalGraph, n: NodeId, t: TimePoint| {
            gr.attr_value(n, level, t).as_int().is_some_and(|v| v >= 2)
        };
        let domain = g.domain().all();
        for (a, b) in [(&t1, &t1), (&t1, &t2), (&domain, &domain)] {
            let scope = a.union(b);
            let mask = event_mask(&g, Event::Stability, &scope, &scope, any, any).unwrap();
            // the union over the whole domain is the graph itself
            let sub = (a != &domain).then(|| union(&g, a, b).unwrap());
            let sub = sub.as_ref().unwrap_or(&g);
            for attrs in attr_sets(&g) {
                let table = GroupTable::cached(&g, &attrs);
                for mode in [AggMode::All, dist] {
                    let walked = table.aggregate_union(&g, &scope, mode);
                    let what = format!("{mode:?} {attrs:?} over {} points", scope.len());
                    assert_eq!(walked, table.aggregate_masked(&g, &mask, mode), "{what}");
                    assert_eq!(walked, aggregate(sub, &attrs, mode), "{what}");
                }
            }
        }
        let both = t1.union(&t2);
        let mask = event_mask(&g, Event::Stability, &both, &both, any, any).unwrap();
        let classes = |w: EvolutionWeights| w.stability + w.growth + w.shrinkage;
        for attrs in attr_sets(&g) {
            let kept = GroupTable::cached(&g, &attrs).aggregate_masked(&g, &mask, dist);
            let evo = evolution_aggregate(&g, &t1, &t2, &attrs, None).unwrap();
            let nodes = evo.iter_nodes().into_iter().map(|(t, w)| (t, classes(w)));
            let edges = evo.iter_edges().into_iter().map(|(p, w)| (p, classes(w)));
            assert!(nodes.eq(kept.iter_nodes()), "{attrs:?}");
            assert!(edges.eq(kept.iter_edges()), "{attrs:?}");
            for f in [None, Some(&filter as &NodeTimeFilter<'_>)] {
                assert_eq!(
                    evolution_aggregate(&g, &t1, &t2, &attrs, f).unwrap(),
                    evolution_aggregate_naive(&g, &t1, &t2, &attrs, f).unwrap(),
                    "{attrs:?} filtered {}",
                    f.is_some()
                );
            }
        }
    }
}

/// The DIST walk against its oracles on [`walk_cases`].
#[test]
fn distinct_walk_crosses_words_and_chunks() {
    for (g, t1, t2) in walk_cases() {
        assert_walks_match_oracles(&g, &t1, &t2);
    }
}

/// The ALL walk against its oracles on [`walk_cases`]: `aggregate_masked`
/// under each event between 𝒯₁ and 𝒯₂ (whose keep sets leave out entities
/// present within the scope) against `aggregate` of the event graph, every
/// cube level over 𝒯₁ ∪ 𝒯₂ against `rollup` of the base level's ALL
/// aggregate, and whole-domain `aggregate_measure` against `naive_measure`,
/// its COUNT edges in full against the ALL aggregate.
#[test]
fn all_walk_crosses_words_and_chunks() {
    for (g, t1, t2) in walk_cases() {
        let (all, any) = (AggMode::All, SideTest::Any);
        for event in EVENTS {
            let mask = event_mask(&g, event, &t1, &t2, any, any).unwrap();
            let sub = event_graph(&g, event, &t1, &t2, any, any).unwrap();
            for attrs in attr_sets(&g) {
                #[allow(clippy::disallowed_methods)] // the oracle side builds its table uncached
                let table = GroupTable::build(&g, &attrs);
                let want = aggregate(&sub, &attrs, all);
                assert_eq!(
                    table.aggregate_masked(&g, &mask, all),
                    want,
                    "{event:?} {attrs:?}"
                );
            }
        }
        let base = vec![kind_attr(&g), level_attr(&g)];
        let scope = t1.union(&t2);
        let union_all = aggregate(&union(&g, &t1, &t2).unwrap(), &base, all);
        let cube = GraphCube::build(&g, &base, 1);
        for attrs in attr_sets(&g) {
            let names: Vec<&str> = attrs.iter().map(|&a| g.schema().def(a).name()).collect();
            let level = Level::new(names.clone());
            let want = rollup(&union_all, &names).unwrap();
            assert_eq!(cube.query(&level, &scope).unwrap(), want, "{level:?}");
        }
        let level = level_attr(&g);
        for attrs in attr_sets(&g) {
            for (spec, node, reduce) in node_measures(level) {
                let got = aggregate_measure(&g, &attrs, node, EdgeMeasure::Count).unwrap();
                let want = naive_measure(&g, &attrs, spec, reduce, Reduce::Count);
                assert_eq!(render_measure(&g, &attrs, spec, &got), want, "{attrs:?}");
            }
            let (count, node) = (EdgeMeasure::Count, NodeMeasure::Count);
            let counts = aggregate_measure(&g, &attrs, node, count).unwrap();
            let weights = aggregate(&g, &attrs, all);
            assert_eq!(counts.iter_edges().len(), weights.n_edges(), "{attrs:?}");
            for ((s, d), w) in weights.iter_edges() {
                assert_eq!(counts.edge(s, d), Some(w as f64), "{attrs:?}");
            }
        }
    }
}

/// `measure` where the random graphs do not reach: a static integer
/// attribute with `Null` cells and negative values, and edge values, on
/// more than 64 nodes under both column layouts and on an appended epoch
/// whose edge values and static cells take codes past its parent's
/// dictionaries. Every node and edge reduction is checked against
/// `naive_measure`, grouped so that no reply has more than the ten edge
/// rows `measure` prints.
#[test]
fn measure_reads_static_numbers_and_appended_edge_values() {
    let mut schema = AttributeSchema::new();
    let kind = schema.declare("kind", Temporality::Static).unwrap();
    let score = schema.declare("score", Temporality::Static).unwrap();
    let level = schema.declare("level", Temporality::TimeVarying).unwrap();
    let mut b = GraphBuilder::new(TimeDomain::indexed(5), schema);
    let n = 150;
    let name = |i: usize| format!("n{i}");
    let ids: Vec<NodeId> = (0..n).map(|i| b.get_or_add_node(&name(i))).collect();
    for (i, &u) in ids.iter().enumerate() {
        let k = b.intern_category(kind, &format!("k{}", i % 3));
        b.set_static(u, kind, k).unwrap();
        if i % 7 != 0 {
            // every seventh score stays Null
            b.set_static(u, score, Value::Int(i as i64 % 11 - 5))
                .unwrap();
        }
        for t in (0..5).filter(|t| (i + t) % 3 != 0) {
            let x = Value::Int(((i + t) % 4) as i64);
            b.set_time_varying(u, level, TimePoint(t as u32), x)
                .unwrap();
        }
    }
    for (i, &u) in ids.iter().enumerate() {
        let v = ids[(i * 7 + 1) % n];
        for t in (0..5).filter(|t| (i + 2 * t) % 4 != 0) {
            let t = TimePoint(t as u32);
            match i % 5 {
                // an edge without a value counts but observes nothing
                0 => b.add_edge_at(u, v, t).unwrap(),
                r => b.set_edge_value(u, v, t, Value::Int(r as i64 - 3)).unwrap(),
            }
        }
    }
    let g = b.build().unwrap();
    let mut patch = TimepointPatch::new("appended");
    for i in (0..n).step_by(4) {
        let v = (i * 7 + 1) % n;
        patch.set_edge_value(name(i), name(v), Value::Int(100 + i as i64));
    }
    patch.set_static("fresh", score, Value::Int(-40));
    patch.set_static("fresh", kind, g.schema().category(kind, "k0").unwrap());
    patch.set_edge_value("fresh", "n3", Value::Int(-100));
    for g in both_layouts(&g) {
        let appended = GraphVersions::new(g.clone())
            .append_timepoint(&patch)
            .unwrap();
        let values = |g: &TemporalGraph| g.edge_values_matrix().unwrap().dict().len();
        assert!(values(&appended) > values(&g));
        for g in [&g, &*appended] {
            for attrs in [vec![kind], vec![kind, score]] {
                for (spec, node, reduce) in node_measures(score) {
                    for (edge, edge_reduce) in EDGE_MEASURES {
                        let got = aggregate_measure(g, &attrs, node, edge).unwrap();
                        let want = naive_measure(g, &attrs, spec, reduce, edge_reduce);
                        let got = render_measure(g, &attrs, spec, &got);
                        assert_eq!(got, want, "{spec} {edge:?} {attrs:?}");
                    }
                }
            }
        }
    }
}

/// A `node=` spec, its measure, and its oracle's reduction.
type NodeCase = (&'static str, NodeMeasure, (Reduce, Option<AttrId>));

/// Each node measure of `attr`.
fn node_measures(attr: AttrId) -> [NodeCase; 5] {
    [
        ("count", NodeMeasure::Count, (Reduce::Count, None)),
        ("sum", NodeMeasure::Sum(attr), (Reduce::Sum, Some(attr))),
        ("min", NodeMeasure::Min(attr), (Reduce::Min, Some(attr))),
        ("max", NodeMeasure::Max(attr), (Reduce::Max, Some(attr))),
        ("avg", NodeMeasure::Avg(attr), (Reduce::Avg, Some(attr))),
    ]
}

const EDGE_MEASURES: [(EdgeMeasure, Reduce); 5] = [
    (EdgeMeasure::Count, Reduce::Count),
    (EdgeMeasure::SumValues, Reduce::Sum),
    (EdgeMeasure::MinValues, Reduce::Min),
    (EdgeMeasure::MaxValues, Reduce::Max),
    (EdgeMeasure::AvgValues, Reduce::Avg),
];

/// A measure as `measure` prints it (and `naive_measure` renders it).
fn render_measure(g: &TemporalGraph, group: &[AttrId], spec: &str, m: &MeasureAggregate) -> String {
    let mut out = format!("measure {spec} grouped by ({})\n", m.attr_names().join(","));
    for (tuple, v) in m.iter_nodes() {
        out += &format!("  node {} = {v:.3}\n", render_tuple(g, group, tuple));
    }
    for ((s, d), v) in m.iter_edges().into_iter().take(10) {
        let (s, d) = (render_tuple(g, group, s), render_tuple(g, group, d));
        out += &format!("  edge {s} -> {d} = {v:.3}\n");
    }
    out.trim_end().to_owned()
}

/// DIST `aggregate_masked` over the union 𝒯₁ ∪ 𝒯₂ against the
/// materialized union graph, on the static, time-varying and mixed lists.
fn assert_walks_match_oracles(g: &TemporalGraph, t1: &TimeSet, t2: &TimeSet) {
    let scope = t1.union(t2);
    let any = SideTest::Any;
    let mask = event_mask(g, Event::Stability, &scope, &scope, any, any).unwrap();
    let sub = event_graph(g, Event::Stability, &scope, &scope, any, any).unwrap();
    for attrs in attr_sets(g) {
        #[allow(clippy::disallowed_methods)] // the oracle side builds its table uncached
        let table = GroupTable::build(g, &attrs);
        let dist = aggregate(&sub, &attrs, AggMode::Distinct);
        assert_eq!(
            table.aggregate_masked(g, &mask, AggMode::Distinct),
            dist,
            "{attrs:?}"
        );
    }
}

/// Per point, what the repeat index must list: `(entity, prev)` for each
/// appearance whose key the entity showed at an earlier point, `prev` the
/// latest one, in entity order. `keys[e][t]` is entity `e`'s key at `t`,
/// `None` where it is absent.
fn scanned_repeats<K: PartialEq>(keys: &[Vec<Option<K>>], n: usize) -> Vec<Vec<(u32, u32)>> {
    (0..n)
        .map(|t| {
            let mut at = Vec::new();
            for (e, row) in keys.iter().enumerate() {
                let Some(key) = &row[t] else { continue };
                if let Some(prev) = (0..t).rev().find(|&p| row[p].as_ref() == Some(key)) {
                    at.push((e as u32, prev as u32));
                }
            }
            at
        })
        .collect()
}

/// Both sides' repeat indexes of `g` on `attrs` against [`scanned_repeats`]
/// of keys read off `attr_value`: a node's tuple, and an edge's ordered
/// pair of its endpoints' tuples.
fn assert_repeats_match_scan(g: &TemporalGraph, attrs: &[AttrId]) -> Result<(), TestCaseError> {
    let n = g.domain().len();
    let tuple = |v: NodeId, t: TimePoint| -> Vec<Value> {
        attrs.iter().map(|&a| g.attr_value(v, a, t)).collect()
    };
    let node_keys: Vec<Vec<_>> = (0..g.n_nodes())
        .map(|v| {
            let v = NodeId(v as u32);
            g.domain()
                .iter()
                .map(|t| g.node_alive_at(v, t).then(|| tuple(v, t)))
                .collect()
        })
        .collect();
    let edge_keys: Vec<Vec<_>> = (0..g.n_edges())
        .map(|e| {
            let e = EdgeId(e as u32);
            let (u, v) = g.edge_endpoints(e);
            g.domain()
                .iter()
                .map(|t| g.edge_alive_at(e, t).then(|| (tuple(u, t), tuple(v, t))))
                .collect()
        })
        .collect();
    let cols = g.group_columns(attrs);
    let sides = [
        (
            "nodes",
            cols.node_repeats(g),
            scanned_repeats(&node_keys, n),
        ),
        (
            "edges",
            cols.edge_repeats(g),
            scanned_repeats(&edge_keys, n),
        ),
    ];
    for (side, repeats, want) in sides {
        for (t, want) in want.iter().enumerate() {
            prop_assert_eq!(
                repeats.at(t),
                &want[..],
                "{} at t{} on {:?}",
                side,
                t,
                attrs
            );
        }
        prop_assert_eq!(repeats.len(), want.iter().map(Vec::len).sum::<usize>());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The repeat index of each side, on the static, time-varying and
    /// mixed lists, lists exactly the appearances a scan of every (entity,
    /// point) finds, with the latest earlier point of the same key — on a
    /// random graph, and on its next epoch, whose group ids extend the
    /// first's and whose appended point gives old nodes new and old
    /// `level` values and old and new nodes edges.
    #[test]
    fn repeat_index_matches_a_scan(
        g in graph_strategy(),
        levels in proptest::collection::vec((0usize..45, 1i64..5), 0..8),
        edges in proptest::collection::vec((0usize..45, 0usize..45), 0..8),
    ) {
        let lists = attr_sets(&g);
        for attrs in &lists {
            assert_repeats_match_scan(&g, attrs)?;
        }
        let level = level_attr(&g);
        let mut patch = TimepointPatch::new("appended");
        for (v, x) in levels {
            patch.set_time_varying(format!("n{v}"), level, Value::Int(x));
        }
        for (u, v) in edges.into_iter().filter(|(u, v)| u != v) {
            patch.add_edge(format!("n{u}"), format!("n{v}"));
        }
        let next = GraphVersions::new(g).append_timepoint(&patch).unwrap();
        for attrs in &lists {
            assert_repeats_match_scan(&next, attrs)?;
        }
    }
}

/// The All selectors' count on the returning tuple (`u` and `u → v` carry
/// `level` 1 at t0, are absent at t1, carry 2 at t2 and 1 again at t3), in
/// both layouts: the cursor against the materializing oracle at every chain
/// coordinate of the twelve Table-1 rows, on the time-varying and the mixed
/// list. The t3 appearance repeats the key of t0, so a scope that starts
/// at t0 counts it once and one that starts at t2 counts it anew.
#[test]
fn a_returning_tuple_counts_from_where_the_scope_starts() {
    let layouts = both_layouts(&returning_tuple());
    let g = &layouts[0];
    let lists = [vec![level_attr(g)], vec![kind_attr(g), level_attr(g)]];
    let all = |cfg: &ExploreConfig| matches!(cfg.selector, Selector::AllNodes | Selector::AllEdges);
    let configs: Vec<ExploreConfig> = table1_configs(g, &lists, 1)
        .into_iter()
        .filter(all)
        .collect();
    assert_eq!(configs.len(), 2 * 2 * 12);
    for cfg in &configs {
        assert_cursors_match_oracle(&layouts, cfg).unwrap();
    }
    let edges = |event, extend| ExploreConfig {
        event,
        extend,
        semantics: Semantics::Union,
        k: 1,
        attrs: lists[0].clone(),
        selector: Selector::AllEdges,
    };
    // ({t0}, {t1..t3}) under stability scopes t0..t3: keys 1, 2, 1
    let stability = edges(Event::Stability, ExtendSide::New);
    // ({t1}, {t2, t3}) under growth scopes t2..t3: keys 2, 1
    let growth = edges(Event::Growth, ExtendSide::New);
    for g in &layouts {
        assert_eq!(ChainCursor::new(g, &stability).evaluate_chain_pair(0, 2), 2);
        assert_eq!(ChainCursor::new(g, &growth).evaluate_chain_pair(1, 1), 2);
    }
}
