//! End-to-end check that the declared metrics agree with the values the
//! public APIs report. Runs as its own integration-test binary (and
//! deliberately as a single `#[test]`) because the metrics are
//! process-global: sibling tests running in parallel would perturb exact
//! counter deltas.

use graphtempo::aggregate::GroupTable;
use graphtempo::explore::{
    explore, initial_threshold, ExploreConfig, ExtendSide, Selector, Semantics, ThresholdStat,
};
use graphtempo::materialize::TimepointStore;
use graphtempo::ops::Event;
use tempo_columnar::Value;
use tempo_datagen::RandomGraphConfig;
use tempo_graph::{GraphStats, GraphVersions, TemporalGraph, TimepointPatch};
use tempo_testkit::kept_per_pair;

fn graph() -> TemporalGraph {
    RandomGraphConfig {
        pool: 40,
        timepoints: 6,
        active_per_tp: 20,
        edges_per_tp: 40,
        node_persistence: 0.6,
        edge_persistence: 0.5,
        kinds: 3,
        levels: 3,
        seed: 0xfeed,
    }
    .generate()
    .expect("random generator produces valid graphs")
}

#[test]
fn registry_matches_reported_outcomes() {
    let mut versions = GraphVersions::new(graph());
    let g = versions.current();
    let kind = g.schema().id("kind").expect("random graphs have `kind`");
    let ins = tempo_instrument::global();

    // -- exploration: counter and latency histograms track evaluations --
    let before = ins.snapshot();
    let mut expected_evals = 0u64;
    let mut runs = 0u64;
    for (event, extend) in [
        (Event::Stability, ExtendSide::New),
        (Event::Growth, ExtendSide::New),
        (Event::Shrinkage, ExtendSide::Old),
    ] {
        let cfg = ExploreConfig {
            event,
            extend,
            semantics: Semantics::Union,
            k: 1,
            attrs: vec![kind],
            selector: Selector::AllEdges,
        };
        let outcome = explore(&g, &cfg).expect("explore");
        expected_evals += outcome.evaluations as u64;
        runs += 1;
    }
    assert!(expected_evals > 0, "fixture must force real evaluations");
    let after = ins.snapshot();
    let delta = |name: &str| after.counter(name) - before.counter(name);
    assert_eq!(
        delta("explore.evaluations"),
        expected_evals,
        "counter must equal the sum of ExploreOutcome::evaluations"
    );
    let hist_delta = |name: &str| {
        after.histogram(name).map_or(0, |h| h.count) - before.histogram(name).map_or(0, |h| h.count)
    };
    // one latency sample per evaluation
    assert_eq!(hist_delta("explore.eval_ns"), expected_evals);
    // one cursor per explore() call, all over the one group table the
    // snapshot caches for the attribute list
    assert_eq!(hist_delta("explore.cursor.build_ns"), runs);
    assert_eq!(delta("aggregate.group_tables_built"), 1);
    assert_eq!(hist_delta("aggregate.group_table_build_ns"), 1);
    assert_eq!(delta("aggregate.group_table.cache_misses"), 1);
    assert_eq!(delta("aggregate.group_table.cache_hits"), runs - 1);
    // sequential exploration builds one chain cursor per run, loads one
    // chain per reference point, and (under the increasing strategies used
    // here, which walk each chain in ascending order) takes one incremental
    // step per evaluation beyond a chain's base pair
    let chains = runs * (g.domain().len() as u64 - 1);
    assert_eq!(delta("explore.cursor.builds"), runs);
    assert_eq!(delta("explore.cursor.chains"), chains);
    assert_eq!(delta("explore.cursor.steps"), expected_evals - chains);
    assert_eq!(
        hist_delta("explore.cursor.step_ns"),
        expected_evals - chains
    );
    // every pair of every chain is either evaluated or pruned
    let n = g.domain().len() as u64;
    assert_eq!(
        delta("explore.pruned"),
        runs * n * (n - 1) / 2 - expected_evals
    );

    // -- the snapshot's caches, across one append: a cached attribute list
    // is extended, not rebuilt, and each side's presence gains one column;
    // a tuple selector's match columns are built once per snapshot --
    let before = ins.snapshot();
    let mut patch = TimepointPatch::new("appended");
    patch.add_edge(g.node_name(tempo_graph::NodeId(0)), "newcomer");
    patch.set_static("newcomer", kind, Value::Cat(0));
    let next = versions.append_timepoint(&patch).expect("append");
    for _ in 0..2 {
        let _ = GroupTable::cached(&next, &[kind]);
    }
    let tuple = vec![Value::Cat(0)];
    for _ in 0..2 {
        let cfg = ExploreConfig {
            event: Event::Stability,
            extend: ExtendSide::New,
            semantics: Semantics::Union,
            k: 1,
            attrs: vec![kind],
            selector: Selector::NodeTuple(tuple.clone()),
        };
        explore(&next, &cfg).expect("explore with a tuple selector");
    }
    let after = ins.snapshot();
    let delta = |name: &str| after.counter(name) - before.counter(name);
    let nt = g.domain().len();
    for (cols, parent) in [
        (next.node_presence_columns(), g.node_presence_columns()),
        (next.edge_presence_columns(), g.edge_presence_columns()),
    ] {
        assert_eq!(cols.n_cols(), nt + 1);
        assert_eq!(cols.shared_cols(parent), nt);
    }
    assert_eq!(delta("aggregate.group_table.cache_extends"), 1);
    assert_eq!(delta("aggregate.group_table.cache_misses"), 0);
    assert_eq!(delta("aggregate.group_tables_built"), 0);
    // the second `cached` and the two cursors
    assert_eq!(delta("aggregate.group_table.cache_hits"), 3);
    assert_eq!(delta("explore.match_cols.builds"), 1);
    assert_eq!(delta("explore.match_cols.hits"), 1);

    // -- `stats` on that epoch counts the columns it carried forward --
    let stats = GraphStats::compute(&next);
    assert_eq!(stats.nodes_per_tp.len(), nt + 1);
    assert_eq!(
        stats.nodes_per_tp[nt],
        next.node_presence_columns().col(nt).count_ones()
    );

    // -- materialization: build latency --
    let before = ins.snapshot();
    let store = TimepointStore::build(&g, &[kind]);
    assert_eq!(store.len(), g.domain().len());
    let after = ins.snapshot();
    assert_eq!(
        after
            .histogram("materialize.store_build_ns")
            .map_or(0, |h| h.count)
            - before
                .histogram("materialize.store_build_ns")
                .map_or(0, |h| h.count),
        1
    );

    // -- §3.5's scan: one evaluation per sized pair and one per keyed pair.
    // The max sizes all five pairs, then keys pair 2 (|K| 6, weight 1) and
    // pair 3 (|K| 4, weight 4) and stops at pair 4 (|K| 4); the min keys
    // pairs 0 to 2 and stops at pair 2's weight 1; a tuple selector counts
    // every pair --
    let max_graph = kept_per_pair(&[
        &[(0, 0)],
        &[(1, 1)],
        &[(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)],
        &[(0, 0); 4],
        &[(1, 1), (1, 1), (2, 2), (2, 2)],
    ]);
    let min_graph = kept_per_pair(&[
        &[(0, 0), (0, 0)],
        &[(1, 1); 3],
        &[(0, 0), (0, 0), (2, 2)],
        &[(1, 2)],
    ]);
    for (g, selector, stat, w_th, evaluations) in [
        (&max_graph, Selector::AllEdges, ThresholdStat::Max, 4, 7),
        (&min_graph, Selector::AllEdges, ThresholdStat::Min, 1, 3),
        (&max_graph, Selector::AllNodes, ThresholdStat::Max, 8, 7),
        (&min_graph, Selector::AllNodes, ThresholdStat::Min, 1, 4),
        (
            &max_graph,
            Selector::EdgeTuple(vec![Value::Cat(0)], vec![Value::Cat(0)]),
            ThresholdStat::Max,
            4,
            5,
        ),
    ] {
        let cfg = ExploreConfig {
            event: Event::Stability,
            extend: ExtendSide::New,
            semantics: Semantics::Union,
            k: 0,
            attrs: vec![g
                .schema()
                .id("kind")
                .expect("hand-built graphs have `kind`")],
            selector,
        };
        let before = ins.snapshot();
        let got = initial_threshold(g, &cfg, stat).expect("two points or more");
        let after = ins.snapshot();
        assert_eq!(got, Some(w_th), "{stat:?} {:?}", cfg.selector);
        assert_eq!(
            after.counter("explore.evaluations") - before.counter("explore.evaluations"),
            evaluations,
            "{stat:?} {:?}",
            cfg.selector
        );
    }

    // -- the global gate suppresses all recording --
    let before = ins.snapshot();
    tempo_instrument::set_enabled(false);
    let cfg = ExploreConfig {
        event: Event::Stability,
        extend: ExtendSide::New,
        semantics: Semantics::Union,
        k: 1,
        attrs: vec![kind],
        selector: Selector::AllEdges,
    };
    let outcome = explore(&g, &cfg).expect("explore while disabled");
    tempo_instrument::set_enabled(true);
    assert!(outcome.evaluations > 0);
    let after = ins.snapshot();
    assert_eq!(
        after.counter("explore.evaluations"),
        before.counter("explore.evaluations"),
        "disabled registry must not record"
    );
}
