//! Concurrency regression test for the headline bugfix of this PR: with
//! sparse-mode now explicit per-graph state (no process-global environment
//! reads during presence-column builds), any number of sessions sharing one
//! `Arc<TemporalGraph>` — or holding graphs with *different* forced modes —
//! must produce bit-identical results to a serial run.
//!
//! The sessions also share the snapshot's group-id cache: every thread
//! aggregates the same attribute lists, each starting at a different one,
//! so first requests race to build and insert the same columns.

use graphtempo::aggregate::{aggregate, GroupTable};
use graphtempo::evolution::evolution_aggregate;
use graphtempo::explore::{explore, ExploreConfig, ExtendSide, Selector, Semantics};
use graphtempo::ops::{event_mask, Event, SideTest};
use graphtempo::zoom::{zoom_out, Granularity};
use graphtempo::AggMode;
use std::sync::Arc;
use tempo_columnar::SparseMode;
use tempo_datagen::DblpConfig;
use tempo_graph::{TemporalGraph, TimeSet};
use tempo_testkit::both_layouts;

fn test_graph() -> TemporalGraph {
    DblpConfig::scaled(0.02)
        .generate()
        .expect("DBLP generator at test scale")
}

/// The full query mix one "session" runs: every Table-1 exploration
/// strategy, an attribute aggregation, and a zoom-out summary — rendered
/// into comparable strings. `first` rotates which attribute list the
/// cached-group-id queries start with; the output order does not depend on
/// it.
fn workload(g: &TemporalGraph, first: usize) -> Vec<String> {
    let gender = g
        .schema()
        .id("gender")
        .expect("dblp graphs carry a gender attribute");
    let mut out = Vec::new();
    for event in [Event::Stability, Event::Growth, Event::Shrinkage] {
        for extend in [ExtendSide::Old, ExtendSide::New] {
            for semantics in [Semantics::Union, Semantics::Intersection] {
                let cfg = ExploreConfig {
                    event,
                    extend,
                    semantics,
                    k: 2,
                    attrs: vec![gender],
                    selector: Selector::AllNodes,
                };
                let outcome = explore(g, &cfg).expect("explore");
                out.push(format!(
                    "{event:?}/{extend:?}/{semantics:?}: {} pairs, {} evals",
                    outcome.pairs.len(),
                    outcome.evaluations
                ));
            }
        }
    }
    let agg = aggregate(g, &[gender], AggMode::Distinct);
    out.push(format!(
        "agg: {} groups, {} node weight, {} edge weight",
        agg.n_nodes(),
        agg.total_node_weight(),
        agg.total_edge_weight()
    ));
    let pubs = g
        .schema()
        .id("publications")
        .expect("dblp graphs carry a publications attribute");
    let lists = [
        vec![gender],
        vec![pubs],
        vec![gender, pubs],
        vec![pubs, gender],
    ];
    let n = g.domain().len();
    let (t1, t2) = (TimeSet::range(n, 0, n / 2), TimeSet::range(n, n / 2, n - 1));
    let mask = event_mask(g, Event::Shrinkage, &t1, &t2, SideTest::Any, SideTest::Any)
        .expect("non-empty sides");
    let mut cached = vec![String::new(); lists.len()];
    for i in (0..lists.len()).map(|i| (i + first) % lists.len()) {
        let agg = GroupTable::cached(g, &lists[i]).aggregate_masked(g, &mask, AggMode::All);
        let evo = evolution_aggregate(g, &t1, &t2, &lists[i], None).expect("evolution");
        cached[i] = format!(
            "list {i}: {:?} {:?} / {:?} {:?}",
            agg.iter_nodes(),
            agg.iter_edges(),
            evo.iter_nodes(),
            evo.iter_edges()
        );
    }
    out.extend(cached);
    let gran = Granularity::windows(g.domain(), 3).expect("windowed granularity");
    let coarse = zoom_out(g, &gran, SideTest::Any).expect("zoom out");
    out.push(format!(
        "zoom: {} nodes, {} edges, {} points",
        coarse.n_nodes(),
        coarse.n_edges(),
        coarse.domain().len()
    ));
    out
}

#[test]
fn concurrent_sessions_match_serial_bit_for_bit() {
    let g = Arc::new(test_graph());
    // the serial reference runs on a graph of its own (the generator is
    // deterministic), so the shared snapshot's group-id cache is still cold
    // when the threads start
    let reference = workload(&test_graph(), 0);

    let start = std::sync::Barrier::new(8);
    let results: Vec<Vec<String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let (g, start) = (Arc::clone(&g), &start);
                s.spawn(move || {
                    start.wait();
                    workload(&g, i)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("session thread"))
            .collect()
    });

    for (i, r) in results.iter().enumerate() {
        assert_eq!(r, &reference, "concurrent session {i} diverged from serial");
    }
}

#[test]
fn mixed_sparse_modes_coexist_in_one_process() {
    // Before this PR a single process-global env var decided the column
    // representation for every graph, lazily, at first use — two graphs
    // with different intended modes could not coexist. Now each graph
    // carries its mode, so forcing them in opposite directions in the same
    // process (and querying them concurrently) must still agree on results.
    let [dense, sparse] = both_layouts(&test_graph()).map(Arc::new);
    assert_eq!(sparse.sparse_mode(), SparseMode::ForceSparse);
    assert_eq!(dense.sparse_mode(), SparseMode::ForceDense);

    let (from_sparse, from_dense) = std::thread::scope(|s| {
        let a = {
            let g = Arc::clone(&sparse);
            s.spawn(move || workload(&g, 0))
        };
        let b = {
            let g = Arc::clone(&dense);
            s.spawn(move || workload(&g, 0))
        };
        (
            a.join().expect("sparse session"),
            b.join().expect("dense session"),
        )
    });

    assert_eq!(
        from_sparse, from_dense,
        "column representation must never change query answers"
    );
}
