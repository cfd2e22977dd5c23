//! Criterion bench for the exploration strategies: monotonicity-pruned
//! U-/I-Explore vs naive enumeration of every interval pair.

use criterion::{criterion_group, criterion_main, Criterion};
use graphtempo::explore::{explore, explore_naive, ExploreConfig, ExtendSide, Selector, Semantics};
use graphtempo::ops::Event;
use std::sync::OnceLock;
use tempo_bench::datasets::{attrs, dblp};
use tempo_graph::TemporalGraph;

fn graph() -> &'static TemporalGraph {
    static G: OnceLock<TemporalGraph> = OnceLock::new();
    G.get_or_init(dblp)
}

fn bench(c: &mut Criterion) {
    let g = graph();
    let gender = attrs(g, &["gender"])[0];
    let f = g.schema().category(gender, "f").expect("category");
    let mut group = c.benchmark_group("explore_pruning");
    group.sample_size(10);
    for (name, event, extend, semantics, k) in [
        (
            "stability_union",
            Event::Stability,
            ExtendSide::New,
            Semantics::Union,
            50,
        ),
        (
            "stability_intersection",
            Event::Stability,
            ExtendSide::New,
            Semantics::Intersection,
            1,
        ),
        (
            "growth_union",
            Event::Growth,
            ExtendSide::New,
            Semantics::Union,
            100,
        ),
        (
            "shrinkage_union",
            Event::Shrinkage,
            ExtendSide::Old,
            Semantics::Union,
            100,
        ),
    ] {
        let cfg = ExploreConfig {
            event,
            extend,
            semantics,
            k,
            attrs: vec![gender],
            selector: Selector::edge_1attr(f.clone(), f.clone()),
        };
        group.bench_function(format!("pruned/{name}"), |b| {
            b.iter(|| explore(g, &cfg).expect("explore"))
        });
        group.bench_function(format!("naive/{name}"), |b| {
            b.iter(|| explore_naive(g, &cfg).expect("naive"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
