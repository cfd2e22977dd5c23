//! Ablation: the production aggregation against its oracle.
//!
//! * `masked` — cached group ids counted into dense accumulators under the
//!   whole-graph event mask (what `agg` runs; with all-static attributes it
//!   is the paper's §4.2 one-id-per-node shortcut);
//! * `direct` — hash aggregation of value tuples over the presence matrices
//!   (the oracle).
//!
//! Quantifies what interned group ids buy over hashing tuples.

use criterion::{criterion_group, criterion_main, Criterion};
use graphtempo::aggregate::{aggregate, AggMode, GroupTable};
use graphtempo::ops::{event_mask, Event, SideTest};
use std::sync::OnceLock;
use tempo_bench::datasets::{attrs, dblp};
use tempo_graph::TemporalGraph;

fn graph() -> &'static TemporalGraph {
    static G: OnceLock<TemporalGraph> = OnceLock::new();
    G.get_or_init(dblp)
}

fn bench(c: &mut Criterion) {
    let g = graph();
    let mut group = c.benchmark_group("ablation_agg_paths");
    group.sample_size(10);

    let gender = attrs(g, &["gender"]);
    let mixed = attrs(g, &["gender", "publications"]);
    let all = g.domain().all();
    let whole = event_mask(
        g,
        Event::Stability,
        &all,
        &all,
        SideTest::Any,
        SideTest::Any,
    )
    .expect("the domain is never empty");
    for mode in [AggMode::Distinct, AggMode::All] {
        let tag = match mode {
            AggMode::Distinct => "DIST",
            AggMode::All => "ALL",
        };
        group.bench_function(format!("direct/gender/{tag}"), |b| {
            b.iter(|| aggregate(g, &gender, mode))
        });
        group.bench_function(format!("masked/gender/{tag}"), |b| {
            b.iter(|| GroupTable::cached(g, &gender).aggregate_masked(g, &whole, mode))
        });
        group.bench_function(format!("masked/gender+pubs/{tag}"), |b| {
            b.iter(|| GroupTable::cached(g, &mixed).aggregate_masked(g, &whole, mode))
        });
        group.bench_function(format!("direct/gender+pubs/{tag}"), |b| {
            b.iter(|| aggregate(g, &mixed, mode))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
