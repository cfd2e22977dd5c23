//! Criterion bench for Fig. 11: aggregating a subset of attributes from
//! scratch vs rolling it up from a precomputed finer aggregate, and vs the
//! masked evaluation on cached group ids the served queries run.

use criterion::{criterion_group, criterion_main, Criterion};
use graphtempo::aggregate::{aggregate, rollup, AggMode};
use graphtempo::materialize::aggregate_at_point;
use graphtempo::ops::project_point;
use std::sync::OnceLock;
use tempo_bench::datasets::{attrs, movielens};
use tempo_graph::{TemporalGraph, TimePoint};

fn graph() -> &'static TemporalGraph {
    static G: OnceLock<TemporalGraph> = OnceLock::new();
    G.get_or_init(movielens)
}

fn bench(c: &mut Criterion) {
    let g = graph();
    let aug = TimePoint(3); // the densest month
    let mut group = c.benchmark_group("fig11_attr_rollup");
    group.sample_size(20);

    let all4 = attrs(g, &["gender", "age", "occupation", "rating"]);
    let full = aggregate_at_point(g, &all4, aug);
    let point = project_point(g, aug).expect("August is in the domain");
    for subset in [
        &["gender"][..],
        &["rating"][..],
        &["gender", "age"][..],
        &["gender", "age", "occupation"][..],
    ] {
        let ids = attrs(g, subset);
        group.bench_function(format!("scratch/{}", subset.join("+")), |b| {
            b.iter(|| aggregate(&point, &ids, AggMode::All))
        });
        group.bench_function(format!("masked/{}", subset.join("+")), |b| {
            b.iter(|| aggregate_at_point(g, &ids, aug))
        });
        group.bench_function(format!("rollup/{}", subset.join("+")), |b| {
            b.iter(|| rollup(&full, subset).expect("subset of the full attribute set"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
