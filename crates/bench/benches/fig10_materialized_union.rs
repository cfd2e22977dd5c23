//! Criterion bench for Fig. 10: from-scratch union + ALL aggregation vs
//! the T-distributive combination of precomputed per-timepoint aggregates,
//! and vs the masked evaluation on cached group ids the served queries run.

use criterion::{criterion_group, criterion_main, Criterion};
use graphtempo::aggregate::{aggregate, AggMode, GroupTable};
use graphtempo::materialize::TimepointStore;
use graphtempo::ops::{event_mask, union, Event, SideTest};
use std::sync::OnceLock;
use tempo_bench::datasets::{attrs, dblp};
use tempo_graph::{TemporalGraph, TimePoint, TimeSet};

fn graph() -> &'static TemporalGraph {
    static G: OnceLock<TemporalGraph> = OnceLock::new();
    G.get_or_init(dblp)
}

fn bench(c: &mut Criterion) {
    let g = graph();
    let n = g.domain().len();
    let mut group = c.benchmark_group("fig10_materialized_union");
    group.sample_size(10);
    for name in ["gender", "publications"] {
        let ids = attrs(g, &[name]);
        let store = TimepointStore::build(g, &ids);
        for end in [5usize, n - 1] {
            let t1 = TimeSet::range(n, 0, end - 1);
            let t2 = TimeSet::point(n, TimePoint(end as u32));
            let scope = t1.union(&t2);
            group.bench_function(format!("scratch/{name}/len{}", end + 1), |b| {
                b.iter(|| {
                    let u = union(g, &t1, &t2).expect("union");
                    aggregate(&u, &attrs(&u, &[name]), AggMode::All)
                })
            });
            group.bench_function(format!("precomputed/{name}/len{}", end + 1), |b| {
                b.iter(|| store.union_all(&scope).expect("scope within domain"))
            });
            group.bench_function(format!("masked/{name}/len{}", end + 1), |b| {
                b.iter(|| {
                    let any = SideTest::Any;
                    let mask = event_mask(g, Event::Stability, &scope, &scope, any, any)
                        .expect("scope is non-empty");
                    GroupTable::cached(g, &ids).aggregate_masked(g, &mask, AggMode::All)
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
