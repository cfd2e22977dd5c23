//! Figure 10: speedup of the T-distributive union aggregation (§4.3) —
//! combining precomputed per-timepoint ALL-aggregates instead of running
//! the union operator + aggregation from scratch.
//!
//! Shape to reproduce: speedups grow with interval length, larger for
//! time-varying attributes (the paper reports 8–20× for static and up to
//! 78× for time-varying on DBLP).
//!
//! The `masked` series is the same baseline over the group-id walk the
//! served queries run — one [`GroupTable::aggregate_masked`] pass over the
//! scope's union mask on cached group ids; the served `cube` walks the
//! same appearances without building the mask
//! ([`GroupTable::aggregate_union`]) — so the two rows of an attribute say
//! where combining a precomputed store still beats evaluating directly.

use graphtempo::aggregate::{aggregate, AggMode, GroupTable};
use graphtempo::materialize::TimepointStore;
use graphtempo::ops::{event_mask, union, Event, SideTest};
use tempo_bench::datasets::{attrs, dblp, movielens};
use tempo_bench::report::{print_series, secs, timed_min, Series};
use tempo_graph::{TemporalGraph, TimePoint, TimeSet};

const REPS: usize = 5;

fn run(g: &TemporalGraph, attr_names: &[&str], title: &str) {
    let n = g.domain().len();
    let mut series: Vec<Series> = Vec::new();
    for name in attr_names {
        let ids = attrs(g, &[name]);
        // precomputation cost is excluded from the speedup, as in the paper
        let store = TimepointStore::build(g, &ids);
        let mut s = Series::new(&format!("{name} speedup"));
        let mut m = Series::new(&format!("{name} masked"));
        for end in 1..n {
            let t1 = TimeSet::range(n, 0, end - 1);
            let t2 = TimeSet::point(n, TimePoint(end as u32));
            let scope = t1.union(&t2);
            let (direct_agg, direct_time) = timed_min(REPS, || {
                let u = union(g, &t1, &t2).expect("union");
                aggregate(&u, &attrs(&u, &[name]), AggMode::All)
            });
            let (opt_agg, opt_time) = timed_min(REPS, || {
                store.union_all(&scope).expect("scope within domain")
            });
            let (masked_agg, masked_time) = timed_min(REPS, || {
                let any = SideTest::Any;
                let mask = event_mask(g, Event::Stability, &scope, &scope, any, any)
                    .expect("scope is non-empty");
                GroupTable::cached(g, &ids).aggregate_masked(g, &mask, AggMode::All)
            });
            assert_eq!(
                direct_agg, opt_agg,
                "T-distributive union must equal the direct aggregate"
            );
            assert_eq!(
                direct_agg, masked_agg,
                "masked evaluation must equal it too"
            );
            let label = g.domain().label(TimePoint(end as u32));
            s.push(label, secs(direct_time) / secs(opt_time).max(1e-9));
            m.push(label, secs(direct_time) / secs(masked_time).max(1e-9));
        }
        series.push(s);
        series.push(m);
    }
    print_series(title, &series);
}

fn main() {
    let g = dblp();
    run(
        &g,
        &["gender", "publications"],
        "Fig. 10a — DBLP speedup of precomputed union aggregation (×)",
    );
    let g = movielens();
    run(
        &g,
        &["gender", "rating"],
        "Fig. 10b — MovieLens speedup of precomputed union aggregation (×)",
    );
}
