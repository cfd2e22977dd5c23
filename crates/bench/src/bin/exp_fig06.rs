//! Figure 6: union operator + aggregation (DIST and ALL) time per
//! attribute while extending the interval `[t₀, t]`.
//!
//! Shape to reproduce: static-attribute aggregation stays cheap as the
//! interval grows, time-varying aggregation dominates (its domain keeps
//! growing); the union operation itself costs about the same for all
//! attribute types.

use graphtempo::aggregate::{aggregate, AggMode};
use graphtempo::ops::union;
use tempo_bench::datasets::{attrs, dblp, movielens};
use tempo_bench::report::{print_series, secs, timed_min, Series};
use tempo_graph::{TemporalGraph, TimePoint, TimeSet};

/// Each cell is the best of this many runs.
const REPS: usize = 5;

fn run(g: &TemporalGraph, attr_names: &[&str], title: &str) {
    let n = g.domain().len();
    let mut op_series = Series::new("union-op");
    let mut series: Vec<Series> = Vec::new();
    for name in attr_names {
        series.push(Series::new(&format!("{name}+DIST")));
        series.push(Series::new(&format!("{name}+ALL")));
    }
    for end in 1..n {
        let t1 = TimeSet::range(n, 0, end - 1);
        let t2 = TimeSet::point(n, TimePoint(end as u32));
        let (u, op_time) = timed_min(REPS, || {
            union(g, &t1, &t2).expect("union of non-empty intervals")
        });
        let label = g.domain().label(TimePoint(end as u32)).to_owned();
        op_series.push(&label, secs(op_time));
        for (i, name) in attr_names.iter().enumerate() {
            let ids = attrs(&u, &[name]);
            let (_, d_dist) = timed_min(REPS, || aggregate(&u, &ids, AggMode::Distinct));
            let (_, d_all) = timed_min(REPS, || aggregate(&u, &ids, AggMode::All));
            series[2 * i].push(&label, secs(op_time) + secs(d_dist));
            series[2 * i + 1].push(&label, secs(op_time) + secs(d_all));
        }
    }
    let mut all = vec![op_series];
    all.extend(series);
    print_series(title, &all);
}

fn main() {
    let g = dblp();
    run(
        &g,
        &["gender", "publications"],
        "Fig. 6a–c — DBLP union+aggregation while extending [2000, t] (s)",
    );
    let g = movielens();
    run(
        &g,
        &["gender", "rating"],
        "Fig. 6d — MovieLens union+aggregation while extending [May, t] (s)",
    );
}
