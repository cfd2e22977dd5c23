//! Figure 9: difference `𝒯new − 𝒯old(∪)` + aggregation (DIST, ALL) time
//! while extending 𝒯old backward; 𝒯new is the last time point.
//!
//! Shape to reproduce: cheaper than Fig. 8's direction (the operator output
//! *shrinks* as 𝒯old expands), aggregation is faster than the operation for
//! both attribute types, and total time barely depends on the attribute or
//! aggregation type (the aggregation is effectively a single-time-point
//! aggregation).

use graphtempo::aggregate::{aggregate, AggMode};
use graphtempo::ops::difference;
use tempo_bench::datasets::{attrs, dblp, movielens};
use tempo_bench::report::{print_series, secs, timed_min, Series};
use tempo_graph::{TemporalGraph, TimePoint, TimeSet};

/// Each cell is the best of this many runs.
const REPS: usize = 5;

fn run(g: &TemporalGraph, attr_names: &[&str], title: &str) {
    let n = g.domain().len();
    let tnew = TimeSet::point(n, TimePoint((n - 1) as u32));
    let mut op_series = Series::new("diff-op");
    let mut series: Vec<Series> = Vec::new();
    for name in attr_names {
        series.push(Series::new(&format!("{name}+DIST")));
        series.push(Series::new(&format!("{name}+ALL")));
    }
    for start in (0..n - 1).rev() {
        let told = TimeSet::range(n, start, n - 2);
        let (d, op_time) = timed_min(REPS, || difference(g, &tnew, &told).expect("difference"));
        let label = g.domain().label(TimePoint(start as u32)).to_owned();
        op_series.push(&label, secs(op_time));
        for (i, name) in attr_names.iter().enumerate() {
            let ids = attrs(&d, &[name]);
            let (_, t_dist) = timed_min(REPS, || aggregate(&d, &ids, AggMode::Distinct));
            let (_, t_all) = timed_min(REPS, || aggregate(&d, &ids, AggMode::All));
            series[2 * i].push(&label, secs(op_time) + secs(t_dist));
            series[2 * i + 1].push(&label, secs(op_time) + secs(t_all));
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
        "Fig. 9a–c — DBLP difference 𝒯new−𝒯old(∪) while extending 𝒯old (s); x = start of 𝒯old",
    );
    let g = movielens();
    run(
        &g,
        &["gender", "rating"],
        "Fig. 9d — MovieLens difference 𝒯new−𝒯old(∪) while extending 𝒯old (s)",
    );
}
