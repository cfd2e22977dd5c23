//! Figure 5: aggregation time per attribute (and combinations) on single
//! time points, for DBLP (a) and MovieLens (b).
//!
//! The paper's observations to reproduce in shape: times track the number
//! of distinct values in the aggregation domain (gender is cheapest, the
//! full attribute combination is most expensive), and MovieLens peaks in
//! August, its largest month.

use graphtempo::aggregate::{aggregate, AggMode};
use graphtempo::ops::project_point;
use tempo_bench::datasets::{attrs, dblp, movielens};
use tempo_bench::report::{print_series, secs, timed_min, Series};
use tempo_graph::TemporalGraph;

/// Each cell is the best of this many runs.
const REPS: usize = 5;

fn series_for(g: &TemporalGraph, combos: &[&[&str]]) -> Vec<Series> {
    let mut out = Vec::new();
    for combo in combos {
        let ids = attrs(g, combo);
        let mut s = Series::new(&combo.join("+"));
        for t in g.domain().iter() {
            let proj = project_point(g, t).expect("projection of a domain point");
            let (_, d) = timed_min(REPS, || aggregate(&proj, &ids, AggMode::Distinct));
            s.push(g.domain().label(t), secs(d));
        }
        out.push(s);
    }
    out
}

fn main() {
    let g = dblp();
    let series = series_for(
        &g,
        &[&["gender"], &["publications"], &["gender", "publications"]],
    );
    print_series(
        "Fig. 5a — DBLP aggregation time per time point (s)",
        &series,
    );

    let g = movielens();
    let series = series_for(
        &g,
        &[
            &["gender"],
            &["age"],
            &["occupation"],
            &["rating"],
            &["gender", "rating"],
            &["gender", "age", "rating"],
            &["gender", "age", "occupation", "rating"],
        ],
    );
    print_series(
        "Fig. 5b — MovieLens aggregation time per time point (s)",
        &series,
    );
}
