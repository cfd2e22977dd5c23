//! Figure 7: intersection operator + aggregation (DIST) time per attribute
//! while extending the interval — entities must exist throughout the whole
//! interval (intersection semantics), so the result shrinks as the
//! interval grows.
//!
//! Shape to reproduce: the operation dominates aggregation for static
//! attributes (the result graph keeps shrinking); for time-varying
//! attributes aggregation takes over. The sweep stops at the longest
//! interval with at least one common edge (the paper reaches [2000, 2017]
//! for DBLP and [May, July] for MovieLens).

use graphtempo::aggregate::{aggregate, AggMode};
use graphtempo::ops::{event_graph, Event, SideTest};
use tempo_bench::datasets::{attrs, dblp, movielens};
use tempo_bench::report::{print_series, secs, timed_min, Series};
use tempo_graph::{TemporalGraph, TimePoint, TimeSet};

/// Each cell is the best of this many runs.
const REPS: usize = 5;

fn run(g: &TemporalGraph, attr_names: &[&str], title: &str) {
    let n = g.domain().len();
    let mut op_series = Series::new("intersect-op");
    let mut series: Vec<Series> = attr_names
        .iter()
        .map(|name| Series::new(&format!("{name}+DIST")))
        .collect();
    for end in 1..n {
        let t1 = TimeSet::range(n, 0, end - 1);
        let t2 = TimeSet::point(n, TimePoint(end as u32));
        // entities alive at EVERY point of [0, end-1] and at `end`
        let (ix, op_time) = timed_min(REPS, || {
            event_graph(g, Event::Stability, &t1, &t2, SideTest::All, SideTest::Any)
                .expect("intersection of non-empty intervals")
        });
        if ix.n_edges() == 0 {
            println!(
                "(stopping at {}: no edge spans the whole interval)",
                g.domain().label(TimePoint(end as u32))
            );
            break;
        }
        let label = g.domain().label(TimePoint(end as u32)).to_owned();
        op_series.push(&label, secs(op_time));
        for (i, name) in attr_names.iter().enumerate() {
            let ids = attrs(&ix, &[name]);
            let (_, d) = timed_min(REPS, || aggregate(&ix, &ids, AggMode::Distinct));
            series[i].push(&label, secs(op_time) + secs(d));
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
        "Fig. 7a–c — DBLP intersection+aggregation while extending (s)",
    );
    let g = movielens();
    run(
        &g,
        &["gender", "rating"],
        "Fig. 7d — MovieLens intersection+aggregation while extending (s)",
    );
}
