//! Figure 11: speedup of attribute roll-up (§4.3's D-distributivity) —
//! deriving a coarser per-timepoint aggregate from a precomputed finer one
//! instead of aggregating from scratch.
//!
//! Shape to reproduce: single attributes from pairs gain the most, pairs
//! from the full set less, triplets least (the paper reports up to 48× for
//! single attributes on MovieLens, 6–21× for DBLP).
//!
//! Each series comes with a `masked` twin: the same baseline over
//! [`aggregate_at_point`] — one walk of the point's presence columns over
//! cached group ids, what the served queries run — so the pair says where rolling up a
//! precomputed aggregate still beats evaluating the coarser level directly.

use graphtempo::aggregate::{aggregate, rollup, AggMode};
use graphtempo::materialize::aggregate_at_point;
use graphtempo::ops::project_point;
use tempo_bench::datasets::{attrs, dblp, movielens};
use tempo_bench::report::{print_series, secs, timed_min, Series};
use tempo_graph::TemporalGraph;

const REPS: usize = 5;

/// Per-timepoint speedup of deriving `subset` from a precomputed aggregate
/// on `superset` (first series) and of the masked evaluation of `subset`
/// (second series), both vs hash-aggregating `subset` over the time
/// point's graph from scratch.
fn rollup_speedup(
    g: &TemporalGraph,
    superset: &[&str],
    subset: &[&str],
    label: &str,
) -> [Series; 2] {
    let sup_ids = attrs(g, superset);
    let sub_ids = attrs(g, subset);
    let mut s = Series::new(label);
    let mut m = Series::new(&format!("{label}, masked"));
    for t in g.domain().iter() {
        let full = aggregate_at_point(g, &sup_ids, t);
        let point = project_point(g, t).expect("t is in the domain");
        let (direct, direct_time) = timed_min(REPS, || aggregate(&point, &sub_ids, AggMode::All));
        let (rolled, roll_time) =
            timed_min(REPS, || rollup(&full, subset).expect("subset of superset"));
        let (masked, masked_time) = timed_min(REPS, || aggregate_at_point(g, &sub_ids, t));
        assert_eq!(direct, rolled, "roll-up must equal direct aggregation");
        assert_eq!(direct, masked, "masked evaluation must equal it too");
        let x = g.domain().label(t);
        s.push(x, secs(direct_time) / secs(roll_time).max(1e-9));
        m.push(x, secs(direct_time) / secs(masked_time).max(1e-9));
    }
    [s, m]
}

fn main() {
    let g = dblp();
    let series = [
        rollup_speedup(&g, &["gender", "publications"], &["gender"], "G from (G,P)"),
        rollup_speedup(
            &g,
            &["gender", "publications"],
            &["publications"],
            "P from (G,P)",
        ),
    ]
    .concat();
    print_series(
        "Fig. 11a — DBLP roll-up speedup per time point (×)",
        &series,
    );

    let g = movielens();
    let series = [
        rollup_speedup(&g, &["gender", "age"], &["gender"], "G1 from (G,A)"),
        rollup_speedup(&g, &["gender", "rating"], &["gender"], "G2 from (G,R)"),
        rollup_speedup(&g, &["gender", "occupation"], &["gender"], "G3 from (G,O)"),
        rollup_speedup(&g, &["rating", "gender"], &["rating"], "R1 from (R,G)"),
        rollup_speedup(&g, &["rating", "age"], &["rating"], "R2 from (R,A)"),
        rollup_speedup(&g, &["rating", "occupation"], &["rating"], "R3 from (R,O)"),
    ]
    .concat();
    print_series(
        "Fig. 11b — MovieLens single-attribute roll-up speedup (×)",
        &series,
    );

    let all4 = ["gender", "age", "occupation", "rating"];
    let series = [
        rollup_speedup(&g, &all4, &["gender", "age"], "(G,A) from all"),
        rollup_speedup(&g, &all4, &["gender", "rating"], "(G,R) from all"),
        rollup_speedup(&g, &all4, &["age", "occupation"], "(A,O) from all"),
        rollup_speedup(&g, &all4, &["occupation", "rating"], "(O,R) from all"),
    ]
    .concat();
    print_series("Fig. 11c — MovieLens pair roll-up speedup (×)", &series);

    let series = [
        rollup_speedup(
            &g,
            &all4,
            &["gender", "age", "occupation"],
            "(G,A,O) from all",
        ),
        rollup_speedup(&g, &all4, &["gender", "age", "rating"], "(G,A,R) from all"),
        rollup_speedup(
            &g,
            &all4,
            &["age", "occupation", "rating"],
            "(A,O,R) from all",
        ),
    ]
    .concat();
    print_series("Fig. 11d — MovieLens triplet roll-up speedup (×)", &series);
}
