//! Figure 12: qualitative evolution of the DBLP graph — gender-aggregated
//! evolution of highly active authors (#Publications > 4), (a) 2010 versus
//! the 2000s and (b) 2020 versus the 2010s.
//!
//! Shape to reproduce: nodes show high stability (the paper reports ≈61%
//! stable authors in 2010, higher in 2020, with male authors far
//! outnumbering female), while collaborations between active authors show
//! heavy shrinkage and little stability.

use graphtempo::evolution::evolution_aggregate;
use tempo_bench::datasets::{attrs, dblp};
use tempo_graph::{NodeId, TemporalGraph, TimePoint, TimeSet};

fn main() {
    let g = dblp();
    let n = g.domain().len();
    let gender = attrs(&g, &["gender"]);
    let pubs = g.schema().id("publications").unwrap();
    let high_activity = move |gr: &TemporalGraph, node: NodeId, t: TimePoint| {
        gr.attr_value(node, pubs, t).as_int().unwrap_or(0) > 4
    };

    for (title, t1, t2) in [
        (
            "Fig. 12a — 2010 w.r.t. the 2000s",
            TimeSet::range(n, 0, 9),
            TimeSet::point(n, TimePoint(10)),
        ),
        (
            "Fig. 12b — 2020 w.r.t. the 2010s",
            TimeSet::range(n, 10, 19),
            TimeSet::point(n, TimePoint(20)),
        ),
    ] {
        let evo = evolution_aggregate(&g, &t1, &t2, &gender, Some(&high_activity))
            .expect("non-empty intervals");
        println!("\n== {title} ==");
        println!(
            "{:<8} {:>8} {:>8} {:>8} {:>9}",
            "gender", "stable", "grown", "shrunk", "%stable"
        );
        for (tuple, w) in evo.iter_nodes() {
            let total = w.stability + w.growth + w.shrinkage;
            if total == 0 {
                continue;
            }
            println!(
                "{:<8} {:>8} {:>8} {:>8} {:>8.1}%",
                g.schema().def(gender[0]).render(&tuple[0]),
                w.stability,
                w.growth,
                w.shrinkage,
                100.0 * w.stability as f64 / total as f64
            );
        }
        let e = evo.total_edge_weight();
        let etotal = (e.stability + e.growth + e.shrinkage).max(1);
        println!(
            "edges    {:>8} {:>8} {:>8} {:>8.1}%  (collaborations between active authors)",
            e.stability,
            e.growth,
            e.shrinkage,
            100.0 * e.stability as f64 / etotal as f64
        );
    }
}
