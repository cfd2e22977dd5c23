//! Exploration pruning study (§3, implicit in the paper): evaluations and
//! wall-clock time of the monotonicity-pruned strategies versus naive
//! enumeration of every interval pair, across all twelve Table-1 cases.
//! Every case asserts that the pruned answer equals the naive one. Each
//! side's time is the best of `REPS` samples, as in the figure binaries: a
//! naive sample is one run, and a pruned sample a batch of `BATCH` runs,
//! since one pruned run lasts tens of microseconds, too short to time
//! alone.

use graphtempo::explore::{
    explore, explore_naive, suggest_k, ExploreConfig, ExtendSide, Selector, Semantics,
};
use graphtempo::ops::Event;
use tempo_bench::datasets::{attrs, dblp};
use tempo_bench::report::{secs, timed_min};
use tempo_graph::TemporalGraph;

const REPS: usize = 5;

/// Pruned runs timed together as one sample.
const BATCH: u32 = 100;

fn all_cases(g: &TemporalGraph, selector: &Selector) -> Vec<ExploreConfig> {
    let gender = attrs(g, &["gender"])[0];
    let mut out = Vec::new();
    for event in [Event::Stability, Event::Growth, Event::Shrinkage] {
        for extend in [ExtendSide::Old, ExtendSide::New] {
            for semantics in [Semantics::Union, Semantics::Intersection] {
                let mut cfg = ExploreConfig {
                    event,
                    extend,
                    semantics,
                    k: 1,
                    attrs: vec![gender],
                    selector: selector.clone(),
                };
                cfg.k = suggest_k(g, &cfg)
                    .expect("suggest_k succeeds")
                    .unwrap_or(1)
                    .max(1);
                out.push(cfg);
            }
        }
    }
    out
}

fn pruning_study(g: &TemporalGraph, cases: &[ExploreConfig]) {
    println!(
        "{:<12} {:<6} {:<4} {:>4} {:>8} {:>8} {:>9} {:>9} {:>6}",
        "event", "extend", "sem", "k", "evals", "naive", "time(ms)", "naive(ms)", "same"
    );
    for cfg in cases {
        let (fast, batch_t) = timed_min(REPS, || {
            for _ in 1..BATCH {
                explore(g, cfg).expect("explore");
            }
            explore(g, cfg).expect("explore")
        });
        let fast_t = batch_t / BATCH;
        let (slow, slow_t) = timed_min(REPS, || explore_naive(g, cfg).expect("naive"));
        println!(
            "{:<12} {:<6} {:<4} {:>4} {:>8} {:>8} {:>9.3} {:>9.3} {:>6}",
            format!("{:?}", cfg.event),
            format!("{:?}", cfg.extend),
            match cfg.semantics {
                Semantics::Union => "∪",
                Semantics::Intersection => "∩",
            },
            cfg.k,
            fast.evaluations,
            slow.evaluations,
            secs(fast_t) * 1e3,
            secs(slow_t) * 1e3,
            fast.pairs == slow.pairs
        );
        assert_eq!(fast.pairs, slow.pairs, "pruned results must match naive");
    }
}

fn main() {
    let g = dblp();
    let gender = attrs(&g, &["gender"])[0];
    let f = g.schema().category(gender, "f").expect("category");
    let selector = Selector::edge_1attr(f.clone(), f);
    pruning_study(&g, &all_cases(&g, &selector));
}
