//! Collaboration-network evolution, following the paper's DBLP study
//! (§5.2, Fig. 12 and Fig. 14): gender-aggregated evolution of highly
//! active authors, and exploration of female–female collaborations.
//!
//! Run with `cargo run --example collaboration_evolution` (add
//! `--release` for the full-scale dataset via `SCALE=1.0`).

use graphtempo_repro::prelude::*;
use tempo_graph::NodeId;

fn main() {
    #[allow(clippy::disallowed_methods)] // a binary reads its environment at start-up
    let scale: f64 = std::env::var("SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.05);
    println!("generating DBLP-like collaboration graph (scale {scale}) ...");
    let g = DblpConfig::scaled(scale).generate().unwrap();
    println!("{}", GraphStats::compute(&g).render_table());

    let n = g.domain().len();
    let gender = g.schema().id("gender").unwrap();
    let pubs = g.schema().id("publications").unwrap();
    let f = g.schema().category(gender, "f").unwrap();
    let attrs = vec![gender];

    // --- Fig. 12: evolution of highly active authors ----------------------
    // Aggregate evolution on gender, restricted to authors with more than 4
    // publications in the year considered.
    let high_activity = move |gr: &TemporalGraph, node: NodeId, t: TimePoint| {
        gr.attr_value(node, pubs, t).as_int().unwrap_or(0) > 4
    };
    for (label, t1, t2) in [
        (
            "2010 vs the 2000s",
            TimeSet::range(n, 0, 9),
            TimeSet::point(n, TimePoint(10)),
        ),
        (
            "2020 vs the 2010s",
            TimeSet::range(n, 10, 19),
            TimeSet::point(n, TimePoint(20)),
        ),
    ] {
        let evo = evolution_aggregate(&g, &t1, &t2, &attrs, Some(&high_activity)).unwrap();
        println!("\nevolution of active authors (>4 publications), {label}:");
        for (tuple, w) in evo.iter_nodes() {
            let name = g.schema().def(gender).render(&tuple[0]);
            let total = w.stability + w.growth + w.shrinkage;
            if total == 0 {
                continue;
            }
            println!(
                "  {name}: stable {} ({:.0}%), grown {}, shrunk {}",
                w.stability,
                100.0 * w.stability as f64 / total as f64,
                w.growth,
                w.shrinkage
            );
        }
        let e = evo.total_edge_weight();
        println!(
            "  collaborations: stable {}, grown {}, shrunk {}",
            e.stability, e.growth, e.shrinkage
        );
    }

    // --- Beyond COUNT: measures over the attributed edges -----------------
    // The DBLP generator records papers co-authored per year as edge values;
    // SUM/AVG measures aggregate them per gender pair (the paper's "other
    // aggregations may be supported, if edges are attributed as well").
    use graphtempo::measures::{aggregate_measure, EdgeMeasure, NodeMeasure};
    let papers = aggregate_measure(
        &g,
        &[gender],
        NodeMeasure::Sum(pubs),
        EdgeMeasure::SumValues,
    )
    .unwrap();
    println!("\ntotal publications per gender (sum over yearly appearances):");
    for (tuple, v) in papers.iter_nodes() {
        println!("  {}: {v:.0}", g.schema().def(gender).render(&tuple[0]));
    }
    println!("total co-authored papers per gender pair:");
    for ((s, d), v) in papers.iter_edges() {
        println!(
            "  {} -> {}: {v:.0}",
            g.schema().def(gender).render(&s[0]),
            g.schema().def(gender).render(&d[0])
        );
    }

    // --- Fig. 14: exploration of female–female collaborations ------------
    let selector = Selector::edge_1attr(f.clone(), f.clone());

    // (a) maximal stability intervals (intersection semantics)
    let mut cfg = ExploreConfig {
        event: Event::Stability,
        extend: ExtendSide::New,
        semantics: Semantics::Intersection,
        k: 1,
        attrs: attrs.clone(),
        selector: selector.clone(),
    };
    if let Some(wth) = suggest_k(&g, &cfg).unwrap() {
        println!("\nstability w_th (max over consecutive years) = {wth}");
        for k in [1.max(wth / 62), 1.max(wth / 2), wth] {
            cfg.k = k;
            let out = explore(&g, &cfg).unwrap();
            println!("  k={k}: {} maximal interval pairs", out.pairs.len());
            for (pair, r) in out.pairs.iter().take(3) {
                println!("    {} → {r} stable f→f edges", pair.display(g.domain()));
            }
        }
    }

    // (b) minimal growth intervals (union semantics)
    let mut cfg = ExploreConfig {
        event: Event::Growth,
        extend: ExtendSide::New,
        semantics: Semantics::Union,
        k: 1,
        attrs: attrs.clone(),
        selector: selector.clone(),
    };
    if let Some(wth) = suggest_k(&g, &cfg).unwrap() {
        println!("\ngrowth w_th (min over consecutive years) = {wth}");
        for k in [wth, wth * 3, wth * 10] {
            cfg.k = k;
            let out = explore(&g, &cfg).unwrap();
            println!("  k={k}: {} minimal interval pairs", out.pairs.len());
        }
    }

    // (c) minimal shrinkage intervals (union semantics, extending 𝒯old)
    let mut cfg = ExploreConfig {
        event: Event::Shrinkage,
        extend: ExtendSide::Old,
        semantics: Semantics::Union,
        k: 1,
        attrs,
        selector,
    };
    if let Some(wth) = suggest_k(&g, &cfg).unwrap() {
        println!("\nshrinkage w_th (min over consecutive years) = {wth}");
        for k in [wth, wth * 5, wth * 20] {
            cfg.k = k;
            let out = explore(&g, &cfg).unwrap();
            println!("  k={k}: {} minimal interval pairs", out.pairs.len());
            for (pair, r) in out.pairs.iter().take(3) {
                println!("    {} → {r} deleted f→f edges", pair.display(g.domain()));
            }
        }
    }
}
