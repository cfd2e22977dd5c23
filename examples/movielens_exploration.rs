//! MovieLens exploration, following §5.2 / Fig. 13: maximal stability and
//! minimal growth/shrinkage interval pairs for female–female co-rating
//! relationships, with thresholds initialized per §3.5.
//!
//! Run with `cargo run --release --example movielens_exploration`
//! (`SCALE=1.0` reproduces the paper's dataset size; the default is small).

use graphtempo_repro::prelude::*;

fn main() {
    #[allow(clippy::disallowed_methods)] // a binary reads its environment at start-up
    let scale: f64 = std::env::var("SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.2);
    println!("generating MovieLens-like co-rating graph (scale {scale}) ...");
    let g = MovieLensConfig::scaled(scale).generate().unwrap();
    println!("{}", GraphStats::compute(&g).render_table());

    let gender = g.schema().id("gender").unwrap();
    let f = g.schema().category(gender, "F").unwrap();
    let selector = Selector::edge_1attr(f.clone(), f.clone());
    let attrs = vec![gender];

    // --- (a) stability: maximal pairs under intersection semantics -------
    let mut cfg = ExploreConfig {
        event: Event::Stability,
        extend: ExtendSide::New,
        semantics: Semantics::Intersection,
        k: 1,
        attrs: attrs.clone(),
        selector: selector.clone(),
    };
    let wth = suggest_k(&g, &cfg).unwrap().unwrap_or(1);
    println!("\n(a) stability of F→F co-ratings, w_th = {wth} (decreasing schedule)");
    for k in [1.max(wth / 86), 1.max(wth / 2), wth] {
        cfg.k = k;
        let out = explore(&g, &cfg).unwrap();
        println!(
            "  k={k}: {} maximal pairs ({} evaluations)",
            out.pairs.len(),
            out.evaluations
        );
        for (pair, r) in out.pairs.iter().take(3) {
            println!("    {} → {r} stable F→F edges", pair.display(g.domain()));
        }
    }

    // --- (b) growth: minimal pairs under union semantics ------------------
    let mut cfg = ExploreConfig {
        event: Event::Growth,
        extend: ExtendSide::New,
        semantics: Semantics::Union,
        k: 1,
        attrs: attrs.clone(),
        selector: selector.clone(),
    };
    let wth = suggest_k(&g, &cfg).unwrap().unwrap_or(1);
    println!("\n(b) growth of F→F co-ratings, w_th = {wth} (increasing schedule)");
    for k in [1.max(wth / 12), 1.max(wth / 2), wth] {
        cfg.k = k;
        let out = explore(&g, &cfg).unwrap();
        println!(
            "  k={k}: {} minimal pairs ({} evaluations)",
            out.pairs.len(),
            out.evaluations
        );
        for (pair, r) in out.pairs.iter().take(3) {
            println!("    {} → {r} new F→F edges", pair.display(g.domain()));
        }
    }

    // --- (c) shrinkage: minimal pairs under union semantics ---------------
    let mut cfg = ExploreConfig {
        event: Event::Shrinkage,
        extend: ExtendSide::Old,
        semantics: Semantics::Union,
        k: 1,
        attrs,
        selector,
    };
    let wth = suggest_k(&g, &cfg).unwrap().unwrap_or(1);
    println!("\n(c) shrinkage of F→F co-ratings, w_th = {wth} (increasing schedule)");
    for k in [wth, wth * 2, wth * 5] {
        cfg.k = k;
        let out = explore(&g, &cfg).unwrap();
        println!(
            "  k={k}: {} minimal pairs ({} evaluations)",
            out.pairs.len(),
            out.evaluations
        );
        for (pair, r) in out.pairs.iter().take(3) {
            println!("    {} → {r} deleted F→F edges", pair.display(g.domain()));
        }
    }

    // --- pruning vs naive enumeration ------------------------------------
    let cfg = ExploreConfig {
        event: Event::Stability,
        extend: ExtendSide::New,
        semantics: Semantics::Union,
        k: wth.max(1),
        attrs: vec![gender],
        selector: Selector::edge_1attr(f.clone(), f),
    };
    let fast = explore(&g, &cfg).unwrap();
    let slow = explore_naive(&g, &cfg).unwrap();
    assert_eq!(fast.pairs, slow.pairs);
    println!(
        "\npruned exploration: {} evaluations vs naive {} ({}x saved), identical results",
        fast.evaluations,
        slow.evaluations,
        slow.evaluations as f64 / fast.evaluations.max(1) as f64
    );
}
