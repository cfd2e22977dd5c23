//! Bit-kernel raw-speed study: per-primitive microbenchmarks of the
//! word-parallel kernels and sparse-column folds, plus the end-to-end
//! exploration ablation of the hybrid dense/sparse presence columns
//! against the all-dense layout, on the million-node `large` preset across
//! a density sweep. Writes `BENCH_bitkernels.json`.
//!
//! Both arms run [`explore`] — the one production path — and differ only
//! in the graph's [`SparseMode`], so `geomean_hybrid_over_dense` is the
//! contribution of the column layout with pruning and dataset held fixed.
//! A tiny-pool oracle pass additionally checks both column modes
//! bit-for-bit against naive enumeration through the materializing
//! evaluator.

use graphtempo::explore::{
    explore, explore_naive, suggest_k, ExploreConfig, ExploreOutcome, ExtendSide, Selector,
    Semantics,
};
use graphtempo::ops::Event;
use tempo_bench::datasets::{attrs, scale};
use tempo_bench::report::{metrics_json, secs, timed_min, Json};
use tempo_columnar::{BitMatrix, BitVec, PresenceColumn, SparseMode};
use tempo_datagen::LargeConfig;
use tempo_graph::TemporalGraph;

const REPS: usize = 3;
/// Densities swept by the end-to-end ablation: around the auto threshold
/// (1/64 ≈ 1.6%), well below it, and far below it.
const DENSITIES: &[f64] = &[0.02, 0.002, 0.0005];

/// One per-primitive microbench entry: median-of-min wall clock divided by
/// inner iterations.
fn prim(name: &str, iters: usize, mut f: impl FnMut()) -> Json {
    let ((), t) = timed_min(REPS, || {
        for _ in 0..iters {
            f();
        }
    });
    let ns = secs(t) * 1e9 / iters as f64;
    println!("  {name:<38} {ns:>12.1} ns/op");
    Json::Obj(vec![
        ("name".into(), Json::str(name)),
        ("iters".into(), Json::Int(iters as u64)),
        ("ns_per_op".into(), Json::Num(ns)),
    ])
}

/// Deterministic vector with every `stride`-th bit set.
fn strided(nbits: usize, stride: usize, phase: usize) -> BitVec {
    BitVec::from_indices(nbits, (phase..nbits).step_by(stride))
}

fn microbench() -> Json {
    // Entity-dimension width scales with the experiment scale so CI smoke
    // stays fast; 1M bits (15 625 words per vector) at scale 1.0.
    let nbits = ((1_000_000.0 * scale()) as usize).max(65_536);
    println!("\n== per-primitive microbench ({nbits} bits) ==");
    let a = strided(nbits, 3, 0);
    let b = strided(nbits, 5, 1);
    let mut out = BitVec::zeros(nbits);
    let mut entries = Vec::new();

    entries.push(prim("bitvec.and_into", 200, || {
        a.and_into(&b, &mut out);
        std::hint::black_box(&out);
    }));
    entries.push(prim("bitvec.and_not_into", 200, || {
        a.and_not_into(&b, &mut out);
        std::hint::black_box(&out);
    }));
    entries.push(prim("bitvec.or_and_assign", 200, || {
        out.or_and_assign(&a, &b);
        std::hint::black_box(&out);
    }));
    entries.push(prim("bitvec.count_ones_and", 200, || {
        std::hint::black_box(a.count_ones_and(&b));
    }));

    // Presence-column folds, dense vs sparse, at ~0.1% density.
    let sparse_bits = strided(nbits, 1000, 7);
    let dense_col = PresenceColumn::from_bitvec(sparse_bits.clone(), SparseMode::ForceDense);
    let sparse_col = PresenceColumn::from_bitvec(sparse_bits, SparseMode::ForceSparse);
    let mut acc = strided(nbits, 2, 0);
    entries.push(prim("column.or_into.dense", 200, || {
        dense_col.or_into(&mut acc);
        std::hint::black_box(&acc);
    }));
    entries.push(prim("column.or_into.sparse", 200, || {
        sparse_col.or_into(&mut acc);
        std::hint::black_box(&acc);
    }));
    entries.push(prim("column.and_assign_into.dense", 200, || {
        dense_col.and_assign_into(&mut acc);
        std::hint::black_box(&acc);
    }));
    entries.push(prim("column.and_assign_into.sparse", 200, || {
        sparse_col.and_assign_into(&mut acc);
        std::hint::black_box(&acc);
    }));
    let other_sparse = PresenceColumn::from_bitvec(strided(nbits, 900, 3), SparseMode::ForceSparse);
    entries.push(prim("column.count_ones_and.sparse_x_sparse", 200, || {
        std::hint::black_box(sparse_col.count_ones_and(&other_sparse));
    }));

    // Matrix bulk primitives on an entity×time presence shape.
    let tps = 24usize;
    let mut m = BitMatrix::zeros(nbits, tps);
    for r in (0..nbits).step_by(500) {
        for t in 0..tps {
            if (r / 500 + t) % 3 == 0 {
                m.set(r, t, true);
            }
        }
    }
    let mask = BitVec::ones(tps);
    let mut counts: Vec<u32> = Vec::new();
    entries.push(prim("matrix.masked_popcounts_into", 5, || {
        m.masked_popcounts_into(&mask, &mut counts);
        std::hint::black_box(&counts);
    }));
    entries.push(prim("matrix.iter_row_ones_and(all rows)", 2, || {
        let mut total = 0usize;
        for r in 0..m.nrows() {
            total += m.iter_row_ones_and(r, &mask).count();
        }
        std::hint::black_box(total);
    }));
    entries.push(prim("matrix.transposed_with(Auto)", 2, || {
        std::hint::black_box(m.transposed_with(SparseMode::Auto));
    }));
    entries.push(prim("matrix.transposed_with(ForceDense)", 2, || {
        std::hint::black_box(m.transposed_with(SparseMode::ForceDense));
    }));

    Json::Arr(entries)
}

/// The twelve Table-1 strategy combinations over the `kind` attribute with
/// an all-nodes selector (the node dimension is what the hybrid columns
/// accelerate).
fn all_cases(g: &TemporalGraph) -> Vec<ExploreConfig> {
    let kind = attrs(g, &["kind"])[0];
    let mut out = Vec::new();
    for event in [Event::Stability, Event::Growth, Event::Shrinkage] {
        for extend in [ExtendSide::Old, ExtendSide::New] {
            for semantics in [Semantics::Union, Semantics::Intersection] {
                let mut cfg = ExploreConfig {
                    event,
                    extend,
                    semantics,
                    k: 1,
                    attrs: vec![kind],
                    selector: Selector::AllNodes,
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

/// Per-case measurement of one column mode.
struct CaseRun {
    cfg: ExploreConfig,
    outcome: ExploreOutcome,
    explore_s: f64,
}

/// Generates the `large` graph with the given column representation forced
/// explicitly on the graph (per-graph state, no environment involved),
/// then runs every case through [`explore`].
fn run_mode(density: f64, force: SparseMode) -> (TemporalGraph, Vec<CaseRun>) {
    let mut g = LargeConfig::scaled(scale())
        .with_density(density)
        .generate()
        .expect("large generator produces a valid graph");
    g.set_sparse_mode(force);
    let mut out = Vec::new();
    for cfg in all_cases(&g) {
        let (outcome, t) = timed_min(REPS, || explore(&g, &cfg).expect("explore"));
        out.push(CaseRun {
            cfg,
            outcome,
            explore_s: secs(t),
        });
    }
    (g, out)
}

fn case_label(cfg: &ExploreConfig) -> String {
    format!(
        "{:?}/{:?}/{}",
        cfg.event,
        cfg.extend,
        match cfg.semantics {
            Semantics::Union => "union",
            Semantics::Intersection => "intersection",
        }
    )
}

/// End-to-end exploration ablation at one density: all-dense presence
/// columns against the hybrid per-column pick, asserted bit-identical.
fn end_to_end(density: f64) -> (Json, f64) {
    println!("\n== end-to-end exploration, density {density} ==");
    let (gd, dense) = run_mode(density, SparseMode::ForceDense);
    let (gh, hybrid) = run_mode(density, SparseMode::Auto);
    assert_eq!(
        gd.n_nodes(),
        gh.n_nodes(),
        "generator must be deterministic"
    );
    assert_eq!(
        gd.n_edges(),
        gh.n_edges(),
        "generator must be deterministic"
    );
    let sparse_node_cols = gh.node_presence_columns().n_sparse_cols();
    let sparse_edge_cols = gh.edge_presence_columns().n_sparse_cols();
    println!(
        "   {} nodes, {} edges; hybrid picked {sparse_node_cols}/{} sparse node cols, \
         {sparse_edge_cols}/{} sparse edge cols",
        gd.n_nodes(),
        gd.n_edges(),
        gh.node_presence_columns().n_cols(),
        gh.edge_presence_columns().n_cols()
    );
    println!(
        "   {:<34} {:>6} {:>9} {:>9} {:>8}",
        "case", "evals", "dense(s)", "hybrid(s)", "hyb/den"
    );
    let mut entries = Vec::new();
    let mut logs = Vec::new();
    for (d, h) in dense.iter().zip(&hybrid) {
        assert_eq!(d.cfg.k, h.cfg.k, "modes must run identical configurations");
        assert_eq!(
            d.outcome.pairs,
            h.outcome.pairs,
            "dense and hybrid modes must be bit-identical ({})",
            case_label(&d.cfg)
        );
        assert_eq!(d.outcome.evaluations, h.outcome.evaluations);
        let speedup = d.explore_s / h.explore_s.max(f64::EPSILON);
        logs.push(speedup.ln());
        println!(
            "   {:<34} {:>6} {:>9.4} {:>9.4} {:>7.2}x",
            case_label(&d.cfg),
            d.outcome.evaluations,
            d.explore_s,
            h.explore_s,
            speedup
        );
        entries.push(Json::Obj(vec![
            ("case".into(), Json::str(case_label(&d.cfg))),
            ("k".into(), Json::Int(d.cfg.k)),
            (
                "evaluations".into(),
                Json::Int(d.outcome.evaluations as u64),
            ),
            ("pairs".into(), Json::Int(d.outcome.pairs.len() as u64)),
            ("dense_s".into(), Json::Num(d.explore_s)),
            ("hybrid_s".into(), Json::Num(h.explore_s)),
            ("speedup_hybrid_over_dense".into(), Json::Num(speedup)),
        ]));
    }
    let geomean = (logs.iter().sum::<f64>() / logs.len().max(1) as f64).exp();
    println!("   density {density} geomean hybrid/dense {geomean:.2}x");
    (
        Json::Obj(vec![
            ("density".into(), Json::Num(density)),
            ("nodes".into(), Json::Int(gd.n_nodes() as u64)),
            ("edges".into(), Json::Int(gd.n_edges() as u64)),
            ("timepoints".into(), Json::Int(gd.domain().len() as u64)),
            (
                "sparse_node_cols".into(),
                Json::Int(sparse_node_cols as u64),
            ),
            (
                "sparse_edge_cols".into(),
                Json::Int(sparse_edge_cols as u64),
            ),
            ("geomean_hybrid_over_dense".into(), Json::Num(geomean)),
            ("cases".into(), Json::Arr(entries)),
        ]),
        geomean,
    )
}

/// Tiny-pool oracle pass: both column modes must agree with naive
/// enumeration pair-for-pair (the oracle materializes an event graph per
/// evaluation, so it only runs at a pool size where that is affordable).
fn oracle_check() -> Json {
    println!("\n== oracle check (tiny pool) ==");
    let cfg0 = LargeConfig::scaled(0.002).with_density(0.01);
    let mut checked = 0u64;
    for force in [SparseMode::ForceDense, SparseMode::ForceSparse] {
        let mut g = cfg0.generate().expect("large generator (tiny pool)");
        g.set_sparse_mode(force);
        for cfg in all_cases(&g) {
            let fast = explore(&g, &cfg).expect("explore");
            let oracle = explore_naive(&g, &cfg).expect("naive explore");
            assert_eq!(
                fast.pairs,
                oracle.pairs,
                "{force:?} mode must match the naive oracle ({})",
                case_label(&cfg)
            );
            checked += 1;
        }
    }
    println!("   {checked} case runs bit-identical to the oracle");
    Json::Obj(vec![
        ("cases_checked".into(), Json::Int(checked)),
        ("ok".into(), Json::Bool(true)),
    ])
}

fn main() {
    tempo_instrument::global().reset();
    let micro = microbench();
    let mut sweeps = Vec::new();
    let mut best_gm = f64::NEG_INFINITY;
    for &density in DENSITIES {
        let (entry, gm) = end_to_end(density);
        best_gm = best_gm.max(gm);
        sweeps.push(entry);
    }
    let oracle = oracle_check();
    println!("\nbest geomean hybrid-over-dense speedup across densities: {best_gm:.2}x");

    let report = Json::Obj(vec![
        ("experiment".into(), Json::str("bitkernels")),
        ("dataset".into(), Json::str("large_synthetic")),
        ("scale".into(), Json::Num(scale())),
        ("reps".into(), Json::Int(REPS as u64)),
        ("microbench".into(), micro),
        ("end_to_end".into(), Json::Arr(sweeps)),
        ("best_geomean_hybrid_over_dense".into(), Json::Num(best_gm)),
        ("oracle_check".into(), oracle),
        (
            "metrics".into(),
            metrics_json(&tempo_instrument::global().snapshot()),
        ),
    ]);
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_bitkernels.json".to_owned());
    std::fs::write(&path, report.render()).expect("write bitkernels report");
    println!("wrote {path}");
}
