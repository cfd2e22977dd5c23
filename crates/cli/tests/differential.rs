//! Differential test of the read-query path: every `agg`, `evolution` and
//! operator-count answer of [`Session::exec`] — served from event masks,
//! cached group ids and dense accumulators — must equal the naive oracle
//! (`aggregate` over the *materialized* operator graph; the tuple-hashing
//! `evolution_aggregate_naive`) on random graphs, at every epoch of a random
//! append sequence, under both presence-column policies.
//!
//! The appends rewrite static cells and add nodes, so an answer computed
//! from group ids cached on an earlier epoch would differ from the oracle.

use graphtempo::aggregate::{aggregate, AggMode, AggregateGraph};
use graphtempo::evolution::{evolution_aggregate_naive, EvolutionAggregate};
use graphtempo::ops::{difference, intersection, project, union};
use graphtempo_cli::{QueryLimits, Session};
use proptest::prelude::*;
use std::fmt::Write as _;
use std::sync::Arc;
use tempo_columnar::{SparseMode, ValueTuple};
use tempo_datagen::RandomGraphConfig;
use tempo_graph::{AttrId, NodeId, TemporalGraph, TimePoint, TimeSet};

fn graph_config() -> impl Strategy<Value = RandomGraphConfig> {
    (
        8usize..30,   // pool
        2usize..6,    // timepoints
        4usize..12,   // active per tp
        4usize..30,   // edges per tp
        0u8..=10,     // node persistence (tenths)
        0u8..=10,     // edge persistence (tenths)
        1usize..4,    // kinds
        1i64..5,      // levels
        any::<u64>(), // seed
    )
        .prop_map(|(pool, tps, active, edges, np, ep, kinds, levels, seed)| {
            RandomGraphConfig {
                pool,
                timepoints: tps,
                active_per_tp: active.min(pool),
                edges_per_tp: edges,
                node_persistence: f64::from(np) / 10.0,
                edge_persistence: f64::from(ep) / 10.0,
                kinds,
                levels,
                seed,
            }
        })
}

/// One `append` line's tokens over node indexes `0..40` (the generator's
/// pool is at most 30, so some of them are new nodes): marked nodes, edges,
/// `level` values, and `kind` rewrites (`k0` always exists).
fn patch_tokens() -> impl Strategy<Value = String> {
    (
        proptest::collection::vec(0usize..40, 0..4),
        proptest::collection::vec((0usize..40, 0usize..40), 0..5),
        proptest::collection::vec((0usize..40, 1i64..5), 0..4),
        proptest::collection::vec(0usize..40, 0..3),
    )
        .prop_map(|(nodes, edges, levels, kinds)| {
            let mut out = String::new();
            for n in nodes {
                let _ = write!(out, " node=n{n}");
            }
            for (u, v) in edges {
                let _ = write!(out, " edge=n{u},n{v}");
            }
            for (n, level) in levels {
                let _ = write!(out, " tv=n{n},level,{level}");
            }
            for n in kinds {
                let _ = write!(out, " static=n{n},kind,k0");
            }
            out
        })
}

fn render_tuple(g: &TemporalGraph, attrs: &[AttrId], tuple: &ValueTuple) -> String {
    let parts: Vec<String> = attrs
        .iter()
        .zip(tuple)
        .map(|(&a, v)| g.schema().def(a).render(v))
        .collect();
    format!("({})", parts.join(","))
}

/// An aggregate as `agg … top=<everything>` prints it.
fn render_agg(g: &TemporalGraph, attrs: &[AttrId], agg: &AggregateGraph) -> String {
    let mut out = format!(
        "aggregate: {} nodes, {} edges (node weight {}, edge weight {})\n",
        agg.n_nodes(),
        agg.n_edges(),
        agg.total_node_weight(),
        agg.total_edge_weight()
    );
    let mut nodes = agg.iter_nodes();
    nodes.sort_by_key(|&(_, w)| std::cmp::Reverse(w));
    for (tuple, w) in nodes {
        let _ = writeln!(out, "  node {} w={w}", render_tuple(g, attrs, tuple));
    }
    let mut edges = agg.iter_edges();
    edges.sort_by_key(|&(_, w)| std::cmp::Reverse(w));
    for ((s, d), w) in edges {
        let _ = writeln!(
            out,
            "  edge {} -> {} w={w}",
            render_tuple(g, attrs, s),
            render_tuple(g, attrs, d)
        );
    }
    out.trim_end().to_owned()
}

/// An evolution aggregate as `evolution` prints it.
fn render_evolution(g: &TemporalGraph, attrs: &[AttrId], evo: &EvolutionAggregate) -> String {
    let mut out = String::new();
    for (tuple, w) in evo.iter_nodes() {
        let _ = writeln!(
            out,
            "  node {}: St={} Gr={} Shr={}",
            render_tuple(g, attrs, tuple),
            w.stability,
            w.growth,
            w.shrinkage
        );
    }
    let e = evo.edge_totals();
    let _ = writeln!(
        out,
        "  edges total: St={} Gr={} Shr={}",
        e.stability, e.growth, e.shrinkage
    );
    out.trim_end().to_owned()
}

/// A non-empty contiguous interval over `n` points, as `(token, set)`.
fn interval(n: usize, seed: u64) -> (String, TimeSet) {
    let a = (seed as usize) % n;
    let b = ((seed >> 8) as usize) % n;
    let (lo, hi) = (a.min(b), a.max(b));
    (format!("#{lo}..#{hi}"), TimeSet::range(n, lo, hi))
}

/// Every read query of the tentpole on the session's current epoch,
/// against its oracle.
fn check_epoch(session: &mut Session, seed: u64) -> Result<(), TestCaseError> {
    let g = session.graph_arc().expect("session holds a graph");
    let g: &TemporalGraph = &g;
    let n = g.domain().len();
    let (tok1, t1) = interval(n, seed);
    let (tok2, t2) = interval(n, seed >> 16);

    for (cmd, oracle) in [
        ("union", union(g, &t1, &t2)),
        ("intersect", intersection(g, &t1, &t2)),
        ("diff", difference(g, &t1, &t2)),
    ] {
        let oracle = oracle.expect("non-empty intervals");
        let got = session.exec(&format!("{cmd} {tok1} {tok2}")).unwrap();
        let want = format!(
            "{cmd}: {} nodes, {} edges",
            oracle.n_nodes(),
            oracle.n_edges()
        );
        prop_assert_eq!(got, want);
    }
    let p = project(g, &t1).expect("non-empty interval");
    prop_assert_eq!(
        session.exec(&format!("project {tok1}")).unwrap(),
        format!("project: {} nodes, {} edges", p.n_nodes(), p.n_edges())
    );

    // static, time-varying and mixed attribute lists: the three layouts
    for names in ["kind", "level", "kind,level"] {
        let attrs: Vec<AttrId> = names
            .split(',')
            .map(|a| g.schema().id(a).expect("random graphs have kind and level"))
            .collect();
        for (mode_tok, mode) in [("dist", AggMode::Distinct), ("all", AggMode::All)] {
            let operands = format!("op={{op}} t1={tok1} t2={tok2}");
            let cases: [(String, TemporalGraph); 4] = [
                (String::new(), g.clone()),
                (
                    operands.replace("{op}", "union"),
                    union(g, &t1, &t2).unwrap(),
                ),
                (
                    operands.replace("{op}", "intersect"),
                    intersection(g, &t1, &t2).unwrap(),
                ),
                (
                    operands.replace("{op}", "diff"),
                    difference(g, &t1, &t2).unwrap(),
                ),
            ];
            for (operands, target) in cases {
                let line = format!("agg {mode_tok} attrs={names} top=1000000 {operands}");
                let got = session.exec(&line).unwrap();
                // materialized graphs keep the source's schema, so `attrs`
                // address the same attributes in `target`
                let want = render_agg(g, &attrs, &aggregate(&target, &attrs, mode));
                prop_assert_eq!(got, want, "{}", line);
            }
        }

        let level = g.schema().id("level").unwrap();
        let filter = move |gr: &TemporalGraph, node: NodeId, t: TimePoint| {
            gr.attr_value(node, level, t).as_int().unwrap_or(i64::MIN) >= 2
        };
        for filtered in [false, true] {
            let mut line = format!("evolution t1={tok1} t2={tok2} attrs={names}");
            if filtered {
                line.push_str(" filter=level>=2");
            }
            let got = session.exec(&line).unwrap();
            let oracle = evolution_aggregate_naive(
                g,
                &t1,
                &t2,
                &attrs,
                filtered.then_some(&filter as &graphtempo::aggregate::NodeTimeFilter<'_>),
            )
            .unwrap();
            prop_assert_eq!(got, render_evolution(g, &attrs, &oracle), "{}", line);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn session_answers_equal_the_naive_oracles_at_every_epoch(
        cfg in graph_config(),
        patches in proptest::collection::vec(patch_tokens(), 0..4),
        seed in any::<u64>(),
    ) {
        for mode in [SparseMode::ForceDense, SparseMode::ForceSparse] {
            let mut g = cfg.generate().expect("random generator produces valid graphs");
            g.set_sparse_mode(mode);
            let mut session = Session::for_snapshot(Arc::new(g), QueryLimits::default());
            check_epoch(&mut session, seed)?;
            for (i, tokens) in patches.iter().enumerate() {
                // query twice per epoch: the second pass is served from the
                // group ids the first one cached on this snapshot
                check_epoch(&mut session, seed.rotate_left(7 * i as u32 + 3))?;
                session.exec(&format!("append y{i}{tokens}")).unwrap();
                check_epoch(&mut session, seed.rotate_left(7 * i as u32 + 5))?;
            }
        }
    }
}
