//! Differential test of the read-query path: every `agg`, `evolution`,
//! `cube`, `measure`, `explore`, `suggest` and operator-count answer of
//! [`Session::exec`] — served from event masks, cached group ids, cached
//! selector match columns and dense accumulators — must equal the naive
//! oracle (`aggregate` over the *materialized* operator graph, rolled up for
//! `cube`; the tuple-hashing `evolution_aggregate_naive`; a scan over
//! `attr_value` / `edge_value` for `measure`; the Table-1 strategy walked
//! with `evaluate_pair_materialized`, and `explore_naive` where the lemmas
//! hold, for `explore`; a scan of the consecutive pairs' materialized
//! aggregates for `suggest`) on random graphs, at every epoch of a random
//! append sequence, under both presence-column policies.
//!
//! The appends rewrite static cells, add nodes and edges and record edge
//! values, so an answer computed from group ids or match columns cached on
//! an earlier epoch would differ from the oracle.

use graphtempo::aggregate::{aggregate, rollup, AggMode, AggregateGraph};
use graphtempo::evolution::{evolution_aggregate_naive, EvolutionAggregate};
use graphtempo::explore::{
    direction, evaluate_pair_materialized, explore_naive, Direction, ExploreConfig, ExtendSide,
    IntervalPair, Selector, Semantics,
};
use graphtempo::ops::{
    difference, event_graph, intersection, project, project_point, union, Event, SideTest,
};
use graphtempo_cli::{QueryLimits, Session};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use tempo_columnar::{SparseMode, Value, ValueTuple};
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
/// `level` values, `kind` rewrites (`k0` always exists), and edge values
/// (the generated graph has none until a patch records one).
fn patch_tokens() -> impl Strategy<Value = String> {
    (
        proptest::collection::vec(0usize..40, 0..4),
        proptest::collection::vec((0usize..40, 0usize..40), 0..5),
        proptest::collection::vec((0usize..40, 1i64..5), 0..4),
        proptest::collection::vec(0usize..40, 0..3),
        proptest::collection::vec((0usize..40, 0usize..40, -3i64..9), 0..3),
    )
        .prop_map(|(nodes, edges, levels, kinds, edge_values)| {
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
            for (u, v, value) in edge_values {
                let _ = write!(out, " edgeval=n{u},n{v},{value}");
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

/// An aggregate as `cube` prints it: the ten heaviest nodes.
fn render_cube(g: &TemporalGraph, level: &str, agg: &AggregateGraph) -> String {
    let ids: Vec<AttrId> = level
        .split(',')
        .map(|a| g.schema().id(a).expect("level names are schema names"))
        .collect();
    let mut out = format!(
        "cube query at level ({level}): {} nodes, {} edges\n",
        agg.n_nodes(),
        agg.n_edges()
    );
    let mut nodes = agg.iter_nodes();
    nodes.sort_by_key(|&(_, w)| std::cmp::Reverse(w));
    for (tuple, w) in nodes.into_iter().take(10) {
        let _ = writeln!(out, "  {} w={w}", render_tuple(g, &ids, tuple));
    }
    out.trim_end().to_owned()
}

/// What a measure reduces the observations of one group to.
#[derive(Clone, Copy)]
enum Reduce {
    Count,
    Sum,
    Min,
    Max,
    Avg,
}

impl Reduce {
    /// One entry per appearance; `None` where nothing numeric was recorded.
    fn of(self, appearances: &[Option<i64>]) -> Option<f64> {
        let observed: Vec<i64> = appearances.iter().flatten().copied().collect();
        let sum = observed.iter().sum::<i64>() as f64;
        match self {
            Reduce::Count => Some(appearances.len() as f64),
            Reduce::Sum => Some(sum),
            Reduce::Min => observed.iter().min().map(|&v| v as f64),
            Reduce::Max => observed.iter().max().map(|&v| v as f64),
            Reduce::Avg => (!observed.is_empty()).then(|| sum / observed.len() as f64),
        }
    }
}

/// The `measure` oracle, as `measure` prints it: every appearance resolved
/// through `attr_value` / `edge_value` and collected under its value tuple.
fn naive_measure(
    g: &TemporalGraph,
    group: &[AttrId],
    node_spec: &str,
    (node, measured): (Reduce, Option<AttrId>),
    edge: Reduce,
) -> String {
    let tuple_of = |n: NodeId, t: TimePoint| -> ValueTuple {
        group.iter().map(|&a| g.attr_value(n, a, t)).collect()
    };
    let mut nodes: BTreeMap<ValueTuple, Vec<Option<i64>>> = BTreeMap::new();
    for n in g.node_ids() {
        for t in g.node_timestamp(n).iter() {
            let seen = measured.and_then(|a| g.attr_value(n, a, t).as_int());
            nodes.entry(tuple_of(n, t)).or_default().push(seen);
        }
    }
    let mut edges: BTreeMap<(ValueTuple, ValueTuple), Vec<Option<i64>>> = BTreeMap::new();
    for e in g.edge_ids() {
        let (u, v) = g.edge_endpoints(e);
        for t in g.edge_timestamp(e).iter() {
            edges
                .entry((tuple_of(u, t), tuple_of(v, t)))
                .or_default()
                .push(g.edge_value(e, t).as_int());
        }
    }

    let names: Vec<&str> = group.iter().map(|&a| g.schema().def(a).name()).collect();
    let mut out = format!("measure {node_spec} grouped by ({})\n", names.join(","));
    for (tuple, appearances) in &nodes {
        if let Some(v) = node.of(appearances) {
            let _ = writeln!(out, "  node {} = {v:.3}", render_tuple(g, group, tuple));
        }
    }
    let valued = edges
        .iter()
        .filter_map(|(pair, appearances)| edge.of(appearances).map(|v| (pair, v)));
    for ((s, d), v) in valued.take(10) {
        let _ = writeln!(
            out,
            "  edge {} -> {} = {v:.3}",
            render_tuple(g, group, s),
            render_tuple(g, group, d)
        );
    }
    out.trim_end().to_owned()
}

/// A non-empty contiguous interval over `n` points, as `(token, set)`.
fn interval(n: usize, seed: u64) -> (String, TimeSet) {
    let a = (seed as usize) % n;
    let b = ((seed >> 8) as usize) % n;
    let (lo, hi) = (a.min(b), a.max(b));
    (format!("#{lo}..#{hi}"), TimeSet::range(n, lo, hi))
}

/// The pair at chain coordinate `(i, j)`, derived independently of the
/// engine's chain table.
fn chain_pair(n: usize, i: usize, j: usize, extend: ExtendSide) -> IntervalPair {
    let point = |t: usize| TimeSet::point(n, TimePoint(t as u32));
    match extend {
        ExtendSide::New => IntervalPair {
            told: point(i),
            tnew: TimeSet::range(n, i + 1, i + 1 + j),
        },
        ExtendSide::Old => IntervalPair {
            told: TimeSet::range(n, i - j, i),
            tnew: point(i + 1),
        },
    }
}

/// The `explore` oracle, as `explore` prints it: the strategy Table 1 names
/// for the case, walked chain by chain with every pair materialized and
/// aggregated from scratch.
fn naive_explore(g: &TemporalGraph, cfg: &ExploreConfig) -> String {
    let n = g.domain().len();
    let mut evaluations = 0;
    let mut pairs: Vec<(IntervalPair, u64)> = Vec::new();
    for i in 0..n - 1 {
        let len = match cfg.extend {
            ExtendSide::New => n - 1 - i,
            ExtendSide::Old => i + 1,
        };
        let mut eval = |j: usize| {
            evaluations += 1;
            let pair = chain_pair(n, i, j, cfg.extend);
            let r = evaluate_pair_materialized(g, cfg, &pair.told, &pair.tnew).unwrap();
            (pair, r)
        };
        let mut found = None;
        match (
            cfg.semantics,
            direction(cfg.event, cfg.extend, cfg.semantics),
        ) {
            (Semantics::Union, Direction::Increasing) => {
                found = (0..len).map(&mut eval).find(|(_, r)| *r >= cfg.k);
            }
            (Semantics::Intersection, Direction::Decreasing) => {
                for j in 0..len {
                    let at_j = eval(j);
                    if at_j.1 < cfg.k {
                        break;
                    }
                    found = Some(at_j);
                }
            }
            (Semantics::Union, Direction::Decreasing) => {
                found = Some(eval(0)).filter(|(_, r)| *r >= cfg.k);
            }
            (Semantics::Intersection, Direction::Increasing) => {
                found = Some(eval(len - 1)).filter(|(_, r)| *r >= cfg.k);
            }
        }
        pairs.extend(found);
    }
    let kind = match cfg.semantics {
        Semantics::Union => "minimal",
        Semantics::Intersection => "maximal",
    };
    let mut out = format!(
        "{} qualifying {kind} interval pairs ({evaluations} evaluations):\n",
        pairs.len()
    );
    for (pair, r) in &pairs {
        let _ = writeln!(out, "  {} -> {r} events", pair.display(g.domain()));
    }
    out.trim_end().to_owned()
}

/// The `suggest` oracle, as `suggest` prints it — §3.5 by definition: over
/// the consecutive pairs, the selected tuple's weight (tuple selectors) or
/// the individual entity weights of the event graph's distinct aggregate
/// (All selectors), pairs without events skipped; the minimum where the
/// case is increasing, the maximum where it is decreasing.
fn naive_suggest(g: &TemporalGraph, cfg: &ExploreConfig) -> String {
    let n = g.domain().len();
    let pick = |ws: Vec<u64>| match direction(cfg.event, cfg.extend, cfg.semantics) {
        Direction::Increasing => ws.into_iter().min(),
        Direction::Decreasing => ws.into_iter().max(),
    };
    let per_pair = (0..n - 1).filter_map(|i| {
        let pair = chain_pair(n, i, 0, cfg.extend);
        match &cfg.selector {
            Selector::NodeTuple(_) | Selector::EdgeTuple(..) => {
                let r = evaluate_pair_materialized(g, cfg, &pair.told, &pair.tnew).unwrap();
                (r > 0).then_some(r)
            }
            all => {
                let any = SideTest::Any;
                let ev = event_graph(g, cfg.event, &pair.told, &pair.tnew, any, any).unwrap();
                let agg = aggregate(&ev, &cfg.attrs, AggMode::Distinct);
                pick(if all.is_edge() {
                    agg.iter_edges().into_iter().map(|(_, w)| w).collect()
                } else {
                    agg.iter_nodes().into_iter().map(|(_, w)| w).collect()
                })
            }
        }
    });
    match pick(per_pair.collect()) {
        Some(w) => format!("suggested k (w_th per §3.5): {w}"),
        None => "no events between any consecutive time points".to_owned(),
    }
}

/// `explore` and `suggest` on the session's current epoch: all twelve
/// Table-1 cases on each attribute layout, for the All-edges selector, a
/// node tuple and an edge tuple. Every request is issued twice: the second
/// is served from the group ids and match columns the first one cached.
fn check_exploration(session: &mut Session, seed: u64) -> Result<(), TestCaseError> {
    let g = session.graph_arc().expect("session holds a graph");
    let g: &TemporalGraph = &g;
    let (kind, level) = (
        g.schema().id("kind").unwrap(),
        g.schema().id("level").unwrap(),
    );
    let k0 = g.schema().category(kind, "k0").expect("k0 always exists");
    let lv = 1 + (seed % 2) as i64;
    let k = 1 + (seed >> 8) % 3;
    for (names, attrs, token, tuple) in [
        ("kind", vec![kind], "k0".to_owned(), vec![k0.clone()]),
        ("level", vec![level], format!("{lv}"), vec![Value::Int(lv)]),
        (
            "kind,level",
            vec![kind, level],
            format!("k0,{lv}"),
            vec![k0, Value::Int(lv)],
        ),
    ] {
        for (selector_tok, selector) in [
            (String::new(), Selector::AllEdges),
            (format!(" node={token}"), Selector::NodeTuple(tuple.clone())),
            (
                format!(" edge={token}->{token}"),
                Selector::EdgeTuple(tuple.clone(), tuple.clone()),
            ),
        ] {
            for (event_tok, event) in [
                ("stability", Event::Stability),
                ("growth", Event::Growth),
                ("shrinkage", Event::Shrinkage),
            ] {
                for (extend_tok, extend) in [("old", ExtendSide::Old), ("new", ExtendSide::New)] {
                    for (semantics_tok, semantics) in [
                        ("union", Semantics::Union),
                        ("intersect", Semantics::Intersection),
                    ] {
                        let cfg = ExploreConfig {
                            event,
                            extend,
                            semantics,
                            k,
                            attrs: attrs.clone(),
                            selector: selector.clone(),
                        };
                        let case = format!(
                            "event={event_tok} semantics={semantics_tok} extend={extend_tok} \
                             attrs={names}{selector_tok}"
                        );
                        let explore = format!("explore {case} k={k}");
                        let want = naive_explore(g, &cfg);
                        if names == "kind" {
                            // the lemmas hold on a static list, so the
                            // strategy finds what exhaustive search finds
                            let exhaustive = explore_naive(g, &cfg).unwrap();
                            let shown: Vec<String> = exhaustive
                                .pairs
                                .iter()
                                .map(|(p, r)| format!("  {} -> {r} events", p.display(g.domain())))
                                .collect();
                            prop_assert_eq!(
                                want.lines().skip(1).collect::<Vec<_>>(),
                                shown,
                                "{}",
                                explore
                            );
                        }
                        let suggest = format!("suggest {case}");
                        let suggested = naive_suggest(g, &cfg);
                        for pass in ["cold", "cached"] {
                            prop_assert_eq!(
                                session.exec(&explore).unwrap(),
                                want.as_str(),
                                "{} ({})",
                                explore,
                                pass
                            );
                            prop_assert_eq!(
                                session.exec(&suggest).unwrap(),
                                suggested.as_str(),
                                "{} ({})",
                                suggest,
                                pass
                            );
                        }
                    }
                }
            }
        }
    }
    Ok(())
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

        // measure: each node reduction beside an edge reduction, grouped by
        // this layout; `min:kind` reads a static cell that is never numeric
        let kind = g.schema().id("kind").unwrap();
        for (node_spec, node, edge_tok, edge) in [
            ("count", (Reduce::Count, None), "count", Reduce::Count),
            ("sum:level", (Reduce::Sum, Some(level)), "sum", Reduce::Sum),
            ("min:level", (Reduce::Min, Some(level)), "min", Reduce::Min),
            ("max:level", (Reduce::Max, Some(level)), "max", Reduce::Max),
            ("avg:level", (Reduce::Avg, Some(level)), "avg", Reduce::Avg),
            (
                "min:kind",
                (Reduce::Min, Some(kind)),
                "count",
                Reduce::Count,
            ),
        ] {
            let line = format!("measure group={names} node={node_spec} edge={edge_tok}");
            let got = session.exec(&line);
            if edge_tok != "count" && !g.has_edge_values() {
                prop_assert!(got.is_err(), "{}: no edge values to reduce", line);
                continue;
            }
            let want = naive_measure(g, &attrs, node_spec, node, edge);
            prop_assert_eq!(got.unwrap(), want, "{}", line);
        }
    }

    // cube: every level of the (kind, level) cube — static, time-varying,
    // mixed in both orders — at a point, over a scope and over everything
    let point = TimePoint((seed >> 32) as u32 % n as u32);
    let cube_attrs: Vec<AttrId> = ["kind", "level"]
        .iter()
        .map(|a| g.schema().id(a).unwrap())
        .collect();
    let all = g.domain().all();
    for (operand, base) in [
        (format!("t=#{}", point.index()), project_point(g, point)),
        (format!("scope={tok1}"), union(g, &t1, &t1)),
        (String::new(), union(g, &all, &all)),
    ] {
        let full = aggregate(&base.unwrap(), &cube_attrs, AggMode::All);
        for level in ["kind", "level", "kind,level", "level,kind"] {
            let line = format!("cube attrs=kind,level level={level} {operand}");
            let got = session.exec(&line).unwrap();
            let keep: Vec<&str> = level.split(',').collect();
            let want = render_cube(g, level, &rollup(&full, &keep).unwrap());
            prop_assert_eq!(got, want, "{}", line);
        }
    }
    check_exploration(session, seed)
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
