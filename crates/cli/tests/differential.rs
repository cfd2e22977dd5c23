//! Differential test of the read-query path: every `agg`, `evolution`,
//! `cube`, `measure`, `explore`, `suggest`, `stats`, `zoom` and
//! operator-count answer of [`Session::exec`] — served from event masks,
//! cached group ids, cached selector match columns and dense accumulators —
//! must equal the naive oracle (`aggregate` over the *materialized*
//! operator graph, rolled up for
//! `cube`; the tuple-hashing `evolution_aggregate_naive`; a scan over
//! `attr_value` / `edge_value` for `measure`; the Table-1 strategy walked
//! with `evaluate_pair_materialized`, and `explore_naive` where the lemmas
//! hold, for `explore`; a scan of the consecutive pairs' materialized
//! aggregates for `suggest`; row-wise `node_alive_at` / `edge_alive_at`
//! counts for `stats`, OR-ed or AND-ed per window for `zoom`) on random
//! graphs, at every epoch of a random append sequence, under both
//! presence-column policies. The oracles and the generators live in
//! `tempo-testkit`.
//!
//! A second property holds the per-point presence counts and the shell
//! `metrics` overlaps, which read the presence columns, to row probes at
//! every epoch.
//!
//! The appends rewrite static cells, add nodes and edges and record edge
//! values, so an answer computed from group ids or match columns cached on
//! an earlier epoch would differ from the oracle.

use graphtempo::aggregate::{aggregate, rollup, AggMode};
use graphtempo::evolution::evolution_aggregate_naive;
use graphtempo::explore::{explore_naive, ExploreConfig, ExtendSide, Selector, Semantics};
use graphtempo::ops::{difference, intersection, project, project_point, union, Event, SideTest};
use graphtempo_cli::{CliError, QueryLimits, Session};
use proptest::prelude::*;
use std::sync::Arc;
use tempo_columnar::Value;
use tempo_graph::metrics::{density_at, edge_jaccard, node_jaccard, turnover_profile};
use tempo_graph::{AttrId, NodeId, TemporalGraph, TimePoint};
use tempo_testkit::{
    both_layouts, graph_config, interval, naive_explore, naive_measure, naive_stats, naive_suggest,
    naive_zoom, patch_tokens, range_token, render_agg, render_cube, render_evolution, Reduce,
};

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
    let (t1, t2) = (interval(n, seed), interval(n, seed >> 16));
    let (tok1, tok2) = (range_token(&t1), range_token(&t2));

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
            gr.attr_value(node, level, t)
                .as_int()
                .is_some_and(|v| v >= 2)
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
        // this layout
        for (node_spec, node, edge_tok, edge) in [
            ("count", (Reduce::Count, None), "count", Reduce::Count),
            ("sum:level", (Reduce::Sum, Some(level)), "sum", Reduce::Sum),
            ("min:level", (Reduce::Min, Some(level)), "min", Reduce::Min),
            ("max:level", (Reduce::Max, Some(level)), "max", Reduce::Max),
            ("avg:level", (Reduce::Avg, Some(level)), "avg", Reduce::Avg),
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
        // a categorical cell is never numeric: refused, not reduced to nothing
        let line = format!("measure group={names} node=min:kind");
        prop_assert!(
            matches!(session.exec(&line), Err(CliError::Usage(_))),
            "{}",
            line
        );
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

    // stats, and zoom under both semantics; the snapshot a zoom derives goes
    // to a session of its own, so this one stays on the epoch under test
    prop_assert_eq!(session.exec("stats").unwrap(), naive_stats(g));
    let window = 1 + (seed >> 40) as usize % n;
    for (semantics_tok, semantics) in [("any", SideTest::Any), ("all", SideTest::All)] {
        let line = format!("zoom window={window} semantics={semantics_tok}");
        let (reply, stats) = naive_zoom(g, window, semantics);
        let snapshot = session.graph_arc().expect("session holds a graph");
        let mut zoomed = Session::for_snapshot(snapshot, QueryLimits::default());
        prop_assert_eq!(zoomed.exec(&line).unwrap(), reply, "{}", line);
        prop_assert_eq!(zoomed.exec("stats").unwrap(), stats, "stats after {}", line);
    }
    check_exploration(session, seed)
}

/// Jaccard similarity of two points' presence, one probe per row.
fn probe_jaccard(a: &[bool], b: &[bool]) -> f64 {
    let both = a.iter().zip(b).filter(|&(&x, &y)| x && y).count();
    let either = a.iter().zip(b).filter(|&(&x, &y)| x || y).count();
    if either == 0 {
        0.0
    } else {
        both as f64 / either as f64
    }
}

/// The per-point presence counts (`nodes_at`, `edges_at`, `density_at`)
/// and the shell `metrics` table's overlaps (`node_jaccard`,
/// `edge_jaccard`, `turnover_profile`), which read the presence columns,
/// against `node_alive_at` / `edge_alive_at` probed one row at a time.
fn check_presence_counts(g: &TemporalGraph) -> Result<(), TestCaseError> {
    let points: Vec<TimePoint> = g.domain().iter().collect();
    let node_rows: Vec<Vec<bool>> = points
        .iter()
        .map(|&t| g.node_ids().map(|n| g.node_alive_at(n, t)).collect())
        .collect();
    let edge_rows: Vec<Vec<bool>> = points
        .iter()
        .map(|&t| g.edge_ids().map(|e| g.edge_alive_at(e, t)).collect())
        .collect();
    let ones = |rows: &[bool]| rows.iter().filter(|&&x| x).count();
    for (i, &t) in points.iter().enumerate() {
        let (n, e) = (ones(&node_rows[i]), ones(&edge_rows[i]));
        prop_assert_eq!(g.nodes_at(t), n, "nodes at {:?}", t);
        prop_assert_eq!(g.edges_at(t), e, "edges at {:?}", t);
        let density = if n < 2 {
            0.0
        } else {
            e as f64 / (n * (n - 1)) as f64
        };
        prop_assert_eq!(density_at(g, t), density, "density at {:?}", t);
        for (j, &u) in points.iter().enumerate() {
            let (nj, ej) = (
                probe_jaccard(&node_rows[i], &node_rows[j]),
                probe_jaccard(&edge_rows[i], &edge_rows[j]),
            );
            prop_assert_eq!(node_jaccard(g, t, u), nj, "nodes {:?} {:?}", t, u);
            prop_assert_eq!(edge_jaccard(g, t, u), ej, "edges {:?} {:?}", t, u);
        }
    }
    let profile: Vec<(f64, f64)> = (1..points.len())
        .map(|i| {
            (
                probe_jaccard(&node_rows[i - 1], &node_rows[i]),
                probe_jaccard(&edge_rows[i - 1], &edge_rows[i]),
            )
        })
        .collect();
    prop_assert_eq!(turnover_profile(g), profile);
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
        let g = cfg.generate().expect("random generator produces valid graphs");
        for g in both_layouts(&g) {
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

    #[test]
    fn presence_counts_equal_row_probes_at_every_epoch(
        cfg in graph_config(),
        patches in proptest::collection::vec(patch_tokens(), 1..4),
    ) {
        let g = cfg.generate().expect("random generator produces valid graphs");
        for g in both_layouts(&g) {
            let base = Arc::new(g);
            let mut session = Session::for_snapshot(Arc::clone(&base), QueryLimits::default());
            for (i, tokens) in patches.iter().enumerate() {
                session.exec(&format!("append y{i}{tokens}")).unwrap();
                check_presence_counts(&session.graph_arc().expect("session holds a graph"))?;
            }
            check_presence_counts(&base)?;
        }
    }
}
