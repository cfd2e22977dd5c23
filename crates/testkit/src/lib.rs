//! `tempo-testkit`: what the oracle harnesses share — the random evolving
//! graphs and append sequences they draw, the helpers that address them
//! (intervals, chain coordinates, the generator's two attributes, both
//! column layouts), and the naive evaluators that say what a served answer
//! must be: Def. 2.2–2.7 walked entity by entity or over a *materialized*
//! operator graph, rendered the way the verb prints it.
//!
//! `crates/core/tests/{kernel_equivalence,properties}.rs`,
//! `crates/cli/tests/differential.rs` and `tests/append_equivalence.rs` draw
//! from here; nothing outside `[dev-dependencies]` may. A new verb gets its
//! oracle by adding one `naive_<verb>` function here and one comparison to
//! `differential.rs` (DESIGN §14).
//!
//! The oracles that are the paper's own algorithms — `graphtempo::ops`,
//! `aggregate`, `evolution_aggregate_naive`, `explore_naive`,
//! `evaluate_pair_materialized` — stay in `graphtempo`, where unit tests
//! and `benchmark/` reach them; this crate only composes them.

#![warn(missing_docs)]

use graphtempo::aggregate::{aggregate, AggMode, AggregateGraph};
use graphtempo::evolution::EvolutionAggregate;
use graphtempo::explore::{
    direction, evaluate_pair_materialized, Direction, ExploreConfig, ExtendSide, IntervalPair,
    Selector, Semantics, ThresholdStat,
};
use graphtempo::ops::{event_graph, Event, SideTest};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::ops::Range;
use tempo_columnar::{BitVec, SparseMode, Value, ValueTuple};
use tempo_datagen::RandomGraphConfig;
use tempo_graph::{
    AttrId, AttributeSchema, EdgeId, GraphBuilder, GraphStats, NodeId, TemporalGraph, Temporality,
    TimeDomain, TimePoint, TimeSet,
};

// ---------------------------------------------------------------- strategies

/// A random generator configuration whose pool, time points, active nodes
/// and edges per time point lie in the given ranges.
fn config_strategy(
    pool: Range<usize>,
    timepoints: Range<usize>,
    active: Range<usize>,
    edges: Range<usize>,
) -> impl Strategy<Value = RandomGraphConfig> {
    (
        pool,
        timepoints,
        active,
        edges,
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

/// Strategy: the configuration of a small random evolving graph (2–5 time
/// points, a pool of at most 29 nodes), for harnesses that rebuild or
/// append to the graph themselves.
pub fn graph_config() -> impl Strategy<Value = RandomGraphConfig> {
    config_strategy(8..30, 2..6, 4..12, 4..30)
}

/// Strategy: a random evolving graph (3–6 time points, a pool of at most
/// 39 nodes) with a static `kind` and a time-varying `level`.
pub fn graph_strategy() -> impl Strategy<Value = TemporalGraph> {
    config_strategy(10..40, 3..7, 5..15, 5..40).prop_map(|cfg| {
        cfg.generate()
            .expect("random generator produces valid graphs")
    })
}

/// Strategy: one `append` line's tokens over node indexes `0..40`
/// ([`graph_config`]'s pool is at most 29, so some of them are new nodes):
/// marked nodes, edges, `level` values, `kind` rewrites (`k0` always
/// exists), and edge values (the generated graph has none until a patch
/// records one).
pub fn patch_tokens() -> impl Strategy<Value = String> {
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

// ------------------------------------------------------------------ helpers

/// A non-empty contiguous interval over `n` points, read off `seed`.
pub fn interval(n: usize, seed: u64) -> TimeSet {
    let a = (seed as usize) % n;
    let b = ((seed >> 8) as usize) % n;
    TimeSet::range(n, a.min(b), a.max(b))
}

/// A non-empty contiguous set as a request spells it: `#lo..#hi`.
pub fn range_token(t: &TimeSet) -> String {
    let (lo, hi) = (t.min().expect("non-empty"), t.max().expect("non-empty"));
    format!("#{}..#{}", lo.index(), hi.index())
}

/// The generator's static attribute.
pub fn kind_attr(g: &TemporalGraph) -> AttrId {
    g.schema().id("kind").expect("random graphs have `kind`")
}

/// The generator's time-varying attribute.
pub fn level_attr(g: &TemporalGraph) -> AttrId {
    g.schema().id("level").expect("random graphs have `level`")
}

/// Four points, two nodes and one edge whose tuple comes back: node `u`
/// and edge `u → v` carry `level` 1 at `t0`, are absent at `t1`, carry 2 at
/// `t2` and 1 again at `t3`; `v` carries 9 throughout, and both share the
/// static `kind`. A scope over all four points holds three appearances of
/// two distinct tuples.
pub fn returning_tuple() -> TemporalGraph {
    let mut schema = AttributeSchema::new();
    let kind = schema.declare("kind", Temporality::Static).expect("fresh");
    let level = schema
        .declare("level", Temporality::TimeVarying)
        .expect("fresh");
    let mut b = GraphBuilder::new(TimeDomain::indexed(4), schema);
    let (u, v) = (b.get_or_add_node("u"), b.get_or_add_node("v"));
    let k = b.intern_category(kind, "k");
    let set = |b: &mut GraphBuilder, n: NodeId, t: u32, x: i64| {
        b.set_time_varying(n, level, TimePoint(t), Value::Int(x))
            .expect("in the domain");
    };
    for n in [u, v] {
        b.set_static(n, kind, k.clone()).expect("static");
    }
    for (t, x) in [(0, 1), (2, 2), (3, 1)] {
        set(&mut b, u, t, x);
        b.add_edge_at(u, v, TimePoint(t)).expect("in the domain");
    }
    for t in 0..4 {
        set(&mut b, v, t, 9);
    }
    b.build().expect("well-formed")
}

/// The graph under each forced column layout, dense first: the one caller
/// of `TemporalGraph::set_sparse_mode` outside `tempo-graph`.
pub fn both_layouts(g: &TemporalGraph) -> [TemporalGraph; 2] {
    [SparseMode::ForceDense, SparseMode::ForceSparse].map(|mode| {
        let mut g = g.clone();
        g.set_sparse_mode(mode);
        g
    })
}

/// The interval pair at chain coordinate `(i, j)`, derived independently
/// of the engine's chain table.
pub fn chain_pair(n: usize, i: usize, j: usize, extend: ExtendSide) -> IntervalPair {
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

/// Number of pairs in reference `i`'s chain.
pub fn chain_len(n: usize, i: usize, extend: ExtendSide) -> usize {
    match extend {
        ExtendSide::New => n - 1 - i,
        ExtendSide::Old => i + 1,
    }
}

// ---------------------------------------------------------- reply renderers

/// A value tuple as every verb prints it: `(v1,v2)`.
pub fn render_tuple(g: &TemporalGraph, attrs: &[AttrId], tuple: &ValueTuple) -> String {
    let parts: Vec<String> = attrs
        .iter()
        .zip(tuple)
        .map(|(&a, v)| g.schema().def(a).render(v))
        .collect();
    format!("({})", parts.join(","))
}

/// An aggregate as `agg … top=<everything>` prints it.
pub fn render_agg(g: &TemporalGraph, attrs: &[AttrId], agg: &AggregateGraph) -> String {
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
pub fn render_evolution(g: &TemporalGraph, attrs: &[AttrId], evo: &EvolutionAggregate) -> String {
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
pub fn render_cube(g: &TemporalGraph, level: &str, agg: &AggregateGraph) -> String {
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

/// Per-point counts as `stats` prints them.
fn render_stats(
    time_labels: Vec<String>,
    per_tp: Vec<(usize, usize)>,
    total_nodes: usize,
    total_edges: usize,
) -> String {
    let stats = GraphStats {
        time_labels,
        nodes_per_tp: per_tp.iter().map(|&(nodes, _)| nodes).collect(),
        edges_per_tp: per_tp.iter().map(|&(_, edges)| edges).collect(),
        total_nodes,
        total_edges,
    };
    format!(
        "{}total: {total_nodes} nodes, {total_edges} edges",
        stats.render_table()
    )
}

// --------------------------------------------------------- naive evaluators

/// The `stats` oracle, as `stats` prints it: at every time point, the node
/// and edge rows counted one `node_alive_at` / `edge_alive_at` at a time.
pub fn naive_stats(g: &TemporalGraph) -> String {
    let per_tp = g.domain().iter().map(|t| {
        (
            g.node_ids().filter(|&n| g.node_alive_at(n, t)).count(),
            g.edge_ids().filter(|&e| g.edge_alive_at(e, t)).count(),
        )
    });
    render_stats(
        g.domain().labels().to_vec(),
        per_tp.collect(),
        g.n_nodes(),
        g.n_edges(),
    )
}

/// The `zoom window=<w> semantics=<any|all>` oracle: the reply of `zoom`,
/// and of `stats` on the snapshot it derives. Presence is OR-ed
/// ([`SideTest::Any`]) or AND-ed ([`SideTest::All`]) over each window of
/// `window` points (the last may be shorter), an edge holds a coarse point
/// only where both its endpoints do, and an entity that holds none is gone.
pub fn naive_zoom(g: &TemporalGraph, window: usize, semantics: SideTest) -> (String, String) {
    let n = g.domain().len();
    let windows: Vec<Range<usize>> = (0..n)
        .step_by(window)
        .map(|start| start..(start + window).min(n))
        .collect();
    let fold = |w: &Range<usize>, alive: &dyn Fn(TimePoint) -> bool| {
        let mut points = w.clone().map(|t| alive(TimePoint(t as u32)));
        match semantics {
            SideTest::Any => points.any(|b| b),
            SideTest::All => points.all(|b| b),
        }
    };
    let node_row = |node: NodeId| -> Vec<bool> {
        let alive = |t| g.node_alive_at(node, t);
        windows.iter().map(|w| fold(w, &alive)).collect()
    };
    let node_rows: Vec<Vec<bool>> = g.node_ids().map(node_row).collect();
    let edge_row = |e: EdgeId| -> Vec<bool> {
        let (u, v) = g.edge_endpoints(e);
        let (urow, vrow) = (&node_rows[u.index()], &node_rows[v.index()]);
        let alive = |t| g.edge_alive_at(e, t);
        let held = |(i, w)| fold(w, &alive) && urow[i] && vrow[i];
        windows.iter().enumerate().map(held).collect()
    };
    let kept = |rows: Vec<Vec<bool>>| -> Vec<Vec<bool>> {
        rows.into_iter().filter(|r| r.contains(&true)).collect()
    };
    let edges = kept(g.edge_ids().map(edge_row).collect());
    let nodes = kept(node_rows);

    let labels = g.domain().labels();
    let coarse_labels = windows.iter().map(|w| match w.len() {
        1 => labels[w.start].clone(),
        _ => format!("{}..{}", labels[w.start], labels[w.end - 1]),
    });
    let held_at = |rows: &[Vec<bool>], i: usize| rows.iter().filter(|r| r[i]).count();
    let per_tp = (0..windows.len()).map(|i| (held_at(&nodes, i), held_at(&edges, i)));
    let reply = format!(
        "zoomed to {} coarse points: {} nodes, {} edges",
        windows.len(),
        nodes.len(),
        edges.len()
    );
    let stats = render_stats(
        coarse_labels.collect(),
        per_tp.collect(),
        nodes.len(),
        edges.len(),
    );
    (reply, stats)
}

/// What a measure reduces the observations of one group to.
#[derive(Clone, Copy, Debug)]
pub enum Reduce {
    /// Number of appearances.
    Count,
    /// Sum of the numeric observations.
    Sum,
    /// Smallest numeric observation.
    Min,
    /// Largest numeric observation.
    Max,
    /// Mean of the numeric observations.
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
pub fn naive_measure(
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

/// The `explore` oracle, as `explore` prints it: the strategy Table 1 names
/// for the case, walked chain by chain with every pair materialized and
/// aggregated from scratch.
pub fn naive_explore(g: &TemporalGraph, cfg: &ExploreConfig) -> String {
    let n = g.domain().len();
    let mut evaluations = 0;
    let mut pairs: Vec<(IntervalPair, u64)> = Vec::new();
    for i in 0..n - 1 {
        let len = chain_len(n, i, cfg.extend);
        let mut eval = |j: usize| {
            evaluations += 1;
            let pair = chain_pair(n, i, j, cfg.extend);
            let r = evaluate_pair_materialized(g, cfg, &pair.told, &pair.tnew)
                .expect("chain pairs are non-empty");
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

/// §3.5 by definition: over the consecutive pairs, the min or max of the
/// selected tuple's weight (tuple selectors) or of the individual entity
/// weights of the event graph's distinct aggregate (All selectors); pairs
/// without events are skipped.
pub fn naive_threshold(g: &TemporalGraph, cfg: &ExploreConfig, stat: ThresholdStat) -> Option<u64> {
    let n = g.domain().len();
    let pick = |ws: Vec<u64>| match stat {
        ThresholdStat::Min => ws.into_iter().min(),
        ThresholdStat::Max => ws.into_iter().max(),
    };
    let per_pair = (0..n - 1).filter_map(|i| {
        let pair = chain_pair(n, i, 0, cfg.extend);
        match &cfg.selector {
            Selector::NodeTuple(_) | Selector::EdgeTuple(..) => {
                let r = evaluate_pair_materialized(g, cfg, &pair.told, &pair.tnew)
                    .expect("consecutive points are non-empty");
                (r > 0).then_some(r)
            }
            all => {
                let any = SideTest::Any;
                let ev = event_graph(g, cfg.event, &pair.told, &pair.tnew, any, any)
                    .expect("consecutive points are non-empty");
                let agg = aggregate(&ev, &cfg.attrs, AggMode::Distinct);
                pick(if all.is_edge() {
                    agg.iter_edges().into_iter().map(|(_, w)| w).collect()
                } else {
                    agg.iter_nodes().into_iter().map(|(_, w)| w).collect()
                })
            }
        }
    });
    pick(per_pair.collect())
}

/// The `suggest` oracle, as `suggest` prints it: [`naive_threshold`]'s
/// minimum where the case is increasing, its maximum where it is decreasing.
pub fn naive_suggest(g: &TemporalGraph, cfg: &ExploreConfig) -> String {
    let stat = match direction(cfg.event, cfg.extend, cfg.semantics) {
        Direction::Increasing => ThresholdStat::Min,
        Direction::Decreasing => ThresholdStat::Max,
    };
    match naive_threshold(g, cfg, stat) {
        Some(w) => format!("suggested k (w_th per §3.5): {w}"),
        None => "no events between any consecutive time points".to_owned(),
    }
}

/// The row-wise oracle for `event_mask`: membership decided entity by
/// entity on its timestamp (`event_mask` folds whole presence columns
/// instead). Returns the kept node and edge rows.
pub fn event_mask_rowwise(
    g: &TemporalGraph,
    event: Event,
    told: &TimeSet,
    tnew: &TimeSet,
    old_test: SideTest,
    new_test: SideTest,
) -> (BitVec, BitVec) {
    let nodes_m: Vec<TimeSet> = g.node_ids().map(|n| g.node_timestamp(n)).collect();
    let edges_m: Vec<TimeSet> = g.edge_ids().map(|e| g.edge_timestamp(e)).collect();
    let (nodes_m, edges_m) = (&nodes_m[..], &edges_m[..]);
    let member =
        |rows: &[TimeSet], r: usize, side: &TimeSet, test: SideTest| test.member(&rows[r], side);
    let mut keep_nodes = BitVec::zeros(g.n_nodes());
    let mut keep_edges = BitVec::zeros(g.n_edges());
    // stability keeps members of both sides; a difference keeps members of
    // `keep` that are not members of `drop`, plus (nodes only) the endpoints
    // of kept edges that are members of `keep`
    let (keep, keep_test, drop, drop_test) = match event {
        Event::Stability => {
            for r in 0..g.n_nodes() {
                let both = member(nodes_m, r, told, old_test) && member(nodes_m, r, tnew, new_test);
                keep_nodes.set(r, both);
            }
            for r in 0..g.n_edges() {
                let both = member(edges_m, r, told, old_test) && member(edges_m, r, tnew, new_test);
                keep_edges.set(r, both);
            }
            return (keep_nodes, keep_edges);
        }
        Event::Growth => (tnew, new_test, told, old_test),
        Event::Shrinkage => (told, old_test, tnew, new_test),
    };
    let mut incident = BitVec::zeros(g.n_nodes());
    for r in 0..g.n_edges() {
        if member(edges_m, r, keep, keep_test) && !member(edges_m, r, drop, drop_test) {
            keep_edges.set(r, true);
            let (u, v) = g.edge_endpoints(EdgeId(r as u32));
            incident.set(u.index(), true);
            incident.set(v.index(), true);
        }
    }
    for r in 0..g.n_nodes() {
        let kept = member(nodes_m, r, keep, keep_test)
            && (!member(nodes_m, r, drop, drop_test) || incident.get(r));
        keep_nodes.set(r, kept);
    }
    (keep_nodes, keep_edges)
}
