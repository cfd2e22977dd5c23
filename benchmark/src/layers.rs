//! The benchmark's whole contact surface with the program: the **only**
//! module that names a `tempo_*` / `graphtempo*` item. Every layer is timed
//! from out here, by calling its public functions; nothing in the program
//! was changed to be measured.
//!
//! The surface, which stays callable until the next `[benchmark]` issue:
//!
//! * `tempo_server::{spawn, ServerConfig, Server::{addr, registry, shutdown}}`
//! * `graphtempo_cli::{Session::{for_snapshot, exec}, QueryLimits, patch::parse_patch}`
//! * `graphtempo::ops::{union, intersection, difference, event_mask}`
//! * `graphtempo::aggregate::{aggregate, GroupTable::{build, aggregate_masked}}`
//! * `graphtempo::evolution::{evolution_aggregate, EvolutionGraph::compute}`
//! * `graphtempo::explore::{explore, explore_naive, suggest_k}`
//! * `graphtempo::cube::GraphCube::{build, query}`, `graphtempo::measures::aggregate_measure`
//! * `tempo_graph::{GraphVersions::{from_arc, append_timepoint}, GraphStats::compute}`
//! * `TemporalGraph::{node_presence_columns, edge_presence_columns, clone}` and
//!   `BitMatrix::transposed_with`, `PresenceColumn::count_ones_and`
//! * `tempo_datagen::{DblpConfig, MovieLensConfig}::scaled(..).generate()`
//! * `tempo_instrument::{global, set_enabled}`

use crate::workloads::{
    Dataset, Event, Exploration, Extend, Mode, Query, Selector, Semantics, SetOp, SnapshotSpec,
    Span,
};
use graphtempo::aggregate::{aggregate, AggMode, AggregateGraph, GroupTable};
use graphtempo::cube::{GraphCube, Level};
use graphtempo::evolution::{evolution_aggregate, EvolutionClass, EvolutionGraph};
use graphtempo::explore::{explore, explore_naive, suggest_k, ExploreConfig, ExploreOutcome};
use graphtempo::measures::{aggregate_measure, EdgeMeasure, NodeMeasure};
use graphtempo::ops::{difference, event_mask, intersection, union, EventMask, SideTest};
use graphtempo_cli::patch::parse_patch;
use graphtempo_cli::{QueryLimits, Session};
use std::fmt::Write as _;
use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tempo_columnar::{Value, ValueTuple};
use tempo_datagen::{DblpConfig, MovieLensConfig};
use tempo_graph::{AttrId, GraphStats, GraphVersions, NodeId, TemporalGraph, TimePoint, TimeSet};

/// An immutable snapshot, as the server's registry shares it.
pub type Graph = Arc<TemporalGraph>;

/// The in-process server under test.
pub struct Server(tempo_server::Server);

impl Server {
    /// Spawns `tempo-server` on a free loopback port with its defaults.
    pub fn spawn() -> std::io::Result<Server> {
        tempo_server::spawn(tempo_server::ServerConfig::default()).map(Server)
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.0.addr()
    }

    /// The registered snapshot and its epoch.
    pub fn snapshot(&self, name: &str) -> Option<(Graph, u64)> {
        self.0.registry().get(name)
    }

    /// Stops the server and joins its threads.
    pub fn shutdown(self) {
        self.0.shutdown();
    }
}

/// The limits `tempo-server` applies to a request by default.
fn server_limits() -> QueryLimits {
    QueryLimits {
        timeout_ms: Some(30_000),
        max_rows: Some(10_000),
        shards: None,
    }
}

/// One request through a shell session over the snapshot — the server's
/// path without the socket, the registry and the protocol.
pub fn session_exec(g: &Graph, line: &str) -> Result<String, String> {
    Session::for_snapshot(Arc::clone(g), server_limits())
        .exec(line)
        .map_err(|e| e.to_string())
}

/// Generates a snapshot's graph directly, as `generate` does.
pub fn generate(spec: &SnapshotSpec, seed: u64) -> Graph {
    let g = match spec.dataset {
        Dataset::Dblp => {
            let mut cfg = DblpConfig::scaled(spec.scale);
            cfg.seed = seed;
            cfg.generate()
        }
        Dataset::MovieLens => {
            let mut cfg = MovieLensConfig::scaled(spec.scale);
            cfg.seed = seed;
            cfg.generate()
        }
    };
    Arc::new(g.expect("the generators accept every positive scale"))
}

/// Time points in the graph's domain.
pub fn n_points(g: &Graph) -> usize {
    g.domain().len()
}

/// Names of all nodes, in id order.
pub fn node_names(g: &Graph) -> Vec<String> {
    g.node_ids().map(|n| g.node_name(n).to_owned()).collect()
}

/// Turns collection of the program's own counters on or off.
pub fn set_instrument_enabled(on: bool) {
    tempo_instrument::set_enabled(on);
}

/// The program's own counters the ledger reads, as cumulative values.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    /// `explore.evaluations`
    pub evaluations: u64,
    /// `explore.pruned`
    pub pruned: u64,
    /// `explore.cursor.steps`
    pub cursor_steps: u64,
    /// `graph.transpose_builds`
    pub transpose_builds: u64,
    /// `server.errors`
    pub server_errors: u64,
    /// `server.timeouts`
    pub server_timeouts: u64,
}

impl Counters {
    /// Reads the global registry.
    pub fn read() -> Counters {
        let s = tempo_instrument::global().snapshot();
        Counters {
            evaluations: s.counter("explore.evaluations"),
            pruned: s.counter("explore.pruned"),
            cursor_steps: s.counter("explore.cursor.steps"),
            transpose_builds: s.counter("graph.transpose_builds"),
            server_errors: s.counter("server.errors"),
            server_timeouts: s.counter("server.timeouts"),
        }
    }

    /// Counts since `earlier`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            evaluations: self.evaluations - earlier.evaluations,
            pruned: self.pruned - earlier.pruned,
            cursor_steps: self.cursor_steps - earlier.cursor_steps,
            transpose_builds: self.transpose_builds - earlier.transpose_builds,
            server_errors: self.server_errors - earlier.server_errors,
            server_timeouts: self.server_timeouts - earlier.server_timeouts,
        }
    }
}

fn attr_ids(g: &TemporalGraph, names: &str) -> Vec<AttrId> {
    names
        .split(',')
        .map(|n| g.schema().id(n).expect("templates name schema attributes"))
        .collect()
}

fn time_set(g: &TemporalGraph, span: Span) -> TimeSet {
    let n = g.domain().len();
    let (lo, hi) = span.bounds(n);
    TimeSet::range(n, lo, hi)
}

/// Categorical label first, then integer — the shell's value grammar.
fn value(g: &TemporalGraph, attr: AttrId, token: &str) -> Value {
    g.schema().category(attr, token).unwrap_or_else(|| {
        Value::Int(
            token
                .parse()
                .expect("selector values are labels or integers"),
        )
    })
}

fn explore_config(g: &TemporalGraph, x: &Exploration) -> ExploreConfig {
    let attr = attr_ids(g, x.attr)[0];
    ExploreConfig {
        event: match x.event {
            Event::Stability => graphtempo::ops::Event::Stability,
            Event::Growth => graphtempo::ops::Event::Growth,
            Event::Shrinkage => graphtempo::ops::Event::Shrinkage,
        },
        extend: match x.extend {
            Extend::Old => graphtempo::explore::ExtendSide::Old,
            Extend::New => graphtempo::explore::ExtendSide::New,
        },
        semantics: match x.semantics {
            Semantics::Union => graphtempo::explore::Semantics::Union,
            Semantics::Intersect => graphtempo::explore::Semantics::Intersection,
        },
        k: x.k,
        attrs: vec![attr],
        selector: match &x.selector {
            Selector::AllEdges => graphtempo::explore::Selector::AllEdges,
            Selector::Node(v) => graphtempo::explore::Selector::NodeTuple(vec![value(g, attr, v)]),
            Selector::Edge(s, d) => graphtempo::explore::Selector::EdgeTuple(
                vec![value(g, attr, s)],
                vec![value(g, attr, d)],
            ),
        },
    }
}

fn agg_mode(mode: Mode) -> AggMode {
    match mode {
        Mode::Dist => AggMode::Distinct,
        Mode::All => AggMode::All,
    }
}

/// The operator's result as a materialised graph, the way `agg` gets it.
fn materialize(g: &TemporalGraph, op: SetOp, t1: &TimeSet, t2: &TimeSet) -> TemporalGraph {
    match op {
        SetOp::Union => union(g, t1, t2),
        SetOp::Intersect => intersection(g, t1, t2),
        SetOp::Diff => difference(g, t1, t2),
    }
    .expect("template intervals are non-empty")
}

/// The same selection as a mask over `g`, with no graph built. `None`
/// selects the whole graph.
fn mask(g: &TemporalGraph, op: Option<(SetOp, &TimeSet, &TimeSet)>) -> EventMask {
    use graphtempo::ops::Event as E;
    let any = SideTest::Any;
    match op {
        None => {
            let all = g.domain().all();
            event_mask(g, E::Stability, &all, &all, any, any)
        }
        Some((SetOp::Union, t1, t2)) => {
            let scope = t1.union(t2);
            event_mask(g, E::Stability, &scope, &scope, any, any)
        }
        Some((SetOp::Intersect, t1, t2)) => event_mask(g, E::Stability, t1, t2, any, any),
        Some((SetOp::Diff, t1, t2)) => event_mask(g, E::Shrinkage, t1, t2, any, any),
    }
    .expect("template intervals are non-empty")
}

/// One timed call into a layer.
#[derive(Clone, Copy, Debug)]
pub struct Timed {
    /// Span name: one of [`SPAN_LAYERS`], or `core.ops.event_mask`,
    /// `core.aggregate.group_table_build`, `core.aggregate.masked` for the
    /// off-path kernels.
    pub name: &'static str,
    /// When the call was made.
    pub start: Instant,
    /// When it returned.
    pub end: Instant,
}

impl Timed {
    /// How long the call took.
    pub fn duration(&self) -> Duration {
        self.end - self.start
    }
}

fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, Timed) {
    let start = Instant::now();
    let out = black_box(f());
    let end = Instant::now();
    (out, Timed { name, start, end })
}

/// One template run as direct calls into the layers below the shell.
#[derive(Debug, Default)]
pub struct Direct {
    /// Calls on the request's own path.
    pub spans: Vec<Timed>,
    /// The alternative kernels on the same operands, off the request's
    /// path: what the work would cost there.
    pub extras: Vec<Timed>,
    /// Counts the calls returned.
    pub facts: Vec<(&'static str, f64)>,
    /// Set when the off-path kernels gave another answer than the
    /// request's own path.
    pub disagreement: Option<String>,
}

/// Span names [`direct`] and [`direct_append`] record, with their layer.
pub const SPAN_LAYERS: [(&str, &str); 10] = [
    ("core.ops.materialize", "core.ops"),
    ("core.aggregate.hash", "core.aggregate"),
    ("core.evolution", "core.evolution"),
    ("core.explore", "core.explore"),
    ("core.explore.suggest", "core.explore"),
    ("core.cube", "core.cube"),
    ("core.measures", "core.measures"),
    ("graph.stats", "graph"),
    ("graph.append", "graph"),
    ("cli.patch_parse", "cli"),
];

/// Runs `q` against `g` below the shell: the calls `Session::exec` would
/// make, each timed, plus the mask kernels on the same operands.
pub fn direct(g: &Graph, q: &Query) -> Direct {
    let mut d = Direct::default();
    let g: &TemporalGraph = g;
    match q {
        Query::Schema => {}
        Query::Stats => {
            let (_, t) = timed("graph.stats", || GraphStats::compute(g).render_table());
            d.spans.push(t);
        }
        Query::Agg { mode, attrs, op } => {
            let attrs = attr_ids(g, attrs);
            let mode = agg_mode(*mode);
            let sets = op.map(|(o, a, b)| (o, time_set(g, a), time_set(g, b)));
            let target = match &sets {
                // the shell clones the graph here; that copy is the shell's
                // cost, so it is made outside any span
                None => g.clone(),
                Some((o, t1, t2)) => {
                    let (target, t) = timed("core.ops.materialize", || materialize(g, *o, t1, t2));
                    d.spans.push(t);
                    target
                }
            };
            let (agg, t) = timed("core.aggregate.hash", || aggregate(&target, &attrs, mode));
            d.spans.push(t);
            d.facts
                .push(("entities", (target.n_nodes() + target.n_edges()) as f64));
            d.facts
                .push(("groups", (agg.n_nodes() + agg.n_edges()) as f64));
            drop(target);

            let (m, t) = timed("core.ops.event_mask", || {
                mask(g, sets.as_ref().map(|(o, a, b)| (*o, a, b)))
            });
            d.extras.push(t);
            let (table, t) = timed("core.aggregate.group_table_build", || {
                GroupTable::build(g, &attrs)
            });
            d.extras.push(t);
            let (masked, t) = timed("core.aggregate.masked", || {
                table.aggregate_masked(g, &m, mode)
            });
            d.extras.push(t);
            if masked != agg {
                d.disagreement =
                    Some("aggregate_masked over event_mask differs from aggregate".into());
            }
        }
        Query::Evolution {
            t1,
            t2,
            attrs,
            filter_gt,
        } => {
            let attrs = attr_ids(g, attrs);
            let (t1, t2) = (time_set(g, *t1), time_set(g, *t2));
            let filter = filter_gt.map(|(name, than)| {
                let attr = attr_ids(g, name)[0];
                move |gr: &TemporalGraph, n: NodeId, t: TimePoint| {
                    gr.attr_value(n, attr, t).as_int().unwrap_or(i64::MIN) > than
                }
            });
            let (_, t) = timed("core.evolution", || {
                evolution_aggregate(
                    g,
                    &t1,
                    &t2,
                    &attrs,
                    filter
                        .as_ref()
                        .map(|f| f as &graphtempo::aggregate::NodeTimeFilter<'_>),
                )
                .expect("template intervals are non-empty")
            });
            d.spans.push(t);
        }
        Query::Explore(x) => {
            let cfg = explore_config(g, x);
            let (out, t) = timed("core.explore", || {
                explore(g, &cfg).expect("two or more time points")
            });
            d.spans.push(t);
            d.facts.push(("evaluations", out.evaluations as f64));
            d.facts.push(("pairs", out.pairs.len() as f64));
        }
        Query::Suggest(x) => {
            let cfg = explore_config(g, x);
            let (_, t) = timed("core.explore.suggest", || {
                suggest_k(g, &cfg).expect("two or more time points")
            });
            d.spans.push(t);
        }
        Query::Measure { group, avg } => {
            let group = attr_ids(g, group);
            let avg = attr_ids(g, avg)[0];
            let (_, t) = timed("core.measures", || {
                aggregate_measure(g, &group, NodeMeasure::Avg(avg), EdgeMeasure::Count)
                    .expect("counting edges needs no edge values")
            });
            d.spans.push(t);
        }
        Query::Cube { attrs, level } => {
            let attrs = attr_ids(g, attrs);
            let level = Level::new(level.split(',').collect::<Vec<_>>());
            let (_, t) = timed("core.cube", || {
                GraphCube::build(g, &attrs, 4)
                    .query(&level, &g.domain().all())
                    .expect("the level is a subset of the cube's attributes")
            });
            d.spans.push(t);
        }
    }
    d
}

/// Splits an `append <snapshot> <label> tokens…` line.
fn append_parts(line: &str) -> (&str, Vec<String>) {
    let mut tokens = line.split_whitespace().skip(2);
    let label = tokens.next().expect("append lines carry a label");
    (label, tokens.map(str::to_owned).collect())
}

/// One append as the direct calls the server makes: patch parse, then the
/// copy-on-write append. Returns the timings and the next epoch's graph.
pub fn direct_append(g: &Graph, line: &str) -> Result<(Direct, Graph), String> {
    let (label, tokens) = append_parts(line);
    let (patch, parse) = timed("cli.patch_parse", || parse_patch(g, label, &tokens));
    let patch = patch.map_err(|e| e.to_string())?;
    let (next, append) = timed("graph.append", || {
        GraphVersions::from_arc(Arc::clone(g)).append_timepoint(&patch)
    });
    let next = next.map_err(|e| e.to_string())?;
    let d = Direct {
        spans: vec![parse, append],
        ..Direct::default()
    };
    Ok((d, next))
}

/// The append line as a shell session takes it (no snapshot name).
pub fn append_session_line(line: &str) -> String {
    let mut tokens = line.split_whitespace();
    let cmd = tokens.next().expect("append lines start with the command");
    let rest: Vec<&str> = tokens.skip(1).collect();
    format!("{cmd} {}", rest.join(" "))
}

/// Replays append lines through a second `GraphVersions`, handing each
/// epoch's graph to `visit` (epoch 1 is `base`, each append adds one).
pub fn replay(
    base: &Graph,
    lines: &[String],
    mut visit: impl FnMut(u64, &Graph),
) -> Result<Graph, String> {
    let mut versions = GraphVersions::from_arc(Arc::clone(base));
    visit(1, base);
    let mut current = Arc::clone(base);
    for (i, line) in lines.iter().enumerate() {
        let (label, tokens) = append_parts(line);
        let patch = parse_patch(&current, label, &tokens).map_err(|e| e.to_string())?;
        current = versions
            .append_timepoint(&patch)
            .map_err(|e| e.to_string())?;
        visit(i as u64 + 2, &current);
    }
    Ok(current)
}

/// First touch of both transposed presence indexes, as the first
/// `explore` on a fresh snapshot pays it.
pub fn build_indexes(g: &Graph) -> Duration {
    timed("", || {
        (
            g.node_presence_columns().n_cols(),
            g.edge_presence_columns().n_cols(),
        )
    })
    .1
    .duration()
}

/// The transposes alone, into throw-away indexes.
pub fn transpose(g: &Graph) -> Duration {
    timed("", || {
        (
            g.node_presence_matrix().transposed_with(g.sparse_mode()),
            g.edge_presence_matrix().transposed_with(g.sparse_mode()),
        )
    })
    .1
    .duration()
}

/// `(dense, sparse)` presence columns over both indexes.
pub fn column_kinds(g: &Graph) -> (usize, usize) {
    let (n, e) = (g.node_presence_columns(), g.edge_presence_columns());
    (
        n.n_dense_cols() + e.n_dense_cols(),
        n.n_sparse_cols() + e.n_sparse_cols(),
    )
}

/// Nanoseconds per thousand 64-bit words of the AND-and-count kernel over
/// consecutive edge presence columns.
pub fn and_count_ns_per_kword(g: &Graph) -> f64 {
    let cols = g.edge_presence_columns();
    let kwords_per_pass = (cols.n_cols() - 1) as f64 * (g.n_edges() as f64 / 64.0) / 1000.0;
    let start = Instant::now();
    let mut passes = 0u32;
    while start.elapsed() < Duration::from_millis(50) {
        for c in 1..cols.n_cols() {
            black_box(cols.col(c - 1).count_ones_and(cols.col(c)));
        }
        passes += 1;
    }
    start.elapsed().as_nanos() as f64 / (f64::from(passes) * kwords_per_pass)
}

/// A deep copy of the graph, as op-less `agg` makes one per request.
pub fn clone_graph(g: &Graph) -> Duration {
    timed("", || TemporalGraph::clone(g)).1.duration()
}

fn render_tuple(g: &TemporalGraph, attrs: &[AttrId], tuple: &ValueTuple) -> String {
    let parts: Vec<String> = attrs
        .iter()
        .zip(tuple)
        .map(|(&a, v)| g.schema().def(a).render(v))
        .collect();
    format!("({})", parts.join(","))
}

/// An aggregate as `agg` prints it (header, top ten nodes, top ten edges).
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
    for (tuple, w) in nodes.into_iter().take(10) {
        let _ = writeln!(out, "  node {} w={w}", render_tuple(g, attrs, tuple));
    }
    let mut edges = agg.iter_edges();
    edges.sort_by_key(|&(_, w)| std::cmp::Reverse(w));
    for ((s, d), w) in edges.into_iter().take(10) {
        let _ = writeln!(
            out,
            "  edge {} -> {} w={w}",
            render_tuple(g, attrs, s),
            render_tuple(g, attrs, d)
        );
    }
    out.trim_end().to_owned()
}

/// The pair listing of an exploration as `explore` prints it, without the
/// header (whose evaluation count differs between strategies).
fn render_pairs(g: &TemporalGraph, out: &ExploreOutcome) -> Vec<String> {
    out.pairs
        .iter()
        .map(|(pair, r)| format!("  {} -> {r} events", pair.display(g.domain())))
        .collect()
}

fn evolution_totals(line: &str) -> Option<[u64; 3]> {
    let rest = line.trim().strip_prefix("edges total: ")?;
    let mut out = [0u64; 3];
    for (slot, (field, key)) in out
        .iter_mut()
        .zip(rest.split(' ').zip(["St=", "Gr=", "Shr="]))
    {
        *slot = field.strip_prefix(key)?.parse().ok()?;
    }
    Some(out)
}

/// Compares an answer's payload with an oracle that shares no code path
/// with the one that produced it:
///
/// * `explore` against `explore_naive` (every pair of every chain through
///   the materialising evaluator);
/// * `agg` (hash aggregation of the materialised operator) against
///   `GroupTable::aggregate_masked` over `event_mask`;
/// * `evolution` edge totals against `EvolutionGraph::compute` class counts
///   — equal for static attributes without a filter, an upper bound with a
///   filter, a lower bound with time-varying attributes.
///
/// Other classes have no second implementation; `Ok` without a check.
pub fn oracle_check(g: &Graph, q: &Query, payload: &str) -> Result<(), String> {
    let g: &TemporalGraph = g;
    match q {
        Query::Explore(x) => {
            let cfg = explore_config(g, x);
            let naive = explore_naive(g, &cfg).map_err(|e| e.to_string())?;
            let want = render_pairs(g, &naive);
            let got: Vec<&str> = payload.lines().skip(1).collect();
            let header_ok = payload
                .lines()
                .next()
                .is_some_and(|h| h.starts_with(&format!("{} qualifying ", want.len())));
            if !header_ok || got != want {
                return Err(format!(
                    "explore differs from explore_naive: {} pairs expected, answer was {:?}",
                    want.len(),
                    payload.lines().next()
                ));
            }
        }
        Query::Agg { mode, attrs, op } => {
            let ids = attr_ids(g, attrs);
            let sets = op.map(|(o, a, b)| (o, time_set(g, a), time_set(g, b)));
            let m = mask(g, sets.as_ref().map(|(o, a, b)| (*o, a, b)));
            let masked = GroupTable::build(g, &ids).aggregate_masked(g, &m, agg_mode(*mode));
            let want = render_agg(g, &ids, &masked);
            if payload != want {
                return Err(format!(
                    "agg differs from aggregate_masked over event_mask:\n{payload}\n--- oracle\n{want}"
                ));
            }
        }
        Query::Evolution {
            t1,
            t2,
            attrs,
            filter_gt,
        } => {
            let evo = EvolutionGraph::compute(g, &time_set(g, *t1), &time_set(g, *t2))
                .map_err(|e| e.to_string())?;
            let classes = [
                EvolutionClass::Stability,
                EvolutionClass::Growth,
                EvolutionClass::Shrinkage,
            ]
            .map(|c| evo.count_edges(c) as u64);
            let got = payload
                .lines()
                .last()
                .and_then(evolution_totals)
                .ok_or_else(|| format!("no edge totals in {payload:?}"))?;
            let all_static = attr_ids(g, attrs)
                .iter()
                .all(|&a| g.schema().def(a).temporality() == tempo_graph::Temporality::Static);
            let (sum_got, sum_want): (u64, u64) = (got.iter().sum(), classes.iter().sum());
            let ok = match (all_static, filter_gt.is_some()) {
                (true, false) => got == classes,
                (true, true) => sum_got <= sum_want,
                (false, false) => sum_got >= sum_want,
                (false, true) => true,
            };
            if !ok {
                return Err(format!(
                    "evolution edge totals {got:?} disagree with EvolutionGraph classes {classes:?}"
                ));
            }
        }
        _ => {}
    }
    Ok(())
}
