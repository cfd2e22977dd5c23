//! The interactive session: state plus command execution.

use crate::command::{self, Args, Front, Reply};
use crate::error::CliError;
use crate::parser::{parse_attr, parse_interval, parse_point, parse_value, tokenize};
use crate::patch::parse_patch;
use graphtempo::aggregate::{AggMode, AggregateGraph, GroupTable};
use graphtempo::evolution::evolution_aggregate;
use graphtempo::explore::{
    explore_budgeted, suggest_k, Budget, ExploreConfig, ExtendSide, Selector, Semantics,
};
use graphtempo::export::{
    aggregate_edges_frame, aggregate_nodes_frame, aggregate_to_dot, render_tuple,
};
use graphtempo::ops::{event_mask, Event, EventMask, SideTest};
use graphtempo::zoom::{zoom_out, Granularity};
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;
use tempo_columnar::{Value, ValueTuple};
use tempo_datagen::{DblpConfig, MovieLensConfig, RandomGraphConfig, SchoolConfig};
use tempo_graph::{
    AttrId, GraphError, GraphStats, GraphVersions, NodeId, TemporalGraph, TimePoint, TimeSet,
};

/// Request-scoped execution limits applied to session commands; the
/// defaults impose none. A request's own `timeout_ms=` / `limit=` override
/// them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryLimits {
    /// Wall-clock ceiling for one `explore` run, in milliseconds; on expiry
    /// the command fails with [`tempo_graph::GraphError::Cancelled`].
    pub timeout_ms: Option<u64>,
    /// Maximum rows of a [`Reply`]; a longer one is truncated with one
    /// trailing note (and counted in the `server.rows_truncated` metric).
    pub max_rows: Option<usize>,
    /// Inert: nothing reads it. The sharded evaluator it used to select
    /// is gone, but the frozen `benchmark/src/layers.rs` names the field in
    /// a struct literal, so it stays until the next `[benchmark]` issue
    /// removes it together with that literal.
    pub shards: Option<usize>,
}

/// Interactive state: the working graph and the last aggregate computed.
///
/// The graph is held behind an [`Arc`] so a server can hand the same
/// immutable snapshot to many concurrent per-request sessions (see
/// [`Session::for_snapshot`]).
#[derive(Default)]
pub struct Session {
    graph: Option<Arc<TemporalGraph>>,
    last_agg: Option<AggregateGraph>,
    limits: QueryLimits,
}

/// `extend=` of `explore`, `suggest` and `solve`.
const EXTEND: &[(&str, ExtendSide)] = &[("old", ExtendSide::Old), ("new", ExtendSide::New)];

impl Session {
    /// Creates an empty session.
    pub fn new() -> Self {
        Session::default()
    }

    /// A session over an existing shared snapshot, with request-scoped
    /// limits — the shape `tempo-server` builds per request.
    pub fn for_snapshot(graph: Arc<TemporalGraph>, limits: QueryLimits) -> Self {
        Session {
            graph: Some(graph),
            limits,
            ..Session::default()
        }
    }

    /// The session's graph as a shareable handle, if one is loaded.
    pub fn graph_arc(&self) -> Option<Arc<TemporalGraph>> {
        self.graph.clone()
    }

    fn graph(&self) -> Result<&TemporalGraph, CliError> {
        self.graph.as_deref().ok_or(CliError::NoGraph)
    }

    /// Executes one command line, returning the text to print.
    ///
    /// # Errors
    /// Returns a [`CliError`] describing what went wrong; the session state
    /// is unchanged on error.
    pub fn exec(&mut self, line: &str) -> Result<String, CliError> {
        let tokens = tokenize(line);
        let Some((verb, rest)) = tokens.split_first() else {
            return Ok(String::new());
        };
        let spec = command::spec(verb)
            .ok_or_else(|| CliError::Unknown(format!("command {verb:?} (try `help`)")))?;
        Ok(self.run(&Args::parse(spec, rest, Front::Shell)?)?.text())
    }

    /// Runs one checked request. The session moves to the graph the reply
    /// yields, if any, and the row limit — the request's `limit=`, else the
    /// session's — is applied to the reply's rows.
    ///
    /// # Errors
    /// As [`exec`](Self::exec).
    pub fn run(&mut self, args: &Args) -> Result<Reply, CliError> {
        let timeout_ms = args.num("timeout_ms")?.or(self.limits.timeout_ms);
        let max_rows = args.num("limit")?.or(self.limits.max_rows);
        let mut reply = match args.verb() {
            "help" => {
                let mut reply =
                    Reply::rows("GraphTempo interactive shell — commands (`quit` leaves):");
                command::help(Front::Shell, &mut reply.rows);
                reply
            }
            "generate" => Self::cmd_generate(args)?,
            "load" => Self::cmd_load(args)?,
            "save" => self.cmd_save(args)?,
            "stats" => self.cmd_stats()?,
            "schema" => self.cmd_schema()?,
            "project" | "union" | "intersect" | "diff" => self.cmd_operator(args)?,
            "agg" => self.cmd_agg(args)?,
            "evolution" => self.cmd_evolution(args)?,
            "explore" => self.cmd_explore(args, timeout_ms, false)?,
            "suggest" => self.cmd_explore(args, timeout_ms, true)?,
            "zoom" => self.cmd_zoom(args)?,
            "append" => self.cmd_append(args)?,
            "cube" => self.cmd_cube(args)?,
            "measure" => self.cmd_measure(args)?,
            "solve" => self.cmd_solve(args)?,
            "metrics" => self.cmd_metrics(args)?,
            "export" => self.cmd_export(args)?,
            other => return Err(CliError::Unknown(format!("command {other:?}"))),
        };
        if let Some(graph) = &reply.graph {
            // results derived from the old graph go with it
            self.graph = Some(Arc::clone(graph));
            self.last_agg = None;
        }
        if let Some(cap) = max_rows {
            reply.limit_rows(cap);
        }
        Ok(reply)
    }

    fn cmd_generate(args: &Args) -> Result<Reply, CliError> {
        let which = args.pos(0)?;
        let scale: Option<f64> = args.num("scale")?;
        let seed: Option<u64> = args.num("seed")?;
        macro_rules! seeded {
            ($cfg:expr) => {{
                let mut cfg = $cfg;
                if let Some(s) = seed {
                    cfg.seed = s;
                }
                cfg.generate()?
            }};
        }
        let g = match (which, scale) {
            ("dblp", _) => seeded!(DblpConfig::scaled(scale.unwrap_or(0.05))),
            ("movielens", _) => seeded!(MovieLensConfig::scaled(scale.unwrap_or(0.05))),
            ("school", None) => seeded!(SchoolConfig::default()),
            ("random", None) => seeded!(RandomGraphConfig::default()),
            // these two have one size
            ("school" | "random", Some(_)) => return Err(args.usage()),
            (other, _) => return Err(CliError::Unknown(format!("dataset {other:?}"))),
        };
        Ok(yields(
            format!("generated {which}: {}", sizes(&g)),
            Arc::new(g),
        ))
    }

    fn cmd_load(args: &Args) -> Result<Reply, CliError> {
        let dir = args.pos(0)?;
        let g = tempo_graph::io::load_dir(Path::new(dir))?;
        Ok(yields(format!("loaded {dir}: {}", sizes(&g)), Arc::new(g)))
    }

    fn cmd_save(&self, args: &Args) -> Result<Reply, CliError> {
        let dir = args.pos(0)?;
        tempo_graph::io::save_dir(self.graph()?, Path::new(dir))?;
        Ok(Reply::line(format!("saved to {dir}")))
    }

    fn cmd_stats(&self) -> Result<Reply, CliError> {
        let stats = GraphStats::compute(self.graph()?);
        Ok(Reply::rows(&format!(
            "{}total: {} nodes, {} edges",
            stats.render_table(),
            stats.total_nodes,
            stats.total_edges
        )))
    }

    fn cmd_schema(&self) -> Result<Reply, CliError> {
        let mut reply = Reply::default();
        for (_, def) in self.graph()?.schema().iter() {
            let kind = match def.temporality() {
                tempo_graph::Temporality::Static => "static",
                tempo_graph::Temporality::TimeVarying => "time-varying",
            };
            reply.rows.push(format!(
                "  {} ({kind}, {} categorical values)",
                def.name(),
                def.category_count()
            ));
        }
        Ok(reply)
    }

    fn cmd_operator(&self, args: &Args) -> Result<Reply, CliError> {
        let g = self.graph()?;
        let t1 = parse_interval(g.domain(), args.pos(0)?)?;
        let mask = match args.pos(1) {
            // one interval: project
            Err(_) => event_mask(g, Event::Stability, &t1, &t1, SideTest::All, SideTest::All)?,
            Ok(t2) => set_operator_mask(g, args.verb(), &t1, &parse_interval(g.domain(), t2)?)?,
        };
        Ok(Reply::line(format!(
            "{}: {} nodes, {} edges",
            args.verb(),
            mask.n_nodes(),
            mask.n_edges()
        )))
    }

    fn cmd_agg(&mut self, args: &Args) -> Result<Reply, CliError> {
        let g = self.graph()?;
        let modes = [("dist", AggMode::Distinct), ("all", AggMode::All)];
        let mode = args.one_of(args.pos(0)?, &modes)?;
        let attrs = parse_attrs(g, args.req("attrs")?)?;
        let top: usize = args.num("top")?.unwrap_or(10);
        let table = GroupTable::cached(g, &attrs);
        let interval = |t| parse_interval(g.domain(), t);
        let agg = match (args.get("op"), args.get("t1"), args.get("t2")) {
            // the whole graph: everything that exists at some point
            (None, None, None) => table.aggregate_union(g, &g.domain().all(), mode),
            // in 𝒯₁ or 𝒯₂ = exists at a point of 𝒯₁ ∪ 𝒯₂
            (Some("union"), Some(t1), Some(t2)) => {
                table.aggregate_union(g, &interval(t1)?.union(&interval(t2)?), mode)
            }
            (Some(op), Some(t1), Some(t2)) => {
                let mask = set_operator_mask(g, op, &interval(t1)?, &interval(t2)?)?;
                table.aggregate_masked(g, &mask, mode)
            }
            // an operator takes both intervals, and nothing else reads them
            _ => return Err(args.usage()),
        };
        let mut reply = Reply::line(format!(
            "aggregate: {} nodes, {} edges (node weight {}, edge weight {})",
            agg.n_nodes(),
            agg.n_edges(),
            agg.total_node_weight(),
            agg.total_edge_weight()
        ));
        let tuple = |t: &[Value]| render_tuple(Some(g), &attrs, t);
        let mut nodes = agg.iter_nodes();
        nodes.sort_by_key(|&(_, w)| std::cmp::Reverse(w));
        for (t, w) in nodes.into_iter().take(top) {
            reply.rows.push(format!("  node ({}) w={w}", tuple(t)));
        }
        let mut edges = agg.iter_edges();
        edges.sort_by_key(|&(_, w)| std::cmp::Reverse(w));
        for ((s, d), w) in edges.into_iter().take(top) {
            let (s, d) = (tuple(s), tuple(d));
            reply.rows.push(format!("  edge ({s}) -> ({d}) w={w}"));
        }
        self.last_agg = Some(agg);
        Ok(reply)
    }

    fn cmd_evolution(&self, args: &Args) -> Result<Reply, CliError> {
        let g = self.graph()?;
        let t1 = parse_interval(g.domain(), args.req("t1")?)?;
        let t2 = parse_interval(g.domain(), args.req("t2")?)?;
        let attrs = parse_attrs(g, args.req("attrs")?)?;
        let filter = match args.get("filter") {
            Some(spec) => Some(compile_filter(g, parse_filter(g, spec, args)?)?),
            None => None,
        };
        let evo = evolution_aggregate(
            g,
            &t1,
            &t2,
            &attrs,
            filter
                .as_ref()
                .map(|f| f as &graphtempo::aggregate::NodeTimeFilter<'_>),
        )?;
        let mut reply = Reply::default();
        for (tuple, w) in evo.iter_nodes() {
            let tuple = render_tuple(Some(g), &attrs, tuple);
            reply.rows.push(format!("  node ({tuple}): {w}"));
        }
        let e = evo.total_edge_weight();
        reply.rows.push(format!("  edges total: {e}"));
        Ok(reply)
    }

    fn cmd_explore(
        &self,
        args: &Args,
        timeout_ms: Option<u64>,
        suggest_only: bool,
    ) -> Result<Reply, CliError> {
        let g = self.graph()?;
        let events = [
            ("stability", Event::Stability),
            ("growth", Event::Growth),
            ("shrinkage", Event::Shrinkage),
        ];
        let all_semantics = [
            ("union", Semantics::Union),
            ("intersect", Semantics::Intersection),
            ("intersection", Semantics::Intersection),
        ];
        let event = args.one_of(args.req("event")?, &events)?;
        let semantics = args.one_of(args.req("semantics")?, &all_semantics)?;
        let extend = args.one_of(args.req("extend")?, EXTEND)?;
        let attrs = parse_attrs(g, args.req("attrs")?)?;
        let selector = parse_selector(g, &attrs, args)?;
        let mut cfg = ExploreConfig {
            event,
            extend,
            semantics,
            k: 1,
            attrs,
            selector,
        };
        if suggest_only {
            return Ok(Reply::line(match suggest_k(g, &cfg)? {
                Some(w) => format!("suggested k (w_th per §3.5): {w}"),
                None => "no events between any consecutive time points".to_owned(),
            }));
        }
        cfg.k = args.num("k")?.ok_or_else(|| args.usage())?;
        let budget = match timeout_ms {
            Some(ms) => Budget::unlimited().with_deadline_ms(ms),
            None => Budget::unlimited(),
        };
        let out = explore_budgeted(g, &cfg, &budget)?;
        let kind = match semantics {
            Semantics::Union => "minimal",
            Semantics::Intersection => "maximal",
        };
        let mut reply = Reply::line(format!(
            "{} qualifying {kind} interval pairs ({} evaluations):",
            out.pairs.len(),
            out.evaluations
        ));
        for (pair, r) in &out.pairs {
            reply
                .rows
                .push(format!("  {} -> {r} events", pair.display(g.domain())));
        }
        Ok(reply)
    }

    fn cmd_zoom(&self, args: &Args) -> Result<Reply, CliError> {
        let g = self.graph()?;
        let window: usize = args.num("window")?.ok_or_else(|| args.usage())?;
        let sem = args.one_of(
            args.get("semantics").unwrap_or("any"),
            &[("any", SideTest::Any), ("all", SideTest::All)],
        )?;
        let gran = Granularity::windows(g.domain(), window)?;
        let z = zoom_out(g, &gran, sem)?;
        let msg = format!(
            "zoomed to {} coarse points: {} nodes, {} edges",
            z.domain().len(),
            z.n_nodes(),
            z.n_edges()
        );
        Ok(yields(msg, Arc::new(z)))
    }

    /// `append <label> [node=N] [edge=U,V] …`: appends one timepoint to the
    /// working graph copy-on-write. Holders of the previous `Arc` snapshot
    /// (e.g. a server registry) are undisturbed; the reply yields the new
    /// epoch.
    fn cmd_append(&self, args: &Args) -> Result<Reply, CliError> {
        let graph = self.graph.clone().ok_or(CliError::NoGraph)?;
        // the label leads: `parse_patch` takes the tokens after it
        let (label, patch) = args.tokens().split_first().ok_or_else(|| args.usage())?;
        let patch = parse_patch(&graph, label, patch)?;
        let next = GraphVersions::from_arc(graph).append_timepoint(&patch)?;
        let head = format!(
            "appended {label}: {} (epoch {})",
            sizes(&next),
            next.epoch()
        );
        Ok(yields(head, next))
    }

    fn cmd_cube(&mut self, args: &Args) -> Result<Reply, CliError> {
        use graphtempo::cube::{GraphCube, Level};
        let g = self.graph()?;
        let attrs = parse_attrs(g, args.req("attrs")?)?;
        let level_ids = parse_attrs(g, args.req("level")?)?;
        let level_names = level_ids.iter().map(|&a| g.schema().def(a).name());
        let level = Level::new(level_names.collect());
        let cube = GraphCube::build(g, &attrs, 1);
        let domain = g.domain();
        let scope = match (args.get("t"), args.get("scope")) {
            (Some(_), Some(_)) => return Err(args.usage()),
            (Some(t), None) => TimeSet::from_indices(domain.len(), [parse_point(domain, t)?]),
            (None, Some(iv)) => parse_interval(domain, iv)?,
            (None, None) => domain.all(),
        };
        let agg = cube.query(&level, &scope)?;
        let mut reply = Reply::line(format!(
            "cube query at level ({}): {} nodes, {} edges",
            level.names().join(","),
            agg.n_nodes(),
            agg.n_edges()
        ));
        let mut nodes = agg.iter_nodes();
        nodes.sort_by_key(|&(_, w)| std::cmp::Reverse(w));
        for (tuple, w) in nodes.into_iter().take(10) {
            let tuple = render_tuple(Some(g), &level_ids, tuple);
            reply.rows.push(format!("  ({tuple}) w={w}"));
        }
        self.last_agg = Some(agg);
        Ok(reply)
    }

    fn cmd_measure(&self, args: &Args) -> Result<Reply, CliError> {
        use graphtempo::measures::{aggregate_measure, EdgeMeasure, NodeMeasure};
        let g = self.graph()?;
        let group = parse_attrs(g, args.req("group")?)?;
        let node_spec = args.get("node").unwrap_or("count");
        let node_measure = match node_spec.split_once(':') {
            None => args.one_of(node_spec, &[("count", NodeMeasure::Count)])?,
            Some((op, attr)) => {
                let a = parse_numeric_attr(g, attr, args)?;
                let ops = [
                    ("sum", NodeMeasure::Sum(a)),
                    ("min", NodeMeasure::Min(a)),
                    ("max", NodeMeasure::Max(a)),
                    ("avg", NodeMeasure::Avg(a)),
                ];
                args.one_of(op, &ops)?
            }
        };
        let edge_measures = [
            ("count", EdgeMeasure::Count),
            ("sum", EdgeMeasure::SumValues),
            ("min", EdgeMeasure::MinValues),
            ("max", EdgeMeasure::MaxValues),
            ("avg", EdgeMeasure::AvgValues),
        ];
        let edge_measure = args.one_of(args.get("edge").unwrap_or("count"), &edge_measures)?;
        let m = aggregate_measure(g, &group, node_measure, edge_measure)?;
        let mut reply = Reply::line(format!(
            "measure {node_spec} grouped by ({})",
            m.attr_names().join(",")
        ));
        let tuple = |t: &[Value]| render_tuple(Some(g), &group, t);
        for (t, v) in m.iter_nodes() {
            reply.rows.push(format!("  node ({}) = {v:.3}", tuple(t)));
        }
        let mut edges = m.iter_edges();
        edges.truncate(10);
        for ((s, d), v) in edges {
            let (s, d) = (tuple(s), tuple(d));
            reply.rows.push(format!("  edge ({s}) -> ({d}) = {v:.3}"));
        }
        Ok(reply)
    }

    fn cmd_solve(&self, args: &Args) -> Result<Reply, CliError> {
        use graphtempo::explore::solve_problem;
        let g = self.graph()?;
        let k: u64 = args.num("k")?.ok_or_else(|| args.usage())?;
        let attrs = parse_attrs(g, args.req("attrs")?)?;
        let extend = args.one_of(args.get("extend").unwrap_or("new"), EXTEND)?;
        let selector = parse_selector(g, &attrs, args)?;
        let report = solve_problem(g, k, &attrs, &selector, extend)?;
        Ok(Reply::rows(&report.render(g.domain())))
    }

    fn cmd_metrics(&self, args: &Args) -> Result<Reply, CliError> {
        use tempo_graph::metrics::{avg_degree_at, density_at, turnover_profile};
        // `metrics --json <path>` dumps the instrumentation table and
        // needs no graph.
        if let Ok(flag) = args.pos(0) {
            let path = args.pos(1)?;
            if flag != "--json" {
                return Err(args.usage());
            }
            std::fs::write(path, tempo_instrument::global().snapshot().render_json())?;
            return Ok(Reply::line(format!(
                "wrote instrumentation snapshot to {path}"
            )));
        }
        let g = self.graph()?;
        let mut reply = Reply::default();
        let rows = &mut reply.rows;
        rows.push("  time        density  avg-degree".to_owned());
        for t in g.domain().iter() {
            rows.push(format!(
                "  {:<10} {:>8.4} {:>11.2}",
                g.domain().label(t),
                density_at(g, t),
                avg_degree_at(g, t)
            ));
        }
        rows.push("  consecutive-pair overlap (node / edge Jaccard):".to_owned());
        for (i, (nj, ej)) in turnover_profile(g).iter().enumerate() {
            rows.push(format!(
                "  {} -> {}: {nj:.3} / {ej:.3}",
                g.domain().labels()[i],
                g.domain().labels()[i + 1]
            ));
        }
        rows.push("  instrumentation (session totals):".to_owned());
        let snap = tempo_instrument::global().snapshot();
        rows.extend(snap.render_text().lines().map(|line| format!("  {line}")));
        Ok(reply)
    }

    fn cmd_export(&self, args: &Args) -> Result<Reply, CliError> {
        let (what, path) = (args.pos(0)?, args.pos(1)?);
        let agg = self.last_agg.as_ref().ok_or(CliError::NoAggregate)?;
        match what {
            "dot" => {
                std::fs::write(path, aggregate_to_dot(agg, self.graph.as_deref()))?;
            }
            "nodes" | "edges" => {
                let frame = match what {
                    "nodes" => aggregate_nodes_frame(agg, self.graph.as_deref()),
                    _ => aggregate_edges_frame(agg, self.graph.as_deref()),
                };
                let f = frame.map_err(tempo_graph::GraphError::from)?;
                let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
                tempo_columnar::write_frame(&f, &mut w, '\t')
                    .map_err(tempo_graph::GraphError::from)?;
                w.flush()?;
            }
            other => return Err(CliError::Unknown(format!("export target {other:?}"))),
        }
        Ok(Reply::line(format!("wrote {path}")))
    }
}

/// `N nodes, E edges, T time points`, as the verbs that yield a graph say it.
fn sizes(g: &TemporalGraph) -> String {
    format!(
        "{} nodes, {} edges, {} time points",
        g.n_nodes(),
        g.n_edges(),
        g.domain().len()
    )
}

/// The reply of a verb that yields `graph`.
fn yields(head: String, graph: Arc<TemporalGraph>) -> Reply {
    Reply {
        graph: Some(graph),
        ..Reply::line(head)
    }
}

/// An attribute a verb reads as a number (`filter=`, `node=sum:…`): the
/// verb's usage for a categorical one, whose cells hold category codes that
/// compare and add up to nothing.
fn parse_numeric_attr(g: &TemporalGraph, name: &str, args: &Args) -> Result<AttrId, CliError> {
    let attr = parse_attr(g, name)?;
    if g.schema().def(attr).category_count() > 0 {
        return Err(args.usage());
    }
    Ok(attr)
}

/// A comma-separated attribute list (`attrs=`, `group=`, the cube's
/// `level=`); a name given twice is an error, not a tuple that repeats it.
fn parse_attrs(g: &TemporalGraph, spec: &str) -> Result<Vec<AttrId>, CliError> {
    let mut attrs = Vec::new();
    for name in spec.split(',') {
        let attr = parse_attr(g, name)?;
        if attrs.contains(&attr) {
            return Err(GraphError::DuplicateAttribute(name.trim().to_owned()).into());
        }
        attrs.push(attr);
    }
    Ok(attrs)
}

fn parse_tuple(g: &TemporalGraph, attrs: &[AttrId], spec: &str) -> Result<ValueTuple, CliError> {
    let parts: Vec<&str> = spec.split(',').collect();
    if parts.len() != attrs.len() {
        return Err(CliError::Usage(format!(
            "tuple {spec:?} must have {} values",
            attrs.len()
        )));
    }
    parts
        .iter()
        .zip(attrs)
        .map(|(p, &a)| parse_value(g, a, p.trim()))
        .collect()
}

/// `edge=<v>-><v>` or `node=<v>` over `attrs`; neither selects every edge.
fn parse_selector(g: &TemporalGraph, attrs: &[AttrId], args: &Args) -> Result<Selector, CliError> {
    Ok(match (args.get("edge"), args.get("node")) {
        (Some(_), Some(_)) => return Err(args.usage()),
        (Some(edge), None) => {
            let (src, dst) = edge.split_once("->").ok_or_else(|| args.usage())?;
            Selector::EdgeTuple(parse_tuple(g, attrs, src)?, parse_tuple(g, attrs, dst)?)
        }
        (None, Some(node)) => Selector::NodeTuple(parse_tuple(g, attrs, node)?),
        (None, None) => Selector::AllEdges,
    })
}

/// The binary operators of Definitions 2.3–2.5 as a selection over `g`'s own
/// rows: which nodes and edges the operator's graph contains and the scope
/// their timestamps are restricted to, with no graph built.
fn set_operator_mask(
    g: &TemporalGraph,
    op: &str,
    t1: &TimeSet,
    t2: &TimeSet,
) -> Result<EventMask, CliError> {
    let any = SideTest::Any;
    Ok(match op {
        // in 𝒯₁ or 𝒯₂ = intersects 𝒯₁ ∪ 𝒯₂
        "union" => {
            let scope = t1.union(t2);
            event_mask(g, Event::Stability, &scope, &scope, any, any)?
        }
        "intersect" => event_mask(g, Event::Stability, t1, t2, any, any)?,
        "diff" => event_mask(g, Event::Shrinkage, t1, t2, any, any)?,
        other => return Err(CliError::Unknown(format!("operator {other:?}"))),
    })
}

/// Comparison operator of an evolution filter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FilterOp {
    /// Strictly greater.
    Gt,
    /// Greater or equal.
    Ge,
    /// Strictly less.
    Lt,
    /// Less or equal.
    Le,
    /// Equal.
    Eq,
}

impl FilterOp {
    fn eval(self, v: i64, threshold: i64) -> bool {
        match self {
            FilterOp::Gt => v > threshold,
            FilterOp::Ge => v >= threshold,
            FilterOp::Lt => v < threshold,
            FilterOp::Le => v <= threshold,
            FilterOp::Eq => v == threshold,
        }
    }
}

/// Parses `attr>4` / `attr>=4` / `attr<4` / `attr<=4` / `attr=4`.
fn parse_filter(
    g: &TemporalGraph,
    spec: &str,
    args: &Args,
) -> Result<(AttrId, FilterOp, i64), CliError> {
    for (sym, op) in [
        (">=", FilterOp::Ge),
        ("<=", FilterOp::Le),
        (">", FilterOp::Gt),
        ("<", FilterOp::Lt),
        ("=", FilterOp::Eq),
    ] {
        if let Some((name, value)) = spec.split_once(sym) {
            let attr = parse_numeric_attr(g, name, args)?;
            let threshold: i64 = value
                .trim()
                .parse()
                .map_err(|_| CliError::Usage(format!("filter value {value:?} must be an int")))?;
            return Ok((attr, op, threshold));
        }
    }
    Err(CliError::Usage(format!(
        "filter {spec:?} must look like publications>4"
    )))
}

/// A parsed `filter=` as the predicate `evolution` calls per appearance:
/// the comparison is decided once per dictionary code of the attribute's
/// matrix, so an appearance costs one code read and no decoded value. An
/// appearance without a numeric value passes no comparison. The predicate
/// reads a static attribute's cell whether or not the node exists at `t`;
/// `evolution_aggregate` asks only about appearances.
fn compile_filter(
    g: &TemporalGraph,
    (attr, op, threshold): (AttrId, FilterOp, i64),
) -> Result<impl Fn(&TemporalGraph, NodeId, TimePoint) -> bool + '_, CliError> {
    let (matrix, static_col) = match g.schema().static_slot(attr) {
        Some(slot) => (g.static_table(), Some(slot)),
        None => (g.tv_table(attr)?, None),
    };
    let dict = matrix.dict().iter();
    let passes: Vec<bool> = dict
        .map(|v| v.as_int().is_some_and(|v| op.eval(v, threshold)))
        .collect();
    Ok(move |_: &TemporalGraph, n: NodeId, t: TimePoint| {
        let code = matrix.code(n.index(), static_col.unwrap_or(t.index()));
        // `NULL_CODE` lies past the table
        passes.get(code as usize).copied().unwrap_or(false)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ready() -> Session {
        let mut s = Session::new();
        s.exec("generate random seed=7").unwrap();
        s
    }

    #[test]
    fn requires_graph() {
        let mut s = Session::new();
        assert!(matches!(s.exec("stats"), Err(CliError::NoGraph)));
        assert!(matches!(
            s.exec("agg dist attrs=kind"),
            Err(CliError::NoGraph)
        ));
    }

    #[test]
    fn empty_and_unknown_commands() {
        let mut s = Session::new();
        assert_eq!(s.exec("").unwrap(), "");
        assert!(matches!(s.exec("frobnicate"), Err(CliError::Unknown(_))));
        assert!(s.exec("help").unwrap().contains("explore"));
    }

    #[test]
    fn generate_and_stats() {
        let mut s = ready();
        assert!(s.graph_arc().is_some());
        let out = s.exec("stats").unwrap();
        assert!(out.contains("#Nodes"));
        let out = s.exec("schema").unwrap();
        assert!(out.contains("kind"));
        assert!(out.contains("level"));
    }

    #[test]
    fn append_moves_session_to_next_epoch() {
        let mut s = Session::new();
        assert!(matches!(
            s.exec("append w1 node=za"),
            Err(CliError::NoGraph)
        ));
        s.exec("generate random seed=7").unwrap();
        let before = s.graph_arc().unwrap();
        let points = before.domain().len();
        let out = s
            .exec("append w1 node=za node=zb edge=za,zb tv=za,level,3")
            .unwrap();
        assert!(out.contains("appended w1"), "got {out}");
        assert!(out.contains("(epoch 1)"), "got {out}");
        let after = s.graph_arc().unwrap();
        assert_eq!(after.domain().len(), points + 1);
        // the old snapshot is untouched for anyone still holding it
        assert_eq!(before.domain().len(), points);
        assert!(s.exec("stats").unwrap().contains("w1"));
        // duplicate label and malformed tokens are rejected
        assert!(s.exec("append w1").is_err());
        assert!(matches!(
            s.exec("append w2 frob=1"),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(s.exec("append"), Err(CliError::Usage(_))));
    }

    #[test]
    fn operators_report_counts() {
        let mut s = ready();
        assert!(s.exec("project #0").unwrap().starts_with("project:"));
        assert!(s.exec("union #0 #1..#2").unwrap().starts_with("union:"));
        assert!(s.exec("intersect #0 #1").unwrap().starts_with("intersect:"));
        assert!(s.exec("diff #0 #1").unwrap().starts_with("diff:"));
        assert!(matches!(s.exec("union #0"), Err(CliError::Usage(_))));
        assert!(matches!(s.exec("project #99"), Err(CliError::Unknown(_))));
    }

    #[test]
    fn aggregation_flow_and_export() {
        let mut s = ready();
        let out = s.exec("agg dist attrs=kind top=3").unwrap();
        assert!(out.contains("aggregate:"));
        let out = s
            .exec("agg all attrs=kind op=union t1=#0 t2=#1..#3")
            .unwrap();
        assert!(out.contains("node"));

        let dir = std::env::temp_dir().join(format!("gt_cli_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let dot = dir.join("agg.dot");
        let out = s.exec(&format!("export dot {}", dot.display())).unwrap();
        assert!(out.starts_with("wrote"));
        assert!(std::fs::read_to_string(&dot).unwrap().contains("digraph"));
        let nodes = dir.join("nodes.tsv");
        s.exec(&format!("export nodes {}", nodes.display()))
            .unwrap();
        assert!(std::fs::read_to_string(&nodes).unwrap().contains("weight"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `export` writes the last `agg` or `cube` answer; every file is
    /// pinned whole on Fig. 1.
    #[test]
    fn export_files_on_fig1() {
        let fig1 = Arc::new(tempo_graph::fixtures::fig1());
        let mut s = Session::for_snapshot(fig1, QueryLimits::default());
        let dir = std::env::temp_dir().join(format!("gt_cli_export_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let export = |s: &mut Session, what: &str| {
            let path = dir.join(what);
            s.exec(&format!("export {what} {}", path.display()))
                .unwrap();
            std::fs::read_to_string(&path).unwrap()
        };
        s.exec("agg dist attrs=gender").unwrap();
        let dot = |m: u64, f: u64, mf: u64, ff: u64| {
            format!(
                "digraph aggregate {{\n  label=\"aggregate on (gender)\";\n  \
                 \"m\" [label=\"m\\nw={m}\"];\n  \"f\" [label=\"f\\nw={f}\"];\n  \
                 \"m\" -> \"f\" [label=\"{mf}\"];\n  \"f\" -> \"f\" [label=\"{ff}\"];\n}}\n"
            )
        };
        assert_eq!(export(&mut s, "dot"), dot(2, 3, 2, 2));
        assert_eq!(export(&mut s, "nodes"), "gender\tweight\nm\t2\nf\t3\n");
        assert_eq!(
            export(&mut s, "edges"),
            "src_gender\tdst_gender\tweight\nm\tf\t2\nf\tf\t2\n"
        );
        s.exec("cube attrs=gender,publications level=gender")
            .unwrap();
        assert_eq!(export(&mut s, "dot"), dot(3, 7, 3, 4));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn export_before_agg_errors() {
        let mut s = ready();
        assert!(matches!(
            s.exec("export dot /tmp/x.dot"),
            Err(CliError::NoAggregate)
        ));
    }

    #[test]
    fn evolution_with_filter() {
        let mut s = ready();
        let out = s
            .exec("evolution t1=#0..#2 t2=#3..#5 attrs=kind filter=level>=2")
            .unwrap();
        assert!(out.contains("St="));
        assert!(matches!(
            s.exec("evolution t1=#0 t2=#1 attrs=kind filter=level?2"),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn explore_and_suggest() {
        let mut s = ready();
        let out = s
            .exec("suggest event=stability semantics=union extend=new attrs=kind")
            .unwrap();
        assert!(out.contains("suggested k") || out.contains("no events"));
        let out = s
            .exec("explore event=stability semantics=union extend=new k=1 attrs=kind")
            .unwrap();
        assert!(out.contains("interval pairs"));
        let out = s
            .exec("explore event=growth semantics=intersect extend=new k=1 attrs=kind edge=k0->k1")
            .unwrap();
        assert!(out.contains("maximal"));
        assert!(matches!(
            s.exec("explore event=bogus semantics=union extend=new k=1 attrs=kind"),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn cube_solve_metrics_commands() {
        let mut s = ready();
        let out = s.exec("cube attrs=kind,level level=kind").unwrap();
        assert!(out.contains("cube query at level (kind)"));
        let out = s.exec("cube attrs=kind,level level=level t=#2").unwrap();
        assert!(out.contains("w="));
        assert!(matches!(
            s.exec("cube attrs=kind level=bogus"),
            Err(CliError::Unknown(_)) | Err(CliError::Graph(_))
        ));
        let out = s.exec("solve k=1 attrs=kind").unwrap();
        assert!(out.contains("Stability") && out.contains("maximal"));
        let out = s.exec("metrics").unwrap();
        assert!(out.contains("density"));
        assert!(out.contains("Jaccard"));
    }

    #[test]
    fn metrics_json_reports_explore_instrumentation() {
        let mut s = ready();
        s.exec("explore event=stability semantics=union extend=new k=1 attrs=kind")
            .unwrap();
        // registry is process-global and monotone, so evaluations are
        // non-zero no matter which sibling tests also ran
        let dir = std::env::temp_dir().join(format!("gt_cli_metrics_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("metrics.json");
        let out = s
            .exec(&format!("metrics --json {}", path.display()))
            .unwrap();
        assert!(out.starts_with("wrote"));
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"explore.evaluations\""));
        assert!(json.contains("\"explore.eval_ns\""));
        let snap = tempo_instrument::global().snapshot();
        let evals = snap.counter("explore.evaluations");
        assert!(evals > 0, "explore must record evaluations");
        // every evaluation records exactly one latency sample
        assert_eq!(snap.histogram("explore.eval_ns").unwrap().count, evals);
        // plain `metrics` also appends the registry dump
        let out = s.exec("metrics").unwrap();
        assert!(out.contains("instrumentation"));
        assert!(out.contains("explore.evaluations"));
        // --json without a path is a usage error
        assert!(matches!(s.exec("metrics --json"), Err(CliError::Usage(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn measure_command() {
        let mut s = ready();
        let out = s.exec("measure group=kind node=sum:level").unwrap();
        assert!(out.contains("node"));
        let out = s
            .exec("measure group=kind node=avg:level edge=count")
            .unwrap();
        assert!(out.contains("="));
        assert!(matches!(
            s.exec("measure group=kind node=median:level"),
            Err(CliError::Usage(_))
        ));
        // random graphs have no edge values → sum rejected
        assert!(matches!(
            s.exec("measure group=kind edge=sum"),
            Err(CliError::Graph(_)) | Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn zoom_replaces_graph() {
        let mut s = ready();
        let before = s.exec("stats").unwrap();
        let out = s.exec("zoom window=2 semantics=any").unwrap();
        assert!(out.contains("3 coarse points"));
        let after = s.exec("stats").unwrap();
        assert_ne!(before, after);
    }

    #[test]
    fn save_and_load_roundtrip() {
        let mut s = ready();
        let dir = std::env::temp_dir().join(format!("gt_cli_io_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        s.exec(&format!("save {}", dir.display())).unwrap();
        let mut s2 = Session::new();
        let out = s2.exec(&format!("load {}", dir.display())).unwrap();
        assert!(out.contains("loaded"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_session_applies_timeout_and_row_limits() {
        let mut base = Session::new();
        base.exec("generate school seed=5").unwrap();
        let snap = base.graph_arc().unwrap();
        let explore = "explore event=growth semantics=union extend=new k=2 attrs=grade";
        let session = |timeout_ms, max_rows| {
            let limits = QueryLimits {
                timeout_ms,
                max_rows,
                ..QueryLimits::default()
            };
            Session::for_snapshot(Arc::clone(&snap), limits)
        };
        // a zero timeout cancels explore at its first checkpoint, whether
        // the session or the request sets it
        for (mut s, line) in [
            (session(Some(0), None), explore.to_owned()),
            (session(None, None), format!("{explore} timeout_ms=0")),
        ] {
            assert!(matches!(
                s.exec(&line),
                Err(CliError::Graph(tempo_graph::GraphError::Cancelled(_)))
            ));
        }

        let full = session(None, None).exec(explore).unwrap();
        let lines: Vec<&str> = full.lines().collect();
        assert_eq!(lines.len(), 10, "a header and nine pairs: {full}");
        assert!(lines[0].starts_with("9 qualifying"), "{full}");
        let truncated = || {
            tempo_instrument::global()
                .snapshot()
                .counter("server.rows_truncated")
        };
        // the limit applies once, to the rows: the header stays, one note
        // says how many pairs went, and the counter advances by that many
        // (exactly: no other test of this binary trips a limit)
        let before = truncated();
        let out = session(None, Some(3)).exec(explore).unwrap();
        let mut want = lines[..4].to_vec();
        want.push("… 6 more rows (limit 3)");
        assert_eq!(out.lines().collect::<Vec<_>>(), want);
        assert_eq!(truncated(), before + 6);
        let out = session(None, Some(0)).exec(explore).unwrap();
        assert_eq!(
            out.lines().collect::<Vec<_>>(),
            [lines[0], "… 9 more rows (limit 0)"]
        );
        // the request's own `limit=` overrides the session's
        let out = session(None, Some(0))
            .exec(&format!("{explore} limit=8"))
            .unwrap();
        assert_eq!(out.lines().count(), 10);
        assert!(out.ends_with("… 1 more rows (limit 8)"), "{out}");
        // `stats` has no summary line: every line is a row
        let out = session(None, Some(1)).exec("stats").unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].starts_with("#TP"), "{out}");
        assert_eq!(lines[1..], ["… 3 more rows (limit 1)"]);
        // a limit nothing trips leaves the answer as it was
        assert_eq!(session(None, Some(9)).exec(explore).unwrap(), full);
    }

    #[test]
    fn filter_op_eval() {
        assert!(FilterOp::Gt.eval(5, 4));
        assert!(!FilterOp::Gt.eval(4, 4));
        assert!(FilterOp::Ge.eval(4, 4));
        assert!(FilterOp::Lt.eval(3, 4));
        assert!(FilterOp::Le.eval(4, 4));
        assert!(FilterOp::Eq.eval(4, 4));
        assert!(!FilterOp::Eq.eval(5, 4));
    }
}
