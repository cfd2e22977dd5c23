//! The interactive session: state plus command execution.

use crate::error::CliError;
use crate::parser::{kwarg, parse_interval, split_kwargs, tokenize};
use graphtempo::aggregate::{AggMode, AggregateGraph, GroupTable};
use graphtempo::evolution::{evolution_aggregate, EvolutionAggregate};
use graphtempo::explore::{
    explore_budgeted, suggest_k, Budget, ExploreConfig, ExtendSide, Selector, Semantics,
};
use graphtempo::export::{aggregate_edges_frame, aggregate_nodes_frame, aggregate_to_dot};
use graphtempo::ops::{event_mask, Event, EventMask, SideTest};
use graphtempo::zoom::{zoom_out, Granularity};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use tempo_columnar::{Value, ValueTuple};
use tempo_datagen::{DblpConfig, MovieLensConfig, RandomGraphConfig, SchoolConfig};
use tempo_graph::{AttrId, GraphStats, NodeId, TemporalGraph, TimePoint, TimeSet};

/// Text shown by `help`.
pub const HELP: &str = "\
GraphTempo interactive shell — commands:
  generate <dblp|movielens|school|random> [scale=0.05] [seed=N]
  load <dir> | save <dir>        load/save the graph as a TSV directory
  stats                          per-timepoint node/edge counts (Tables 3-4 style)
  schema                         attributes and their temporality
  project <iv>                   entities spanning the whole interval
  union <iv> <iv>                entities in either interval
  intersect <iv> <iv>            entities in both intervals
  diff <iv> <iv>                 entities in the first interval only
  agg <dist|all> attrs=<a,b,..> [op=union|intersect|diff] [t1=<iv>] [t2=<iv>] [top=10]
  evolution t1=<iv> t2=<iv> attrs=<a,..> [filter=<attr><op><int>]  (op: > >= < <= =)
  explore event=<stability|growth|shrinkage> semantics=<union|intersect>
          extend=<old|new> k=<n> attrs=<a> [edge=<v>-><v>] [node=<v>]
  suggest (same arguments as explore)  suggest a starting k (w_th, §3.5)
  zoom window=<n> semantics=<any|all>  rewrite the graph at coarser granularity
  append <label> [node=N] [edge=U,V] [tv=N,ATTR,VAL] [static=N,ATTR,VAL] [edgeval=U,V,VAL]
                                 append a timepoint copy-on-write (epoch +1)
  cube attrs=<a,b,..> level=<a,..> [t=<point>] [scope=<iv>]  OLAP query via the cube
  measure group=<a,..> node=<count|sum:attr|min:attr|max:attr|avg:attr>
          [edge=<count|sum|min|max|avg>]  aggregate measures beyond COUNT
  solve k=<n> attrs=<a> [extend=<old|new>] [edge=<v>-><v>]   Definition 3.6 report
  metrics [--json <path>]              density/turnover profile + live instrumentation
                                       (--json dumps the registry snapshot to a file)
  export <dot|nodes|edges> <path>      export the last aggregate
  help | quit
Intervals: a label (2005, May), an index (#3), or a range (2001..2005).";

/// Request-scoped execution limits applied to session commands; the
/// defaults impose none.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryLimits {
    /// Wall-clock ceiling for one `explore` run, in milliseconds; on expiry
    /// the command fails with [`tempo_graph::GraphError::Cancelled`].
    pub timeout_ms: Option<u64>,
    /// Maximum detail rows in an `explore` pair listing; longer listings
    /// are truncated with a trailing note (and counted in the
    /// `server.rows_truncated` metric).
    pub max_rows: Option<usize>,
    /// Inert: nothing reads it. The sharded evaluator it used to select
    /// is gone, but the frozen `benchmark/src/layers.rs` names the field in
    /// a struct literal, so it stays until the next `[benchmark]` issue
    /// removes it together with that literal.
    pub shards: Option<usize>,
}

/// Interactive state: the working graph and the last computed results.
///
/// The graph is held behind an [`Arc`] so a server can hand the same
/// immutable snapshot to many concurrent per-request sessions (see
/// [`Session::for_snapshot`]).
#[derive(Default)]
pub struct Session {
    graph: Option<Arc<TemporalGraph>>,
    last_agg: Option<AggregateGraph>,
    last_evo: Option<EvolutionAggregate>,
    limits: QueryLimits,
}

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

    /// Replaces the request-scoped limits.
    pub fn set_limits(&mut self, limits: QueryLimits) {
        self.limits = limits;
    }

    /// The current request-scoped limits.
    pub fn limits(&self) -> QueryLimits {
        self.limits
    }

    /// The session's graph as a shareable handle (e.g. to register a zoom
    /// result as a new server snapshot), if one is loaded.
    pub fn graph_arc(&self) -> Option<Arc<TemporalGraph>> {
        self.graph.clone()
    }

    /// True once a graph is loaded or generated.
    #[cfg(test)]
    pub fn has_graph(&self) -> bool {
        self.graph.is_some()
    }

    fn graph(&self) -> Result<&TemporalGraph, CliError> {
        self.graph.as_deref().ok_or(CliError::NoGraph)
    }

    /// Installs a newly built graph, invalidating result state derived
    /// from the old graph.
    fn install_graph(&mut self, g: TemporalGraph) {
        self.graph = Some(Arc::new(g));
        self.last_agg = None;
        self.last_evo = None;
    }

    /// Executes one command line, returning the text to print.
    ///
    /// # Errors
    /// Returns a [`CliError`] describing what went wrong; the session state
    /// is unchanged on error.
    pub fn exec(&mut self, line: &str) -> Result<String, CliError> {
        self.exec_tokens(&tokenize(line))
    }

    /// Executes one command already split into tokens (command first) —
    /// what a caller that tokenized the line itself hands over, so that a
    /// quoted argument stays one token however much whitespace it holds.
    ///
    /// # Errors
    /// As [`exec`](Self::exec).
    pub fn exec_tokens(&mut self, tokens: &[String]) -> Result<String, CliError> {
        let Some(cmd) = tokens.first() else {
            return Ok(String::new());
        };
        let rest = &tokens[1..];
        match cmd.as_str() {
            "help" => Ok(HELP.to_owned()),
            "generate" => self.cmd_generate(rest),
            "load" => self.cmd_load(rest),
            "save" => self.cmd_save(rest),
            "stats" => self.cmd_stats(),
            "schema" => self.cmd_schema(),
            "project" | "union" | "intersect" | "diff" => self.cmd_operator(cmd, rest),
            "agg" => self.cmd_agg(rest),
            "evolution" => self.cmd_evolution(rest),
            "explore" => self.cmd_explore(rest, false),
            "suggest" => self.cmd_explore(rest, true),
            "zoom" => self.cmd_zoom(rest),
            "append" => self.cmd_append(rest),
            "cube" => self.cmd_cube(rest),
            "measure" => self.cmd_measure(rest),
            "solve" => self.cmd_solve(rest),
            "metrics" => self.cmd_metrics(rest),
            "export" => self.cmd_export(rest),
            other => Err(CliError::Unknown(format!("command {other:?} (try `help`)"))),
        }
    }

    fn cmd_generate(&mut self, args: &[String]) -> Result<String, CliError> {
        let (pos, kw) = split_kwargs(args);
        let which = pos
            .first()
            .ok_or_else(|| CliError::Usage("generate <dblp|movielens|school|random>".into()))?;
        let scale: f64 = kwarg(&kw, "scale")
            .map(|s| {
                s.parse()
                    .map_err(|_| CliError::Usage("scale=<float>".into()))
            })
            .transpose()?
            .unwrap_or(0.05);
        let seed: Option<u64> = kwarg(&kw, "seed")
            .map(|s| s.parse().map_err(|_| CliError::Usage("seed=<int>".into())))
            .transpose()?;
        let g = match which.as_str() {
            "dblp" => {
                let mut cfg = DblpConfig::scaled(scale);
                if let Some(s) = seed {
                    cfg.seed = s;
                }
                cfg.generate()?
            }
            "movielens" => {
                let mut cfg = MovieLensConfig::scaled(scale);
                if let Some(s) = seed {
                    cfg.seed = s;
                }
                cfg.generate()?
            }
            "school" => {
                let mut cfg = SchoolConfig::default();
                if let Some(s) = seed {
                    cfg.seed = s;
                }
                cfg.generate()?
            }
            "random" => {
                let mut cfg = RandomGraphConfig::default();
                if let Some(s) = seed {
                    cfg.seed = s;
                }
                cfg.generate()?
            }
            other => return Err(CliError::Unknown(format!("dataset {other:?}"))),
        };
        let msg = format!(
            "generated {which}: {} nodes, {} edges, {} time points",
            g.n_nodes(),
            g.n_edges(),
            g.domain().len()
        );
        self.install_graph(g);
        Ok(msg)
    }

    fn cmd_load(&mut self, args: &[String]) -> Result<String, CliError> {
        let dir = args
            .first()
            .ok_or_else(|| CliError::Usage("load <dir>".into()))?;
        let g = tempo_graph::io::load_dir(Path::new(dir))?;
        let msg = format!(
            "loaded {dir}: {} nodes, {} edges, {} time points",
            g.n_nodes(),
            g.n_edges(),
            g.domain().len()
        );
        self.install_graph(g);
        Ok(msg)
    }

    fn cmd_save(&mut self, args: &[String]) -> Result<String, CliError> {
        let dir = args
            .first()
            .ok_or_else(|| CliError::Usage("save <dir>".into()))?;
        tempo_graph::io::save_dir(self.graph()?, Path::new(dir))?;
        Ok(format!("saved to {dir}"))
    }

    fn cmd_stats(&self) -> Result<String, CliError> {
        let g = self.graph()?;
        let stats = GraphStats::compute(g);
        Ok(format!(
            "{}total: {} nodes, {} edges",
            stats.render_table(),
            stats.total_nodes,
            stats.total_edges
        ))
    }

    fn cmd_schema(&self) -> Result<String, CliError> {
        let g = self.graph()?;
        let mut out = String::new();
        for (_, def) in g.schema().iter() {
            let kind = match def.temporality() {
                tempo_graph::Temporality::Static => "static",
                tempo_graph::Temporality::TimeVarying => "time-varying",
            };
            let _ = writeln!(
                out,
                "  {} ({kind}, {} categorical values)",
                def.name(),
                def.category_count()
            );
        }
        Ok(out.trim_end().to_owned())
    }

    fn cmd_operator(&self, cmd: &str, args: &[String]) -> Result<String, CliError> {
        let g = self.graph()?;
        let mask = if cmd == "project" {
            let iv = args
                .first()
                .ok_or_else(|| CliError::Usage("project <interval>".into()))?;
            let t1 = parse_interval(g.domain(), iv)?;
            event_mask(g, Event::Stability, &t1, &t1, SideTest::All, SideTest::All)?
        } else {
            let (Some(a), Some(b)) = (args.first(), args.get(1)) else {
                return Err(CliError::Usage(format!("{cmd} <interval> <interval>")));
            };
            let t1 = parse_interval(g.domain(), a)?;
            let t2 = parse_interval(g.domain(), b)?;
            set_operator_mask(g, cmd, &t1, &t2)?
        };
        Ok(format!(
            "{cmd}: {} nodes, {} edges",
            mask.n_nodes(),
            mask.n_edges()
        ))
    }

    fn parse_attrs(&self, g: &TemporalGraph, spec: &str) -> Result<Vec<AttrId>, CliError> {
        spec.split(',')
            .map(|name| {
                g.schema()
                    .id(name.trim())
                    .map_err(|_| CliError::Unknown(format!("attribute {name:?}")))
            })
            .collect()
    }

    /// Parses an attribute value token: categorical label first, then int.
    fn parse_value(&self, g: &TemporalGraph, attr: AttrId, token: &str) -> Result<Value, CliError> {
        if let Some(v) = g.schema().category(attr, token) {
            return Ok(v);
        }
        token
            .parse::<i64>()
            .map(Value::Int)
            .map_err(|_| CliError::Unknown(format!("value {token:?} for attribute")))
    }

    fn parse_tuple(
        &self,
        g: &TemporalGraph,
        attrs: &[AttrId],
        spec: &str,
    ) -> Result<ValueTuple, CliError> {
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
            .map(|(p, &a)| self.parse_value(g, a, p.trim()))
            .collect()
    }

    fn cmd_agg(&mut self, args: &[String]) -> Result<String, CliError> {
        let g = self.graph()?;
        let (pos, kw) = split_kwargs(args);
        let usage =
            "agg <dist|all> attrs=<a,b> [op=union|intersect|diff] [t1=<iv>] [t2=<iv>] [top=10]";
        let mode = match pos.first().map(String::as_str) {
            Some("dist") => AggMode::Distinct,
            Some("all") => AggMode::All,
            _ => return Err(CliError::Usage(usage.into())),
        };
        let attrs = self.parse_attrs(
            g,
            kwarg(&kw, "attrs").ok_or_else(|| CliError::Usage(usage.into()))?,
        )?;
        let top: usize = kwarg(&kw, "top")
            .map(|s| s.parse().map_err(|_| CliError::Usage("top=<int>".into())))
            .transpose()?
            .unwrap_or(10);

        let mask = match kwarg(&kw, "op") {
            // the whole graph: everything that exists at some point
            None => {
                let all = g.domain().all();
                event_mask(
                    g,
                    Event::Stability,
                    &all,
                    &all,
                    SideTest::Any,
                    SideTest::Any,
                )?
            }
            Some(op) => {
                let t1 = parse_interval(
                    g.domain(),
                    kwarg(&kw, "t1").ok_or_else(|| CliError::Usage(usage.into()))?,
                )?;
                let t2 = parse_interval(
                    g.domain(),
                    kwarg(&kw, "t2").ok_or_else(|| CliError::Usage(usage.into()))?,
                )?;
                set_operator_mask(g, op, &t1, &t2)?
            }
        };
        let agg = GroupTable::cached(g, &attrs).aggregate_masked(g, &mask, mode);
        let mut out = format!(
            "aggregate: {} nodes, {} edges (node weight {}, edge weight {})\n",
            agg.n_nodes(),
            agg.n_edges(),
            agg.total_node_weight(),
            agg.total_edge_weight()
        );
        let mut nodes = agg.iter_nodes();
        nodes.sort_by_key(|&(_, w)| std::cmp::Reverse(w));
        for (tuple, w) in nodes.into_iter().take(top) {
            let _ = writeln!(out, "  node {} w={w}", render_tuple(g, &attrs, tuple));
        }
        let mut edges = agg.iter_edges();
        edges.sort_by_key(|&(_, w)| std::cmp::Reverse(w));
        for ((s, d), w) in edges.into_iter().take(top) {
            let _ = writeln!(
                out,
                "  edge {} -> {} w={w}",
                render_tuple(g, &attrs, s),
                render_tuple(g, &attrs, d)
            );
        }
        self.last_agg = Some(agg);
        Ok(out.trim_end().to_owned())
    }

    fn cmd_evolution(&mut self, args: &[String]) -> Result<String, CliError> {
        let g = self.graph()?;
        let (_, kw) = split_kwargs(args);
        let usage = "evolution t1=<iv> t2=<iv> attrs=<a,..> [filter=<attr><op><int>]";
        let t1 = parse_interval(
            g.domain(),
            kwarg(&kw, "t1").ok_or_else(|| CliError::Usage(usage.into()))?,
        )?;
        let t2 = parse_interval(
            g.domain(),
            kwarg(&kw, "t2").ok_or_else(|| CliError::Usage(usage.into()))?,
        )?;
        let attrs = self.parse_attrs(
            g,
            kwarg(&kw, "attrs").ok_or_else(|| CliError::Usage(usage.into()))?,
        )?;
        let filter = kwarg(&kw, "filter")
            .map(|spec| parse_filter(g, spec))
            .transpose()?;
        let filter_fn = filter.as_ref().map(|(attr, op, threshold)| {
            let (attr, op, threshold) = (*attr, *op, *threshold);
            move |gr: &TemporalGraph, n: NodeId, t: TimePoint| -> bool {
                let v = gr.attr_value(n, attr, t).as_int().unwrap_or(i64::MIN);
                op.eval(v, threshold)
            }
        });
        let evo = evolution_aggregate(
            g,
            &t1,
            &t2,
            &attrs,
            filter_fn
                .as_ref()
                .map(|f| f as &graphtempo::aggregate::NodeTimeFilter<'_>),
        )?;
        let mut out = String::new();
        for (tuple, w) in evo.iter_nodes() {
            let _ = writeln!(
                out,
                "  node {}: St={} Gr={} Shr={}",
                render_tuple(g, &attrs, tuple),
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
        self.last_evo = Some(evo);
        Ok(out.trim_end().to_owned())
    }

    fn cmd_explore(&mut self, args: &[String], suggest_only: bool) -> Result<String, CliError> {
        let g = self.graph()?;
        let (_, kw) = split_kwargs(args);
        let usage = "explore event=<stability|growth|shrinkage> semantics=<union|intersect> extend=<old|new> k=<n> attrs=<a> [edge=<v>-><v>] [node=<v>]";
        let event = match kwarg(&kw, "event") {
            Some("stability") => Event::Stability,
            Some("growth") => Event::Growth,
            Some("shrinkage") => Event::Shrinkage,
            _ => return Err(CliError::Usage(usage.into())),
        };
        let semantics = match kwarg(&kw, "semantics") {
            Some("union") => Semantics::Union,
            Some("intersect") | Some("intersection") => Semantics::Intersection,
            _ => return Err(CliError::Usage(usage.into())),
        };
        let extend = match kwarg(&kw, "extend") {
            Some("old") => ExtendSide::Old,
            Some("new") => ExtendSide::New,
            _ => return Err(CliError::Usage(usage.into())),
        };
        let attrs = self.parse_attrs(
            g,
            kwarg(&kw, "attrs").ok_or_else(|| CliError::Usage(usage.into()))?,
        )?;
        let selector = if let Some(edge) = kwarg(&kw, "edge") {
            let (src, dst) = edge
                .split_once("->")
                .ok_or_else(|| CliError::Usage("edge=<v>-><v>".into()))?;
            Selector::EdgeTuple(
                self.parse_tuple(g, &attrs, src)?,
                self.parse_tuple(g, &attrs, dst)?,
            )
        } else if let Some(node) = kwarg(&kw, "node") {
            Selector::NodeTuple(self.parse_tuple(g, &attrs, node)?)
        } else {
            Selector::AllEdges
        };
        let mut cfg = ExploreConfig {
            event,
            extend,
            semantics,
            k: 1,
            attrs,
            selector,
        };
        if suggest_only {
            return match suggest_k(g, &cfg)? {
                Some(w) => Ok(format!("suggested k (w_th per §3.5): {w}")),
                None => Ok("no events between any consecutive time points".to_owned()),
            };
        }
        cfg.k = kwarg(&kw, "k")
            .ok_or_else(|| CliError::Usage(usage.into()))?
            .parse()
            .map_err(|_| CliError::Usage("k=<int>".into()))?;
        let budget = match self.limits.timeout_ms {
            Some(ms) => Budget::unlimited().with_deadline_ms(ms),
            None => Budget::unlimited(),
        };
        let out = explore_budgeted(g, &cfg, &budget)?;
        let kind = match semantics {
            Semantics::Union => "minimal",
            Semantics::Intersection => "maximal",
        };
        let mut text = format!(
            "{} qualifying {kind} interval pairs ({} evaluations):\n",
            out.pairs.len(),
            out.evaluations
        );
        let cap = self.limits.max_rows.unwrap_or(usize::MAX);
        for (pair, r) in out.pairs.iter().take(cap) {
            let _ = writeln!(text, "  {} -> {r} events", pair.display(g.domain()));
        }
        if out.pairs.len() > cap {
            let dropped = out.pairs.len() - cap;
            tempo_instrument::global()
                .counter("server.rows_truncated")
                .add(dropped as u64);
            let _ = writeln!(text, "  … {dropped} more rows (limit {cap})");
        }
        Ok(text.trim_end().to_owned())
    }

    fn cmd_zoom(&mut self, args: &[String]) -> Result<String, CliError> {
        let g = self.graph()?;
        let (_, kw) = split_kwargs(args);
        let usage = "zoom window=<n> semantics=<any|all>";
        let window: usize = kwarg(&kw, "window")
            .ok_or_else(|| CliError::Usage(usage.into()))?
            .parse()
            .map_err(|_| CliError::Usage("window=<int>".into()))?;
        let sem = match kwarg(&kw, "semantics") {
            Some("all") => SideTest::All,
            _ => SideTest::Any,
        };
        let gran = Granularity::windows(g.domain(), window)?;
        let z = zoom_out(g, &gran, sem)?;
        let msg = format!(
            "zoomed to {} coarse points: {} nodes, {} edges",
            z.domain().len(),
            z.n_nodes(),
            z.n_edges()
        );
        self.install_graph(z);
        Ok(msg)
    }

    /// `append <label> [node=N] [edge=U,V] …`: appends one timepoint to the
    /// working graph copy-on-write. Holders of the previous `Arc` snapshot
    /// (e.g. a server registry) are undisturbed; the session moves to the
    /// new epoch and drops results derived from the old one.
    fn cmd_append(&mut self, args: &[String]) -> Result<String, CliError> {
        let Some((label, rest)) = args.split_first() else {
            return Err(CliError::Usage(format!(
                "append <label> {}",
                crate::patch::PATCH_USAGE
            )));
        };
        let graph = self.graph.clone().ok_or(CliError::NoGraph)?;
        let patch = crate::patch::parse_patch(&graph, label, rest)?;
        let mut versions = tempo_graph::GraphVersions::from_arc(graph);
        let next = versions.append_timepoint(&patch)?;
        let msg = format!(
            "appended {label}: {} nodes, {} edges, {} time points (epoch {})",
            next.n_nodes(),
            next.n_edges(),
            next.domain().len(),
            next.epoch()
        );
        self.graph = Some(next);
        self.last_agg = None;
        self.last_evo = None;
        Ok(msg)
    }

    fn cmd_cube(&mut self, args: &[String]) -> Result<String, CliError> {
        use graphtempo::cube::{GraphCube, Level};
        let g = self.graph()?;
        let (_, kw) = split_kwargs(args);
        let usage = "cube attrs=<a,b,..> level=<a,..> [t=<point>] [scope=<iv>]";
        let attrs = self.parse_attrs(
            g,
            kwarg(&kw, "attrs").ok_or_else(|| CliError::Usage(usage.into()))?,
        )?;
        let level_names: Vec<String> = kwarg(&kw, "level")
            .ok_or_else(|| CliError::Usage(usage.into()))?
            .split(',')
            .map(|s| s.trim().to_owned())
            .collect();
        let cube = GraphCube::build(g, &attrs, 1);
        let level = Level::new(level_names);
        let agg = if let Some(t) = kwarg(&kw, "t") {
            let p = crate::parser::parse_point(g.domain(), t)?;
            cube.slice(&level, TimePoint(p as u32))?
        } else {
            let scope = match kwarg(&kw, "scope") {
                Some(iv) => parse_interval(g.domain(), iv)?,
                None => g.domain().all(),
            };
            cube.query(&level, &scope)?
        };
        let level_ids = self.parse_attrs(g, &level.names().join(","))?;
        let mut out = format!(
            "cube query at level ({}): {} nodes, {} edges\n",
            level.names().join(","),
            agg.n_nodes(),
            agg.n_edges()
        );
        let mut nodes = agg.iter_nodes();
        nodes.sort_by_key(|&(_, w)| std::cmp::Reverse(w));
        for (tuple, w) in nodes.into_iter().take(10) {
            let _ = writeln!(out, "  {} w={w}", render_tuple(g, &level_ids, tuple));
        }
        self.last_agg = Some(agg);
        Ok(out.trim_end().to_owned())
    }

    fn cmd_measure(&self, args: &[String]) -> Result<String, CliError> {
        use graphtempo::measures::{aggregate_measure, EdgeMeasure, NodeMeasure};
        let g = self.graph()?;
        let (_, kw) = split_kwargs(args);
        let usage = "measure group=<a,..> node=<count|sum:attr|min:attr|max:attr|avg:attr> [edge=<count|sum|min|max|avg>]";
        let group = self.parse_attrs(
            g,
            kwarg(&kw, "group").ok_or_else(|| CliError::Usage(usage.into()))?,
        )?;
        let node_spec = kwarg(&kw, "node").unwrap_or("count");
        let node_measure = match node_spec.split_once(':') {
            None if node_spec == "count" => NodeMeasure::Count,
            Some((op, attr)) => {
                let a = g
                    .schema()
                    .id(attr)
                    .map_err(|_| CliError::Unknown(format!("attribute {attr:?}")))?;
                match op {
                    "sum" => NodeMeasure::Sum(a),
                    "min" => NodeMeasure::Min(a),
                    "max" => NodeMeasure::Max(a),
                    "avg" => NodeMeasure::Avg(a),
                    _ => return Err(CliError::Usage(usage.into())),
                }
            }
            _ => return Err(CliError::Usage(usage.into())),
        };
        let edge_measure = match kwarg(&kw, "edge").unwrap_or("count") {
            "count" => EdgeMeasure::Count,
            "sum" => EdgeMeasure::SumValues,
            "min" => EdgeMeasure::MinValues,
            "max" => EdgeMeasure::MaxValues,
            "avg" => EdgeMeasure::AvgValues,
            _ => return Err(CliError::Usage(usage.into())),
        };
        let m = aggregate_measure(g, &group, node_measure, edge_measure)?;
        let mut out = format!(
            "measure {node_spec} grouped by ({})\n",
            m.group_names().join(",")
        );
        for (tuple, v) in m.iter_nodes() {
            let _ = writeln!(out, "  node {} = {v:.3}", render_tuple(g, &group, tuple));
        }
        let mut edges = m.iter_edges();
        edges.truncate(10);
        for ((s, d), v) in edges {
            let _ = writeln!(
                out,
                "  edge {} -> {} = {v:.3}",
                render_tuple(g, &group, s),
                render_tuple(g, &group, d)
            );
        }
        Ok(out.trim_end().to_owned())
    }

    fn cmd_solve(&self, args: &[String]) -> Result<String, CliError> {
        use graphtempo::explore::solve_problem;
        let g = self.graph()?;
        let (_, kw) = split_kwargs(args);
        let usage = "solve k=<n> attrs=<a> [extend=<old|new>] [edge=<v>-><v>]";
        let k: u64 = kwarg(&kw, "k")
            .ok_or_else(|| CliError::Usage(usage.into()))?
            .parse()
            .map_err(|_| CliError::Usage("k=<int>".into()))?;
        let attrs = self.parse_attrs(
            g,
            kwarg(&kw, "attrs").ok_or_else(|| CliError::Usage(usage.into()))?,
        )?;
        let extend = match kwarg(&kw, "extend") {
            Some("old") => ExtendSide::Old,
            _ => ExtendSide::New,
        };
        let selector = if let Some(edge) = kwarg(&kw, "edge") {
            let (src, dst) = edge
                .split_once("->")
                .ok_or_else(|| CliError::Usage("edge=<v>-><v>".into()))?;
            Selector::EdgeTuple(
                self.parse_tuple(g, &attrs, src)?,
                self.parse_tuple(g, &attrs, dst)?,
            )
        } else {
            Selector::AllEdges
        };
        let report = solve_problem(g, k, &attrs, &selector, extend)?;
        Ok(report.render(g.domain()).trim_end().to_owned())
    }

    fn cmd_metrics(&self, args: &[String]) -> Result<String, CliError> {
        use tempo_graph::metrics::{avg_degree_at, density_at, turnover_profile};
        // `metrics --json <path>` dumps the live instrumentation registry
        // and needs no graph.
        if let Some(i) = args.iter().position(|a| a == "--json") {
            let path = args
                .get(i + 1)
                .ok_or_else(|| CliError::Usage("metrics --json <path>".into()))?;
            std::fs::write(path, tempo_instrument::global().snapshot().render_json())?;
            return Ok(format!("wrote instrumentation snapshot to {path}"));
        }
        if !args.is_empty() {
            return Err(CliError::Usage("metrics [--json <path>]".into()));
        }
        let g = self.graph()?;
        let mut out = String::from("  time        density  avg-degree\n");
        for t in g.domain().iter() {
            let _ = writeln!(
                out,
                "  {:<10} {:>8.4} {:>11.2}",
                g.domain().label(t),
                density_at(g, t),
                avg_degree_at(g, t)
            );
        }
        out.push_str("  consecutive-pair overlap (node / edge Jaccard):\n");
        for (i, (nj, ej)) in turnover_profile(g).iter().enumerate() {
            let _ = writeln!(
                out,
                "  {} -> {}: {nj:.3} / {ej:.3}",
                g.domain().labels()[i],
                g.domain().labels()[i + 1]
            );
        }
        let snap = tempo_instrument::global().snapshot();
        if !snap.is_empty() {
            out.push_str("  instrumentation (session totals):\n");
            for line in snap.render_text().lines() {
                let _ = writeln!(out, "  {line}");
            }
        }
        Ok(out.trim_end().to_owned())
    }

    fn cmd_export(&self, args: &[String]) -> Result<String, CliError> {
        let what = args
            .first()
            .ok_or_else(|| CliError::Usage("export <dot|nodes|edges> <path>".into()))?;
        let path = args
            .get(1)
            .ok_or_else(|| CliError::Usage("export <dot|nodes|edges> <path>".into()))?;
        let agg = self.last_agg.as_ref().ok_or(CliError::NoAggregate)?;
        match what.as_str() {
            "dot" => {
                std::fs::write(path, aggregate_to_dot(agg, self.graph.as_deref()))?;
            }
            "nodes" => {
                let f = aggregate_nodes_frame(agg).map_err(tempo_graph::GraphError::from)?;
                let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
                tempo_columnar::write_frame(&f, &mut w, '\t')
                    .map_err(tempo_graph::GraphError::from)?;
            }
            "edges" => {
                let f = aggregate_edges_frame(agg).map_err(tempo_graph::GraphError::from)?;
                let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
                tempo_columnar::write_frame(&f, &mut w, '\t')
                    .map_err(tempo_graph::GraphError::from)?;
            }
            other => return Err(CliError::Unknown(format!("export target {other:?}"))),
        }
        Ok(format!("wrote {path}"))
    }
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
fn parse_filter(g: &TemporalGraph, spec: &str) -> Result<(AttrId, FilterOp, i64), CliError> {
    for (sym, op) in [
        (">=", FilterOp::Ge),
        ("<=", FilterOp::Le),
        (">", FilterOp::Gt),
        ("<", FilterOp::Lt),
        ("=", FilterOp::Eq),
    ] {
        if let Some((name, value)) = spec.split_once(sym) {
            let attr = g
                .schema()
                .id(name.trim())
                .map_err(|_| CliError::Unknown(format!("attribute {name:?}")))?;
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

fn render_tuple(g: &TemporalGraph, attrs: &[AttrId], tuple: &ValueTuple) -> String {
    let parts: Vec<String> = attrs
        .iter()
        .zip(tuple)
        .map(|(&a, v)| g.schema().def(a).render(v))
        .collect();
    format!("({})", parts.join(","))
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
        assert!(s.has_graph());
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
        let base = ready();
        let snap = base.graph_arc().unwrap();
        // a zero timeout cancels explore at its first checkpoint
        let mut s = Session::for_snapshot(
            Arc::clone(&snap),
            QueryLimits {
                timeout_ms: Some(0),
                ..QueryLimits::default()
            },
        );
        assert!(matches!(
            s.exec("explore event=stability semantics=union extend=new k=1 attrs=kind"),
            Err(CliError::Graph(tempo_graph::GraphError::Cancelled(_)))
        ));
        // a zero row limit truncates the listing with a note
        let mut s = Session::for_snapshot(
            snap,
            QueryLimits {
                max_rows: Some(0),
                ..QueryLimits::default()
            },
        );
        assert_eq!(s.limits().max_rows, Some(0));
        let out = s
            .exec("explore event=stability semantics=union extend=new k=1 attrs=kind")
            .unwrap();
        assert!(out.contains("more rows (limit 0)"), "{out}");
        // the untruncated run over the same shared snapshot still works
        s.set_limits(QueryLimits::default());
        let out = s
            .exec("explore event=stability semantics=union extend=new k=1 attrs=kind")
            .unwrap();
        assert!(!out.contains("more rows"));
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
