//! The traced run: spans around every call into a layer, kept in memory
//! and written out at the end, and the per-layer ledger computed from them.
//!
//! The program has no spans of its own yet, so each template is replayed a
//! few times at three depths — the TCP round trip, the same line through a
//! `Session` on the snapshot's `Arc`, and the equivalent direct calls into
//! `core`, `temporal-graph` and `columnar` — and the three executions of
//! one request are linked as parent and child. A layer's self time is its
//! span minus its children; what the depths disagree on shows up as
//! `ledger.unattributed_share`.

use crate::client::Client;
use crate::layers::{self, Direct, SPAN_LAYERS};
use crate::run::{self, Lanes, Options, Outcome, Setup, Window};
use crate::spec::{Reading, PER_LAYER};
use crate::stats;
use crate::workloads::{Class, Query, Template};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Identifier, unique in the file.
    pub id: u32,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// Shared by the spans of one request.
    pub request: u32,
    /// What ran: `wire`, `session`, or a layer call.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End.
    pub end_ns: u64,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans in memory.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose clock starts at `origin`.
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    /// Records a span and returns its id.
    pub fn span(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        request: u32,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let id = self.spans.len() as u32;
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
        });
        id
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span: its duration minus its children's, never below
    /// zero (parent and children are separate executions here).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p as usize] += s.ns();
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, c)| s.ns().saturating_sub(c))
            .collect()
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (s, self_ns) in self.spans.iter().zip(self.self_ns()) {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"request\": {}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}}}",
                s.id, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Share of `--seconds` each of the two concurrency windows runs for.
const CONCURRENCY_SHARE: f64 = 0.1;
/// Replays of each template at each depth.
const REPS: usize = 6;
/// Request ids: `template * REQUEST_STRIDE + rep` for replays.
const REQUEST_STRIDE: u32 = 16;
/// Request ids of the traced window's requests start here.
const WINDOW_REQUESTS: u32 = 1 << 20;
/// Direct appends in the growth series.
const SERIES: usize = 40;

/// Facts the direct calls of one template returned, per rep.
type Facts = BTreeMap<&'static str, Vec<f64>>;

fn record_direct(tracer: &mut Tracer, parent: u32, request: u32, d: &Direct, facts: &mut Facts) {
    for t in &d.spans {
        tracer.span(t.name, Some(parent), request, t.start, t.end);
    }
    for t in &d.extras {
        tracer.span(t.name, None, request, t.start, t.end);
    }
    for (k, v) in &d.facts {
        facts.entry(k).or_default().push(*v);
    }
}

/// Replays template `t` [`REPS`] times at the three depths.
fn replay_template(
    setup: &Setup,
    c: &mut Client,
    tracer: &mut Tracer,
    t: usize,
    tpl: &Template,
    failures: &mut Vec<String>,
) -> Result<Facts, String> {
    let mut facts = Facts::new();
    // nothing appends during the replays, so one graph and one line serve
    let (g, _) = setup
        .server
        .snapshot(tpl.snapshot)
        .ok_or("snapshot vanished")?;
    let points = layers::n_points(&g);
    let line = tpl.wire_line(points);
    // untimed: the caches still hold the previous template's data
    c.request(&line).map_err(|e| e.to_string())?;
    for rep in 0..REPS {
        let request = t as u32 * REQUEST_STRIDE + rep as u32;

        let start = Instant::now();
        let reply = c.request(&line).map_err(|e| e.to_string())?;
        let end = Instant::now();
        let wire = tracer.span("wire", None, request, start, end);

        let start = Instant::now();
        let answer = layers::session_exec(&g, &tpl.session_line(points));
        let end = Instant::now();
        let session = tracer.span("session", Some(wire), request, start, end);
        if !reply.is_ok() || answer.as_deref() != Ok(reply.payload()) {
            failures.push(format!("wire and session disagree on {line}"));
        }

        let d = layers::direct(&g, &tpl.query);
        if let Some(why) = &d.disagreement {
            failures.push(format!("{line}: {why}"));
        }
        record_direct(tracer, session, request, &d, &mut facts);
    }
    Ok(facts)
}

/// Replays the writer's append to snapshot `name` at the three depths, on
/// spare lines.
fn replay_append(
    setup: &Setup,
    name: &str,
    c: &mut Client,
    tracer: &mut Tracer,
    t: usize,
    next_line: &mut usize,
    failures: &mut Vec<String>,
) -> Result<Facts, String> {
    let mut facts = Facts::new();
    let mut take = || -> &str {
        *next_line += 1;
        &setup.append_lines[*next_line - 1]
    };
    for rep in 0..REPS {
        let request = t as u32 * REQUEST_STRIDE + rep as u32;

        let start = Instant::now();
        let reply = c.request(take()).map_err(|e| e.to_string())?;
        let end = Instant::now();
        let wire = tracer.span("wire", None, request, start, end);
        if !reply.is_ok() {
            failures.push(format!("replayed append failed: {}", reply.status()));
        }

        // the deeper two leave the registry alone: same graph, next label
        let (g, _) = setup.server.snapshot(name).ok_or("snapshot vanished")?;
        let line = take();
        let start = Instant::now();
        let answer = layers::session_exec(&g, &layers::append_session_line(line));
        let end = Instant::now();
        let session = tracer.span("session", Some(wire), request, start, end);
        if let Err(e) = answer {
            failures.push(format!("session append failed: {e}"));
        }
        let (d, _) = layers::direct_append(&g, line)?;
        record_direct(tracer, session, request, &d, &mut facts);
    }
    Ok(facts)
}

/// A series of direct appends on a private lineage: per-append time early
/// and late in the series, and resident memory per epoch while only the
/// newest epoch is held.
fn append_series(
    setup: &Setup,
    name: &str,
    next_line: &mut usize,
) -> Result<(f64, f64, f64), String> {
    let (mut g, _) = setup.server.snapshot(name).ok_or("snapshot vanished")?;
    let rss_before = run::rss_mb("VmRSS");
    let mut times = Vec::with_capacity(SERIES);
    for _ in 0..SERIES {
        let (d, next) = layers::direct_append(&g, &setup.append_lines[*next_line])?;
        *next_line += 1;
        let append = d.spans.iter().find(|t| t.name == "graph.append");
        times.push(append.map_or(0.0, |t| t.duration().as_secs_f64() * 1e3));
        g = next;
    }
    let kb_per_epoch = (run::rss_mb("VmRSS") - rss_before).max(0.0) * 1024.0 / SERIES as f64;
    let quarter = SERIES / 4;
    let early = stats::median_of(&times[..quarter]);
    let late = stats::median_of(&times[SERIES - quarter..]);
    Ok((stats::median_of(&times), late / early, kb_per_epoch))
}

/// Exploration counters over one pass of direct calls (exact: nothing else
/// runs), and the same pass timed with the program's instrumentation off
/// and on.
fn explore_pass(setup: &Setup) -> (layers::Counters, f64) {
    let explorations: Vec<(layers::Graph, &Query)> = setup
        .plan
        .templates
        .iter()
        .filter(|t| t.class() == Class::Explore)
        .filter_map(|t| Some((setup.server.snapshot(t.snapshot)?.0, &t.query)))
        .collect();
    let pass = || {
        let start = Instant::now();
        for (g, q) in &explorations {
            layers::direct(g, q);
        }
        start.elapsed().as_secs_f64()
    };
    let before = layers::Counters::read();
    pass();
    let counts = layers::Counters::read().since(&before);
    let (mut off, mut on) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        layers::set_instrument_enabled(false);
        off.push(pass());
        layers::set_instrument_enabled(true);
        on.push(pass());
    }
    let (off, on) = (stats::median_of(&off), stats::median_of(&on));
    (counts, (on - off) / on)
}

/// Median connect-and-ping time in microseconds.
fn connect_us(setup: &Setup) -> Result<f64, String> {
    let mut times = Vec::new();
    for _ in 0..20 {
        let start = Instant::now();
        let mut c = Client::connect(setup.server.addr()).map_err(|e| e.to_string())?;
        c.request("ping").map_err(|e| e.to_string())?;
        times.push(start.elapsed().as_secs_f64() * 1e6);
    }
    Ok(stats::median_of(&times))
}

/// Requests per second of a short writer-less window on `connections`
/// evenly spaced connections.
fn rps(setup: &Setup, seconds: f64, connections: usize) -> Result<f64, String> {
    let n = setup.plan.templates.len();
    let offsets: Vec<usize> = (0..connections).map(|c| c * n / connections).collect();
    let lanes = Lanes {
        offsets: &offsets,
        appends: 0,
        first_line: 0,
    };
    let w = run::run_window(setup, seconds, lanes)?;
    Ok(w.samples.len() as f64 / w.seconds)
}

/// Median over reps, per template, of a value taken from each span of
/// `name`: `[template] -> median`.
fn template_medians(
    tracer: &Tracer,
    values: &[u64],
    name: &str,
    n_templates: usize,
) -> Vec<Option<f64>> {
    let mut per: Vec<Vec<f64>> = vec![Vec::new(); n_templates];
    for (s, &v) in tracer.spans().iter().zip(values) {
        if s.name == name && s.request < WINDOW_REQUESTS {
            per[(s.request / REQUEST_STRIDE) as usize].push(v as f64);
        }
    }
    per.iter()
        .map(|v| (!v.is_empty()).then(|| stats::median_of(v)))
        .collect()
}

fn sum(v: &[Option<f64>]) -> f64 {
    v.iter().flatten().sum()
}

/// Mean of the templates that have the span, scaled; 0 if none has.
fn mean(v: &[Option<f64>], scale: f64) -> f64 {
    let n = v.iter().flatten().count();
    if n == 0 {
        0.0
    } else {
        sum(v) / n as f64 * scale
    }
}

/// The per-layer metrics from the window, the replays and the probes.
fn ledger(
    setup: &Setup,
    window: &Window,
    tracer: &Tracer,
    replayed: &[Facts],
    m: &mut BTreeMap<&'static str, f64>,
) {
    let n = replayed.len();
    let durations: Vec<u64> = tracer.spans().iter().map(Span::ns).collect();
    let selfs = tracer.self_ns();
    let dur = |name| template_medians(tracer, &durations, name, n);
    let wire = dur("wire");
    let total = sum(&wire);
    let server_self = template_medians(tracer, &selfs, "wire", n);
    let cli_self = template_medians(tracer, &selfs, "session", n);

    let mut layer_ns: BTreeMap<&str, f64> = BTreeMap::new();
    *layer_ns.entry("server").or_default() += sum(&server_self);
    *layer_ns.entry("cli").or_default() += sum(&cli_self);
    for (name, layer) in SPAN_LAYERS {
        *layer_ns.entry(layer).or_default() += sum(&dur(name));
    }
    for (layer, key) in [
        ("server", "server.share"),
        ("cli", "cli.share"),
        ("core.ops", "core.ops.share"),
        ("core.aggregate", "core.aggregate.share"),
        ("core.evolution", "core.evolution.share"),
        ("core.explore", "core.explore.share"),
        ("core.cube", "core.cube.share"),
        ("core.measures", "core.measures.share"),
        ("graph", "graph.share"),
    ] {
        m.insert(key, layer_ns[layer] / total);
    }
    m.insert(
        "ledger.unattributed_share",
        1.0 - layer_ns.values().sum::<f64>() / total,
    );
    m.insert("server.self_us", mean(&server_self, 1e-3));
    m.insert("cli.self_us", mean(&cli_self, 1e-3));
    m.insert("cli.patch_parse_us", mean(&dur("cli.patch_parse"), 1e-3));
    m.insert(
        "core.ops.materialize_ms",
        mean(&dur("core.ops.materialize"), 1e-6),
    );
    m.insert(
        "core.ops.event_mask_us",
        mean(&dur("core.ops.event_mask"), 1e-3),
    );
    let hash = dur("core.aggregate.hash");
    let masked = dur("core.aggregate.masked");
    m.insert("core.aggregate.hash_ms", mean(&hash, 1e-6));
    m.insert("core.aggregate.masked_us", mean(&masked, 1e-3));
    m.insert(
        "core.aggregate.group_table_build_us",
        mean(&dur("core.aggregate.group_table_build"), 1e-3),
    );
    m.insert("core.aggregate.hash_over_masked", sum(&hash) / sum(&masked));
    m.insert("core.evolution.ms", mean(&dur("core.evolution"), 1e-6));
    let explore = dur("core.explore");
    m.insert("core.explore.ms", mean(&explore, 1e-6));
    m.insert(
        "core.explore.suggest_ms",
        mean(&dur("core.explore.suggest"), 1e-6),
    );
    m.insert("core.cube.ms", mean(&dur("core.cube"), 1e-6));
    m.insert("core.measures.ms", mean(&dur("core.measures"), 1e-6));
    m.insert("graph.stats_ms", mean(&dur("graph.stats"), 1e-6));

    let fact = |key: &str| -> f64 {
        replayed
            .iter()
            .filter_map(|facts| facts.get(key))
            .map(|v| stats::median_of(v))
            .sum()
    };
    m.insert(
        "core.aggregate.entities_per_group",
        fact("entities") / fact("groups"),
    );
    m.insert(
        "core.explore.ns_per_evaluation",
        sum(&explore) / fact("evaluations"),
    );
    m.insert(
        "core.explore.useful_ratio",
        fact("pairs") / fact("evaluations"),
    );

    // the window: what the clients saw
    let plan = &setup.plan;
    let per_template = run::by_template(plan, &window.samples);
    for (class, ms_key, count_key) in [
        (Class::Stats, "class.stats.ms", "class.stats.count"),
        (Class::Schema, "class.schema.ms", "class.schema.count"),
        (Class::Agg, "class.agg.ms", "class.agg.count"),
        (
            Class::Evolution,
            "class.evolution.ms",
            "class.evolution.count",
        ),
        (Class::Explore, "class.explore.ms", "class.explore.count"),
        (Class::Suggest, "class.suggest.ms", "class.suggest.count"),
        (Class::Measure, "class.measure.ms", "class.measure.count"),
        (Class::Cube, "class.cube.ms", "class.cube.count"),
    ] {
        m.insert(
            ms_key,
            run::class_ms(plan, &per_template, Some(class)).unwrap_or(0.0),
        );
        let count = window
            .samples
            .iter()
            .filter(|s| plan.templates[s.template].class() == class)
            .count();
        m.insert(count_key, count as f64);
    }
    m.insert("client.samples", window.samples.len() as f64);
    let all = stats::sorted(window.samples.iter().map(run::Sample::ms).collect());
    // supported from 1000 samples on
    m.insert(
        "client.latency_p99_ms",
        stats::supported_percentile(&all, 0.99).unwrap_or(0.0),
    );
    let medians: Vec<f64> = per_template
        .iter()
        .map(|v| {
            if v.is_empty() {
                f64::NAN
            } else {
                stats::median_of(v)
            }
        })
        .collect();
    let slowdowns = stats::sorted(
        window
            .samples
            .iter()
            .map(|s| s.ms() / medians[s.template])
            .filter(|r| r.is_finite())
            .collect(),
    );
    m.insert(
        "client.slowdown_p95",
        stats::supported_percentile(&slowdowns, 0.95).unwrap_or(0.0),
    );
    let appends = stats::sorted(window.appends.iter().map(|a| a.ms).collect());
    if !appends.is_empty() {
        m.insert("client.append_ms", stats::median(&appends));
    }
    m.insert(
        "client.append_p90_ms",
        stats::supported_percentile(&appends, 0.9).unwrap_or(0.0),
    );
    let late = stats::sorted(window.appends.iter().map(|a| a.late_ms).collect());
    m.insert(
        "client.append_lateness_p90_ms",
        stats::supported_percentile(&late, 0.9).unwrap_or(0.0),
    );
    let bytes: usize = window.samples.iter().map(|s| s.bytes).sum();
    m.insert(
        "cli.response_bytes",
        bytes as f64 / window.samples.len().max(1) as f64,
    );
    m.insert("server.errors", window.counters.server_errors as f64);
    m.insert("server.timeouts", window.counters.server_timeouts as f64);
    m.insert(
        "graph.transpose_builds",
        window.counters.transpose_builds as f64,
    );
}

/// Every template and, where there is a writer, the append at the three
/// depths; then the probes that need the server's snapshots: the append
/// series and the exploration pass.
fn replays(
    setup: &Setup,
    tracer: &mut Tracer,
    mut next_line: usize,
    m: &mut BTreeMap<&'static str, f64>,
) -> Result<(Vec<Facts>, Vec<String>), String> {
    let mut c = Client::connect(setup.server.addr()).map_err(|e| e.to_string())?;
    let mut failures = Vec::new();
    let n = setup.plan.templates.len();
    let mut replayed = Vec::with_capacity(n + 1);
    for (t, tpl) in setup.plan.templates.iter().enumerate() {
        replayed.push(replay_template(
            setup,
            &mut c,
            tracer,
            t,
            tpl,
            &mut failures,
        )?);
    }
    if let Some(name) = setup.plan.appended_snapshot() {
        replayed.push(replay_append(
            setup,
            name,
            &mut c,
            tracer,
            n,
            &mut next_line,
            &mut failures,
        )?);
        let (append_ms, late_over_early, kb_per_epoch) =
            append_series(setup, name, &mut next_line)?;
        m.insert("graph.append_ms", append_ms);
        m.insert("graph.append_late_over_early", late_over_early);
        m.insert("graph.kb_per_epoch", kb_per_epoch);
    }
    let (counts, overhead) = explore_pass(setup);
    m.insert("core.explore.evaluations", counts.evaluations as f64);
    m.insert("core.explore.pruned", counts.pruned as f64);
    m.insert("core.explore.cursor_steps", counts.cursor_steps as f64);
    m.insert("instrument.enabled_overhead_share", overhead);
    Ok((replayed, failures))
}

/// The traced run of one workload: the same window with a span per
/// request, then the three-depth replays and the layer probes. Writes the
/// spans to `<out_dir>/trace-<workload>.jsonl`.
pub fn run_traced(opts: &Options, out_dir: &Path) -> Result<Outcome, String> {
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();

    // set-up's own layers, on graphs of our own so first touches are first
    let plan = crate::workloads::plan(opts.workload, opts.seed, opts.scale);
    let start = Instant::now();
    let graphs: Vec<layers::Graph> = plan
        .snapshots
        .iter()
        .map(|s| layers::generate(s, crate::workloads::DATA_SEED))
        .collect();
    m.insert("datagen.generate_s", start.elapsed().as_secs_f64());
    let main = &graphs[0];
    m.insert(
        "graph.index_build_ms",
        layers::build_indexes(main).as_secs_f64() * 1e3,
    );
    m.insert(
        "columnar.transpose_ms",
        layers::transpose(main).as_secs_f64() * 1e3,
    );
    let (dense, sparse) = layers::column_kinds(main);
    m.insert("columnar.dense_cols", dense as f64);
    m.insert("columnar.sparse_cols", sparse as f64);
    m.insert(
        "columnar.and_count_ns_per_kword",
        layers::and_count_ns_per_kword(main),
    );
    let clones: Vec<f64> = (0..REPS)
        .map(|_| layers::clone_graph(main).as_secs_f64() * 1e3)
        .collect();
    m.insert("graph.clone_ms", stats::median_of(&clones));
    drop(graphs);

    let setup = run::set_up(opts)?;
    let lanes = Lanes {
        offsets: &setup.plan.offsets,
        appends: setup.plan.writer.map_or(0, |w| w.appends_in(opts.seconds)),
        first_line: 0,
    };
    let window = run::run_window(&setup, opts.seconds, lanes)?;
    let mut verification = run::verify(&setup, &window)?;
    let mut tracer = Tracer::new(window.start);
    for (i, s) in window.samples.iter().enumerate() {
        tracer.span("wire", None, WINDOW_REQUESTS + i as u32, s.start, s.end);
    }

    let short = opts.seconds * CONCURRENCY_SHARE;
    m.insert(
        "server.concurrency_speedup",
        rps(&setup, short, 2)? / rps(&setup, short, 1)?,
    );
    m.insert("server.connect_us", connect_us(&setup)?);

    // The replays run on a thread of their own, as the server's handlers
    // do: the main thread's allocator arena grows and trims differently,
    // which made a session there up to 20% slower than the same session
    // behind the socket.
    let first_spare = window.appends.len();
    let (replayed, failures) = std::thread::scope(|s| {
        s.spawn(|| replays(&setup, &mut tracer, first_spare, &mut m))
            .join()
            .expect("replay thread panicked")
    })?;

    ledger(&setup, &window, &tracer, &replayed, &mut m);
    verification.attempted += (replayed.len() * REPS) as u64;
    for f in failures {
        verification.failed += 1;
        verification.notes.push(f);
    }
    m.insert(
        "client.failed_share",
        verification.failed as f64 / verification.attempted as f64,
    );
    setup.server.shutdown();

    tracer
        .write_jsonl(&out_dir.join(format!("trace-{}.jsonl", opts.workload.name())))
        .map_err(|e| format!("cannot write the span file: {e}"))?;
    let readings = PER_LAYER
        .iter()
        .map(|metric| Reading {
            name: metric.name,
            value: m
                .get(metric.name)
                .copied()
                .filter(|v| v.is_finite())
                .unwrap_or(0.0),
        })
        .collect();
    Ok(Outcome {
        readings,
        verification,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut tr = Tracer::new(t0);
        let wire = tr.span("wire", None, 7, at(0), at(10));
        let session = tr.span("session", Some(wire), 7, at(20), at(28));
        tr.span("core.ops.materialize", Some(session), 7, at(30), at(33));
        tr.span("core.aggregate.hash", Some(session), 7, at(33), at(37));
        // a child that outlasts its parent (separate executions) clamps at 0
        let w2 = tr.span("wire", None, 8, at(40), at(41));
        tr.span("session", Some(w2), 8, at(42), at(44));
        let ms = |ns: u64| ns / 1_000_000;
        let selfs: Vec<u64> = tr.self_ns().into_iter().map(ms).collect();
        assert_eq!(selfs, vec![2, 1, 3, 4, 0, 2]);
        let med = template_medians(&tr, &tr.self_ns(), "wire", 1);
        assert_eq!(med, vec![Some(1_000_000.0)]); // requests 7 and 8 are template 0
    }

    #[test]
    fn span_file_is_one_object_per_line() {
        let t0 = Instant::now();
        let mut tr = Tracer::new(t0);
        let w = tr.span("wire", None, 1, t0, t0 + Duration::from_micros(5));
        tr.span("session", Some(w), 1, t0, t0 + Duration::from_micros(3));
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/trace-unit-test.jsonl");
        tr.write_jsonl(&path).expect("the crate's out/ is writable");
        let text = std::fs::read_to_string(&path).expect("just written");
        std::fs::remove_file(&path).expect("just written");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"id\": 0, \"parent\": null, \"request\": 1, \"name\": \"wire\", \
             \"start_ns\": 0, \"end_ns\": 5000, \"self_ns\": 2000}"
        );
        assert!(lines[1].contains("\"parent\": 0"));
    }
}
