//! One run of one workload: set-up, warm-up, the timed window, and the
//! check of every answer; then the end-to-end metrics.

use crate::client::{fingerprint, Client};
use crate::layers::{self, Graph, Server};
use crate::spec::Reading;
use crate::stats::{self, OpenLoop};
use crate::workloads::{self, Class, Plan, Query, Rng, Template, Workload, WriterSpec};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// What to run.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of where in the cycle each connection starts, of the patch
    /// contents and of the replay samples; datasets and templates are fixed.
    pub seed: u64,
    /// Seconds measured, over all segments.
    pub seconds: f64,
    /// Multiplier on every snapshot's size (1.0 measures, 0.05 checks).
    pub scale: f64,
}

/// Warm-up before the timed window, as a share of the window.
pub const WARMUP_SHARE: f64 = 0.1;

/// Segments per run. Each sets up a fresh server and measures a third of
/// `--seconds` on it. Heap layout, hash seeds and thread placement are
/// drawn once per server, and the host's other tenants slow the box for
/// seconds to minutes at a time; both move every latency of a segment
/// together, so a run takes three draws (see [`end_to_end`]). `setup_s` is
/// the median of the three set-ups.
pub const SEGMENTS: usize = 3;

/// Follower answers checked against the replayed epoch after a window.
pub const REPLAY_SAMPLES: usize = 16;

/// A server ready to be measured.
pub struct Setup {
    /// The server.
    pub server: Server,
    /// The plan, with every exploration's `k` resolved.
    pub plan: Plan,
    /// Reference payload per template; `None` where the answer follows
    /// the writer's appends.
    pub references: Vec<Option<String>>,
    /// The appended snapshot before any append, if the workload has a
    /// writer.
    pub base: Option<Graph>,
    /// The writer's request lines: the windows', then spares for the
    /// traced replays. Empty without a writer.
    pub append_lines: Vec<String>,
    /// Whole set-up time.
    pub elapsed: Duration,
    /// `VmHWM` of the process when the set-up ended, in MB.
    pub peak_rss_mb: f64,
}

impl Setup {
    /// Points of the template's snapshot at its first epoch.
    pub fn base_points(&self, t: &Template) -> usize {
        // only the appended snapshot grows, and its base is kept
        if let (Some(base), true) = (
            &self.base,
            self.plan.appended_snapshot() == Some(t.snapshot),
        ) {
            return layers::n_points(base);
        }
        let (g, _) = self
            .server
            .snapshot(t.snapshot)
            .expect("set-up registered every snapshot");
        layers::n_points(&g)
    }
}

fn io_err(e: std::io::Error) -> String {
    format!("connection to the in-process server failed: {e}")
}

/// Spawns a server, generates the snapshots, resolves thresholds and takes
/// the reference pass.
pub fn set_up(opts: &Options) -> Result<Setup, String> {
    let start = Instant::now();
    let mut plan = workloads::plan(opts.workload, opts.seed, opts.scale);

    let server = Server::spawn().map_err(io_err)?;
    let mut c = Client::connect(server.addr()).map_err(io_err)?;

    for s in &plan.snapshots {
        let line = format!(
            "generate {} {} scale={} seed={}",
            s.name,
            s.dataset.name(),
            s.scale,
            workloads::DATA_SEED
        );
        let reply = c.request(&line).map_err(io_err)?;
        if !reply.is_ok() {
            return Err(format!("{line}: {}", reply.status()));
        }
    }

    let base = match plan.appended_snapshot() {
        Some(name) => Some(
            server
                .snapshot(name)
                .ok_or("the appended snapshot is missing")?
                .0,
        ),
        None => None,
    };
    let points = |t: &Template| {
        server
            .snapshot(t.snapshot)
            .map(|(g, _)| layers::n_points(&g))
            .expect("generated above")
    };

    for i in 0..plan.templates.len() {
        let Query::Explore(x) = &plan.templates[i].query else {
            continue;
        };
        let probe = Template {
            snapshot: plan.templates[i].snapshot,
            query: Query::Suggest(x.clone()),
        };
        let reply = c
            .request(&probe.wire_line(points(&probe)))
            .map_err(io_err)?;
        if !reply.is_ok() {
            return Err(format!("suggest failed: {}", reply.status()));
        }
        // "suggested k (w_th per §3.5): N", or a sentence without a number
        let w_th: u64 = reply
            .payload()
            .rsplit(' ')
            .next()
            .and_then(|n| n.parse().ok())
            .unwrap_or(1);
        if let Query::Explore(x) = &mut plan.templates[i].query {
            x.k = (w_th / x.k_divisor).max(1);
        }
    }

    let mut references = Vec::with_capacity(plan.templates.len());
    for tpl in &plan.templates {
        let reply = c.request(&tpl.wire_line(points(tpl))).map_err(io_err)?;
        if !reply.is_ok() {
            return Err(format!(
                "{}: {}",
                tpl.wire_line(points(tpl)),
                reply.status()
            ));
        }
        references.push(
            (!tpl.follows_appends(plan.appended_snapshot())).then(|| reply.payload().to_owned()),
        );
    }

    let append_lines = match (&plan.writer, &base) {
        (Some(writer), Some(base)) => workloads::append_lines(
            opts.seed,
            writer,
            &layers::node_names(base),
            // rounding may give the segments one append more each
            writer.appends_in(opts.seconds) + SEGMENTS + SPARE_APPENDS,
        ),
        _ => Vec::new(),
    };
    Ok(Setup {
        server,
        plan,
        references,
        base,
        append_lines,
        elapsed: start.elapsed(),
        peak_rss_mb: rss_mb("VmHWM"),
    })
}

/// Append lines generated beyond the window's, for the traced replays.
pub const SPARE_APPENDS: usize = 80;

/// How a reader request ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// `OK`, and equal to the reference where there is one.
    Good,
    /// `ERR`, or a broken connection.
    Error,
    /// `OK` but different from the reference.
    Mismatch,
}

/// One reader request.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Index into the plan's templates.
    pub template: usize,
    /// Reader connection.
    pub conn: usize,
    /// When it was sent.
    pub start: Instant,
    /// When the reply was complete.
    pub end: Instant,
    /// Outcome.
    pub verdict: Verdict,
    /// Epoch that answered, for answers that follow appends.
    pub epoch: u64,
    /// Points the request was rendered for.
    pub points: usize,
    /// Fingerprint of the payload.
    pub print: u64,
    /// Bytes of the reply.
    pub bytes: usize,
}

impl Sample {
    /// Client-side latency in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// One writer request.
#[derive(Clone, Copy, Debug)]
pub struct AppendSample {
    /// Latency from the due time, in milliseconds.
    pub ms: f64,
    /// How late it was sent, in milliseconds.
    pub late_ms: f64,
    /// `OK` at the expected epoch.
    pub good: bool,
}

/// Everything the timed window recorded.
pub struct Window {
    /// Start of the timed window (after warm-up).
    pub start: Instant,
    /// Its length.
    pub seconds: f64,
    /// Reader requests completed inside the window.
    pub samples: Vec<Sample>,
    /// Writer requests.
    pub appends: Vec<AppendSample>,
    /// Index of the first append line the writer sent.
    pub first_line: usize,
    /// The program's counters over warm-up and window.
    pub counters: layers::Counters,
}

/// `VmHWM` or `VmRSS` of this process, in MB.
pub fn rss_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| l.strip_prefix(field)).and_then(|v| {
                v.trim_start_matches(':')
                    .split_whitespace()
                    .next()?
                    .parse::<f64>()
                    .ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Which lanes a window runs.
#[derive(Clone, Copy, Debug)]
pub struct Lanes<'a> {
    /// Cycle offset per reader connection.
    pub offsets: &'a [usize],
    /// Appends the writer sends at its fixed rate, starting at
    /// `first_line` of the set-up's append lines; 0 for no writer.
    pub appends: usize,
    /// See `appends`.
    pub first_line: usize,
}

fn reader(
    setup: &Setup,
    conn: usize,
    offset: usize,
    begin: Instant,
    end: Instant,
) -> Result<Vec<Sample>, String> {
    let plan = &setup.plan;
    let mut c = Client::connect(setup.server.addr()).map_err(io_err)?;
    let base_points: Vec<usize> = plan
        .templates
        .iter()
        .map(|t| setup.base_points(t))
        .collect();
    // static requests are rendered once
    let lines: Vec<String> = plan
        .templates
        .iter()
        .zip(&base_points)
        .map(|(t, &p)| t.wire_line(p))
        .collect();
    let mut epoch = 1u64;
    let mut samples = Vec::new();
    std::thread::sleep(begin.saturating_duration_since(Instant::now()));
    let mut i = offset;
    while Instant::now() < end {
        let t = i % plan.templates.len();
        i += 1;
        let tpl = &plan.templates[t];
        let follows = setup.references[t].is_none();
        let points = if follows {
            base_points[t] + (epoch - 1) as usize
        } else {
            base_points[t]
        };
        let rendered;
        let line = if follows {
            rendered = tpl.wire_line(points);
            &rendered
        } else {
            &lines[t]
        };
        let start = Instant::now();
        let reply = c.request(line);
        let done = Instant::now();
        let mut s = Sample {
            template: t,
            conn,
            start,
            end: done,
            verdict: Verdict::Error,
            epoch: 0,
            points,
            print: 0,
            bytes: 0,
        };
        let broken = reply.is_err();
        if let Ok(reply) = reply {
            s.bytes = reply.text.len();
            if reply.is_ok() {
                s.print = fingerprint(reply.payload());
                s.epoch = reply.epoch().unwrap_or(0);
                s.verdict = match &setup.references[t] {
                    Some(want) if want != reply.payload() => Verdict::Mismatch,
                    _ => Verdict::Good,
                };
                if plan.appended_snapshot() == Some(tpl.snapshot) {
                    epoch = epoch.max(s.epoch);
                }
            }
        }
        samples.push(s);
        if broken {
            break;
        }
    }
    Ok(samples)
}

fn writer(
    setup: &Setup,
    spec: &WriterSpec,
    lanes: Lanes<'_>,
    start: Instant,
) -> Result<Vec<AppendSample>, String> {
    let mut c = Client::connect(setup.server.addr()).map_err(io_err)?;
    let schedule = OpenLoop::new(start, spec.rate_hz);
    let mut out = Vec::with_capacity(lanes.appends);
    for i in 0..lanes.appends {
        std::thread::sleep(schedule.due(i).saturating_duration_since(Instant::now()));
        let sent = Instant::now();
        let reply = c.request(&setup.append_lines[lanes.first_line + i]);
        let done = Instant::now();
        // the snapshot was generated at epoch 1; the window's append n
        // answers epoch n + 1
        let good = reply
            .as_ref()
            .is_ok_and(|r| r.is_ok() && r.epoch() == Some(i as u64 + 2));
        out.push(AppendSample {
            ms: schedule.latency(i, done).as_secs_f64() * 1e3,
            late_ms: schedule.lateness(i, sent).as_secs_f64() * 1e3,
            good,
        });
    }
    Ok(out)
}

/// Warm-up, then the timed window: every reader connection in a closed
/// loop over the template cycle, the writer in an open loop.
pub fn run_window(setup: &Setup, seconds: f64, lanes: Lanes<'_>) -> Result<Window, String> {
    let before = layers::Counters::read();
    let begin = Instant::now() + Duration::from_millis(20);
    let start = begin + Duration::from_secs_f64(seconds * WARMUP_SHARE);
    let end = start + Duration::from_secs_f64(seconds);
    let (reads, appends) = std::thread::scope(|s| {
        let readers: Vec<_> = lanes
            .offsets
            .iter()
            .enumerate()
            .map(|(conn, &offset)| s.spawn(move || reader(setup, conn, offset, begin, end)))
            .collect();
        let w = setup
            .plan
            .writer
            .as_ref()
            .filter(|_| lanes.appends > 0)
            .map(|spec| s.spawn(move || writer(setup, spec, lanes, start)));
        let reads: Vec<_> = readers
            .into_iter()
            .map(|h| h.join().expect("reader thread panicked"))
            .collect();
        let appends = w.map(|h| h.join().expect("writer thread panicked"));
        (reads, appends)
    });
    let mut samples = Vec::new();
    for r in reads {
        samples.extend(r?.into_iter().filter(|s| s.end >= start && s.end <= end));
    }
    Ok(Window {
        start,
        seconds,
        samples,
        appends: appends.transpose()?.unwrap_or_default(),
        first_line: lanes.first_line,
        counters: layers::Counters::read().since(&before),
    })
}

/// The window's requests checked: attempted, failed, and what failed.
#[derive(Clone, Debug, Default)]
pub struct Verification {
    /// Reader requests completed in the window plus appends sent.
    pub attempted: u64,
    /// `ERR` replies plus answers that differ from their reference.
    pub failed: u64,
    /// One line per kind of failure.
    pub notes: Vec<String>,
}

impl Verification {
    fn fail(&mut self, n: u64, note: String) {
        if n > 0 {
            self.failed += n;
            self.notes.push(note);
        }
    }
}

/// Counts the window's failures, then replays the acknowledged patches
/// through a second `GraphVersions` and holds the server to the replay:
/// final epoch, final `stats`, and a seeded sample of the answers that
/// followed the appends, each against the epoch that answered it.
pub fn verify(setup: &Setup, window: &Window) -> Result<Verification, String> {
    let mut v = Verification {
        attempted: (window.samples.len() + window.appends.len()) as u64,
        ..Verification::default()
    };
    let count = |verdict| {
        window
            .samples
            .iter()
            .filter(|s| s.verdict == verdict)
            .count() as u64
    };
    v.fail(count(Verdict::Error), "reader requests answered ERR".into());
    v.fail(
        count(Verdict::Mismatch),
        "reader answers differ from the serial reference".into(),
    );
    v.fail(
        window.appends.iter().filter(|a| !a.good).count() as u64,
        "appends failed or answered at the wrong epoch".into(),
    );
    let plan = &setup.plan;
    let (Some(base), Some(appended)) = (&setup.base, plan.appended_snapshot()) else {
        return Ok(v);
    };
    if window.appends.is_empty() {
        return Ok(v);
    }

    let mut followers: Vec<&Sample> = window
        .samples
        .iter()
        .filter(|s| setup.references[s.template].is_none() && s.verdict == Verdict::Good)
        .collect();
    let mut rng = Rng::new(plan.seed, 0x7265_706C_6179);
    let mut sampled: BTreeMap<u64, Vec<&Sample>> = BTreeMap::new();
    for _ in 0..REPLAY_SAMPLES.min(followers.len()) {
        let s = followers.swap_remove(rng.below(followers.len()));
        sampled.entry(s.epoch).or_default().push(s);
    }
    v.attempted += sampled.values().map(Vec::len).sum::<usize>() as u64 + 2;

    let mut wrong = 0u64;
    let lines = &setup.append_lines[window.first_line..][..window.appends.len()];
    let last = layers::replay(base, lines, |epoch, g| {
        for s in sampled.get(&epoch).map_or(&[][..], Vec::as_slice) {
            let line = plan.templates[s.template].session_line(s.points);
            if layers::session_exec(g, &line).map(|p| fingerprint(&p)) != Ok(s.print) {
                wrong += 1;
            }
        }
    })?;
    v.fail(
        wrong,
        "sampled answers differ from the replayed epoch".into(),
    );

    let mut c = Client::connect(setup.server.addr()).map_err(io_err)?;
    let reply = c.request(&format!("stats {appended}")).map_err(io_err)?;
    v.fail(
        u64::from(reply.epoch() != Some(1 + lines.len() as u64)),
        format!(
            "final epoch {:?}, expected {}",
            reply.epoch(),
            1 + lines.len()
        ),
    );
    v.fail(
        u64::from(layers::session_exec(&last, "stats").as_deref() != Ok(reply.payload())),
        "final stats differ from the replay".into(),
    );
    Ok(v)
}

/// Per-template latencies of the window, in template order.
pub fn by_template(plan: &Plan, samples: &[Sample]) -> Vec<Vec<f64>> {
    let mut out = vec![Vec::new(); plan.templates.len()];
    for s in samples.iter().filter(|s| s.verdict == Verdict::Good) {
        out[s.template].push(s.ms());
    }
    out
}

/// Geometric mean of the per-template medians of one class (all classes
/// for `None`).
pub fn class_ms(plan: &Plan, per_template: &[Vec<f64>], class: Option<Class>) -> Option<f64> {
    stats::geomean_of_medians(
        plan.templates
            .iter()
            .zip(per_template)
            .filter(|(t, _)| class.is_none_or(|c| t.class() == c))
            .map(|(_, s)| s.as_slice()),
    )
}

/// One segment of a run: a server set up, measured, checked, shut down.
pub struct Segment {
    /// Set-up time in seconds.
    pub setup_s: f64,
    /// `VmHWM` when the set-up ended, in MB.
    pub peak_rss_mb: f64,
    /// The plan the segment ran (the same in every segment of a run).
    pub plan: Plan,
    /// What its window recorded.
    pub window: Window,
}

/// Seconds each whole pass of a connection over the template cycle took.
///
/// Any `n` consecutive requests of a connection cover each of the `n`
/// templates once, so every such run of verified answers is one cycle's
/// worth of work, whichever template the window happened to open on.
/// Counting requests in a fixed window instead charges the window's last,
/// partial cycle at the price of whichever templates fell into it, which
/// moved the rate by 10% with the order of the cycle.
pub fn cycle_seconds(plan: &Plan, window: &Window) -> Vec<f64> {
    let n = plan.templates.len();
    let mut out = Vec::new();
    for conn in 0..plan.offsets.len() {
        let mine: Vec<&Sample> = window.samples.iter().filter(|s| s.conn == conn).collect();
        for cycle in mine.chunks_exact(n) {
            if cycle.iter().all(|s| s.verdict == Verdict::Good) {
                out.push((cycle[n - 1].end - cycle[0].start).as_secs_f64());
            }
        }
    }
    out
}

/// Each template's median latency in one segment, `None` without samples;
/// the writer's append, from its due time, counts as one more template.
fn template_medians(seg: &Segment) -> Vec<Option<f64>> {
    let mut per_template = by_template(&seg.plan, &seg.window.samples);
    if seg.plan.writer.is_some() {
        per_template.push(seg.window.appends.iter().map(|a| a.ms).collect());
    }
    per_template
        .iter()
        .map(|v| (!v.is_empty()).then(|| stats::median_of(v)))
        .collect()
}

/// The end-to-end metrics of a run's segments.
///
/// Whatever else runs on the host only ever slows a segment down, in bursts
/// of seconds to minutes, so the time metrics take the least disturbed
/// segment: `throughput_rps` is the highest of the segments' rates, and
/// `latency_geomean_ms` takes, per template, the lowest of the segments'
/// medians. `setup_s` is the median of the set-ups. Peak memory is read when
/// the first set-up ends: a process that has held nothing before has loaded
/// the snapshots and answered every template once, one at a time (the peak
/// of a window moved by 20% between seeds with how the allocator happened to
/// reuse freed memory, and with which requests of two connections met). A
/// metric without enough samples is left out, which the caller reports as a
/// failed run.
pub fn end_to_end(segments: &[Segment]) -> Vec<Reading> {
    let plan = &segments[0].plan;
    let setups: Vec<f64> = segments.iter().map(|s| s.setup_s).collect();
    let mut out = vec![
        Reading {
            name: "setup_s",
            value: stats::median_of(&setups),
        },
        Reading {
            name: "peak_rss_mb",
            value: segments[0].peak_rss_mb,
        },
    ];
    let requests_per_cycle = (plan.offsets.len() * plan.templates.len()) as f64;
    let rates = segments.iter().filter_map(|s| {
        let cycles = cycle_seconds(plan, &s.window);
        (!cycles.is_empty()).then(|| requests_per_cycle / stats::median_of(&cycles))
    });
    if let Some(value) = rates.reduce(f64::max) {
        out.push(Reading {
            name: "throughput_rps",
            value,
        });
    }
    let medians: Vec<Vec<Option<f64>>> = segments.iter().map(template_medians).collect();
    let best = stats::lowest_per_template(&medians);
    if let Some(value) = best.as_deref().and_then(stats::geomean) {
        out.push(Reading {
            name: "latency_geomean_ms",
            value,
        });
    }
    out
}

/// A finished run.
pub struct Outcome {
    /// The metrics.
    pub readings: Vec<Reading>,
    /// The check.
    pub verification: Verification,
}

/// The untraced run: [`SEGMENTS`] times set up, warm up, measure a third
/// of `--seconds`, check every answer, shut down.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let mut segments = Vec::with_capacity(SEGMENTS);
    let mut verification = Verification::default();
    let mut references = None;
    for i in 0..SEGMENTS {
        let setup = set_up(opts)?;
        if references.get_or_insert_with(|| setup.references.clone()) != &setup.references {
            return Err("two set-ups of one seed gave different reference answers".into());
        }
        let seconds = opts.seconds / SEGMENTS as f64;
        let appends = setup.plan.writer.map_or(0, |w| w.appends_in(seconds));
        let lanes = Lanes {
            offsets: &setup.plan.offsets,
            appends,
            first_line: i * appends,
        };
        let window = run_window(&setup, seconds, lanes)?;
        let v = verify(&setup, &window)?;
        verification.attempted += v.attempted;
        verification.failed += v.failed;
        verification.notes.extend(v.notes);
        setup.server.shutdown();
        segments.push(Segment {
            setup_s: setup.elapsed.as_secs_f64(),
            peak_rss_mb: setup.peak_rss_mb,
            plan: setup.plan,
            window,
        });
    }
    Ok(Outcome {
        readings: end_to_end(&segments),
        verification,
    })
}
