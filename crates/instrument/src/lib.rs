//! Zero-dependency, thread-safe metrics for the GraphTempo workspace.
//!
//! Production temporal-graph engines treat measurement as a first-class
//! subsystem: optimization claims are only falsifiable when the hot paths
//! report what they did (evaluations, prunes, cache hits) and how long it
//! took. This crate provides that substrate with nothing beyond `std`:
//!
//! - [`Counter`] — monotone `u64` event counter (relaxed atomics).
//! - [`Histogram`] — log₂-bucketed latency histogram over nanoseconds with
//!   sum/count/min/max and quantile estimates.
//! - [`SpanGuard`] — RAII timer that records its elapsed time into a
//!   [`Histogram`] on drop.
//! - [`metrics`] — the declaration table: every metric the workspace
//!   records is one `pub static` there, built by a `const fn new()`.
//!
//! The instrumented crates (`tempo-graph`, `graphtempo`, the CLI, the
//! server) record straight into those statics — no lookup, no lock, no
//! handle to cache — and [`global()`]`.snapshot()` copies the whole table.
//! Recording can be switched off wholesale with [`set_enabled`] — the
//! disabled path is a single relaxed atomic load, so instrumentation can
//! stay compiled into release binaries.
//!
//! # Example
//!
//! ```
//! use tempo_instrument::{global, metrics};
//!
//! for _ in 0..3 {
//!     let _span = metrics::EXPLORE_EVAL_NS.span();
//!     metrics::EXPLORE_EVALUATIONS.inc();
//! }
//! // readers address a snapshot by the declared dotted name
//! assert!(global().snapshot().counter("explore.evaluations") >= 3);
//! ```

// DESIGN §7.1: a typed error, or an `expect("invariant: …")` under its own `#[allow]`
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
// DESIGN §7.1: output belongs to the CLI and the bench binaries
#![warn(clippy::print_stdout, clippy::print_stderr)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

pub mod metrics;

/// Global on/off switch for all recording.
///
/// Enabled by default; the disabled path costs one relaxed load per call
/// site, which keeps the overhead of compiled-in instrumentation within
/// measurement noise (the benchmark's `instrument.enabled_overhead_share`).
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Enables or disables all metric recording process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Returns whether metric recording is currently enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Returns the process-wide registry: the reader's side of [`metrics`].
pub fn global() -> &'static Registry {
    &Registry(())
}

/// Monotone event counter.
///
/// All operations use relaxed ordering: counters are statistics, not
/// synchronization primitives.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Creates a counter at zero.
    pub const fn new() -> Self {
        Counter {
            value: AtomicU64::new(0),
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of log₂ buckets: index `i ≥ 1` holds values in `[2^(i-1), 2^i)`,
/// index `0` holds zero. Covers the full `u64` range.
const BUCKETS: usize = 65;

/// Log₂-bucketed histogram over nanosecond samples.
///
/// Recording is lock-free: one relaxed `fetch_add` into the bucket plus
/// sum/count/min/max updates. Quantiles are estimated from bucket upper
/// bounds, so they carry at most a 2× quantization error — plenty for the
/// "where does the time go" questions this crate answers.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Bucket index for a sample (0 for 0, else `⌈log₂(v+1)⌉`).
#[inline]
fn bucket_index(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i`.
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub const fn new() -> Self {
        // a `const` item, not a value, so the array repeat builds 65
        // separate atomics (inline `const {}` blocks are past the MSRV)
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Self {
            buckets: [ZERO; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample (nanoseconds by convention).
    #[inline]
    pub fn record(&self, v: u64) {
        if !enabled() {
            return;
        }
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records a [`std::time::Duration`] as nanoseconds.
    #[inline]
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Starts a scoped timer that records into this histogram on drop.
    ///
    /// When recording is disabled the guard never reads the clock.
    #[inline]
    #[allow(clippy::disallowed_methods)] // the clock read every span goes through
    pub fn span(&self) -> SpanGuard<'_> {
        SpanGuard {
            hist: self,
            start: enabled().then(Instant::now),
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Immutable point-in-time view.
    ///
    /// `record` updates its fields with independent relaxed atomics, so a
    /// snapshot racing in-flight recordings cannot be exact. The tolerance
    /// is: the view may *lag* concurrent recordings by a few samples, but it
    /// is always self-consistent — `count` equals the bucket totals,
    /// `min <= max`, `sum` (and hence [`HistogramSnapshot::mean`]) lies in
    /// `[min * count, max * count]`, and an empty view is all zeros. In a
    /// quiescent histogram every clamp is a no-op and the values are exact.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        // derive the sample count from the buckets themselves so it can
        // never disagree with them
        let count: u64 = counts.iter().sum();
        if count == 0 {
            return HistogramSnapshot {
                count: 0,
                sum: 0,
                min: 0,
                max: 0,
                p50: 0,
                p90: 0,
                p99: 0,
                buckets: Vec::new(),
            };
        }
        let quantile = |q: f64| -> u64 {
            let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
            let mut seen = 0u64;
            for (i, &c) in counts.iter().enumerate() {
                seen += c;
                if seen >= rank {
                    return bucket_upper(i);
                }
            }
            bucket_upper(BUCKETS - 1)
        };
        // a record() caught between its bucket update and its min/max/sum
        // updates can leave min at its sentinel (u64::MAX), max behind the
        // buckets, or sum lagging; clamp into the possible range
        let max = self.max.load(Ordering::Relaxed);
        let min = self.min.load(Ordering::Relaxed).min(max);
        let sum = self
            .sum
            .load(Ordering::Relaxed)
            .clamp(min.saturating_mul(count), max.saturating_mul(count));
        HistogramSnapshot {
            count,
            sum,
            min,
            max,
            p50: quantile(0.50),
            p90: quantile(0.90),
            p99: quantile(0.99),
            buckets: counts
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(i, &c)| (bucket_upper(i), c))
                .collect(),
        }
    }
}

/// RAII timer: records the elapsed nanoseconds into its histogram on drop.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    hist: &'a Histogram,
    start: Option<Instant>,
}

impl SpanGuard<'_> {
    /// Drops the guard without recording anything.
    pub fn cancel(mut self) {
        self.start = None;
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.hist.record_duration(start.elapsed());
        }
    }
}

/// A wall-clock budget: a start instant plus a duration limit.
///
/// Lives here because the workspace's `no-instant` lint confines raw
/// [`Instant`] reads to this crate; budget-carrying layers (the explore
/// engine, the server's request limits) consume deadlines through this
/// type. Stored as start + limit rather than an end instant so arbitrarily
/// large limits cannot overflow the platform clock.
#[derive(Clone, Copy, Debug)]
pub struct Deadline {
    start: Instant,
    limit: std::time::Duration,
}

impl Deadline {
    /// A deadline `limit` from now.
    #[must_use]
    #[allow(clippy::disallowed_methods)] // the clock read every deadline goes through
    pub fn after(limit: std::time::Duration) -> Self {
        Deadline {
            start: Instant::now(),
            limit,
        }
    }

    /// A deadline `ms` milliseconds from now.
    #[must_use]
    pub fn after_millis(ms: u64) -> Self {
        Self::after(std::time::Duration::from_millis(ms))
    }

    /// True once the limit has elapsed. A zero limit is expired immediately.
    #[must_use]
    pub fn expired(&self) -> bool {
        self.start.elapsed() >= self.limit
    }

    /// The configured limit in milliseconds (saturating).
    #[must_use]
    pub fn limit_millis(&self) -> u64 {
        u64::try_from(self.limit.as_millis()).unwrap_or(u64::MAX)
    }
}

/// One entry of the declaration table ([`metrics::ALL`]).
#[derive(Debug, Clone, Copy)]
pub enum MetricRef {
    /// A declared counter.
    Counter(&'static Counter),
    /// A declared histogram.
    Histogram(&'static Histogram),
}

/// The reader's side of the declaration table; see [`global()`].
#[derive(Debug)]
pub struct Registry(());

impl Registry {
    /// Takes a consistent-enough point-in-time copy of every declared
    /// metric, touched yet or not.
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::default();
        for &(name, metric) in metrics::ALL {
            match metric {
                MetricRef::Counter(c) => snap.counters.push((name.to_owned(), c.get())),
                MetricRef::Histogram(h) => snap.histograms.push((name.to_owned(), h.snapshot())),
            }
        }
        snap
    }
}

/// Point-in-time view of one histogram. All values are nanoseconds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Estimated median (bucket upper bound).
    pub p50: u64,
    /// Estimated 90th percentile.
    pub p90: u64,
    /// Estimated 99th percentile.
    pub p99: u64,
    /// Non-empty buckets as `(inclusive upper bound, count)`.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Mean sample value, 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Point-in-time copy of the declared metrics, sorted by metric name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Counter values.
    pub counters: Vec<(String, u64)>,
    /// Histogram views.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

/// Escapes a string for embedding in a JSON document.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl Snapshot {
    /// Value of a counter by name (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Histogram view by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Human-readable multi-line dump (one metric per line).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            out.push_str(&format!("counter   {name} = {v}\n"));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!(
                "histogram {name}: count={} sum={}ns mean={:.0}ns min={}ns p50~{}ns p99~{}ns max={}ns\n",
                h.count,
                h.sum,
                h.mean(),
                h.min,
                h.p50,
                h.p99,
                h.max,
            ));
        }
        out
    }

    /// Renders the snapshot as a self-contained JSON object.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {}", json_escape(name), v));
        }
        if !self.counters.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let buckets: Vec<String> = h
                .buckets
                .iter()
                .map(|(le, c)| format!("{{\"le\": {le}, \"count\": {c}}}"))
                .collect();
            out.push_str(&format!(
                "\n    \"{}\": {{\"count\": {}, \"sum_ns\": {}, \"min_ns\": {}, \"max_ns\": {}, \
                 \"p50_ns\": {}, \"p90_ns\": {}, \"p99_ns\": {}, \"buckets\": [{}]}}",
                json_escape(name),
                h.count,
                h.sum,
                h.min,
                h.max,
                h.p50,
                h.p90,
                h.p99,
                buckets.join(", ")
            ));
        }
        if !self.histograms.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }

    /// Renders the snapshot in the Prometheus text exposition format
    /// (version 0.0.4), the shape scraped from `tempo-server`'s `metrics`
    /// endpoint.
    ///
    /// Metric names are prefixed with `graphtempo_` and sanitized (every
    /// character outside `[a-zA-Z0-9_:]` becomes `_`, so the declared
    /// dotted names map 1:1). Counters gain the conventional `_total`
    /// suffix; histograms emit cumulative `_bucket{le="…"}` series ending
    /// in `le="+Inf"`, plus `_sum` and `_count`.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let n = prometheus_name(name);
            out.push_str(&format!("# TYPE {n}_total counter\n{n}_total {v}\n"));
        }
        for (name, h) in &self.histograms {
            let n = prometheus_name(name);
            out.push_str(&format!("# TYPE {n} histogram\n"));
            let mut cumulative = 0u64;
            for (le, c) in &h.buckets {
                cumulative += c;
                // the top bucket's bound is the u64 ceiling, i.e. +Inf
                if *le == u64::MAX {
                    continue;
                }
                out.push_str(&format!("{n}_bucket{{le=\"{le}\"}} {cumulative}\n"));
            }
            out.push_str(&format!(
                "{n}_bucket{{le=\"+Inf\"}} {}\n{n}_sum {}\n{n}_count {}\n",
                h.count, h.sum, h.count
            ));
        }
        out
    }
}

/// Maps a declared metric name onto the Prometheus name charset:
/// `graphtempo_` prefix, every character outside `[a-zA-Z0-9_:]` replaced
/// with `_`.
fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 11);
    out.push_str("graphtempo_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, OnceLock, RwLock};

    /// Tests that record hold a read guard; the test that flips the global
    /// enabled flag holds the write guard, so they never interleave.
    fn gate() -> &'static RwLock<()> {
        static GATE: OnceLock<RwLock<()>> = OnceLock::new();
        GATE.get_or_init(|| RwLock::new(()))
    }

    /// What the string-keyed map used to check at run time, held over the
    /// declared slice: a reader finds each name once, under one spelling,
    /// in the text and in the Prometheus rendering alike.
    #[test]
    fn declared_table_is_sorted_unique_and_complete() {
        let names: Vec<&str> = metrics::ALL.iter().map(|&(n, _)| n).collect();
        for w in names.windows(2) {
            assert!(w[0] < w[1], "names out of order: {:?} >= {:?}", w[0], w[1]);
        }
        let mut mangled: Vec<String> = Vec::new();
        for n in &names {
            assert!(
                !n.is_empty()
                    && n.chars()
                        .all(|c| matches!(c, 'a'..='z' | '0'..='9' | '_' | '.')),
                "{n:?} is not [a-z0-9_.]+"
            );
            mangled.push(prometheus_name(n));
        }
        mangled.sort();
        for w in mangled.windows(2) {
            assert!(w[0] != w[1], "two names render as {:?}", w[0]);
        }
        // a snapshot is the table, touched or not
        let snap = global().snapshot();
        let mut seen: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        seen.extend(snap.histograms.iter().map(|(n, _)| n.as_str()));
        seen.sort_unstable();
        assert_eq!(seen, names);
    }

    #[test]
    fn counter_basics() {
        let _g = gate().read().unwrap();
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        // every sample lands in the bucket whose upper bound covers it
        for v in [0u64, 1, 2, 3, 7, 8, 1023, 1024, u64::MAX] {
            assert!(v <= bucket_upper(bucket_index(v)), "v={v}");
        }
    }

    #[test]
    fn histogram_stats_and_quantiles() {
        let _g = gate().read().unwrap();
        let h = Histogram::new();
        assert_eq!(h.snapshot().count, 0);
        assert_eq!(h.snapshot().min, 0);
        for v in [1u64, 2, 3, 100, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1106);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 1000);
        // median sample is 3, bucket [2,3] has upper bound 3
        assert_eq!(s.p50, 3);
        // p99 lands in the 1000 bucket (upper bound 1023)
        assert_eq!(s.p99, 1023);
        assert!((s.mean() - 221.2).abs() < 1e-9);
        let total: u64 = s.buckets.iter().map(|(_, c)| c).sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn span_guard_records_on_drop_and_cancel_skips() {
        let _g = gate().read().unwrap();
        let h = Histogram::new();
        {
            let _g = h.span();
        }
        assert_eq!(h.count(), 1);
        h.span().cancel();
        assert_eq!(h.count(), 1);
    }

    /// A snapshot of one counter at `3` and one histogram holding `samples`.
    fn sample_snapshot(counter: &str, hist: &str, samples: &[u64]) -> Snapshot {
        let h = Histogram::new();
        for &v in samples {
            h.record(v);
        }
        Snapshot {
            counters: vec![(counter.to_owned(), 3)],
            histograms: vec![(hist.to_owned(), h.snapshot())],
        }
    }

    #[test]
    fn snapshot_renders_text_and_json() {
        let _g = gate().read().unwrap();
        let snap = sample_snapshot("a.count", "c.lat_ns", &[5]);
        let text = snap.render_text();
        assert!(text.contains("counter   a.count = 3"));
        assert!(text.contains("histogram c.lat_ns: count=1"));
        let json = snap.render_json();
        assert!(json.contains("\"a.count\": 3"));
        assert!(json.contains("\"c.lat_ns\": {\"count\": 1"));
        assert!(json.contains("\"buckets\": [{\"le\": 7, \"count\": 1}]"));
    }

    #[test]
    fn json_escaping_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn record_zero_and_top_bucket_saturation_are_pinned() {
        let _g = gate().read().unwrap();
        let h = Histogram::new();
        // zero lands in the dedicated zero bucket and is a real sample
        h.record(0);
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert_eq!((s.min, s.max, s.p50, s.sum), (0, 0, 0, 0));
        assert_eq!(s.buckets, vec![(0, 1)]);
        // u64::MAX lands in the top bucket, whose bound saturates at
        // u64::MAX (so quantiles from it saturate too, never wrap)
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.count, 2);
        assert_eq!(s.max, u64::MAX);
        assert_eq!(s.p99, u64::MAX);
        assert_eq!(s.buckets, vec![(0, 1), (u64::MAX, 1)]);
        // an over-range Duration saturates to u64::MAX nanoseconds
        h.record_duration(std::time::Duration::from_secs(u64::MAX));
        assert_eq!(h.snapshot().buckets, vec![(0, 1), (u64::MAX, 2)]);
    }

    #[test]
    fn snapshot_is_self_consistent_under_concurrent_records() {
        let _g = gate().read().unwrap();
        let h = Arc::new(Histogram::new());
        let stop = Arc::new(AtomicBool::new(false));
        let writers: Vec<_> = (0..3)
            .map(|w| {
                let h = Arc::clone(&h);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut v = w as u64 + 1;
                    while !stop.load(Ordering::Relaxed) {
                        h.record(v % 5000);
                        v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
                    }
                })
            })
            .collect();
        for _ in 0..200 {
            let s = h.snapshot();
            let bucket_total: u64 = s.buckets.iter().map(|(_, c)| c).sum();
            assert_eq!(s.count, bucket_total, "count must equal bucket totals");
            if s.count == 0 {
                assert_eq!((s.sum, s.min, s.max, s.p50), (0, 0, 0, 0));
            } else {
                assert!(s.min <= s.max, "min {} > max {}", s.min, s.max);
                let mean = s.mean();
                assert!(
                    mean >= s.min as f64 && mean <= s.max as f64,
                    "mean {mean} outside [{}, {}]",
                    s.min,
                    s.max
                );
            }
        }
        stop.store(true, Ordering::Relaxed);
        for t in writers {
            t.join().unwrap();
        }
    }

    #[test]
    fn prometheus_exposition_shape() {
        let _g = gate().read().unwrap();
        let text =
            sample_snapshot("p.requests", "p.lat_ns", &[5, 100, u64::MAX]).render_prometheus();
        assert!(text.contains("# TYPE graphtempo_p_requests_total counter\n"));
        assert!(text.contains("graphtempo_p_requests_total 3\n"));
        assert!(text.contains("# TYPE graphtempo_p_lat_ns histogram\n"));
        // buckets are cumulative and the saturated top bucket folds into +Inf
        assert!(text.contains("graphtempo_p_lat_ns_bucket{le=\"7\"} 1\n"));
        assert!(text.contains("graphtempo_p_lat_ns_bucket{le=\"127\"} 2\n"));
        assert!(!text.contains("le=\"18446744073709551615\""));
        assert!(text.contains("graphtempo_p_lat_ns_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("graphtempo_p_lat_ns_count 3\n"));
        assert_eq!(prometheus_name("a.b-c"), "graphtempo_a_b_c");
    }

    #[test]
    fn deadline_expiry() {
        let d = Deadline::after_millis(0);
        assert!(d.expired());
        assert_eq!(d.limit_millis(), 0);
        let far = Deadline::after_millis(3_600_000);
        assert!(!far.expired());
        assert_eq!(far.limit_millis(), 3_600_000);
        // huge limits neither overflow nor expire
        let huge = Deadline::after(std::time::Duration::from_secs(u64::MAX));
        assert!(!huge.expired());
        assert_eq!(huge.limit_millis(), u64::MAX);
    }

    #[test]
    fn concurrent_recording_is_consistent() {
        let _g = gate().read().unwrap();
        let (c, h) = (Counter::new(), Histogram::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..1000u64 {
                        c.inc();
                        h.record(i);
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
        assert_eq!(h.count(), 4000);
        assert_eq!(h.sum(), 4 * (0..1000u64).sum::<u64>());
    }

    #[test]
    fn disabled_gate_suppresses_recording() {
        let _g = gate().write().unwrap();
        let (c, h) = (Counter::new(), Histogram::new());
        set_enabled(false);
        c.inc();
        h.record(10);
        let g = h.span();
        drop(g);
        set_enabled(true);
        assert_eq!(c.get(), 0);
        assert_eq!(h.count(), 0);
        c.inc();
        assert_eq!(c.get(), 1);
    }
}
