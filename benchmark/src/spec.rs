//! The benchmark's contract: every metric it reports, with unit, direction
//! and regression bound, and `BENCHMARK.json` rendered from those tables.
//! `tests/smoke.rs` holds the committed file to this rendering and the
//! emitted metrics to these lists.

use crate::workloads::Workload;

/// Which way a metric improves.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// A reported metric.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change is rejected; end-to-end metrics only.
    pub bound: f64,
}

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    gated(name, unit, Better::Lower, 0.0)
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    gated(name, unit, Better::Higher, 0.0)
}

/// Seconds one run measures for.
pub const RUN_SECONDS: u64 = 15;

/// What a user of the server sees, measured with tracing off. Every metric
/// is reported on every workload, so only metrics every workload has are
/// here; per-class latencies are in the ledger as `class.*.ms`. A bound is
/// about twice the widest interquartile spread seen on any workload over
/// ten seeds of one commit on the 2-core reference box, rounded up to a
/// multiple of 0.05, at least 0.05 and at most 0.25 (see README.md,
/// "Bounds").
pub const END_TO_END: &[Metric] = &[
    gated("setup_s", "s", Better::Lower, 0.25),
    gated("throughput_rps", "req/s", Better::Higher, 0.25),
    gated("latency_geomean_ms", "ms", Better::Lower, 0.20),
    gated("peak_rss_mb", "MB", Better::Lower, 0.05),
];

/// The ledger of single layers, from the traced run. Diagnostic: no bound.
/// A metric that does not apply to a workload reads 0 there.
pub const PER_LAYER: &[Metric] = &[
    lower("server.self_us", "us"),
    lower("server.share", "ratio"),
    lower("server.connect_us", "us"),
    higher("server.concurrency_speedup", "ratio"),
    lower("server.errors", "count"),
    lower("server.timeouts", "count"),
    lower("cli.self_us", "us"),
    lower("cli.share", "ratio"),
    lower("cli.response_bytes", "bytes"),
    lower("cli.patch_parse_us", "us"),
    lower("core.ops.materialize_ms", "ms"),
    lower("core.ops.event_mask_us", "us"),
    lower("core.ops.share", "ratio"),
    lower("core.aggregate.hash_ms", "ms"),
    lower("core.aggregate.group_table_build_us", "us"),
    lower("core.aggregate.masked_us", "us"),
    lower("core.aggregate.hash_over_masked", "ratio"),
    higher("core.aggregate.entities_per_group", "ratio"),
    lower("core.aggregate.share", "ratio"),
    lower("core.evolution.ms", "ms"),
    lower("core.evolution.share", "ratio"),
    lower("core.explore.ms", "ms"),
    lower("core.explore.share", "ratio"),
    lower("core.explore.evaluations", "count"),
    higher("core.explore.pruned", "count"),
    lower("core.explore.cursor_steps", "count"),
    lower("core.explore.ns_per_evaluation", "ns"),
    higher("core.explore.useful_ratio", "ratio"),
    lower("core.explore.suggest_ms", "ms"),
    lower("core.cube.ms", "ms"),
    lower("core.cube.share", "ratio"),
    lower("core.measures.ms", "ms"),
    lower("core.measures.share", "ratio"),
    lower("graph.append_ms", "ms"),
    lower("graph.append_late_over_early", "ratio"),
    lower("graph.transpose_builds", "count"),
    lower("graph.index_build_ms", "ms"),
    lower("graph.clone_ms", "ms"),
    lower("graph.kb_per_epoch", "KB"),
    lower("graph.stats_ms", "ms"),
    lower("graph.share", "ratio"),
    lower("columnar.transpose_ms", "ms"),
    higher("columnar.dense_cols", "count"),
    higher("columnar.sparse_cols", "count"),
    lower("columnar.and_count_ns_per_kword", "ns/kword"),
    lower("datagen.generate_s", "s"),
    lower("instrument.enabled_overhead_share", "ratio"),
    higher("client.samples", "count"),
    lower("client.failed_share", "ratio"),
    lower("client.latency_p99_ms", "ms"),
    lower("client.slowdown_p95", "ratio"),
    lower("client.append_ms", "ms"),
    lower("client.append_p90_ms", "ms"),
    lower("client.append_lateness_p90_ms", "ms"),
    lower("class.stats.ms", "ms"),
    higher("class.stats.count", "count"),
    lower("class.schema.ms", "ms"),
    higher("class.schema.count", "count"),
    lower("class.agg.ms", "ms"),
    higher("class.agg.count", "count"),
    lower("class.evolution.ms", "ms"),
    higher("class.evolution.count", "count"),
    lower("class.explore.ms", "ms"),
    higher("class.explore.count", "count"),
    lower("class.suggest.ms", "ms"),
    higher("class.suggest.count", "count"),
    lower("class.measure.ms", "ms"),
    higher("class.measure.count", "count"),
    lower("class.cube.ms", "ms"),
    higher("class.cube.count", "count"),
    lower("ledger.unattributed_share", "ratio"),
];

/// Looks a metric up in either list.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let better = |b: Better| match b {
        Better::Lower => "lower",
        Better::Higher => "higher",
    };
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(w.name()),
                json_str(w.why())
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(better(m.better)),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(better(m.better))
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}

/// A measured value with its unit, ready to print.
#[derive(Clone, Debug)]
pub struct Reading {
    /// Metric name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// The one-line JSON result a run ends with.
pub fn result_line(correct: bool, attempted: u64, failed: u64, readings: &[Reading]) -> String {
    let metrics: Vec<String> = readings
        .iter()
        .map(|r| {
            let unit = find(r.name).map_or("", |m| m.unit);
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(r.name),
                r.value,
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(ok_name(m.name), "{}", m.name);
            assert!(ok_unit(m.unit), "{} {}", m.name, m.unit);
            assert!(seen.insert(m.name), "{} listed twice", m.name);
        }
        for w in Workload::ALL {
            assert!(ok_name(w.name()) && seen.insert(w.name()));
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(benchmark_json().len() <= 64 * 1024);
    }

    #[test]
    fn bounds_fit_the_contract_and_setup_has_the_largest() {
        let setup = find("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(m.bound <= setup.bound, "{}", m.name);
        }
    }

    #[test]
    fn result_line_shape() {
        let line = result_line(
            true,
            10,
            0,
            &[Reading {
                name: "setup_s",
                value: 0.8127,
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
    }
}
