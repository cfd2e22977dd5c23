//! All four workloads at a twentieth of the size with one-second windows:
//! the metrics a run emits are exactly the ones `BENCHMARK.json` lists.

use std::collections::BTreeSet;
use std::path::Path;
use tempo_benchmark::check::CHECK_SCALE;
use tempo_benchmark::run::{self, Options, Outcome};
use tempo_benchmark::spec::{self, Metric};
use tempo_benchmark::trace;
use tempo_benchmark::workloads::Workload;

fn assert_emits_exactly(workload: Workload, outcome: &Outcome, listed: &[Metric]) {
    let mut seen = BTreeSet::new();
    for r in &outcome.readings {
        assert!(
            seen.insert(r.name),
            "{}: {} emitted twice",
            workload.name(),
            r.name
        );
        assert!(
            r.value.is_finite(),
            "{}: {} is {}",
            workload.name(),
            r.name,
            r.value
        );
        let unit = spec::find(r.name).map(|m| m.unit);
        assert!(
            unit.is_some_and(|u| !u.is_empty()),
            "{}: {} has no unit",
            workload.name(),
            r.name
        );
        assert!(
            r.name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "{}",
            r.name
        );
    }
    let listed: BTreeSet<&str> = listed.iter().map(|m| m.name).collect();
    assert_eq!(
        seen,
        listed,
        "{}: emitted and listed sets drift",
        workload.name()
    );
    assert_eq!(
        outcome.verification.failed,
        0,
        "{}: {:?}",
        workload.name(),
        outcome.verification.notes
    );
    assert!(outcome.verification.attempted > 0);
}

#[test]
fn every_listed_metric_is_emitted_once_on_every_workload() {
    // one test, one workload at a time: the runs share the process's
    // instrument registry and the machine's two cores
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    for workload in Workload::ALL {
        let opts = Options {
            workload,
            seed: 3,
            seconds: 1.0,
            scale: CHECK_SCALE,
        };
        let untraced = run::run(&opts).expect("untraced run");
        assert_emits_exactly(workload, &untraced, spec::END_TO_END);
        for r in &untraced.readings {
            assert!(r.value > 0.0, "{}: {} is zero", workload.name(), r.name);
        }
        let traced = trace::run_traced(&opts, &out_dir).expect("traced run");
        assert_emits_exactly(workload, &traced, spec::PER_LAYER);
        let spans =
            std::fs::read_to_string(out_dir.join(format!("trace-{}.jsonl", workload.name())))
                .expect("the traced run wrote its span file");
        assert!(spans.lines().count() > 100);
        assert!(spans
            .lines()
            .all(|l| l.starts_with("{\"id\": ") && l.ends_with('}')));
    }
}

#[test]
fn committed_benchmark_json_is_the_rendered_spec() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let committed = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo's root");
    assert_eq!(
        committed,
        spec::benchmark_json(),
        "BENCHMARK.json drifted from src/spec.rs; run benchmark/run.sh --write-spec"
    );
}
