//! Runs of several workloads, each in a fresh process of this binary, and
//! the comparison of two sets of such runs (`--selfcheck`).

use crate::spec::{self, Better, END_TO_END, PER_LAYER};
use crate::stats;
use crate::workloads::Workload;
use std::collections::BTreeMap;
use std::process::Command;

/// What the suite passes on to every child run.
#[derive(Clone, Debug)]
pub struct SuiteOptions {
    /// Workloads to run.
    pub workloads: Vec<Workload>,
    /// Seed.
    pub seed: u64,
    /// Seconds measured per run.
    pub seconds: f64,
    /// Untraced runs per workload; medians are reported.
    pub runs: usize,
    /// Whether to add one traced run per workload.
    pub trace: bool,
    /// Commit the binary was built from, for the record line.
    pub commit: String,
}

/// `metric -> value` of one child run.
type Metrics = BTreeMap<String, f64>;

/// The line every run is recorded with.
pub fn record_line(o: &SuiteOptions, workload: Workload) -> String {
    let scales: Vec<String> = crate::workloads::plan(workload, o.seed, 1.0)
        .snapshots
        .iter()
        .map(|s| format!("{}:{}={}", s.name, s.dataset.name(), s.scale))
        .collect();
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    format!(
        "# run commit={} nproc={nproc} seed={} scales={} window_s={}",
        o.commit,
        o.seed,
        scales.join(","),
        o.seconds
    )
}

/// One child run; its `workload metric value unit` lines parsed.
fn child(o: &SuiteOptions, workload: Workload, trace: bool) -> Result<Metrics, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &o.seed.to_string()])
        .args(["--seconds", &o.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{} run failed: {}{}",
            workload.name(),
            text,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let mut metrics = Metrics::new();
    for line in text.lines() {
        let f: Vec<&str> = line.split(' ').collect();
        if let [w, name, value, _unit] = f[..] {
            if w == workload.name() {
                metrics.insert(name.to_owned(), value.parse().map_err(|_| line.to_owned())?);
            }
        }
    }
    if metrics.get("failed_share").is_some_and(|&f| f > 0.0) {
        return Err(format!("{} run answered wrongly:\n{text}", workload.name()));
    }
    Ok(metrics)
}

/// `runs` untraced children of one workload; per metric, every value.
fn set(o: &SuiteOptions, workload: Workload) -> Result<BTreeMap<String, Vec<f64>>, String> {
    let mut all: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for _ in 0..o.runs {
        for (k, v) in child(o, workload, false)? {
            all.entry(k).or_default().push(v);
        }
    }
    Ok(all)
}

fn print(workload: Workload, name: &str, value: f64) {
    let unit = spec::find(name).map_or("", |m| m.unit);
    println!("{} {name} {value} {unit}", workload.name());
}

/// Every workload, every metric: medians over `runs` untraced runs, plus
/// the per-layer ledger of one traced run when asked.
pub fn run_all(o: &SuiteOptions) -> Result<(), String> {
    for &w in &o.workloads {
        println!("{}", record_line(o, w));
        let values = set(o, w)?;
        for m in END_TO_END {
            if let Some(v) = values.get(m.name) {
                print(w, m.name, stats::median_of(v));
            }
        }
        if o.trace {
            let ledger = child(o, w, true)?;
            for m in PER_LAYER {
                if let Some(&v) = ledger.get(m.name) {
                    print(w, m.name, v);
                }
            }
        }
    }
    Ok(())
}

/// Two back-to-back sets of runs of the same build; fails if the second
/// set's median of any end-to-end metric is worse than the first's by more
/// than the metric's bound.
pub fn selfcheck(o: &SuiteOptions) -> Result<(), String> {
    let mut over = Vec::new();
    for &w in &o.workloads {
        println!("{}", record_line(o, w));
        let first = set(o, w)?;
        let second = set(o, w)?;
        for m in END_TO_END {
            let (Some(a), Some(b)) = (first.get(m.name), second.get(m.name)) else {
                return Err(format!("{} did not report {}", w.name(), m.name));
            };
            let (a, b) = (stats::median_of(a), stats::median_of(b));
            let worse = match m.better {
                Better::Lower => (b - a) / a,
                Better::Higher => (a - b) / a,
            };
            let verdict = if worse > m.bound { "OVER" } else { "ok" };
            println!(
                "selfcheck {} {} first={a} second={b} worse_by={worse:.4} bound={} {verdict}",
                w.name(),
                m.name,
                m.bound
            );
            if worse > m.bound {
                over.push(format!("{}@{}", m.name, w.name()));
            }
        }
    }
    if over.is_empty() {
        Ok(())
    } else {
        Err(format!("beyond their bounds: {}", over.join(", ")))
    }
}
