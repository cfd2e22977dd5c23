//! Command line of the benchmark; `run.sh` builds and calls it.

use std::path::Path;
use std::process::ExitCode;
use tempo_benchmark::check;
use tempo_benchmark::run::{self, Options};
use tempo_benchmark::spec::{self, RUN_SECONDS};
use tempo_benchmark::suite::{self, SuiteOptions};
use tempo_benchmark::trace;
use tempo_benchmark::workloads::Workload;

const USAGE: &str = "\
usage: benchmark/run.sh [--workload W] [--seed S] [--seconds N] [--trace [0|1]]
                        [--runs N] [--check] [--selfcheck] [--write-spec]

  --workload W   olap_serial | explore_serial | mixed_concurrent | ingest_mixed;
                 one run in this process, ending with the one-line JSON result.
                 Without it every workload runs, each in a fresh process.
  --seed S       where in its cycle each connection starts, what the patches hold
                 and which answers the replay samples (default 1); the datasets
                 and the templates are the same for every seed
  --seconds N    seconds measured per run (default the contract's run_seconds)
  --trace [0|1]  the traced run and its per-layer ledger (a bare --trace means 1)
  --runs N       untraced runs per workload whose medians are printed (default 1)
  --check        every template at scale 0.05 against the independent oracles
  --selfcheck    two sets of --runs 3 against the metrics' own bounds
  --write-spec   regenerate BENCHMARK.json (in the current directory) from src/spec.rs
";

/// Where traced runs write their span files, from the repo's root, which
/// is where `run.sh` starts the program.
const OUT_DIR: &str = "benchmark/out";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: Option<usize>,
    commit: String,
    mode: Mode,
}

enum Mode {
    Run,
    Check,
    SelfCheck,
    WriteSpec,
}

fn parse() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        runs: None,
        commit: "unknown".to_owned(),
        mode: Mode::Run,
    };
    let mut args = std::env::args().skip(1).peekable();
    while let Some(flag) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                a.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => a.seed = value("an integer")?.parse().map_err(|_| "--seed <int>")?,
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|_| "--seconds <number>")?;
                if a.seconds.is_nan() || a.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--runs" => a.runs = Some(value("an integer")?.parse().map_err(|_| "--runs <int>")?),
            "--commit" => a.commit = value("a commit id")?,
            "--trace" => {
                a.trace = match args.peek().map(String::as_str) {
                    Some("0") => {
                        args.next();
                        false
                    }
                    Some("1") => {
                        args.next();
                        true
                    }
                    _ => true,
                }
            }
            "--check" => a.mode = Mode::Check,
            "--selfcheck" => a.mode = Mode::SelfCheck,
            "--write-spec" => a.mode = Mode::WriteSpec,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

/// One run in this process: the contract's mode.
fn single(a: &Args, workload: Workload) -> Result<(), String> {
    let opts = Options {
        workload,
        seed: a.seed,
        seconds: a.seconds,
        scale: 1.0,
    };
    let outcome = if a.trace {
        trace::run_traced(&opts, Path::new(OUT_DIR))?
    } else {
        run::run(&opts)?
    };
    let expected = if a.trace {
        spec::PER_LAYER
    } else {
        spec::END_TO_END
    };
    let complete = expected
        .iter()
        .all(|m| outcome.readings.iter().any(|r| r.name == m.name));
    for r in &outcome.readings {
        let unit = spec::find(r.name).map_or("", |m| m.unit);
        println!("{} {} {} {unit}", workload.name(), r.name, r.value);
    }
    let v = &outcome.verification;
    println!(
        "{} failed_share {} ratio",
        workload.name(),
        v.failed as f64 / v.attempted.max(1) as f64
    );
    for note in &v.notes {
        eprintln!("{}: {note}", workload.name());
    }
    if !complete {
        return Err("the window was too short to support every metric".into());
    }
    // a printed result exits 0 whatever it says; `correct` carries the verdict
    println!(
        "{}",
        spec::result_line(
            v.failed == 0,
            v.attempted.max(1),
            v.failed,
            &outcome.readings
        )
    );
    Ok(())
}

fn main() -> ExitCode {
    let a = match parse() {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}");
            }
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let workloads = a.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let suite_options = |runs: usize| SuiteOptions {
        workloads: workloads.clone(),
        seed: a.seed,
        seconds: a.seconds,
        runs: a.runs.unwrap_or(runs),
        trace: a.trace,
        commit: a.commit.clone(),
    };
    let result = match (&a.mode, a.workload) {
        (Mode::WriteSpec, _) => std::fs::write("BENCHMARK.json", spec::benchmark_json())
            .map_err(|e| format!("BENCHMARK.json: {e}")),
        (Mode::Check, _) => workloads.iter().try_for_each(|&w| {
            let n = check::check(w, a.seed).map_err(|e| format!("{}: {e}", w.name()))?;
            println!("check {} {n} templates agree with their oracles", w.name());
            Ok(())
        }),
        (Mode::SelfCheck, _) => suite::selfcheck(&suite_options(3)),
        (Mode::Run, Some(w)) if a.runs.is_none() => single(&a, w),
        (Mode::Run, _) => suite::run_all(&suite_options(1)),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
