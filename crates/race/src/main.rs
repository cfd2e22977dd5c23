//! `tempo-race` driver: sweeps the clean protocol model (must enumerate
//! completely with zero violations) and the seeded mutation catalog
//! (every mutation must be detected). Exit code 0 only when both hold and
//! the catalogue is exactly what is documented: 1 clean sweep, 2 mutations.

use tempo_race::scenarios::{mutation_cases, protocol_cases};
use tempo_race::Checker;

fn main() {
    let checker = Checker::default();
    let mut failures = 0usize;
    let (protocols, mutations) = (protocol_cases(), mutation_cases());
    if (protocols.len(), mutations.len()) != (1, 2) {
        eprintln!(
            "tempo-race: catalogue is {} clean sweep(s) and {} mutation(s), expected 1 and 2",
            protocols.len(),
            mutations.len()
        );
        std::process::exit(1);
    }

    println!("== protocol sweeps (must be clean and complete) ==");
    for case in protocols {
        let report = case.run(&checker);
        let status = if report.passed() {
            "ok"
        } else {
            failures += 1;
            "FAIL"
        };
        println!(
            "{status:>4}  {:<28} {} schedules{}",
            case.name,
            report.executions,
            if report.complete { "" } else { " (INCOMPLETE)" }
        );
        if let Some(v) = &report.violation {
            println!("{v}");
        }
    }

    println!("== seeded mutations (must be detected) ==");
    for case in mutations {
        let report = case.run(&checker);
        let detected = report.violation.is_some();
        let status = if detected {
            "ok"
        } else {
            failures += 1;
            "FAIL"
        };
        let kind = report
            .violation
            .as_ref()
            .map_or_else(|| "NOT DETECTED".to_owned(), |v| format!("{:?}", v.kind));
        println!(
            "{status:>4}  {:<48} {} after {} schedules",
            case.name, kind, report.executions
        );
    }

    if failures > 0 {
        eprintln!("tempo-race: {failures} case(s) failed");
        std::process::exit(1);
    }
    println!("tempo-race: all cases passed");
}
