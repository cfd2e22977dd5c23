//! `--check`: every template of every workload at a twentieth of the size,
//! each wire answer held to a second implementation.

use crate::client::Client;
use crate::layers;
use crate::run::{self, Options};
use crate::workloads::Workload;

/// Scale of the correctness gate and the smoke test.
pub const CHECK_SCALE: f64 = 0.05;

/// Checks one workload; returns the number of answers checked.
///
/// First a one-second run at the small scale, which compares every reply
/// with the serial reference and replays the appends. Then every template
/// once more, against graphs generated here rather than by the server:
/// the wire answer must equal a shell session's on that graph, and pass
/// [`layers::oracle_check`] where the class has an oracle.
pub fn check(workload: Workload, seed: u64) -> Result<usize, String> {
    let opts = Options {
        workload,
        seed,
        seconds: 1.0,
        scale: CHECK_SCALE,
    };
    let outcome = run::run(&opts)?;
    if outcome.verification.failed > 0 {
        return Err(format!(
            "{} of {} requests failed: {}",
            outcome.verification.failed,
            outcome.verification.attempted,
            outcome.verification.notes.join("; ")
        ));
    }

    let setup = run::set_up(&opts)?;
    let mut c = Client::connect(setup.server.addr()).map_err(|e| e.to_string())?;
    let graphs: Vec<(&str, layers::Graph)> = setup
        .plan
        .snapshots
        .iter()
        .map(|s| (s.name, layers::generate(s, crate::workloads::DATA_SEED)))
        .collect();
    let mut checked = 0;
    for tpl in &setup.plan.templates {
        let (_, g) = graphs
            .iter()
            .find(|(name, _)| *name == tpl.snapshot)
            .ok_or("template names an unknown snapshot")?;
        let points = layers::n_points(g);
        let line = tpl.wire_line(points);
        let reply = c.request(&line).map_err(|e| e.to_string())?;
        if !reply.is_ok() {
            return Err(format!("{line}: {}", reply.status()));
        }
        let session = layers::session_exec(g, &tpl.session_line(points))?;
        if session != reply.payload() {
            return Err(format!(
                "{line}: the server's answer differs from a session's on a graph generated apart"
            ));
        }
        layers::oracle_check(g, &tpl.query, reply.payload()).map_err(|e| format!("{line}: {e}"))?;
        checked += 1;
    }
    setup.server.shutdown();
    Ok(checked)
}
