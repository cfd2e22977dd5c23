//! The full exploration problem (Definition 3.6): given a graph and a
//! threshold `k`, find the minimal (union semantics) and maximal
//! (intersection semantics) interval pairs in which at least `k` events of
//! *either* stability, growth or shrinkage occur.

use super::engine::{ExploreOutcome, IntervalPair};
use super::{explore, ExploreConfig, ExtendSide, Selector, Semantics};
use crate::ops::Event;
use std::fmt::Write as _;
use tempo_graph::{AttrId, GraphError, TemporalGraph};

/// One event's minimal and maximal results.
#[derive(Clone, Debug)]
pub struct EventReport {
    /// The event explored.
    pub event: Event,
    /// Minimal interval pairs (union semantics).
    pub minimal: ExploreOutcome,
    /// Maximal interval pairs (intersection semantics).
    pub maximal: ExploreOutcome,
}

/// The Definition-3.6 answer: per event, the minimal and maximal pairs.
#[derive(Clone, Debug)]
pub struct ProblemReport {
    /// The threshold used.
    pub k: u64,
    /// Reports per event (stability, growth, shrinkage).
    pub events: Vec<EventReport>,
}

impl ProblemReport {
    /// Renders the report with a domain's labels.
    pub fn render(&self, domain: &tempo_graph::TimeDomain) -> String {
        let mut out = format!("exploration report (k = {})\n", self.k);
        let fmt = |pairs: &[(IntervalPair, u64)], out: &mut String| {
            for (pair, r) in pairs {
                let _ = writeln!(out, "      {} -> {r} events", pair.display(domain));
            }
        };
        for e in &self.events {
            let _ = writeln!(out, "  {:?}:", e.event);
            let _ = writeln!(out, "    minimal ({} pairs):", e.minimal.pairs.len());
            fmt(&e.minimal.pairs, &mut out);
            let _ = writeln!(out, "    maximal ({} pairs):", e.maximal.pairs.len());
            fmt(&e.maximal.pairs, &mut out);
        }
        out
    }
}

/// Solves Definition 3.6 for all three events, with the given extension
/// side (the reference point is the other side).
///
/// For each event the natural extension side of §3.3/§3.4 is used for the
/// minimal case when `extend` matches it; both semantics always use the
/// same side so the results are directly comparable.
///
/// # Errors
/// Returns an error if the graph has fewer than two time points.
pub fn solve_problem(
    g: &TemporalGraph,
    k: u64,
    attrs: &[AttrId],
    selector: &Selector,
    extend: ExtendSide,
) -> Result<ProblemReport, GraphError> {
    let mut events = Vec::with_capacity(3);
    for event in [Event::Stability, Event::Growth, Event::Shrinkage] {
        let mk = |semantics| ExploreConfig {
            event,
            extend,
            semantics,
            k,
            attrs: attrs.to_vec(),
            selector: selector.clone(),
        };
        events.push(EventReport {
            event,
            minimal: explore(g, &mk(Semantics::Union))?,
            maximal: explore(g, &mk(Semantics::Intersection))?,
        });
    }
    Ok(ProblemReport { k, events })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_graph::fixtures::fig1;

    #[test]
    fn solves_all_events() {
        let g = fig1();
        let gender = g.schema().id("gender").unwrap();
        let report = solve_problem(&g, 1, &[gender], &Selector::AllEdges, ExtendSide::New).unwrap();
        assert_eq!(report.events.len(), 3);
        // stability with k=1 qualifies somewhere on fig1
        let stability = &report.events[0];
        assert_eq!(stability.event, Event::Stability);
        assert!(!stability.minimal.pairs.is_empty());
        assert!(!stability.maximal.pairs.is_empty());
        let text = report.render(g.domain());
        assert!(text.contains("Stability"));
        assert!(text.contains("minimal"));
        assert!(text.contains("maximal"));
    }

    #[test]
    fn huge_k_yields_empty_results() {
        let g = fig1();
        let gender = g.schema().id("gender").unwrap();
        let report =
            solve_problem(&g, 10_000, &[gender], &Selector::AllEdges, ExtendSide::Old).unwrap();
        let pairs = |e: &EventReport| e.minimal.pairs.len() + e.maximal.pairs.len();
        assert_eq!(report.events.iter().map(pairs).sum::<usize>(), 0);
    }
}
