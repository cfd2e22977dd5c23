//! Exhaustive exploration baseline, and the materializing pair evaluation
//! it runs every pair through.
//!
//! Evaluates *every* pair in every reference chain and applies the
//! minimal/maximal definitions (Definitions 3.4 and 3.5) literally, without
//! assuming monotonicity. Serves as the correctness oracle for the pruned
//! strategies and as the baseline their evaluation savings are measured
//! against. Deliberately evaluates through the materializing reference path
//! rather than the chain cursor, so oracle comparisons also cross-validate
//! the cursor's counts against an independent implementation.

use super::engine::{chain, check_domain, ExploreOutcome, IntervalPair};
use super::{ExploreConfig, ExtendSide, Semantics};
use crate::aggregate::{aggregate, AggMode};
use crate::ops::{event_graph, SideTest};
use tempo_graph::{GraphError, TemporalGraph, TimeSet};

/// Reference implementation of one pair evaluation: materializes the event
/// graph with [`event_graph`] — every node name re-interned, static rows
/// copied, time-varying cells cloned — and aggregates it from scratch with
/// the hash aggregation. The naive oracle evaluates through it, so the
/// pruned cursor path is continuously cross-validated against an
/// independent implementation; no served verb calls it.
///
/// # Errors
/// Returns an error if either interval is empty or an operator fails.
pub fn evaluate_pair_materialized(
    g: &TemporalGraph,
    cfg: &ExploreConfig,
    told: &TimeSet,
    tnew: &TimeSet,
) -> Result<u64, GraphError> {
    // The extended side uses the chosen semantics; the fixed reference
    // side is a single point (Any ≡ All).
    let (old_test, new_test) = match cfg.extend {
        ExtendSide::Old => (cfg.semantics.side_test(), SideTest::Any),
        ExtendSide::New => (SideTest::Any, cfg.semantics.side_test()),
    };
    let ev = event_graph(g, cfg.event, told, tnew, old_test, new_test)?;
    let agg = aggregate(&ev, &cfg.attrs, AggMode::Distinct);
    Ok(cfg.selector.count(&agg))
}

/// Runs the naive exploration: all chains fully evaluated, then the
/// minimal (union semantics) or maximal (intersection semantics) qualifying
/// pairs per reference are selected by definition. The exhaustive baseline
/// of §3 and the test oracle for [`explore`](super::explore): no served verb
/// calls it.
///
/// # Errors
/// Returns an error if the graph has fewer than two time points or an
/// operator fails.
pub fn explore_naive(g: &TemporalGraph, cfg: &ExploreConfig) -> Result<ExploreOutcome, GraphError> {
    let n = check_domain(g)?;
    let mut pairs = Vec::new();
    let mut evaluations = 0;
    for i in 0..n - 1 {
        let chain_pairs = chain(n, i, cfg.extend);
        let mut results: Vec<(IntervalPair, u64)> = Vec::with_capacity(chain_pairs.len());
        for pair in chain_pairs {
            let r = evaluate_pair_materialized(g, cfg, &pair.told, &pair.tnew)?;
            evaluations += 1;
            results.push((pair, r));
        }
        // Chains are nested: pair j's extended interval is a strict subset
        // of pair j+1's. Definition 3.4 (minimal): qualifies and no shorter
        // pair in the chain qualifies. Definition 3.5 (maximal): qualifies
        // and no longer pair qualifies.
        match cfg.semantics {
            Semantics::Union => {
                for (j, (pair, r)) in results.iter().enumerate() {
                    if *r >= cfg.k && results[..j].iter().all(|(_, rr)| *rr < cfg.k) {
                        pairs.push((pair.clone(), *r));
                    }
                }
            }
            Semantics::Intersection => {
                for (j, (pair, r)) in results.iter().enumerate() {
                    if *r >= cfg.k && results[j + 1..].iter().all(|(_, rr)| *rr < cfg.k) {
                        pairs.push((pair.clone(), *r));
                    }
                }
            }
        }
    }
    Ok(ExploreOutcome { pairs, evaluations })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{explore, Selector};
    use crate::ops::Event;
    use tempo_graph::fixtures::fig1;

    fn all_configs(g: &TemporalGraph, k: u64) -> Vec<ExploreConfig> {
        let gender = g.schema().id("gender").unwrap();
        let mut out = Vec::new();
        for event in [Event::Stability, Event::Growth, Event::Shrinkage] {
            for extend in [ExtendSide::Old, ExtendSide::New] {
                for semantics in [Semantics::Union, Semantics::Intersection] {
                    for selector in [Selector::AllNodes, Selector::AllEdges] {
                        out.push(ExploreConfig {
                            event,
                            extend,
                            semantics,
                            k,
                            attrs: vec![gender],
                            selector,
                        });
                    }
                }
            }
        }
        out
    }

    #[test]
    fn pruned_matches_naive_on_fig1_all_cases() {
        let g = fig1();
        for k in [1, 2, 3, 5] {
            for cfg in all_configs(&g, k) {
                let fast = explore(&g, &cfg).unwrap();
                let slow = explore_naive(&g, &cfg).unwrap();
                assert_eq!(
                    fast.pairs, slow.pairs,
                    "mismatch for k={k} cfg={:?} {:?} {:?} {:?}",
                    cfg.event, cfg.extend, cfg.semantics, cfg.selector
                );
                assert!(
                    fast.evaluations <= slow.evaluations,
                    "pruning must not evaluate more than the naive baseline"
                );
            }
        }
    }

    #[test]
    fn naive_counts_full_chain_evaluations() {
        let g = fig1(); // 3 time points
        let cfg = ExploreConfig {
            event: Event::Stability,
            extend: ExtendSide::New,
            semantics: Semantics::Union,
            k: 1,
            attrs: vec![g.schema().id("gender").unwrap()],
            selector: Selector::AllNodes,
        };
        let out = explore_naive(&g, &cfg).unwrap();
        // chains: i=0 → 2 pairs, i=1 → 1 pair
        assert_eq!(out.evaluations, 3);
    }
}
