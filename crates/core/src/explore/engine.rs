//! The exploration strategies: U-Explore, I-Explore, and the two
//! monotonicity shortcuts (§3.2–§3.4), walked one reference chain at a
//! time over a [`ChainCursor`].

use super::budget::Budget;
use super::cursor::ChainCursor;
use super::{direction, ExploreConfig, ExtendSide};
use tempo_graph::{GraphError, TemporalGraph, TimePoint, TimeSet};

/// One explored pair of intervals. For [`ExtendSide::Old`] the reference
/// point is `tnew`; for [`ExtendSide::New`] it is `told`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IntervalPair {
    /// The earlier interval 𝒯old.
    pub told: TimeSet,
    /// The later interval 𝒯new.
    pub tnew: TimeSet,
}

impl IntervalPair {
    /// Renders the pair with a domain's labels.
    pub fn display(&self, domain: &tempo_graph::TimeDomain) -> String {
        format!(
            "({}, {})",
            self.told.display(domain),
            self.tnew.display(domain)
        )
    }
}

/// Result of an exploration run.
#[derive(Clone, Debug)]
pub struct ExploreOutcome {
    /// The qualifying minimal (union semantics) or maximal (intersection
    /// semantics) interval pairs, with their event counts.
    pub pairs: Vec<(IntervalPair, u64)>,
    /// Number of aggregate-graph evaluations performed (the pruning metric).
    pub evaluations: usize,
}

/// Number of pairs in the chain of reference `i`: the new side extends to
/// the domain end, the old side back to its start.
fn chain_len(n: usize, i: usize, extend: ExtendSide) -> usize {
    match extend {
        ExtendSide::New => n - 1 - i,
        ExtendSide::Old => i + 1,
    }
}

/// The pair at chain coordinate `(i, j)`: the base pair `(𝒯ᵢ, 𝒯ᵢ₊₁)` with
/// the configured side extended by `j` steps (𝒯old grows backward, 𝒯new
/// grows forward).
fn pair_at(n: usize, i: usize, j: usize, extend: ExtendSide) -> IntervalPair {
    match extend {
        ExtendSide::New => IntervalPair {
            told: TimeSet::point(n, TimePoint(i as u32)),
            tnew: TimeSet::range(n, i + 1, i + 1 + j),
        },
        ExtendSide::Old => IntervalPair {
            told: TimeSet::range(n, i - j, i),
            tnew: TimeSet::point(n, TimePoint((i + 1) as u32)),
        },
    }
}

/// The whole chain of reference index `i`, base pair first.
pub(super) fn chain(n: usize, i: usize, extend: ExtendSide) -> Vec<IntervalPair> {
    (0..chain_len(n, i, extend))
        .map(|j| pair_at(n, i, j, extend))
        .collect()
}

/// Runs the exploration strategy appropriate for the config (see the module
/// table), returning the qualifying pairs and the number of evaluations.
///
/// ```
/// use graphtempo::explore::{explore, ExploreConfig, ExtendSide, Selector, Semantics};
/// use graphtempo::ops::Event;
/// use tempo_graph::fixtures::fig1;
///
/// let g = fig1();
/// let gender = g.schema().id("gender").unwrap();
/// let cfg = ExploreConfig {
///     event: Event::Stability,
///     extend: ExtendSide::New,
///     semantics: Semantics::Union, // minimal interval pairs
///     k: 2,
///     attrs: vec![gender],
///     selector: Selector::AllEdges,
/// };
/// let out = explore(&g, &cfg).unwrap();
/// // two collaborations survive t0 → t1, so (t0, t1) is a minimal pair
/// assert_eq!(out.pairs.len(), 1);
/// assert_eq!(out.pairs[0].1, 2);
/// ```
///
/// # Errors
/// Returns an error if the graph has fewer than two time points or an
/// operator fails.
pub fn explore(g: &TemporalGraph, cfg: &ExploreConfig) -> Result<ExploreOutcome, GraphError> {
    explore_budgeted(g, cfg, &Budget::unlimited())
}

/// [`explore`] under a request-scoped [`Budget`]: the engine polls the
/// budget before every pair evaluation, so a passed deadline stops the run
/// within one evaluation. With [`Budget::unlimited`] the outcome is
/// identical to [`explore`].
///
/// # Errors
/// Returns [`GraphError::Cancelled`] when the budget trips, or any error
/// [`explore`] can return.
pub fn explore_budgeted(
    g: &TemporalGraph,
    cfg: &ExploreConfig,
    budget: &Budget,
) -> Result<ExploreOutcome, GraphError> {
    let n = check_domain(g)?;
    let mut cursor = ChainCursor::new(g, cfg);
    let mut out = ExploreOutcome {
        pairs: Vec::new(),
        evaluations: 0,
    };
    for i in 0..n - 1 {
        explore_reference(&mut cursor, cfg, n, i, budget, &mut out)?;
    }
    Ok(out)
}

pub(super) fn check_domain(g: &TemporalGraph) -> Result<usize, GraphError> {
    let n = g.domain().len();
    if n < 2 {
        return Err(GraphError::EmptyInterval(
            "exploration needs at least two time points".to_owned(),
        ));
    }
    Ok(n)
}

/// Runs the configured strategy on the single chain of reference `i`,
/// appending its qualifying pair (if any) and its evaluation count to
/// `out`. The cursor is addressed by chain coordinates alone; an
/// [`IntervalPair`] is built only for a coordinate that is reported. The
/// budget is polled before every evaluation — the engine's cancellation
/// checkpoints.
fn explore_reference(
    cursor: &mut ChainCursor<'_>,
    cfg: &ExploreConfig,
    n: usize,
    i: usize,
    budget: &Budget,
    out: &mut ExploreOutcome,
) -> Result<(), GraphError> {
    use super::{Direction, Semantics};
    let dir = direction(cfg.event, cfg.extend, cfg.semantics);
    let len = chain_len(n, i, cfg.extend);
    let mut evaluations = 0;
    let mut evaluate = |j: usize| -> Result<u64, GraphError> {
        budget.check()?;
        evaluations += 1;
        Ok(cursor.evaluate_chain_pair(i, j))
    };
    // The chain coordinate to report, with its count.
    let mut found: Option<(usize, u64)> = None;
    match (cfg.semantics, dir) {
        // Minimal pair: the first coordinate that qualifies.
        (Semantics::Union, Direction::Increasing) => {
            for j in 0..len {
                let r = evaluate(j)?;
                if r >= cfg.k {
                    found = Some((j, r));
                    break;
                }
            }
        }
        // Maximal pair: the last coordinate before the count drops below k.
        (Semantics::Intersection, Direction::Decreasing) => {
            for j in 0..len {
                let r = evaluate(j)?;
                if r < cfg.k {
                    break;
                }
                found = Some((j, r));
            }
        }
        // Only the base pair can be minimal.
        (Semantics::Union, Direction::Decreasing) => {
            let r = evaluate(0)?;
            if r >= cfg.k {
                found = Some((0, r));
            }
        }
        // Only the longest pair can be maximal.
        (Semantics::Intersection, Direction::Increasing) => {
            let r = evaluate(len - 1)?;
            if r >= cfg.k {
                found = Some((len - 1, r));
            }
        }
    }
    if let Some((j, r)) = found {
        out.pairs.push((pair_at(n, i, j, cfg.extend), r));
    }
    out.evaluations += evaluations;
    // Pairs skipped thanks to the monotonicity shortcut of this strategy row.
    tempo_instrument::metrics::EXPLORE_PRUNED.add((len - evaluations) as u64);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{Selector, Semantics};
    use crate::ops::Event;
    use tempo_graph::fixtures::fig1;
    use tempo_graph::TimePoint;

    fn cfg(event: Event, extend: ExtendSide, semantics: Semantics, k: u64) -> ExploreConfig {
        let g = fig1();
        ExploreConfig {
            event,
            extend,
            semantics,
            k,
            attrs: vec![g.schema().id("gender").unwrap()],
            selector: Selector::AllEdges,
        }
    }

    #[test]
    fn chain_shapes() {
        // domain of 4 points, reference i=1, extending new:
        // ({1},{2}), ({1},{2,3})
        let c = chain(4, 1, ExtendSide::New);
        assert_eq!(c.len(), 2);
        assert_eq!(c[0].tnew.iter().map(|t| t.0).collect::<Vec<_>>(), vec![2]);
        assert_eq!(
            c[1].tnew.iter().map(|t| t.0).collect::<Vec<_>>(),
            vec![2, 3]
        );
        // extending old: ({1},{2}), ({0,1},{2})
        let c = chain(4, 1, ExtendSide::Old);
        assert_eq!(c.len(), 2);
        assert_eq!(c[0].told.iter().map(|t| t.0).collect::<Vec<_>>(), vec![1]);
        assert_eq!(
            c[1].told.iter().map(|t| t.0).collect::<Vec<_>>(),
            vec![0, 1]
        );
        // the first reference has a full-length new chain
        assert_eq!(chain(4, 0, ExtendSide::New).len(), 3);
        // the last reference cannot extend old further than the start
        assert_eq!(chain(4, 2, ExtendSide::Old).len(), 3);
    }

    #[test]
    fn stability_union_finds_minimal_pairs() {
        let g = fig1();
        // stable edges between consecutive points: t0∩t1 → (u1,u2),(u4,u2) = 2
        let c = cfg(Event::Stability, ExtendSide::New, Semantics::Union, 2);
        let out = explore(&g, &c).unwrap();
        // base pair (t0,t1) already satisfies; (t1,t2) has 1 stable edge
        // ((u4,u2)) and cannot extend beyond t2.
        assert_eq!(out.pairs.len(), 1);
        let (pair, r) = &out.pairs[0];
        assert_eq!(*r, 2);
        assert_eq!(pair.told.iter().next(), Some(TimePoint(0)));
        assert_eq!(pair.tnew.iter().next(), Some(TimePoint(1)));
    }

    #[test]
    fn stability_union_extends_when_needed() {
        let g = fig1();
        // demand 2 stable edges from reference t1: (t1,{t2}) has only (u4,u2);
        // no further extension exists, so no pair for reference 1.
        let c = cfg(Event::Stability, ExtendSide::New, Semantics::Union, 2);
        let out = explore(&g, &c).unwrap();
        assert!(out
            .pairs
            .iter()
            .all(|(p, _)| p.told.iter().next() == Some(TimePoint(0))));
        // with k=1 both references qualify at the base pair
        let c1 = cfg(Event::Stability, ExtendSide::New, Semantics::Union, 1);
        let out1 = explore(&g, &c1).unwrap();
        assert_eq!(out1.pairs.len(), 2);
    }

    #[test]
    fn growth_union_extend_old_is_base_only() {
        let g = fig1();
        // growth new−old, extending old with union: decreasing ⇒ base pairs.
        // base pairs: (t0,t1): no new edges; (t1,t2): (u5,u2) = 1.
        let c = cfg(Event::Growth, ExtendSide::Old, Semantics::Union, 1);
        let out = explore(&g, &c).unwrap();
        assert_eq!(out.pairs.len(), 1);
        assert_eq!(out.evaluations, 2); // exactly the base pairs
        assert_eq!(out.pairs[0].0.tnew.iter().next(), Some(TimePoint(2)));
    }

    #[test]
    fn stability_intersection_finds_maximal() {
        let g = fig1();
        // edge (u4,u2) exists at every point; with k=1 and intersection
        // semantics extending new, reference t0 extends to {t1,t2}.
        let c = cfg(
            Event::Stability,
            ExtendSide::New,
            Semantics::Intersection,
            1,
        );
        let out = explore(&g, &c).unwrap();
        assert!(!out.pairs.is_empty());
        let (pair, r) = &out.pairs[0];
        assert_eq!(*r, 1);
        assert_eq!(
            pair.tnew.iter().map(|t| t.0).collect::<Vec<_>>(),
            vec![1, 2],
            "maximal pair extends to the full suffix"
        );
    }

    #[test]
    fn shrinkage_intersection_extend_new_checks_longest() {
        let g = fig1();
        // shrinkage old−new(∩): increasing with extension ⇒ longest-only.
        let c = cfg(
            Event::Shrinkage,
            ExtendSide::New,
            Semantics::Intersection,
            1,
        );
        let out = explore(&g, &c).unwrap();
        // evaluations = one per reference point
        assert_eq!(out.evaluations, 2);
        for (pair, _) in &out.pairs {
            // each pair's tnew is the longest suffix after the reference
            assert_eq!(pair.tnew.max(), Some(TimePoint(2)));
        }
    }

    #[test]
    fn too_short_domain_errors() {
        use tempo_graph::{AttributeSchema, GraphBuilder, TimeDomain};
        let mut b = GraphBuilder::new(TimeDomain::indexed(1), AttributeSchema::new());
        let u = b.add_node("u").unwrap();
        b.set_presence(u, TimePoint(0)).unwrap();
        let g = b.build().unwrap();
        let c = ExploreConfig {
            event: Event::Stability,
            extend: ExtendSide::New,
            semantics: Semantics::Union,
            k: 1,
            attrs: vec![],
            selector: Selector::AllNodes,
        };
        assert!(explore(&g, &c).is_err());
    }
}
