//! Threshold initialization (§3.5).
//!
//! The starting value `w_th` for the threshold `k` is taken from the
//! aggregate graphs of consecutive time-point pairs: the minimum entity
//! weight when the exploration operator is monotonically increasing (then
//! `k` is tuned upward), the maximum when it is decreasing (tuned downward).
//!
//! For a tuple selector a pair's weight is its count, one popcount per
//! pair. For the All selectors it is every DIST weight of the pair's
//! aggregate graph, which the cursor keys from the pair's stored keep set
//! `K_i`, so the scan stops as soon as no remaining pair can move the
//! statistic. Both stops follow from Definition 2.6 and keep the result
//! exact:
//!
//! - **Min.** Weights are positive integers, so the pairs are keyed in
//!   index order until the best value is 1.
//! - **Max.** A DIST weight counts each kept entity at most once per key,
//!   so no weight of pair `i` exceeds `|K_i|`. Every pair is first sized by
//!   [`ChainCursor::kept_chain_pair`], a count that stores nothing; the
//!   pairs are then keyed in descending `|K_i|` (ties in index order) until
//!   the next one's `|K_i|` is at most the best weight.
//!
//! `explore.evaluations` counts one per sized pair and one per keyed pair:
//! `n − 1` plus the keyed pairs for a max, the keyed pairs for a min, and
//! `n − 1` for a tuple selector.

use super::cursor::ChainCursor;
use super::{direction, Direction, ExploreConfig, Selector};
use std::cmp::Reverse;
use tempo_graph::{GraphError, TemporalGraph};

/// Which statistic of the consecutive-pair weights to take.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ThresholdStat {
    /// The minimum weight (starting point for increasing operators).
    Min,
    /// The maximum weight (starting point for decreasing operators).
    Max,
}

/// Computes `w_th` for an exploration problem: over all consecutive pairs
/// `(𝒯ᵢ, 𝒯ᵢ₊₁)`, the min or max of the selector's `result(G)` on the event
/// graph. Returns `None` when no consecutive pair produces any events.
///
/// # Errors
/// Returns an error if the graph has fewer than two time points or an
/// operator fails.
pub fn initial_threshold(
    g: &TemporalGraph,
    cfg: &ExploreConfig,
    stat: ThresholdStat,
) -> Result<Option<u64>, GraphError> {
    let n = g.domain().len();
    if n < 2 {
        return Err(GraphError::EmptyInterval(
            "threshold initialization needs at least two time points".to_owned(),
        ));
    }
    // The consecutive pair (𝒯ᵢ, 𝒯ᵢ₊₁) is chain pair (i, 0), so the scan
    // rides the chain-incremental cursor over the snapshot's cached group
    // table and match columns.
    let mut cursor = ChainCursor::new(g, cfg);
    let pick = |best: Option<u64>, w: u64| {
        Some(match (best, stat) {
            (None, _) => w,
            (Some(b), ThresholdStat::Min) => b.min(w),
            (Some(b), ThresholdStat::Max) => b.max(w),
        })
    };
    let pairs = 0..n - 1;
    if let Selector::NodeTuple(_) | Selector::EdgeTuple(..) = cfg.selector {
        // For the per-entity selectors the consecutive-pair result IS the
        // entity weight.
        let counts = pairs.map(|i| cursor.evaluate_chain_pair(i, 0));
        return Ok(counts.filter(|&r| r > 0).fold(None, pick));
    }
    // For the All selectors, take the stat over the individual entity
    // weights of the aggregate graph, per §3.5 ("the minimum or maximum
    // weight of the given type of entity"). With single-point sides the
    // Any and All membership tests coincide, so the cursor's keep set is
    // exactly the event's; the weights are read off the dense
    // accumulators, no aggregate graph is rendered. The pairs are keyed in
    // the order below, each beside a bound no weight of it exceeds: none
    // for a min, `|K_i|` for a max (see the module docs).
    let order: Vec<(u64, usize)> = match stat {
        ThresholdStat::Min => pairs.map(|i| (u64::MAX, i)).collect(),
        ThresholdStat::Max => {
            let mut sized: Vec<_> = pairs.map(|i| (cursor.kept_chain_pair(i, 0), i)).collect();
            sized.sort_by_key(|&(kept, _)| Reverse(kept));
            sized
        }
    };
    let mut best = None;
    for (bound, i) in order {
        let settled = match stat {
            ThresholdStat::Min => best == Some(1),
            ThresholdStat::Max => bound <= best.unwrap_or(0),
        };
        if settled {
            break;
        }
        cursor.keep_chain_pair(i, 0);
        best = cursor.fold_weights(best, pick);
    }
    Ok(best)
}

/// Suggests a starting `k` per §3.5: `w_th` with the statistic chosen from
/// the operator's monotonicity (min for increasing, max for decreasing).
///
/// # Errors
/// Propagates [`initial_threshold`] errors.
pub fn suggest_k(g: &TemporalGraph, cfg: &ExploreConfig) -> Result<Option<u64>, GraphError> {
    let stat = match direction(cfg.event, cfg.extend, cfg.semantics) {
        Direction::Increasing => ThresholdStat::Min,
        Direction::Decreasing => ThresholdStat::Max,
    };
    initial_threshold(g, cfg, stat)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{ExtendSide, Semantics};
    use crate::ops::Event;
    use tempo_graph::fixtures::fig1;

    fn base_cfg(g: &TemporalGraph, selector: Selector) -> ExploreConfig {
        ExploreConfig {
            event: Event::Stability,
            extend: ExtendSide::New,
            semantics: Semantics::Union,
            k: 0,
            attrs: vec![g.schema().id("gender").unwrap()],
            selector,
        }
    }

    #[test]
    fn edge_tuple_threshold() {
        let g = fig1();
        let f = g
            .schema()
            .category(g.schema().id("gender").unwrap(), "f")
            .unwrap();
        let cfg = base_cfg(&g, Selector::edge_1attr(f.clone(), f));
        // stable f→f edges: (t0,t1): (u4,u2) = 1; (t1,t2): (u4,u2) = 1
        let min = initial_threshold(&g, &cfg, ThresholdStat::Min).unwrap();
        let max = initial_threshold(&g, &cfg, ThresholdStat::Max).unwrap();
        assert_eq!(min, Some(1));
        assert_eq!(max, Some(1));
    }

    #[test]
    fn all_edges_threshold_uses_entity_weights() {
        let g = fig1();
        let cfg = base_cfg(&g, Selector::AllEdges);
        // (t0,t1) stable edges by gender pair: m→f 1, f→f 1; (t1,t2): m→f? u1
        // vanishes → only f→f 1. per-entity weights all 1.
        assert_eq!(
            initial_threshold(&g, &cfg, ThresholdStat::Max).unwrap(),
            Some(1)
        );
    }

    #[test]
    fn suggest_follows_monotonicity() {
        let g = fig1();
        let mut cfg = base_cfg(&g, Selector::AllNodes);
        // union/increasing → min; intersection/decreasing → max — both exist
        assert!(suggest_k(&g, &cfg).unwrap().is_some());
        cfg.semantics = Semantics::Intersection;
        assert!(suggest_k(&g, &cfg).unwrap().is_some());
    }

    #[test]
    fn missing_entity_yields_none() {
        let g = fig1();
        let m = g
            .schema()
            .category(g.schema().id("gender").unwrap(), "m")
            .unwrap();
        // m→m collaborations never occur in fig1
        let cfg = base_cfg(&g, Selector::edge_1attr(m.clone(), m));
        assert_eq!(
            initial_threshold(&g, &cfg, ThresholdStat::Min).unwrap(),
            None
        );
    }
}
