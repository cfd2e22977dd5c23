//! Per-run exploration state, and the materializing reference evaluation.
//!
//! Exploration evaluates `result(G)` for many interval pairs over the same
//! source graph. The reference path builds a full [`TemporalGraph`] per pair
//! ([`evaluate_pair_materialized`], kept as the oracle): every node name is
//! re-interned, static rows are copied, time-varying cells are cloned —
//! only for most of that structure to be discarded after one selector
//! count.
//!
//! [`ExploreKernel`] holds what the production path needs instead: the
//! snapshot's cached [`GroupTable`] for the run's attribute list (each
//! node's attribute tuple interned to a dense group id once per snapshot
//! version, not per run) and the selector resolved to a [`CountTarget`]
//! (group ids, not tuples). The [`ChainCursor`](super::ChainCursor) built
//! over it folds the per-time-point presence columns into each pair's side
//! members and counts the pair's keep words, Definitions 2.4–2.5 written by
//! the one function `event_mask` also calls. No subgraph, no row clones,
//! no per-pair hash keys.

use super::{ExploreConfig, ExtendSide, Selector};
use crate::aggregate::{aggregate, AggMode, CountTarget, GroupTable};
use crate::ops::{event_graph, SideTest};
use tempo_graph::{GraphError, TemporalGraph, TimeSet};

/// Reference implementation of one pair evaluation: materializes the event
/// graph with [`event_graph`] and aggregates it from scratch. Used by the
/// naive oracle, so the pruned cursor path is continuously cross-validated
/// against an independent implementation; no served verb calls it.
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

/// Per-run state of an exploration: the graph, the config, the snapshot's
/// group table and the resolved count target. Immutable after
/// construction; a [`ChainCursor`](super::ChainCursor) borrows it.
pub struct ExploreKernel<'g> {
    pub(super) g: &'g TemporalGraph,
    pub(super) cfg: &'g ExploreConfig,
    pub(super) table: GroupTable,
    pub(super) target: CountTarget,
}

impl<'g> ExploreKernel<'g> {
    /// Builds the kernel for one exploration run: takes the snapshot's
    /// cached group table for `cfg.attrs` and resolves the selector to
    /// group ids.
    ///
    /// # Panics
    /// Panics if any attribute id is not from `g`'s schema.
    pub fn new(g: &'g TemporalGraph, cfg: &'g ExploreConfig) -> Self {
        let _span = tempo_instrument::metrics::EXPLORE_KERNEL_BUILD_NS.span();
        let table = GroupTable::cached(g, &cfg.attrs);
        let target = match &cfg.selector {
            Selector::AllNodes => CountTarget::AllNodes,
            Selector::AllEdges => CountTarget::AllEdges,
            Selector::NodeTuple(t) => CountTarget::node(&table, t),
            Selector::EdgeTuple(s, d) => CountTarget::edge(&table, s, d),
        };
        ExploreKernel {
            g,
            cfg,
            table,
            target,
        }
    }

    /// The interned group table backing this kernel.
    pub fn group_table(&self) -> &GroupTable {
        &self.table
    }
}
