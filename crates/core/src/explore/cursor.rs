//! Chain-incremental pair evaluation over the per-time-point presence
//! columns.
//!
//! Deriving both sides' memberships from scratch for an interval pair
//! walks every node and edge row and tests it against 𝒯old and 𝒯new
//! (`O(rows × interval-words)`). But exploration never evaluates arbitrary
//! pairs — it walks *chains*. Within the chain of reference `i`, one side
//! is the fixed point `i` (or `i+1`) and the other grows by exactly one
//! time point per step. Membership under
//! union semantics therefore evolves as `acc |= column[t]`; under
//! intersection as `acc &= column[t]` — a whole-vector OR/AND against one
//! presence column
//! ([`TemporalGraph::node_presence_columns`]), i.e. `O(entity-words)` per
//! step independent of interval length.
//!
//! [`ChainCursor`] holds those accumulators, for the sides the selector
//! reads only, beside the chain's reference column: read in place when it
//! is dense and as wide as the entities, and copied once per chain into a
//! scratch vector otherwise. An evaluation hands the two sides' words to
//! [`event_words`], the one writer of Definitions 2.4–2.5, once per side
//! read. For a node selector under a difference event the kept edges come
//! first and go straight into the rescue set of their endpoints. The
//! selector's side is then counted — a popcount of the keep words,
//! intersected with a tuple selector's cached match vector
//! ([`GroupColumns::match_columns`]: the vector itself on an all-static
//! attribute list, and on a list with a time-varying attribute the OR of
//! its per-point columns over the scope, folded one column at a time
//! wherever the scope grows) — with no keep vector written. Only where a
//! mask is read are the keep words stored: by the All selectors on a
//! time-varying list over a scope of several points, where one entity can
//! carry several tuples and the group table's column-major walk counts
//! ([`GroupTable::count_distinct`]), and by
//! [`ChainCursor::mask_chain_pair`], for callers that aggregate the event
//! themselves. Both are bit-identical to the materializing oracle at every
//! chain coordinate (property-tested in `tests/kernel_equivalence.rs`).
//!
//! [`TemporalGraph::node_presence_columns`]: tempo_graph::TemporalGraph::node_presence_columns
//! [`GroupColumns::match_columns`]: tempo_graph::GroupColumns::match_columns
//! [`GroupTable::count_distinct`]: crate::aggregate::GroupTable::count_distinct

use super::kernel::ExploreKernel;
use super::{ExtendSide, Semantics};
use crate::aggregate::CountTarget;
use crate::ops::{event_words, rescue, Event, EventMask, WordSink};
use std::sync::Arc;
use tempo_columnar::{BitVec, PresenceColumn, PresenceColumns};
use tempo_graph::{MatchColumns, MatchKey, TimePoint};
use tempo_instrument::metrics;

/// How the cursor turns the current pair into `result(G)`.
enum FastCount {
    /// Selector tuple occurs nowhere in the source graph — always 0.
    Zero,
    /// Every kept entity counts once, so the count is a popcount of the
    /// kept set: an All selector on an all-static list (`None`), or a tuple
    /// selector, whose kept set is intersected with its match vector.
    Pop(Option<Arc<MatchColumns>>),
    /// All selector on a list with a time-varying attribute: an entity
    /// counts once per distinct tuple it carries within the scope.
    Table,
}

impl FastCount {
    fn resolve(kernel: &ExploreKernel<'_>) -> FastCount {
        let tuple = |key| FastCount::Pop(Some(kernel.table.match_columns(kernel.g, key)));
        match &kernel.target {
            // A tuple absent from the source graph can never appear in an
            // event graph of it (same shortcut as count_distinct).
            CountTarget::Node(None) | CountTarget::Edge(None) => FastCount::Zero,
            CountTarget::Node(Some(gid)) => tuple(MatchKey::Node(*gid)),
            CountTarget::Edge(Some((gs, gd))) => tuple(MatchKey::Edge(*gs, *gd)),
            CountTarget::AllNodes | CountTarget::AllEdges if kernel.table.is_static() => {
                FastCount::Pop(None)
            }
            CountTarget::AllNodes | CountTarget::AllEdges => FastCount::Table,
        }
    }
}

/// The entities a tuple selector matches over the current scope.
fn selection<'a>(matches: &'a MatchColumns, scope_match: &'a BitVec) -> &'a BitVec {
    match matches {
        MatchColumns::Static(all_points) => all_points,
        MatchColumns::PerPoint(_) => scope_match,
    }
}

/// The node or edge side of the loaded chain, as full-width words.
struct Side<'g> {
    cols: &'g PresenceColumns,
    /// Extended-side membership (`|=` under union, `&=` under
    /// intersection, one presence column per step).
    ext: BitVec,
    /// Time point of the fixed reference side.
    ref_t: usize,
    /// The reference column at full width, unless it is read in place.
    reference: BitVec,
}

impl<'g> Side<'g> {
    fn new(cols: &'g PresenceColumns) -> Self {
        Side {
            cols,
            ext: BitVec::zeros(cols.source_rows()),
            ref_t: 0,
            reference: BitVec::zeros(cols.source_rows()),
        }
    }

    /// Loads a chain's base pair: the extended side is point `ext_t`, the
    /// reference point `ref_t`, whose column is copied unless it can be
    /// read in place.
    fn load(&mut self, ext_t: usize, ref_t: usize) {
        self.cols.col(ext_t).copy_into(&mut self.ext);
        self.ref_t = ref_t;
        if self.in_place().is_none() {
            self.cols.col(ref_t).copy_into(&mut self.reference);
        }
        debug_assert_eq!(self.ext.check_invariants(), Ok(()));
    }

    /// The reference column's words, when it is dense and as wide as the
    /// entities.
    fn in_place(&self) -> Option<&[u64]> {
        match self.cols.col(self.ref_t) {
            PresenceColumn::Dense(bv) if bv.len() == self.ext.len() => Some(bv.words()),
            _ => None,
        }
    }

    /// Folds point `t` into the extended side.
    fn extend(&mut self, t: usize, semantics: Semantics) {
        match semantics {
            Semantics::Union => self.cols.col(t).or_into(&mut self.ext),
            Semantics::Intersection => self.cols.col(t).and_assign_into(&mut self.ext),
        }
        debug_assert_eq!(self.ext.check_invariants(), Ok(()));
    }

    /// The `(𝒯old, 𝒯new)` members of the current pair.
    fn old_new(&self, extend: ExtendSide) -> (&[u64], &[u64]) {
        let reference = self.in_place().unwrap_or(self.reference.words());
        match extend {
            ExtendSide::New => (reference, self.ext.words()),
            ExtendSide::Old => (self.ext.words(), reference),
        }
    }
}

/// Incremental evaluator for the pairs of one reference chain at a time.
///
/// Built once per exploration run and driven forward through `(i, j)`
/// chain coordinates by [`ChainCursor::evaluate_chain_pair`]. Every
/// evaluation is recorded in `explore.evaluations` / `eval_ns`.
pub struct ChainCursor<'k, 'g> {
    kernel: &'k ExploreKernel<'g>,
    /// Domain length.
    n: usize,
    /// The node side, read by a node selector.
    nodes: Option<Side<'g>>,
    /// The edge side, read by an edge selector and, under a difference
    /// event, by a node selector: kept edges rescue their endpoints
    /// (Definition 2.5).
    edges: Option<Side<'g>>,
    fast: FastCount,
    /// Reference index of the chain currently loaded, if any.
    current_ref: Option<usize>,
    /// Steps taken from the base pair (chain coordinate `j`).
    step: usize,
    /// OR of the selector's per-point match columns over the mask's scope
    /// (empty unless the selector has [`MatchColumns::PerPoint`] columns).
    scope_match: BitVec,
    /// Reusable output mask, rewritten in place. The scope is kept current
    /// for every pair; the keep sets are those of the last stored pair.
    mask: EventMask,
    /// The nodes the kept edges rescue (Definition 2.5).
    incident: BitVec,
}

impl<'k, 'g> ChainCursor<'k, 'g> {
    /// Builds a cursor over a shared kernel: borrows the graph's presence
    /// columns and (building on first use) the selector's cached match
    /// columns.
    pub fn new(kernel: &'k ExploreKernel<'g>) -> Self {
        metrics::EXPLORE_CURSOR_BUILDS.inc();
        let g = kernel.g;
        let edge_selector = kernel.cfg.selector.is_edge();
        let rescues = !edge_selector && kernel.cfg.event != Event::Stability;
        let fast = FastCount::resolve(kernel);
        let scope_match = match &fast {
            FastCount::Pop(Some(m)) if matches!(**m, MatchColumns::PerPoint(_)) => {
                BitVec::zeros(if edge_selector {
                    g.n_edges()
                } else {
                    g.n_nodes()
                })
            }
            _ => BitVec::zeros(0),
        };
        ChainCursor {
            kernel,
            n: g.domain().len(),
            nodes: (!edge_selector).then(|| Side::new(g.node_presence_columns())),
            edges: (edge_selector || rescues).then(|| Side::new(g.edge_presence_columns())),
            fast,
            current_ref: None,
            step: 0,
            scope_match,
            mask: EventMask::cleared(g),
            incident: BitVec::zeros(if rescues { g.n_nodes() } else { 0 }),
        }
    }

    /// The sides the selector reads.
    fn sides(&mut self) -> impl Iterator<Item = &mut Side<'g>> {
        self.nodes.iter_mut().chain(self.edges.iter_mut())
    }

    /// Adds time point `t` to the scope, and the entities the selector
    /// matches at `t` to the scope's match vector.
    fn grow_scope(&mut self, t: usize) {
        let (_, _, scope) = self.mask.parts_mut();
        scope.insert(TimePoint(t as u32));
        if let FastCount::Pop(Some(m)) = &self.fast {
            if let MatchColumns::PerPoint(cols) = &**m {
                cols[t].or_into(&mut self.scope_match);
            }
        }
    }

    /// Loads the chain of reference `i` at its base pair `({i}, {i+1})`.
    fn start_chain(&mut self, i: usize) {
        assert!(i + 1 < self.n, "reference {i} out of domain {}", self.n);
        metrics::EXPLORE_CURSOR_CHAINS.inc();
        self.current_ref = Some(i);
        self.step = 0;
        // The extended side starts as the single base point; the other side
        // is the fixed reference. A one-point interval is one column.
        let (ext_t0, ref_t) = match self.kernel.cfg.extend {
            ExtendSide::New => (i + 1, i),
            ExtendSide::Old => (i, i + 1),
        };
        for side in self.sides() {
            side.load(ext_t0, ref_t);
        }
        // Base scope per event: stability spans both sides, growth lives in
        // 𝒯new, shrinkage in 𝒯old.
        let (_, _, scope) = self.mask.parts_mut();
        scope.clear();
        self.scope_match.clear_all();
        match self.kernel.cfg.event {
            Event::Stability => {
                self.grow_scope(i);
                self.grow_scope(i + 1);
            }
            Event::Growth => self.grow_scope(i + 1),
            Event::Shrinkage => self.grow_scope(i),
        }
    }

    /// Extends the loaded chain by one time point: one whole-vector OR/AND
    /// against the added point's presence column on each side read.
    fn advance(&mut self) {
        #[allow(clippy::expect_used)]
        let i = self
            .current_ref
            .expect("invariant: start_chain loads a reference before advance");
        let _span = metrics::EXPLORE_CURSOR_STEP_NS.span();
        metrics::EXPLORE_CURSOR_STEPS.inc();
        self.step += 1;
        #[allow(clippy::expect_used)]
        let t_added = match self.kernel.cfg.extend {
            ExtendSide::New => i + 1 + self.step,
            ExtendSide::Old => i
                .checked_sub(self.step)
                .expect("invariant: chain length caps steps so the old side never passes t0"),
        };
        assert!(
            t_added < self.n,
            "new side extends at most to the domain end"
        );
        let semantics = self.kernel.cfg.semantics;
        for side in self.sides() {
            side.extend(t_added, semantics);
        }
        // The scope follows the side(s) the event draws its timestamps
        // from, so it only grows when that side is the extended one.
        let scope_tracks_ext = match self.kernel.cfg.event {
            Event::Stability => true,
            Event::Growth => self.kernel.cfg.extend == ExtendSide::New,
            Event::Shrinkage => self.kernel.cfg.extend == ExtendSide::Old,
        };
        if scope_tracks_ext {
            self.grow_scope(t_added);
        }
    }

    /// Positions the cursor on chain pair `(i, j)`: loads the chain on a
    /// reference change or a backward jump, then advances incrementally.
    fn seek(&mut self, i: usize, j: usize) {
        if self.current_ref != Some(i) || j < self.step {
            self.start_chain(i);
        }
        while self.step < j {
            self.advance();
        }
    }

    /// Runs [`event_words`] on the current pair for each side read. With
    /// `store`, the keep sets are written into the mask and 0 is returned;
    /// otherwise the selector's side is counted, within a tuple selector's
    /// match vector, and nothing is written. Kept edges that rescue nodes
    /// are stored too when `store` is set, and go straight into the
    /// rescue set otherwise.
    fn keep_words(&mut self, store: bool) -> u64 {
        let (cfg, g) = (self.kernel.cfg, self.kernel.g);
        let (keep_nodes, keep_edges, _) = self.mask.parts_mut();
        let sel = match &self.fast {
            FastCount::Pop(Some(m)) => Some(selection(m, &self.scope_match)),
            _ => None,
        };
        let mut count = 0;
        if let Some(edges) = &self.edges {
            let (old, new) = edges.old_new(cfg.extend);
            let rescues = self.nodes.is_some();
            let sink = match (store, rescues) {
                (true, _) => WordSink::Store(keep_edges),
                (false, true) => WordSink::Rescue(g, &mut self.incident),
                (false, false) => WordSink::Count(sel),
            };
            count = event_words(cfg.event, old, new, None, sink);
            if store && rescues {
                rescue(g, keep_edges.words().iter().copied(), &mut self.incident);
            }
        }
        if let Some(nodes) = &self.nodes {
            let (old, new) = nodes.old_new(cfg.extend);
            let rescued = (cfg.event != Event::Stability).then(|| self.incident.words());
            let sink = if store {
                WordSink::Store(keep_nodes)
            } else {
                WordSink::Count(sel)
            };
            count = event_words(cfg.event, old, new, rescued, sink);
        }
        count
    }

    /// Evaluates chain pair `(i, j)`: pair `j` of reference `i`'s chain
    /// (`j = 0` is the base pair `({i}, {i+1})`, each further step extends
    /// the configured side by one point).
    ///
    /// Loads the chain on a reference change and advances incrementally —
    /// evaluating a chain's pairs in ascending `j` (the order every
    /// exploration strategy uses) costs one column OR/AND per step. Jumping
    /// backward reloads the chain from its base.
    ///
    /// # Panics
    /// Panics if `(i, j)` is outside the domain's chain table.
    pub fn evaluate_chain_pair(&mut self, i: usize, j: usize) -> u64 {
        self.seek(i, j);
        let _eval_span = metrics::EXPLORE_EVAL_NS.span();
        metrics::EXPLORE_EVALUATIONS.inc();
        match self.fast {
            FastCount::Zero => 0,
            FastCount::Table if self.mask.scope().len() > 1 => {
                self.keep_words(true);
                let kernel = self.kernel;
                kernel
                    .table
                    .count_distinct(kernel.g, &self.mask, &kernel.target)
            }
            // every kept entity counts once; over a single point that holds
            // for a time-varying list too
            _ => self.keep_words(false),
        }
    }

    /// The mask-only step: positions the cursor on chain pair `(i, j)` as
    /// [`evaluate_chain_pair`](Self::evaluate_chain_pair) does and returns
    /// the pair's event mask without counting anything: its scope and the
    /// keep set of the side the kernel's selector reads — kept edges for an
    /// edge selector, kept nodes for a node selector, plus the kept edges
    /// for a node selector under a difference event. The other side's keep
    /// set is unspecified. Recorded as an evaluation.
    ///
    /// # Panics
    /// Panics if `(i, j)` is outside the domain's chain table.
    pub fn mask_chain_pair(&mut self, i: usize, j: usize) -> &EventMask {
        self.seek(i, j);
        let _eval_span = metrics::EXPLORE_EVAL_NS.span();
        metrics::EXPLORE_EVALUATIONS.inc();
        self.keep_words(true);
        &self.mask
    }
}

#[cfg(test)]
mod tests {
    use super::super::engine::chain;
    use super::super::kernel::evaluate_pair_materialized;
    use super::*;
    use crate::explore::{ExploreConfig, Selector};
    use tempo_graph::fixtures::fig1;

    /// Jumping straight to the deepest pair (the intersection-increasing
    /// strategy) and jumping backward (chain reload) both stay correct.
    /// Every coordinate of every strategy row is checked against the oracle
    /// on random graphs in `tests/kernel_equivalence.rs`.
    #[test]
    fn cursor_random_access_reloads() {
        let g = fig1();
        let gender = g.schema().id("gender").unwrap();
        let cfg = ExploreConfig {
            event: Event::Stability,
            extend: ExtendSide::New,
            semantics: Semantics::Intersection,
            k: 1,
            attrs: vec![gender],
            selector: Selector::AllEdges,
        };
        let n = g.domain().len();
        let kernel = ExploreKernel::new(&g, &cfg);
        let mut cursor = ChainCursor::new(&kernel);
        let pairs = chain(n, 0, cfg.extend);
        let deep = pairs.len() - 1;
        let expect = |j: usize| {
            evaluate_pair_materialized(&g, &cfg, &pairs[j].told, &pairs[j].tnew).unwrap()
        };
        // jump straight to the deepest pair, then back to the base pair
        assert_eq!(cursor.evaluate_chain_pair(0, deep), expect(deep));
        assert_eq!(cursor.evaluate_chain_pair(0, 0), expect(0));
        // and the mask's scope matches the reloaded pair
        assert_eq!(
            cursor.mask_chain_pair(0, 0).scope(),
            &pairs[0].told.union(&pairs[0].tnew)
        );
    }
}
