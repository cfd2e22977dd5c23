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
//! [`ChainCursor`] holds those accumulators and evaluates a pair in two
//! steps, mask then count. The mask step writes the keep set of the side
//! the selector reads — `ref & ext` for stability, `keep & !drop` for a
//! difference event, whose node side also takes the Definition-2.5
//! endpoints of the kept edges (recomputed only over the kept-edge set
//! bits). The count step is a popcount of that keep set, intersected with
//! a tuple selector's cached match vector
//! ([`GroupColumns::match_columns`]: the vector itself on an all-static
//! attribute list, and on a list with a time-varying attribute the OR of
//! its per-point columns over the scope, folded one column at a time
//! wherever the scope grows). Only the All selectors on a time-varying list
//! over a scope of several points — where one entity can carry several
//! tuples — count with the group table's column-major walk
//! ([`GroupTable::count_distinct`]). [`ChainCursor::mask_chain_pair`] is
//! the mask step alone, for callers that aggregate the event themselves.
//! Both are bit-identical to the materializing oracle at every chain
//! coordinate (property-tested in `tests/kernel_equivalence.rs`).
//!
//! [`GroupColumns::match_columns`]: tempo_graph::GroupColumns::match_columns
//! [`GroupTable::count_distinct`]: crate::aggregate::GroupTable::count_distinct

use super::kernel::ExploreKernel;
use super::{ExtendSide, Semantics};
use crate::aggregate::CountTarget;
use crate::ops::{Event, EventMask};
use std::sync::Arc;
use tempo_columnar::{BitVec, PresenceColumn, PresenceColumns};
use tempo_graph::{EdgeId, MatchColumns, MatchKey, TemporalGraph, TimePoint};
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

/// Incremental evaluator for the pairs of one reference chain at a time.
///
/// Built once per exploration run and driven forward through `(i, j)`
/// chain coordinates by [`ChainCursor::evaluate_chain_pair`]. Every
/// evaluation is recorded in `explore.evaluations` / `eval_ns`, and split
/// into `mask_ns` / `count_ns` unless the selector's tuple occurs nowhere.
pub struct ChainCursor<'k, 'g> {
    kernel: &'k ExploreKernel<'g>,
    node_cols: &'g PresenceColumns,
    edge_cols: &'g PresenceColumns,
    /// Domain length.
    n: usize,
    /// Whether the selector counts edges; a node selector under a
    /// difference event also needs the kept edges, which rescue their
    /// endpoints (Definition 2.5).
    edges: bool,
    fast: FastCount,
    /// Reference index of the chain currently loaded, if any.
    current_ref: Option<usize>,
    /// Steps taken from the base pair (chain coordinate `j`).
    step: usize,
    /// Time point of the fixed reference side of the loaded chain.
    ref_t: usize,
    /// Extended-side membership accumulators (`|=` under union, `&=` under
    /// intersection, one presence column per step).
    ext_nodes: BitVec,
    ext_edges: BitVec,
    /// OR of the selector's per-point match columns over the mask's scope
    /// (empty unless the selector has [`MatchColumns::PerPoint`] columns).
    scope_match: BitVec,
    /// Reusable output mask, rewritten in place. The scope is kept current
    /// for every pair; the keep sets `write_mask` writes
    /// are those of the pair once it is evaluated.
    mask: EventMask,
    /// Scratch for the Definition-2.5 incident-node fix-up.
    incident: BitVec,
    /// Node ids currently set in `incident`, so the next evaluation clears
    /// only those bits (`O(kept edges)`) instead of the whole vector.
    incident_touched: Vec<u32>,
}

impl<'k, 'g> ChainCursor<'k, 'g> {
    /// Builds a cursor over a shared kernel: borrows the graph's presence
    /// columns and (building on first use) the selector's cached match
    /// columns.
    pub fn new(kernel: &'k ExploreKernel<'g>) -> Self {
        metrics::EXPLORE_CURSOR_BUILDS.inc();
        let g = kernel.g;
        let edges = kernel.cfg.selector.is_edge();
        let fast = FastCount::resolve(kernel);
        let scope_match = match &fast {
            FastCount::Pop(Some(m)) if matches!(**m, MatchColumns::PerPoint(_)) => {
                BitVec::zeros(if edges { g.n_edges() } else { g.n_nodes() })
            }
            _ => BitVec::zeros(0),
        };
        ChainCursor {
            kernel,
            node_cols: g.node_presence_columns(),
            edge_cols: g.edge_presence_columns(),
            n: g.domain().len(),
            edges,
            fast,
            current_ref: None,
            step: 0,
            ref_t: 0,
            ext_nodes: BitVec::zeros(g.n_nodes()),
            ext_edges: BitVec::zeros(g.n_edges()),
            scope_match,
            mask: EventMask::cleared(g),
            incident: BitVec::zeros(g.n_nodes()),
            incident_touched: Vec::new(),
        }
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
        self.ref_t = ref_t;
        self.node_cols.col(ext_t0).copy_into(&mut self.ext_nodes);
        self.edge_cols.col(ext_t0).copy_into(&mut self.ext_edges);
        debug_assert_eq!(self.ext_nodes.check_invariants(), Ok(()));
        debug_assert_eq!(self.ext_edges.check_invariants(), Ok(()));
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
    /// against the added point's presence columns.
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
        let (node_col, edge_col) = (self.node_cols.col(t_added), self.edge_cols.col(t_added));
        match self.kernel.cfg.semantics {
            Semantics::Union => {
                node_col.or_into(&mut self.ext_nodes);
                edge_col.or_into(&mut self.ext_edges);
            }
            Semantics::Intersection => {
                node_col.and_assign_into(&mut self.ext_nodes);
                edge_col.and_assign_into(&mut self.ext_edges);
            }
        }
        debug_assert_eq!(self.ext_nodes.check_invariants(), Ok(()));
        debug_assert_eq!(self.ext_edges.check_invariants(), Ok(()));
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

    /// Whether the current config keeps the reference column's side of the
    /// pair under a difference event (growth keeps 𝒯new, shrinkage keeps
    /// 𝒯old; the reference column holds the old side under
    /// `ExtendSide::New` and the new side under `Old`).
    fn ref_is_keep(&self) -> bool {
        matches!(
            (self.kernel.cfg.event, self.kernel.cfg.extend),
            (Event::Growth, ExtendSide::Old) | (Event::Shrinkage, ExtendSide::New)
        )
    }

    /// Rewrites the mask's keep sets for the current pair: whole-vector
    /// AND/ANDNOT for membership, set-bit iteration only for the kept edges'
    /// endpoints (Definition 2.5). Only the side the selector reads is
    /// written, except that a node selector under a difference event also
    /// needs the kept edges, which rescue their endpoints.
    fn write_mask(&mut self) {
        let nodes = !self.edges;
        let _mask_span = metrics::EXPLORE_MASK_NS.span();
        // One pair side is always the fixed reference column (dense or
        // sparse); the other is the dense extension accumulator. Every op
        // below lets the column pick its own fold.
        let ref_nodes = self.node_cols.col(self.ref_t);
        let ref_edges = self.edge_cols.col(self.ref_t);
        match self.kernel.cfg.event {
            Event::Stability => {
                let (keep_nodes, keep_edges, _) = self.mask.parts_mut();
                // AND is commutative, so which side is old/new is moot, and
                // with no incident rescue the sides are independent.
                if nodes {
                    ref_nodes.and_into(&self.ext_nodes, keep_nodes);
                } else {
                    ref_edges.and_into(&self.ext_edges, keep_edges);
                }
            }
            Event::Growth | Event::Shrinkage => {
                // Kept edges are member of the keep side and not of the
                // drop side; kept nodes likewise, except a node incident
                // to a kept edge is kept regardless of the drop test
                // (Definition 2.5).
                let ref_is_keep = self.ref_is_keep();
                let (keep_nodes, keep_edges, _) = self.mask.parts_mut();
                write_difference(ref_edges, ref_is_keep, &self.ext_edges, keep_edges);
                if nodes {
                    rebuild_incident(
                        self.kernel.g,
                        keep_edges,
                        &mut self.incident,
                        &mut self.incident_touched,
                    );
                    write_difference(ref_nodes, ref_is_keep, &self.ext_nodes, keep_nodes);
                    if ref_is_keep {
                        ref_nodes.or_and_into(&self.incident, keep_nodes);
                    } else {
                        keep_nodes.or_and_assign(&self.incident, &self.ext_nodes);
                    }
                }
            }
        }
        debug_assert_eq!(self.mask.keep_nodes().check_invariants(), Ok(()));
        debug_assert_eq!(self.mask.keep_edges().check_invariants(), Ok(()));
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
        if let FastCount::Zero = self.fast {
            return 0;
        }
        self.write_mask();
        let _count_span = metrics::EXPLORE_COUNT_NS.span();
        let keep = if self.edges {
            self.mask.keep_edges()
        } else {
            self.mask.keep_nodes()
        };
        let kernel = self.kernel;
        match &self.fast {
            FastCount::Pop(Some(m)) => keep.count_ones_and(selection(m, &self.scope_match)) as u64,
            FastCount::Table if self.mask.scope().len() > 1 => {
                kernel
                    .table
                    .count_distinct(kernel.g, &self.mask, &kernel.target)
            }
            // every kept entity counts once; over a single point that holds
            // for a time-varying list too
            _ => keep.count_ones() as u64,
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
        self.write_mask();
        &self.mask
    }
}

/// `out` = the members of a difference event's keep side that are not
/// members of its drop side; `reference` holds the keep side when
/// `ref_is_keep`, the extension accumulator `ext` otherwise.
fn write_difference(reference: &PresenceColumn, ref_is_keep: bool, ext: &BitVec, out: &mut BitVec) {
    if ref_is_keep {
        reference.and_not_into(ext, out);
    } else {
        reference.and_not_from(ext, out);
    }
}

/// Rebuilds the Definition-2.5 incident-endpoint rescue set from the kept
/// edges, clearing only the bits the previous rebuild set (`O(kept edges)`
/// instead of an `O(nodes)` vector clear).
fn rebuild_incident(
    g: &TemporalGraph,
    keep_edges: &BitVec,
    incident: &mut BitVec,
    touched: &mut Vec<u32>,
) {
    for &i in touched.iter() {
        incident.set(i as usize, false);
    }
    touched.clear();
    for e in keep_edges.iter_ones() {
        let (u, v) = g.edge_endpoints(EdgeId(e as u32));
        for n in [u, v] {
            incident.set(n.index(), true);
            touched.push(n.0);
        }
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
