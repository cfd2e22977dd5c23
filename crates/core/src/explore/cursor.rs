//! Chain-incremental pair evaluation over the transposed presence index.
//!
//! Deriving both sides' memberships from scratch for an interval pair
//! walks every node and edge row and tests it against 𝒯old and 𝒯new
//! (`O(rows × interval-words)`). But exploration never evaluates arbitrary
//! pairs — it walks *chains*. Within the chain of reference `i`, one side
//! is the fixed point `i` (or `i+1`) and the other grows by exactly one
//! time point per step. Membership under
//! union semantics therefore evolves as `acc |= column[t]`; under
//! intersection as `acc &= column[t]` — a whole-vector OR/AND against one
//! column of the transposed presence index
//! ([`TemporalGraph::node_presence_columns`]), i.e. `O(entity-words)` per
//! step independent of interval length.
//!
//! [`ChainCursor`] holds those accumulators plus a reusable
//! [`EventMask`], and emits each step's mask with whole-vector AND/ANDNOT
//! (including the Definition-2.5 incident-node fix-up, recomputed only over
//! the kept-edge set bits). For static group tables it also resolves the
//! count to a precomputed target bitmask, so a full evaluation is a
//! popcount — no per-entity scan at all. A counting cursor
//! ([`ChainCursor::new_counting`], what the engine drives) goes one step
//! further and fuses the membership test into the count: a stability
//! evaluation is one `popcount(ref & ext [& target])` sweep and a difference
//! evaluation one `popcount(keep & (!drop | incident) [& target])` sweep,
//! with no node keep-mask write at all. Both cursor modes are bit-identical
//! to the materializing oracle at every chain coordinate (property-tested
//! in `tests/kernel_equivalence.rs`).

use super::kernel::ExploreKernel;
use super::{ExtendSide, Semantics};
use crate::aggregate::CountTarget;
use crate::ops::{Event, EventMask};
use tempo_columnar::{BitVec, TransposedBitMatrix};
use tempo_graph::{EdgeId, TimePoint};

/// How the cursor turns a finished [`EventMask`] into `result(G)`.
///
/// With a static group table every entity keeps one group id for the whole
/// domain, so the distinct count over any scope collapses to a popcount of
/// the kept mask (optionally intersected with a precomputed target mask).
/// Time-varying tables fall back to [`GroupTable::count_distinct`]
/// (`Table`), which scans kept entities.
///
/// [`GroupTable::count_distinct`]: crate::aggregate::GroupTable::count_distinct
enum FastCount {
    /// Selector tuple occurs nowhere in the source graph — always 0.
    Zero,
    /// Static table + all-nodes selector: popcount of kept nodes.
    PopNodes,
    /// Static table + all-edges selector: popcount of kept edges.
    PopEdges,
    /// Static table + one node tuple: popcount of kept ∧ target mask.
    NodesMatch(BitVec),
    /// Static table + one edge tuple pair: popcount of kept ∧ target mask.
    EdgesMatch(BitVec),
    /// Time-varying table: defer to the general distinct scan.
    Table,
}

impl FastCount {
    fn resolve(kernel: &ExploreKernel<'_>) -> FastCount {
        let g = kernel.g;
        match (&kernel.target, kernel.table.is_static()) {
            // A tuple absent from the source graph can never appear in an
            // event graph of it (same shortcut as count_distinct).
            (CountTarget::Node(None), _) | (CountTarget::Edge(None), _) => FastCount::Zero,
            (_, false) => FastCount::Table,
            (CountTarget::AllNodes, true) => FastCount::PopNodes,
            (CountTarget::AllEdges, true) => FastCount::PopEdges,
            (CountTarget::Node(Some(gid)), true) => {
                let mut m = BitVec::zeros(g.n_nodes());
                for n in 0..g.n_nodes() {
                    if kernel.table.gid_at(n, 0) == Some(*gid) {
                        m.set(n, true);
                    }
                }
                FastCount::NodesMatch(m)
            }
            (CountTarget::Edge(Some((gs, gd))), true) => {
                let mut m = BitVec::zeros(g.n_edges());
                for e in 0..g.n_edges() {
                    let (u, v) = g.edge_endpoints(EdgeId(e as u32));
                    if kernel.table.gid_at(u.index(), 0) == Some(*gs)
                        && kernel.table.gid_at(v.index(), 0) == Some(*gd)
                    {
                        m.set(e, true);
                    }
                }
                FastCount::EdgesMatch(m)
            }
        }
    }
}

/// Incremental evaluator for the pairs of one reference chain at a time.
///
/// Built once per exploration run and driven forward through `(i, j)`
/// chain coordinates by [`ChainCursor::evaluate_chain_pair`]. Every
/// evaluation is recorded in `explore.evaluations` / `eval_ns`; the
/// masking cursor also splits it into `mask_ns` / `count_ns`.
pub struct ChainCursor<'k, 'g> {
    kernel: &'k ExploreKernel<'g>,
    node_cols: &'g TransposedBitMatrix,
    edge_cols: &'g TransposedBitMatrix,
    /// Domain length.
    n: usize,
    fast: FastCount,
    /// Reference index of the chain currently loaded, if any.
    current_ref: Option<usize>,
    /// Steps taken from the base pair (chain coordinate `j`).
    step: usize,
    /// Time point of the fixed reference side of the loaded chain.
    ref_t: usize,
    /// Extended-side membership accumulators (`|=` under union, `&=` under
    /// intersection, one transposed column per step).
    ext_nodes: BitVec,
    ext_edges: BitVec,
    /// Reusable output mask, rewritten in place per evaluation.
    mask: EventMask,
    /// Scratch for the Definition-2.5 incident-node fix-up.
    incident: BitVec,
    /// Node ids currently set in `incident`, so the next evaluation clears
    /// only those bits (`O(kept edges)`) instead of the whole vector.
    incident_touched: Vec<u32>,
    /// Dedup scratches for the time-varying distinct count, hoisted so
    /// the whole run reuses one pair of buffers.
    seen_gids: Vec<u32>,
    seen_pairs: Vec<(u32, u32)>,
    /// Count-only mode ([`new_counting`](Self::new_counting)): popcount
    /// selectors fuse the membership test and the count into one
    /// word-parallel (or sparse-probe) pass, skipping the node keep-mask
    /// write entirely. [`last_mask`](Self::last_mask) is then not
    /// meaningful, so the mode is opt-in.
    count_only: bool,
    ins_chains: std::sync::Arc<tempo_instrument::Counter>,
    ins_steps: std::sync::Arc<tempo_instrument::Counter>,
    ins_step_ns: std::sync::Arc<tempo_instrument::Histogram>,
}

impl<'k, 'g> ChainCursor<'k, 'g> {
    /// Builds a cursor over a shared kernel: borrows (building on first use)
    /// the graph's transposed presence indexes and resolves the fast count
    /// path for the kernel's target. Every evaluation materializes the full
    /// [`EventMask`], so [`last_mask`](Self::last_mask) is valid after each
    /// call.
    pub fn new(kernel: &'k ExploreKernel<'g>) -> Self {
        Self::build(kernel, false)
    }

    /// [`new`](Self::new), but for callers that only read the returned
    /// counts (the exploration engine): popcount-style selectors are
    /// evaluated as one fused membership-and-count pass with no node
    /// keep-mask write. [`last_mask`](Self::last_mask) contents are
    /// unspecified on this cursor.
    pub fn new_counting(kernel: &'k ExploreKernel<'g>) -> Self {
        Self::build(kernel, true)
    }

    fn build(kernel: &'k ExploreKernel<'g>, count_only: bool) -> Self {
        let ins = tempo_instrument::global();
        ins.counter("explore.cursor.builds").inc();
        let g = kernel.g;
        ChainCursor {
            kernel,
            node_cols: g.node_presence_columns(),
            edge_cols: g.edge_presence_columns(),
            n: g.domain().len(),
            fast: FastCount::resolve(kernel),
            current_ref: None,
            step: 0,
            ref_t: 0,
            ext_nodes: BitVec::zeros(g.n_nodes()),
            ext_edges: BitVec::zeros(g.n_edges()),
            mask: EventMask::cleared(g),
            incident: BitVec::zeros(g.n_nodes()),
            incident_touched: Vec::new(),
            seen_gids: Vec::new(),
            seen_pairs: Vec::new(),
            count_only,
            ins_chains: ins.counter("explore.cursor.chains"),
            ins_steps: ins.counter("explore.cursor.steps"),
            ins_step_ns: ins.histogram("explore.cursor.step_ns"),
        }
    }

    /// Loads the chain of reference `i` at its base pair `({i}, {i+1})`.
    fn start_chain(&mut self, i: usize) {
        assert!(i + 1 < self.n, "reference {i} out of domain {}", self.n);
        self.ins_chains.inc();
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
        match self.kernel.cfg.event {
            Event::Stability => {
                scope.insert(TimePoint(i as u32));
                scope.insert(TimePoint((i + 1) as u32));
            }
            Event::Growth => scope.insert(TimePoint((i + 1) as u32)),
            Event::Shrinkage => scope.insert(TimePoint(i as u32)),
        }
    }

    /// Extends the loaded chain by one time point: one whole-vector OR/AND
    /// against the added point's transposed columns.
    fn advance(&mut self) {
        let i = self
            .current_ref
            .expect("invariant: start_chain loads a reference before advance");
        let _span = self.ins_step_ns.span();
        self.ins_steps.inc();
        self.step += 1;
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
            let (_, _, scope) = self.mask.parts_mut();
            scope.insert(TimePoint(t_added as u32));
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

    /// Rebuilds the Definition-2.5 incident-endpoint rescue set from the
    /// kept edges in `mask`, clearing only the bits the previous rebuild
    /// set (`O(kept edges)` instead of an `O(nodes)` vector clear).
    fn rebuild_incident(&mut self) {
        for &i in &self.incident_touched {
            self.incident.set(i as usize, false);
        }
        self.incident_touched.clear();
        let g = self.kernel.g;
        for e in self.mask.keep_edges().iter_ones() {
            let (u, v) = g.edge_endpoints(EdgeId(e as u32));
            self.incident.set(u.index(), true);
            self.incident.set(v.index(), true);
            self.incident_touched.push(u.index() as u32);
            self.incident_touched.push(v.index() as u32);
        }
    }

    /// Count-only fast paths: membership test and count fused into one
    /// word-parallel (or sparse ID-probe) pass over the node dimension —
    /// the node keep mask is never materialized. Difference events still
    /// write the kept-*edge* mask (the incident fix-up iterates its set
    /// bits, and edges are the short dimension here). Returns `None` when
    /// the target genuinely needs the materialized mask (time-varying
    /// group tables).
    fn fused_count(&mut self) -> Option<u64> {
        match self.fast {
            FastCount::Zero => return Some(0),
            FastCount::Table => return None,
            _ => {}
        }
        let ref_nodes = self.node_cols.col(self.ref_t);
        let ref_edges = self.edge_cols.col(self.ref_t);
        match self.kernel.cfg.event {
            Event::Stability => Some(match &self.fast {
                FastCount::PopNodes => ref_nodes.count_ones_and_dense(&self.ext_nodes) as u64,
                FastCount::PopEdges => ref_edges.count_ones_and_dense(&self.ext_edges) as u64,
                FastCount::NodesMatch(m) => ref_nodes.count_ones_and2(&self.ext_nodes, m) as u64,
                FastCount::EdgesMatch(m) => ref_edges.count_ones_and2(&self.ext_edges, m) as u64,
                FastCount::Zero | FastCount::Table => unreachable!("returned above"),
            }),
            Event::Growth | Event::Shrinkage => {
                let ref_is_keep = self.ref_is_keep();
                {
                    let (_, keep_edges, _) = self.mask.parts_mut();
                    if ref_is_keep {
                        ref_edges.and_not_into(&self.ext_edges, keep_edges);
                    } else {
                        ref_edges.and_not_from(&self.ext_edges, keep_edges);
                    }
                }
                match &self.fast {
                    FastCount::PopEdges => return Some(self.mask.keep_edges().count_ones() as u64),
                    FastCount::EdgesMatch(m) => {
                        return Some(self.mask.keep_edges().count_ones_and(m) as u64)
                    }
                    _ => {}
                }
                self.rebuild_incident();
                let sel = match &self.fast {
                    FastCount::NodesMatch(m) => Some(m),
                    _ => None,
                };
                Some(if ref_is_keep {
                    ref_nodes.count_difference_keep(&self.ext_nodes, &self.incident, sel) as u64
                } else {
                    ref_nodes.count_difference_drop(&self.ext_nodes, &self.incident, sel) as u64
                })
            }
        }
    }

    /// Rewrites the mask for the current pair and counts the target:
    /// whole-vector AND/ANDNOT for membership, set-bit iteration only for
    /// the kept edges' endpoints (Definition 2.5), then the fast count. On
    /// a counting cursor the popcount targets take the fused path instead
    /// (no mask write; fused evaluations record `eval_ns` but not the
    /// `mask_ns`/`count_ns` split).
    fn evaluate_current(&mut self) -> u64 {
        let _eval_span = self.kernel.ins_eval_ns.span();
        self.kernel.ins_evals.inc();
        if self.count_only {
            if let Some(count) = self.fused_count() {
                return count;
            }
        }
        {
            let _mask_span = self.kernel.ins_mask_ns.span();
            // One pair side is always the fixed reference column (dense or
            // sparse); the other is the dense extension accumulator. Every
            // op below lets the column pick its own fold.
            let ref_nodes = self.node_cols.col(self.ref_t);
            let ref_edges = self.edge_cols.col(self.ref_t);
            match self.kernel.cfg.event {
                Event::Stability => {
                    let (keep_nodes, keep_edges, _) = self.mask.parts_mut();
                    // AND is commutative, so which side is old/new is moot.
                    ref_nodes.and_into(&self.ext_nodes, keep_nodes);
                    ref_edges.and_into(&self.ext_edges, keep_edges);
                }
                Event::Growth | Event::Shrinkage => {
                    // Kept edges are member of the keep side and not of the
                    // drop side; kept nodes likewise, except a node incident
                    // to a kept edge is kept regardless of the drop test
                    // (Definition 2.5).
                    let ref_is_keep = self.ref_is_keep();
                    {
                        let (_, keep_edges, _) = self.mask.parts_mut();
                        if ref_is_keep {
                            ref_edges.and_not_into(&self.ext_edges, keep_edges);
                        } else {
                            ref_edges.and_not_from(&self.ext_edges, keep_edges);
                        }
                    }
                    self.rebuild_incident();
                    let (keep_nodes, _, _) = self.mask.parts_mut();
                    if ref_is_keep {
                        ref_nodes.and_not_into(&self.ext_nodes, keep_nodes);
                        ref_nodes.or_and_into(&self.incident, keep_nodes);
                    } else {
                        ref_nodes.and_not_from(&self.ext_nodes, keep_nodes);
                        keep_nodes.or_and_assign(&self.incident, &self.ext_nodes);
                    }
                }
            }
            debug_assert_eq!(self.mask.keep_nodes().check_invariants(), Ok(()));
            debug_assert_eq!(self.mask.keep_edges().check_invariants(), Ok(()));
        }
        let _count_span = self.kernel.ins_count_ns.span();
        match &self.fast {
            FastCount::Zero => 0,
            FastCount::PopNodes => self.mask.keep_nodes().count_ones() as u64,
            FastCount::PopEdges => self.mask.keep_edges().count_ones() as u64,
            FastCount::NodesMatch(m) => self.mask.keep_nodes().count_ones_and(m) as u64,
            FastCount::EdgesMatch(m) => self.mask.keep_edges().count_ones_and(m) as u64,
            FastCount::Table => self.kernel.table.count_distinct_with_scratch(
                self.kernel.g,
                &self.mask,
                &self.kernel.target,
                &mut self.seen_gids,
                &mut self.seen_pairs,
            ),
        }
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
        if self.current_ref != Some(i) || j < self.step {
            self.start_chain(i);
        }
        while self.step < j {
            self.advance();
        }
        self.evaluate_current()
    }

    /// The mask of the most recent evaluation (event membership + scope).
    pub fn last_mask(&self) -> &EventMask {
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
        // and the last mask's scope matches the reloaded pair
        assert_eq!(
            cursor.last_mask().scope(),
            &pairs[0].told.union(&pairs[0].tnew)
        );
    }
}
