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
//! [`ChainCursor`] is the one per-run object of an exploration: it takes
//! the snapshot's cached [`GroupTable`] for the run's attribute list,
//! resolves the selector once (a tuple to the snapshot's cached match
//! columns, a tuple that occurs nowhere to a zero count), and holds the
//! selector's side as an extended-side accumulator beside the chain's
//! reference column.
//!
//! Every operand is read only as far as it is stored. A presence column
//! ends at its last non-zero word, and each accumulator carries its own
//! width: a load takes the column's, an OR step the hull of both and an
//! AND step their intersection, so no step touches a word past its
//! operands, and no accumulator is allocated wider than what it holds. The
//! reference column is read in place, and so is the extended side while
//! it is still its base column: the first step copies it, so a chain that
//! never steps copies nothing (a sparse column is copied on load). The
//! match vector is allocated on first write, and so is the keep set, once
//! per run: as wide as the widest column of the selector's side, which no
//! keep set of that side exceeds, so the chains rewrite it in place
//! however their widths grow.
//!
//! An evaluation hands the two sides to [`event_words`], the one writer of
//! Definitions 2.4–2.5; for a node selector under a difference event the
//! kept edges go first, straight into the rescue set of their endpoints.
//! The keep words are then
//! counted — a popcount, within a tuple selector's match vector
//! ([`GroupColumns::match_columns`]; on a list with a time-varying
//! attribute the OR of its per-point columns over the scope) — and written
//! nowhere, except into the cursor's one keep set where it is read: by the
//! All selectors on a time-varying list over several points, by the §3.5
//! scan, which takes the min or max of the kept entities' DIST weights,
//! and by [`ChainCursor::keep_chain_pair`]. The scan's sizing step,
//! `ChainCursor::kept_chain_pair`, counts the keep words with no
//! selection. Counts and keep sets are
//! bit-identical to the materializing oracle at every chain coordinate
//! (property-tested in `tests/kernel_equivalence.rs`).
//!
//! The All selectors on a time-varying list count one per distinct
//! (entity, tuple) over the scope, and walk nothing: every scope the cursor
//! evaluates is an interval `[lo, hi]` (stability `[i, i+1+j]` or
//! `[i−j, i+1]`, growth 𝒯new, shrinkage 𝒯old), and an appearance at `t` is
//! the first of its key there unless the entity showed the key at a point
//! of `[lo, t)`. The snapshot's repeat index of the selector's side
//! ([`GroupColumns::node_repeats`], [`GroupColumns::edge_repeats`], built
//! by the first such count on the snapshot) lists, per point, each
//! appearance that repeats a key with the latest earlier point it showed
//! it at, so with `K` the keep set the count is
//! `Σ_t |K ∧ P_t|` less the entries of the scope's points whose earlier
//! point is at least `lo` and whose entity is in `K`.
//!
//! [`TemporalGraph::node_presence_columns`]: tempo_graph::TemporalGraph::node_presence_columns
//! [`GroupColumns::match_columns`]: tempo_graph::GroupColumns::match_columns
//! [`GroupColumns::node_repeats`]: tempo_graph::GroupColumns::node_repeats
//! [`GroupColumns::edge_repeats`]: tempo_graph::GroupColumns::edge_repeats

use super::{ExploreConfig, ExtendSide, Selector, Semantics};
use crate::aggregate::{AggMode, Edges, GroupTable, Nodes};
use crate::ops::{event_words, Event, WordSink};
use std::sync::Arc;
use tempo_columnar::{BitVec, PresenceColumn, PresenceColumns};
use tempo_graph::{MatchColumns, MatchKey, Repeats, TemporalGraph, TimePoint, TimeSet};
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
    /// counts once per distinct tuple it carries within the scope. Over
    /// several points the snapshot's repeat index of the selector's side
    /// lists the appearances that repeat one; a run that counts none, as
    /// §3.5's scan of one-point scopes, never fetches it.
    Table,
}

impl FastCount {
    fn resolve(g: &TemporalGraph, table: &GroupTable, selector: &Selector) -> FastCount {
        let tuple = |key| FastCount::Pop(Some(table.match_columns(g, key)));
        // A tuple absent from the source graph can never appear in an
        // event graph of it.
        match selector {
            Selector::NodeTuple(t) => table
                .lookup(t)
                .map_or(FastCount::Zero, |gid| tuple(MatchKey::Node(gid))),
            Selector::EdgeTuple(s, d) => match (table.lookup(s), table.lookup(d)) {
                (Some(gs), Some(gd)) => tuple(MatchKey::Edge(gs, gd)),
                _ => FastCount::Zero,
            },
            Selector::AllNodes | Selector::AllEdges if table.is_static() => FastCount::Pop(None),
            Selector::AllNodes | Selector::AllEdges => FastCount::Table,
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

/// The DIST count of the entities of `keep` over `scope`, an interval
/// `[lo, hi]`: their appearances at the scope's points in `presence`, less
/// those that `repeats` lists with an earlier point at or after `lo`.
fn distinct_count(
    presence: &PresenceColumns,
    repeats: &Repeats,
    scope: &TimeSet,
    keep: &BitVec,
) -> u64 {
    let lo = scope.min().map_or(0, TimePoint::index);
    debug_assert!(
        scope
            .max()
            .is_none_or(|hi| hi.index() + 1 - lo == scope.len()),
        "the scope is an interval"
    );
    let kept = |e: u32| (e as usize) < keep.len() && keep.get(e as usize);
    let at = |t: TimePoint| {
        let shown = presence.col(t.index()).count_ones_and_bits(keep);
        let again = repeats.at(t.index()).iter();
        shown
            - again
                .filter(|&&(e, prev)| prev as usize >= lo && kept(e))
                .count()
    };
    scope.iter().map(at).sum::<usize>() as u64
}

/// A column's bits: a dense column's own, a sparse one's from `copy`.
fn in_place<'a>(col: &'a PresenceColumn, copy: &'a BitVec) -> &'a BitVec {
    match col {
        PresenceColumn::Dense(bv) => bv,
        PresenceColumn::Sparse(_) => copy,
    }
}

/// The node or edge side of the loaded chain, each operand at its stored
/// width.
struct Side<'g> {
    cols: &'g PresenceColumns,
    /// The widest stored column: no membership of this side, and so no
    /// keep set of it, is wider.
    widest: usize,
    /// The extended side's one time point, while the chain has not stepped
    /// and the side is that point's column.
    base: Option<usize>,
    /// Extended-side membership once the chain steps (`|=` under union,
    /// `&=` under intersection, one presence column per step), or a sparse
    /// base column's copy.
    ext: BitVec,
    /// Time point of the fixed reference side.
    ref_t: usize,
    /// A sparse reference column's copy.
    reference: BitVec,
}

impl<'g> Side<'g> {
    fn new(cols: &'g PresenceColumns) -> Self {
        Side {
            cols,
            widest: (0..cols.n_cols())
                .map(|t| cols.col(t).len())
                .max()
                .unwrap_or(0),
            base: None,
            ext: BitVec::zeros(0),
            ref_t: 0,
            reference: BitVec::zeros(0),
        }
    }

    /// Loads a chain's base pair: the extended side is point `ext_t`, the
    /// reference point `ref_t`. Both are read in place; only a sparse
    /// column is copied.
    fn load(&mut self, ext_t: usize, ref_t: usize) {
        (self.base, self.ref_t) = (Some(ext_t), ref_t);
        for (t, copy) in [(ext_t, &mut self.ext), (ref_t, &mut self.reference)] {
            if self.cols.col(t).is_sparse() {
                self.cols.col(t).copy_into(copy);
            }
        }
    }

    /// Folds point `t` into the extended side, which the first step copies
    /// from its base column (a sparse one is already in `ext`).
    fn extend(&mut self, t: usize, semantics: Semantics) {
        let cols = self.cols;
        if let Some(base) = self.base.take().filter(|&b| !cols.col(b).is_sparse()) {
            cols.col(base).copy_into(&mut self.ext);
        }
        match semantics {
            Semantics::Union => self.cols.col(t).or_into(&mut self.ext),
            Semantics::Intersection => self.cols.col(t).and_assign_into(&mut self.ext),
        }
        debug_assert_eq!(self.ext.check_invariants(), Ok(()));
    }

    /// The `(𝒯old, 𝒯new)` members of the current pair.
    fn old_new(&self, extend: ExtendSide) -> (&BitVec, &BitVec) {
        let reference = in_place(self.cols.col(self.ref_t), &self.reference);
        let ext = match self.base {
            Some(t) => in_place(self.cols.col(t), &self.ext),
            None => &self.ext,
        };
        match extend {
            ExtendSide::New => (reference, ext),
            ExtendSide::Old => (ext, reference),
        }
    }
}

/// Incremental evaluator for the pairs of one reference chain at a time.
///
/// Built once per exploration run or threshold scan and driven forward
/// through `(i, j)` chain coordinates by
/// [`ChainCursor::evaluate_chain_pair`]. Every evaluation is recorded in
/// `explore.evaluations` / `eval_ns`.
pub struct ChainCursor<'g> {
    g: &'g TemporalGraph,
    cfg: &'g ExploreConfig,
    /// The snapshot's cached group table for `cfg.attrs`.
    table: GroupTable,
    /// Domain length.
    n: usize,
    /// The selector's side: nodes for a node selector, edges for an edge
    /// selector.
    side: Side<'g>,
    /// The edge side of a node selector under a difference event: kept
    /// edges rescue their endpoints (Definition 2.5).
    rescuing: Option<Side<'g>>,
    fast: FastCount,
    /// Reference index of the chain currently loaded, if any.
    current_ref: Option<usize>,
    /// Steps taken from the base pair (chain coordinate `j`).
    step: usize,
    /// The event graph's time scope for the current pair.
    scope: TimeSet,
    /// OR of the selector's per-point match columns over the scope, at its
    /// stored width (empty unless the selector has
    /// [`MatchColumns::PerPoint`] columns).
    scope_match: BitVec,
    /// The selector's side's keep set of the last stored pair, at its
    /// stored width, rewritten in place in one allocation as wide as the
    /// side's widest column.
    keep: BitVec,
    /// The nodes the kept edges rescue (Definition 2.5).
    incident: BitVec,
}

impl<'g> ChainCursor<'g> {
    /// Builds the cursor for one exploration run: takes the snapshot's
    /// cached group table for `cfg.attrs`, resolves the selector to group
    /// ids (building a tuple selector's match columns on first use per
    /// snapshot) and borrows the graph's presence columns.
    ///
    /// # Panics
    /// Panics if any attribute id is not from `g`'s schema.
    pub fn new(g: &'g TemporalGraph, cfg: &'g ExploreConfig) -> Self {
        let _span = metrics::EXPLORE_CURSOR_BUILD_NS.span();
        metrics::EXPLORE_CURSOR_BUILDS.inc();
        let table = GroupTable::cached(g, &cfg.attrs);
        let fast = FastCount::resolve(g, &table, &cfg.selector);
        let (side, rescuing) = if cfg.selector.is_edge() {
            (Side::new(g.edge_presence_columns()), None)
        } else {
            let rescues = cfg.event != Event::Stability;
            let edges = rescues.then(|| Side::new(g.edge_presence_columns()));
            (Side::new(g.node_presence_columns()), edges)
        };
        ChainCursor {
            g,
            cfg,
            table,
            n: g.domain().len(),
            side,
            incident: BitVec::zeros(if rescuing.is_some() { g.n_nodes() } else { 0 }),
            rescuing,
            fast,
            current_ref: None,
            step: 0,
            scope: TimeSet::empty(g.domain().len()),
            scope_match: BitVec::zeros(0),
            keep: BitVec::zeros(0),
        }
    }

    /// The sides an evaluation reads.
    fn sides(&mut self) -> impl Iterator<Item = &mut Side<'g>> {
        std::iter::once(&mut self.side).chain(self.rescuing.as_mut())
    }

    /// Adds time point `t` to the scope, and the entities the selector
    /// matches at `t` to the scope's match vector.
    fn grow_scope(&mut self, t: usize) {
        self.scope.insert(TimePoint(t as u32));
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
        let (ext_t0, ref_t) = match self.cfg.extend {
            ExtendSide::New => (i + 1, i),
            ExtendSide::Old => (i, i + 1),
        };
        for side in self.sides() {
            side.load(ext_t0, ref_t);
        }
        // Base scope per event: stability spans both sides, growth lives in
        // 𝒯new, shrinkage in 𝒯old.
        self.scope.clear();
        self.scope_match.set_words(0, []);
        match self.cfg.event {
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
        let t_added = match self.cfg.extend {
            ExtendSide::New => i + 1 + self.step,
            ExtendSide::Old => i
                .checked_sub(self.step)
                .expect("invariant: chain length caps steps so the old side never passes t0"),
        };
        assert!(
            t_added < self.n,
            "new side extends at most to the domain end"
        );
        let semantics = self.cfg.semantics;
        for side in self.sides() {
            side.extend(t_added, semantics);
        }
        // The scope follows the side(s) the event draws its timestamps
        // from, so it only grows when that side is the extended one.
        let scope_tracks_ext = match self.cfg.event {
            Event::Stability => true,
            Event::Growth => self.cfg.extend == ExtendSide::New,
            Event::Shrinkage => self.cfg.extend == ExtendSide::Old,
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

    /// Runs [`event_words`] on the current pair: first, for a node selector
    /// under a difference event, on the edges, whose kept words go straight
    /// into the rescue set; then on the selector's side. With `store`, its
    /// keep words are written into the keep set and 0 is returned;
    /// otherwise they are counted, within a tuple selector's match vector,
    /// and nothing is written.
    fn keep_words(&mut self, store: bool) -> u64 {
        let (event, extend) = (self.cfg.event, self.cfg.extend);
        if let Some(edges) = &self.rescuing {
            let (old, new) = edges.old_new(extend);
            let sink = WordSink::Rescue(self.g, &mut self.incident);
            event_words(event, old, new, None, sink);
        }
        let rescued = self.rescuing.is_some().then_some(&self.incident);
        let sel = match &self.fast {
            FastCount::Pop(Some(m)) => Some(selection(m, &self.scope_match)),
            _ => None,
        };
        let sink = if store {
            self.keep.reserve(self.side.widest);
            WordSink::Store(&mut self.keep)
        } else {
            WordSink::Count(sel)
        };
        let (old, new) = self.side.old_new(extend);
        event_words(event, old, new, rescued, sink)
    }

    /// Folds `f` over the non-zero DIST weights of the stored keep set over
    /// the scope: one weight per group id for a node selector, per ordered
    /// pair of group ids for an edge selector. §3.5 takes their min or max.
    pub(super) fn fold_weights<B>(&self, init: B, f: impl FnMut(B, u64) -> B) -> B {
        let (g, scope, keep, dist) = (self.g, &self.scope, Some(&self.keep), AggMode::Distinct);
        if self.cfg.selector.is_edge() {
            let weights = self.table.edge_weights(g, scope, keep, dist);
            weights.nonzero().map(|(_, w)| w).fold(init, f)
        } else {
            let weights = self.table.node_weights(g, scope, keep, dist);
            weights.into_iter().filter(|&w| w > 0).fold(init, f)
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
        self.seek(i, j);
        let _eval_span = metrics::EXPLORE_EVAL_NS.span();
        metrics::EXPLORE_EVALUATIONS.inc();
        match &self.fast {
            FastCount::Zero => return 0,
            FastCount::Table if self.scope.len() > 1 => {}
            // every kept entity counts once; over a single point that holds
            // for a time-varying list too
            _ => return self.keep_words(false),
        }
        // built on the snapshot's first multi-point count, then shared
        let repeats = if self.cfg.selector.is_edge() {
            self.table.repeats(Edges(self.g))
        } else {
            self.table.repeats(Nodes(self.g))
        };
        self.keep_words(true);
        distinct_count(self.side.cols, &repeats, &self.scope, &self.keep)
    }

    /// The keep-only step: positions the cursor on chain pair `(i, j)` as
    /// [`evaluate_chain_pair`](Self::evaluate_chain_pair) does, stores the
    /// keep set of the selector's side (kept edges for an edge selector,
    /// kept nodes for a node selector) and returns it with the pair's scope,
    /// without counting anything. Recorded as an evaluation.
    ///
    /// # Panics
    /// Panics if `(i, j)` is outside the domain's chain table.
    pub fn keep_chain_pair(&mut self, i: usize, j: usize) -> (&TimeSet, &BitVec) {
        self.seek(i, j);
        let _eval_span = metrics::EXPLORE_EVAL_NS.span();
        metrics::EXPLORE_EVALUATIONS.inc();
        self.keep_words(true);
        (&self.scope, &self.keep)
    }

    /// The sizing step of an All selector: positions the cursor on chain
    /// pair `(i, j)` as [`evaluate_chain_pair`](Self::evaluate_chain_pair)
    /// does and returns `|K|`, the number of entities the selector's side
    /// keeps there, rescued nodes included. It stores nothing and reads no
    /// repeat index. No DIST weight of the pair exceeds `|K|`, since each
    /// kept entity counts at most once per key. Recorded as an evaluation.
    ///
    /// # Panics
    /// Panics if `(i, j)` is outside the domain's chain table.
    pub(super) fn kept_chain_pair(&mut self, i: usize, j: usize) -> u64 {
        debug_assert!(
            matches!(self.cfg.selector, Selector::AllNodes | Selector::AllEdges),
            "a tuple selector's count is taken within its match vector"
        );
        self.seek(i, j);
        let _eval_span = metrics::EXPLORE_EVAL_NS.span();
        metrics::EXPLORE_EVALUATIONS.inc();
        self.keep_words(false)
    }
}

#[cfg(test)]
mod tests {
    use super::super::engine::chain;
    use super::*;
    use crate::explore::evaluate_pair_materialized;
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
        let mut cursor = ChainCursor::new(&g, &cfg);
        let pairs = chain(n, 0, cfg.extend);
        let deep = pairs.len() - 1;
        let expect = |j: usize| {
            evaluate_pair_materialized(&g, &cfg, &pairs[j].told, &pairs[j].tnew).unwrap()
        };
        // jump straight to the deepest pair, then back to the base pair
        assert_eq!(cursor.evaluate_chain_pair(0, deep), expect(deep));
        assert_eq!(cursor.evaluate_chain_pair(0, 0), expect(0));
        // and the scope matches the reloaded pair
        assert_eq!(
            cursor.keep_chain_pair(0, 0).0,
            &pairs[0].told.union(&pairs[0].tnew)
        );
    }
}
