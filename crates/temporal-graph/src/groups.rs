//! Group-id columns: each node's aggregation tuple interned to a dense
//! `u32`, per `(graph, ordered attribute list)`.
//!
//! This is the one lazily built index on a [`TemporalGraph`], read beside
//! its presence columns: read queries
//! (aggregation, evolution, exploration) count group ids into dense
//! accumulators instead of hashing a heap-allocated [`ValueTuple`] per
//! appearance. The columns are derived from the attribute tables only, so
//! they stay valid for as long as the snapshot is immutable. The tables are
//! `pub(crate)` and nothing mutates them in place on a built graph, so
//! changed cells are published at two seams only: the builder (`from_graph`
//! consumes the graph, `build` assembles a new one with empty caches) and
//! `append_timepoint`, which hands the next epoch the previous epoch's
//! columns as bases to extend — and an *empty* [`GroupColumnsCache`] when
//! the patch rewrote a static cell of a node the previous epoch already had.
//!
//! Group ids are laid out like the tables they come from: `Arc`-shared
//! `u32` columns with implicit [`NO_GROUP`] tails, one per time point (one
//! in all when every attribute is static), and [`NO_GROUP`] *is*
//! [`NULL_CODE`]. A list of one time-varying attribute therefore takes the
//! table's own code columns — group id = dictionary code, nothing built,
//! nothing stored — except for a column in which a present node has no
//! value, which is computed like any other list's: the per-attribute codes
//! of each present cell go through one `(codes…) → gid` map. An appended
//! epoch shares every column of the epoch before it and adds the new one.
//!
//! Each [`GroupColumns`] also caches the *match columns* of the tuple
//! selectors explored on it ([`GroupColumns::match_columns`]): which nodes
//! or edges carry one group id (or ordered pair of them), as bit columns an
//! exploration ANDs against its event mask. They are derived from the group
//! ids and the edge list of the one snapshot the columns belong to and live
//! inside them, so they need no seam of their own: they are evicted with
//! their list's [`GROUP_CACHE_CAP`] slot, never reach a mutated clone or a
//! later epoch (whose columns are a new value with an empty cache, filled on
//! first use), and are dropped with the columns by a static rewrite.
//!
//! What a client can pin on one snapshot is bounded: [`GROUP_CACHE_CAP`]
//! lists of at most `nodes × points × 4` bytes of group ids (none for a
//! list of one time-varying attribute, `nodes × 4` for an all-static one),
//! each with at most [`MATCH_CACHE_CAP`] selectors of at most `points ×
//! ⌈max(nodes, edges) / 8⌉` bytes (one column instead of `points` when the
//! list is all-static; under the default
//! [`SparseMode::Auto`](tempo_columnar::SparseMode) a column whose tuple is
//! rare takes the sorted-id form, which is smaller) — at 4× DBLP (131 K
//! nodes, 836 K edges, 21 points) at most 11 MB of ids and 8.8 MB of match
//! columns per list.

use crate::attrs::AttrId;
use crate::graph::{EdgeId, TemporalGraph};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use tempo_columnar::{BitVec, PresenceColumn, Value, ValueMatrix, ValueTuple, NULL_CODE};

/// Sentinel group id: the node is absent at that time point. The same
/// number as the tables' null code, so a code column can serve as a group-id
/// column unchanged.
pub const NO_GROUP: u32 = NULL_CODE;

/// Interned attribute-tuple group ids of one `(graph, attrs)` pair.
///
/// When every attribute is static a node has one id for the whole domain;
/// otherwise one id per present `(node, time)` cell, a column per time
/// point. Ids carry no order a consumer may rely on.
///
/// Immutable after construction and `Sync`: one instance is shared by every
/// request (and worker thread) that aggregates the snapshot on `attrs`.
#[derive(Debug, Default)]
pub struct GroupColumns {
    attr_names: Vec<String>,
    /// Group id → attribute tuple.
    tuples: Vec<ValueTuple>,
    /// Attribute tuple → group id (for resolving selector targets).
    index: HashMap<ValueTuple, u32>,
    /// The same by dictionary codes (for interning cells).
    codes: CodeIndex,
    /// Every attribute is static: `cols` is one column with an id for every
    /// node. Otherwise `cols[t]` holds the ids at time point `t`,
    /// [`NO_GROUP`] where the node is absent and past the column's end.
    all_static: bool,
    cols: Vec<Arc<Vec<u32>>>,
    /// Match columns of the tuple selectors explored on these columns, most
    /// recently used first, at most [`MATCH_CACHE_CAP`].
    matches: Mutex<Vec<(MatchKey, Arc<MatchColumns>)>>,
}

/// The aggregate entity a tuple selector names, by group id.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MatchKey {
    /// One aggregate node.
    Node(u32),
    /// One aggregate edge, as (source, destination).
    Edge(u32, u32),
}

/// Where one tuple selector matches: bit `i` concerns node `i` under a
/// [`MatchKey::Node`] and edge row `i` under a [`MatchKey::Edge`].
#[derive(Debug)]
pub enum MatchColumns {
    /// All-static attribute list: an entity carries the same tuple wherever
    /// it exists, so one vector serves every scope.
    Static(BitVec),
    /// List with a time-varying attribute: column `t` holds the entities
    /// that exist at `t` and carry the tuple there. An entity matches a
    /// scope when it is in the column of any of the scope's points.
    PerPoint(Vec<PresenceColumn>),
}

/// Where one aggregation attribute's cells live: column `slot` of the static
/// table, or (`None`) a time-varying table read at the time point.
struct Source<'g> {
    table: &'g ValueMatrix,
    slot: Option<usize>,
}

/// `(codes…) → gid`, keyed by the attributes' dictionary codes in the
/// snapshot's own tables: a cell is interned by reading `u32`s. Codes keep
/// their meaning along a history, so the map is carried across epochs.
#[derive(Clone, Debug, Default)]
struct CodeIndex {
    /// One-attribute lists: the gid of `code` at `code + 1` (so
    /// [`NULL_CODE`] wraps to slot 0), [`NO_GROUP`] where none is assigned.
    one: Vec<u32>,
    /// Longer lists.
    many: HashMap<Vec<u32>, u32>,
}

impl CodeIndex {
    fn get(&self, key: &[u32]) -> Option<u32> {
        match *key {
            [code] => {
                let gid = self.one.get(code.wrapping_add(1) as usize).copied();
                gid.filter(|&gid| gid != NO_GROUP)
            }
            _ => self.many.get(key).copied(),
        }
    }

    fn insert(&mut self, key: &[u32], gid: u32) {
        if let [code] = *key {
            let at = code.wrapping_add(1) as usize;
            self.one.resize(self.one.len().max(at + 1), NO_GROUP);
            self.one[at] = gid;
        } else {
            self.many.insert(key.to_vec(), gid);
        }
    }
}

impl GroupColumns {
    /// Builds the group-id columns of `g` for the aggregation attributes
    /// `attrs`, bypassing the graph's cache (see
    /// [`TemporalGraph::group_columns`] for the cached form).
    ///
    /// # Panics
    /// Panics if any id is not from `g`'s schema.
    #[must_use]
    pub fn build(g: &TemporalGraph, attrs: &[AttrId]) -> GroupColumns {
        let _span = tempo_instrument::metrics::GROUP_TABLE_BUILD_NS.span();
        tempo_instrument::metrics::GROUP_TABLES_BUILT.inc();
        GroupColumns::default().extended(g, attrs)
    }

    /// Carries columns built on an earlier epoch of `g`'s history forward
    /// to `g`: every old column is shared as it is (group ids are kept) and
    /// only the cells of the appended time points and nodes are interned.
    ///
    /// Sound only while every cell the old columns were derived from is
    /// unchanged in `g`: appends add points and nodes, and
    /// `append_timepoint` drops the cache instead of carrying it when a
    /// patch rewrites a static cell of an existing node. New tuples take
    /// the next free ids, so ids need not match a from-scratch
    /// [`build`](Self::build) — no consumer depends on their order. A
    /// build is the extension of no columns at all.
    pub(crate) fn extended(&self, g: &TemporalGraph, attrs: &[AttrId]) -> GroupColumns {
        let schema = g.schema();
        #[allow(clippy::expect_used)]
        let source = |&a: &AttrId| {
            let slot = schema.static_slot(a);
            let table = match slot {
                Some(_) => g.static_table(),
                None => g.tv_table(a).expect("invariant: static or time-varying"),
            };
            Source { table, slot }
        };
        let sources: Vec<Source<'_>> = attrs.iter().map(source).collect();
        let name = |&a: &AttrId| schema.def(a).name().to_owned();
        let mut next = GroupColumns {
            attr_names: attrs.iter().map(name).collect(),
            tuples: self.tuples.clone(),
            index: self.index.clone(),
            codes: self.codes.clone(),
            all_static: sources.iter().all(|s| s.slot.is_some()),
            cols: self.cols.clone(),
            // derived from this epoch's ids and edges on first use
            matches: Mutex::default(),
        };
        let (n_nodes, nt, nt_old) = (g.n_nodes(), g.domain().len(), self.cols.len());
        // The gid of cell (n, t); its tuple is decoded from this snapshot's
        // dictionaries (which may list values the last epoch's lacked) the
        // first time it shows up.
        let mut key = vec![NULL_CODE; sources.len()];
        let mut last = NO_GROUP; // the gid of `key` as it stands
        let mut gid_at = |next: &mut GroupColumns, n: usize, t: usize| {
            let mut same = last != NO_GROUP;
            for (held, s) in key.iter_mut().zip(&sources) {
                let code = s.table.code(n, s.slot.unwrap_or(t));
                same &= *held == code;
                *held = code;
            }
            if !same {
                last = next.gid(&sources, &key);
            }
            last
        };
        if next.all_static {
            let mut gids = next.cols.pop().map_or_else(Vec::new, |old| old.to_vec());
            debug_assert!(gids.len() <= n_nodes);
            for n in gids.len()..n_nodes {
                gids.push(gid_at(&mut next, n, 0));
            }
            next.cols.push(Arc::new(gids));
            debug_assert_eq!(next.check_invariants(), Ok(()));
            return next;
        }
        debug_assert!(nt_old <= nt);
        // A list of one time-varying attribute reads the table's code columns
        // as they are while codes and ids coincide: its dictionary is interned
        // up front, in code order, and a column is taken over when every
        // present node holds such a code (values sit on presence bits only).
        let table = match sources[..] {
            [Source { table, slot: None }] => Some(table),
            _ => None,
        };
        let same = table.map_or(0, |table| {
            let codes = 0..table.dict().len() as u32;
            codes.take_while(|&c| next.gid(&sources, &[c]) == c).count() as u32
        });
        // The other columns are computed, one present node after another.
        for t in nt_old..nt {
            let present = g.node_presence_columns().col(t);
            let taken = table.map(|table| table.col_codes(t)).filter(|codes| {
                codes.iter().filter(|&&c| c < same).count() == present.count_ones()
            });
            let col = match taken {
                Some(codes) => Arc::clone(codes),
                None => {
                    let mut gids = vec![NO_GROUP; n_nodes];
                    for n in present.iter_ones() {
                        gids[n] = gid_at(&mut next, n, t);
                    }
                    Arc::new(gids)
                }
            };
            next.cols.push(col);
        }
        debug_assert_eq!(next.check_invariants(), Ok(()));
        next
    }

    /// The gid of the tuple whose per-attribute codes are `key`, assigning
    /// the next free one on its first occurrence.
    fn gid(&mut self, sources: &[Source<'_>], key: &[u32]) -> u32 {
        if let Some(gid) = self.codes.get(key) {
            return gid;
        }
        #[allow(clippy::expect_used)]
        let gid = u32::try_from(self.tuples.len())
            .ok()
            .filter(|&gid| gid != NO_GROUP)
            .expect("invariant: fewer than u32::MAX distinct tuples (gid is u32)");
        let decode = |(&code, s): (&u32, &Source<'_>)| s.table.decode(code).clone();
        let tuple: ValueTuple = key.iter().zip(sources).map(decode).collect();
        self.codes.insert(key, gid);
        self.index.insert(tuple.clone(), gid);
        self.tuples.push(tuple);
        gid
    }

    /// Validates the interning bijection: `tuples[gid]` and the reverse
    /// `index` map must agree in both directions, and every stored gid
    /// (static or time-varying) must be [`NO_GROUP`] or a valid tuple index.
    /// Checked via `debug_assert!` at the end of [`build`](Self::build);
    /// compiled out of release builds.
    ///
    /// # Errors
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.index.len() != self.tuples.len() {
            return Err(format!(
                "interning index holds {} tuples, dense table holds {}",
                self.index.len(),
                self.tuples.len()
            ));
        }
        for (gid, tuple) in self.tuples.iter().enumerate() {
            match self.index.get(tuple) {
                Some(&g) if g as usize == gid => {}
                Some(&g) => {
                    return Err(format!(
                        "tuple {tuple:?} stored at gid {gid} but indexed as {g}"
                    ));
                }
                None => {
                    return Err(format!("tuple {tuple:?} at gid {gid} missing from index"));
                }
            }
        }
        let n_groups = self.tuples.len() as u32;
        for (c, col) in self.cols.iter().enumerate() {
            for (n, &g) in col.iter().enumerate() {
                // a static list gives every node an id
                if g >= n_groups && (g != NO_GROUP || self.all_static) {
                    return Err(format!(
                        "column {c} row {n} holds gid {g}, but only {n_groups} groups exist"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Names of the aggregation attributes, in tuple order.
    pub fn attr_names(&self) -> &[String] {
        &self.attr_names
    }

    /// The attribute tuples, indexed by group id.
    pub fn tuples(&self) -> &[ValueTuple] {
        &self.tuples
    }

    /// Group id of an attribute tuple, if it occurs anywhere in the graph.
    pub fn lookup(&self, tuple: &[Value]) -> Option<u32> {
        self.index.get(tuple).copied()
    }

    /// True when every aggregation attribute is static: a node carries one
    /// id at every time point.
    #[inline]
    pub fn is_static(&self) -> bool {
        self.all_static
    }

    /// The group ids at time point `t`, indexed by node. Valid at the nodes
    /// present at `t`; elsewhere a column holds [`NO_GROUP`] or ends early.
    /// An all-static list has one column, with an id for every node, and
    /// returns it for every `t`.
    ///
    /// # Panics
    /// Panics if `t` is out of range on a list with a time-varying
    /// attribute.
    #[inline]
    pub fn col(&self, t: usize) -> &[u32] {
        &self.cols[if self.all_static { 0 } else { t }]
    }

    /// The match columns of `key` over `g`, the snapshot these columns were
    /// built for: taken from this value's cache, or built and kept there
    /// (least recently used of more than `MATCH_CACHE_CAP` evicted). The
    /// build runs outside the lock; when two threads miss on one key the
    /// first insert wins and both return that entry.
    ///
    /// # Panics
    /// Panics if `g` has another shape than the snapshot of these columns.
    pub fn match_columns(&self, g: &TemporalGraph, key: MatchKey) -> Arc<MatchColumns> {
        let cached = |cache: &mut Vec<(MatchKey, Arc<MatchColumns>)>| {
            let i = cache.iter().position(|(k, _)| *k == key)?;
            cache[..=i].rotate_right(1);
            Some(Arc::clone(&cache[0].1))
        };
        let lock = || {
            self.matches
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
        };
        if let Some(found) = cached(&mut lock()) {
            tempo_instrument::metrics::EXPLORE_MATCH_COLS_HITS.inc();
            return found;
        }
        tempo_instrument::metrics::EXPLORE_MATCH_COLS_BUILDS.inc();
        let built = Arc::new(self.build_match(g, key));
        let mut cache = lock();
        if let Some(first) = cached(&mut cache) {
            return first;
        }
        cache.insert(0, (key, Arc::clone(&built)));
        cache.truncate(MATCH_CACHE_CAP);
        built
    }

    fn build_match(&self, g: &TemporalGraph, key: MatchKey) -> MatchColumns {
        let (n_nodes, n_edges) = (g.n_nodes(), g.n_edges());
        let endpoints = |e: usize| {
            let (u, v) = g.edge_endpoints(EdgeId(e as u32));
            (u.index(), v.index())
        };
        let is_pair = |gids: &[u32], e: usize, (gs, gd): (u32, u32)| {
            let (u, v) = endpoints(e);
            gids[u] == gs && gids[v] == gd
        };
        match (self.all_static, key) {
            (true, MatchKey::Node(gid)) => {
                let gids = self.col(0);
                assert_eq!(gids.len(), n_nodes, "columns of another snapshot");
                let ones = (0..n_nodes).filter(|&n| gids[n] == gid);
                MatchColumns::Static(BitVec::from_indices(n_nodes, ones))
            }
            (true, MatchKey::Edge(gs, gd)) => {
                let gids = self.col(0);
                assert_eq!(gids.len(), n_nodes, "columns of another snapshot");
                let ones = (0..n_edges).filter(|&e| is_pair(gids, e, (gs, gd)));
                MatchColumns::Static(BitVec::from_indices(n_edges, ones))
            }
            (false, key) => {
                let nt = self.cols.len();
                assert_eq!(nt, g.domain().len(), "columns of another snapshot");
                let cols: Vec<BitVec> = match key {
                    // an absent node holds NO_GROUP, which is no tuple's id
                    MatchKey::Node(gid) => {
                        let ones = |col: &Arc<Vec<u32>>| {
                            let ones = (0..col.len()).filter(|&n| col[n] == gid);
                            BitVec::from_indices(n_nodes, ones)
                        };
                        self.cols.iter().map(ones).collect()
                    }
                    // the endpoints of an edge present at `t` are present
                    MatchKey::Edge(gs, gd) => (0..nt)
                        .map(|t| {
                            let present = g.edge_presence_columns().col(t).iter_ones();
                            let ones = present.filter(|&e| is_pair(self.col(t), e, (gs, gd)));
                            BitVec::from_indices(n_edges, ones)
                        })
                        .collect(),
                };
                let mode = g.sparse_mode();
                MatchColumns::PerPoint(
                    cols.into_iter()
                        .map(|bv| PresenceColumn::from_bitvec(bv, mode))
                        .collect(),
                )
            }
        }
    }
}

/// How many tuple selectors one attribute list keeps match columns for:
/// enough for a session that alternates a few `node=`/`edge=` targets, and
/// the factor in the module doc's byte ceiling.
pub(crate) const MATCH_CACHE_CAP: usize = 4;

/// How many attribute lists a graph keeps group-id columns for. Ordered
/// lists are `k!` many and an entry with a time-varying attribute holds up
/// to `nodes × points × 4` bytes, so the cap is what bounds the memory a
/// client can pin on a snapshot by permuting `attrs=`.
pub(crate) const GROUP_CACHE_CAP: usize = 8;

/// What the cache holds for one attribute list.
#[derive(Clone, Debug)]
pub(crate) enum CachedColumns {
    /// Columns of this snapshot.
    Ready(Arc<GroupColumns>),
    /// Columns of an earlier epoch, to be [`GroupColumns::extended`] to
    /// this snapshot on first use.
    Earlier(Arc<GroupColumns>),
}

/// The per-graph cache behind [`TemporalGraph::group_columns`]: at most
/// [`GROUP_CACHE_CAP`] entries keyed by the ordered attribute list, most
/// recently used first.
#[derive(Debug, Default)]
pub(crate) struct GroupColumnsCache {
    entries: Vec<(Vec<AttrId>, CachedColumns)>,
}

impl GroupColumnsCache {
    /// The entry for `attrs`, moved to the front.
    pub(crate) fn get(&mut self, attrs: &[AttrId]) -> Option<CachedColumns> {
        let i = self.entries.iter().position(|(k, _)| k == attrs)?;
        self.entries[..=i].rotate_right(1);
        Some(self.entries[0].1.clone())
    }

    /// Puts `cols` at the front as the entry for `attrs`, evicting the
    /// least recently used entry beyond the cap.
    pub(crate) fn insert(&mut self, attrs: &[AttrId], cols: Arc<GroupColumns>) {
        self.entries.retain(|(k, _)| k != attrs);
        self.entries
            .insert(0, (attrs.to_vec(), CachedColumns::Ready(cols)));
        self.entries.truncate(GROUP_CACHE_CAP);
    }

    /// The cache the next epoch starts from when the append left every old
    /// cell as it was: the same lists in the same order, each to be
    /// extended on first use.
    pub(crate) fn carried_forward(&self) -> GroupColumnsCache {
        let entries = self
            .entries
            .iter()
            .map(|(k, CachedColumns::Ready(c) | CachedColumns::Earlier(c))| {
                (k.clone(), CachedColumns::Earlier(Arc::clone(c)))
            })
            .collect();
        GroupColumnsCache { entries }
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // built, extended and cached columns are compared with fresh builds
mod tests {
    use super::*;
    use crate::fixtures::fig1;
    use crate::{GraphVersions, NodeId, TimePoint, TimepointPatch};

    fn attrs(g: &TemporalGraph) -> (AttrId, AttrId) {
        (
            g.schema().id("gender").unwrap(),
            g.schema().id("publications").unwrap(),
        )
    }

    #[test]
    fn layouts_follow_attribute_temporality() {
        let g = fig1();
        let (gender, pubs) = attrs(&g);
        let by_gender = GroupColumns::build(&g, &[gender]);
        assert!(by_gender.is_static());
        // one column with an id for every node, read at every point
        assert_eq!(by_gender.col(2).len(), g.n_nodes());
        assert_eq!(by_gender.col(0), by_gender.col(2));
        assert_eq!(by_gender.tuples().len(), 2); // m, f
        let mixed = GroupColumns::build(&g, &[gender, pubs]);
        assert!(!mixed.is_static());
        // u1 is male with 3 publications at t0, and absent at t2
        let u1 = g.node_id("u1").unwrap().index();
        let m = g.schema().category(gender, "m").unwrap();
        let gid = gid_of(&mixed, u1, 0);
        assert_eq!(mixed.tuples()[gid as usize], vec![m.clone(), Value::Int(3)]);
        assert_eq!(mixed.lookup(&[m, Value::Int(3)]), Some(gid));
        assert_eq!(gid_of(&mixed, u1, 2), NO_GROUP);
        assert_eq!(mixed.attr_names(), ["gender", "publications"]);
        // every cell decodes to the tuple read off the attribute tables
        let lists: [&[AttrId]; 4] = [&[gender], &[pubs], &[gender, pubs], &[pubs, gender]];
        for list in lists {
            assert_eq!(
                decoded(&g, &GroupColumns::build(&g, list)),
                read_off(&g, list)
            );
        }
    }

    #[test]
    fn cache_hit_returns_the_same_arc() {
        let g = fig1();
        let (gender, pubs) = attrs(&g);
        let first = g.group_columns(&[gender, pubs]);
        assert!(Arc::ptr_eq(&first, &g.group_columns(&[gender, pubs])));
        // the key is the ordered list: tuples come out in another order
        let swapped = g.group_columns(&[pubs, gender]);
        assert!(!Arc::ptr_eq(&first, &swapped));
        assert_eq!(swapped.attr_names(), ["publications", "gender"]);
        // an untouched clone carries the snapshot's data, so it shares
        assert!(Arc::ptr_eq(
            &first,
            &g.clone().group_columns(&[gender, pubs])
        ));
    }

    #[test]
    fn mutated_clone_and_new_epoch_miss() {
        let g = fig1();
        let (gender, pubs) = attrs(&g);
        let warm = g.group_columns(&[gender]);

        // a clone about to be mutated starts its own cache
        let mut c = g.clone();
        c.group_cols = Arc::default();
        assert!(!Arc::ptr_eq(&warm, &c.group_columns(&[gender])));
        let _ = c.group_columns(&[pubs]);
        // the clone's builds did not reach the original's cache
        assert!(Arc::ptr_eq(&warm, &g.group_columns(&[gender])));
        assert_eq!(g.group_cols.lock().unwrap().len(), 1);

        // a patch that rewrites a static cell of an existing node starts the
        // next epoch empty, so it sees the new cell
        let u1 = g.node_id("u1").unwrap().index();
        let f = g.schema().category(gender, "f").unwrap();
        let mut versions = GraphVersions::new(g);
        let mut patch = TimepointPatch::new("t3");
        patch.set_static("u1", gender, f.clone());
        let next = versions.append_timepoint(&patch).unwrap();
        assert_eq!(next.group_cols.lock().unwrap().len(), 0);
        let fresh = next.group_columns(&[gender]);
        assert!(!Arc::ptr_eq(&warm, &fresh));
        let gid = |cols: &GroupColumns| cols.col(0)[u1];
        assert_ne!(warm.lookup(std::slice::from_ref(&f)), Some(gid(&warm)));
        assert_eq!(fresh.lookup(&[f]), Some(gid(&fresh)));
    }

    /// The group id of cell `(n, t)` as stored: [`NO_GROUP`] past the end
    /// of a column.
    fn gid_of(cols: &GroupColumns, n: usize, t: usize) -> u32 {
        cols.col(t).get(n).copied().unwrap_or(NO_GROUP)
    }

    /// The tuple of every (node, point) cell, `None` where absent.
    fn decoded(g: &TemporalGraph, cols: &GroupColumns) -> Vec<Option<ValueTuple>> {
        let nt = g.domain().len();
        (0..g.n_nodes() * nt)
            .map(|i| {
                let (n, t) = (i / nt, i % nt);
                // a static list's ids say nothing about presence
                let absent =
                    cols.is_static() && !g.node_alive_at(NodeId(n as u32), TimePoint(t as u32));
                let gid = if absent { NO_GROUP } else { gid_of(cols, n, t) };
                (gid != NO_GROUP).then(|| cols.tuples()[gid as usize].clone())
            })
            .collect()
    }

    /// What [`decoded`] must give: the same cells through `attr_value`.
    fn read_off(g: &TemporalGraph, list: &[AttrId]) -> Vec<Option<ValueTuple>> {
        let nt = g.domain().len();
        (0..g.n_nodes() * nt)
            .map(|i| {
                let (n, t) = (NodeId((i / nt) as u32), TimePoint((i % nt) as u32));
                g.node_alive_at(n, t)
                    .then(|| list.iter().map(|&a| g.attr_value(n, a, t)).collect())
            })
            .collect()
    }

    #[test]
    fn an_append_extends_the_previous_epochs_columns() {
        let g = fig1();
        let (gender, pubs) = attrs(&g);
        let lists: [&[AttrId]; 4] = [&[gender], &[pubs], &[gender, pubs], &[pubs, gender]];
        let warm: Vec<_> = lists.iter().map(|l| g.group_columns(l)).collect();
        let f = g.schema().category(gender, "f").unwrap();

        let first = Arc::new(g);
        let mut versions = GraphVersions::from_arc(Arc::clone(&first));
        // a new node, a new (gender, publications) tuple for an old one, and
        // values (41, 7) the first epoch's dictionary lacks
        let mut patch = TimepointPatch::new("t3");
        patch.set_static("u9", gender, f.clone());
        patch.set_time_varying("u9", pubs, Value::Int(7));
        patch.set_time_varying("u1", pubs, Value::Int(41));
        patch.add_edge("u1", "u9");
        let second = versions.append_timepoint(&patch).unwrap();
        // nothing is read at the second epoch: the third extends by two
        // points; u3 is present at the new one without a publications value
        let mut patch = TimepointPatch::new("t4");
        patch.set_time_varying("u2", pubs, Value::Int(7));
        patch.mark_node("u3");
        let third = versions.append_timepoint(&patch).unwrap();
        // a static rewrite starts cold; its columns read the new cell
        let mut patch = TimepointPatch::new("t5");
        patch.set_static("u1", gender, f);
        patch.set_time_varying("u1", pubs, Value::Int(2));
        let fourth = versions.append_timepoint(&patch).unwrap();
        assert_eq!(fourth.group_cols.lock().unwrap().len(), 0);

        for next in [&third, &second, &fourth] {
            for (list, old) in lists.iter().zip(&warm) {
                let cols = next.group_columns(list);
                assert!(!Arc::ptr_eq(&cols, old));
                assert!(Arc::ptr_eq(&cols, &next.group_columns(list)));
                assert_eq!(cols.check_invariants(), Ok(()));
                assert_eq!(decoded(next, &cols), read_off(next, list), "{list:?}");
                // an extension shares every column it started from; the cold
                // build shares them with the table where the list is `[pubs]`
                let cold = Arc::ptr_eq(next, &fourth) && **list != [pubs];
                let shared = !cols.is_static() && !cold;
                for (ours, theirs) in cols.cols.iter().zip(&old.cols) {
                    assert_eq!(Arc::ptr_eq(ours, theirs), shared, "{list:?}");
                }
            }
        }
        // the first epoch still serves its own columns
        for (list, old) in lists.iter().zip(&warm) {
            assert!(Arc::ptr_eq(old, &first.group_columns(list)));
        }
    }

    #[test]
    fn a_single_time_varying_list_is_the_tables_code_columns() {
        let g = fig1();
        let (_, pubs) = attrs(&g);
        let shares = |g: &TemporalGraph, t: usize| {
            let cols = g.group_columns(&[pubs]);
            let codes = g.tv_table(pubs).unwrap().col_codes(t);
            // group id = dictionary code
            for (code, v) in g.tv_table(pubs).unwrap().dict().iter().enumerate() {
                assert_eq!(cols.tuples()[code], std::slice::from_ref(v));
            }
            Arc::ptr_eq(&cols.cols[t], codes)
        };
        assert!((0..3).all(|t| shares(&g, t)));

        let mut versions = GraphVersions::new(g);
        let mut patch = TimepointPatch::new("t3");
        patch.set_time_varying("u1", pubs, Value::Int(41)); // a new code
        let second = versions.append_timepoint(&patch).unwrap();
        assert!((0..4).all(|t| shares(&second, t)));
        // u3 is present without a value: that column is computed, `[Null]`
        // takes the next free id and the table's columns are still shared
        let mut patch = TimepointPatch::new("t4");
        patch.mark_node("u3");
        patch.set_time_varying("u2", pubs, Value::Int(41));
        let third = versions.append_timepoint(&patch).unwrap();
        assert!((0..4).all(|t| shares(&third, t)) && !shares(&third, 4));
        let cols = third.group_columns(&[pubs]);
        let u3 = third.node_id("u3").unwrap().index();
        assert_eq!(cols.lookup(&[Value::Null]), Some(cols.col(4)[u3]));
        // a value interned after `[Null]` took its id is no longer its own
        // code: the column holding it is computed, the others still shared
        let mut patch = TimepointPatch::new("t5");
        patch.set_time_varying("u2", pubs, Value::Int(99));
        patch.set_time_varying("u4", pubs, Value::Int(41));
        let fourth = versions.append_timepoint(&patch).unwrap();
        let cols = fourth.group_columns(&[pubs]);
        assert_eq!(decoded(&fourth, &cols), read_off(&fourth, &[pubs]));
        assert!(!Arc::ptr_eq(
            &cols.cols[5],
            fourth.tv_table(pubs).unwrap().col_codes(5)
        ));
        let mut patch = TimepointPatch::new("t6");
        patch.set_time_varying("u4", pubs, Value::Int(41));
        let fifth = versions.append_timepoint(&patch).unwrap();
        let cols = fifth.group_columns(&[pubs]);
        assert_eq!(decoded(&fifth, &cols), read_off(&fifth, &[pubs]));
        assert!(Arc::ptr_eq(
            &cols.cols[6],
            fifth.tv_table(pubs).unwrap().col_codes(6)
        ));
    }

    #[test]
    fn cache_is_capped_and_evicts_the_least_recently_used() {
        let g = fig1();
        let (gender, pubs) = attrs(&g);
        // distinct ordered lists: gender, then 1..=CAP publications
        let list = |k: usize| {
            let mut l = vec![gender];
            l.extend(std::iter::repeat_n(pubs, k));
            l
        };
        let oldest = g.group_columns(&list(1));
        let kept = g.group_columns(&list(2));
        for k in 3..=GROUP_CACHE_CAP {
            let _ = g.group_columns(&list(k));
        }
        assert_eq!(g.group_cols.lock().unwrap().len(), GROUP_CACHE_CAP);
        // touch `oldest`, so `kept` is now the least recently used …
        assert!(Arc::ptr_eq(&oldest, &g.group_columns(&list(1))));
        // … and one more list evicts it
        let _ = g.group_columns(&list(GROUP_CACHE_CAP + 1));
        assert_eq!(g.group_cols.lock().unwrap().len(), GROUP_CACHE_CAP);
        assert!(Arc::ptr_eq(&oldest, &g.group_columns(&list(1))));
        assert!(!Arc::ptr_eq(&kept, &g.group_columns(&list(2))));
    }

    /// Rows set in column `t` of the match columns (every point of a
    /// static list reads its one vector).
    fn ones(m: &MatchColumns, t: usize) -> Vec<usize> {
        match m {
            MatchColumns::Static(bv) => bv.iter_ones().collect(),
            MatchColumns::PerPoint(cols) => cols[t].iter_ones().collect(),
        }
    }

    #[test]
    fn match_columns_follow_the_group_ids() {
        let g = fig1();
        let (gender, pubs) = attrs(&g);
        let id = |name: &str| g.node_id(name).unwrap().index();
        let f = g.schema().category(gender, "f").unwrap();
        let m = g.schema().category(gender, "m").unwrap();

        let by_gender = g.group_columns(&[gender]);
        let (gf, gm) = (
            by_gender.lookup(std::slice::from_ref(&f)).unwrap(),
            by_gender.lookup(std::slice::from_ref(&m)).unwrap(),
        );
        let women = by_gender.match_columns(&g, MatchKey::Node(gf));
        assert!(matches!(*women, MatchColumns::Static(_)));
        assert_eq!(ones(&women, 0), [id("u2"), id("u3"), id("u4")]);
        // m -> f edges: u1 -> u2 and u5 -> u2
        let m_to_f = by_gender.match_columns(&g, MatchKey::Edge(gm, gf));
        let edge = |u: &str, v: &str| {
            g.edge_between(g.node_id(u).unwrap(), g.node_id(v).unwrap())
                .unwrap()
                .index()
        };
        let mut want = vec![edge("u1", "u2"), edge("u5", "u2")];
        want.sort_unstable();
        assert_eq!(ones(&m_to_f, 0), want);
        // the second request is served from the cache
        assert!(Arc::ptr_eq(
            &women,
            &by_gender.match_columns(&g, MatchKey::Node(gf))
        ));

        // time-varying: one column per point, a bit only where the node is
        // present and carries the tuple there
        let by_pubs = g.group_columns(&[pubs]);
        let one = by_pubs.lookup(&[Value::Int(1)]).unwrap();
        let cols = by_pubs.match_columns(&g, MatchKey::Node(one));
        for t in 0..g.domain().len() {
            let want: Vec<usize> = (0..g.n_nodes())
                .filter(|&n| gid_of(&by_pubs, n, t) == one)
                .collect();
            assert_eq!(ones(&cols, t), want, "t{t}");
        }
        assert_eq!(ones(&cols, 0), [id("u2"), id("u3")]);
        let pair = by_pubs.match_columns(&g, MatchKey::Edge(one, one));
        for t in 0..g.domain().len() {
            let want: Vec<usize> = (0..g.n_edges())
                .filter(|&e| {
                    let (u, v) = g.edge_endpoints(EdgeId(e as u32));
                    g.edge_alive_at(EdgeId(e as u32), TimePoint(t as u32))
                        && gid_of(&by_pubs, u.index(), t) == one
                        && gid_of(&by_pubs, v.index(), t) == one
                })
                .collect();
            assert_eq!(ones(&pair, t), want, "t{t}");
        }
    }

    #[test]
    fn match_columns_stay_with_their_snapshot() {
        let g = fig1();
        let (gender, pubs) = attrs(&g);
        let f = g.schema().category(gender, "f").unwrap();
        let cols = g.group_columns(&[gender]);
        let gf = cols.lookup(std::slice::from_ref(&f)).unwrap();
        let gm = cols
            .lookup(&[g.schema().category(gender, "m").unwrap()])
            .unwrap();
        let warm_nodes = cols.match_columns(&g, MatchKey::Node(gf));
        let warm_edges = cols.match_columns(&g, MatchKey::Edge(gm, gf));

        // a mutated clone builds its own columns, and its own matches
        let mut c = g.clone();
        c.group_cols = Arc::default();
        let theirs = c.group_columns(&[gender]);
        assert!(!Arc::ptr_eq(
            &warm_nodes,
            &theirs.match_columns(&c, MatchKey::Node(gf))
        ));
        assert!(Arc::ptr_eq(
            &warm_nodes,
            &cols.match_columns(&g, MatchKey::Node(gf))
        ));

        // an append that adds a matching edge: the next epoch's columns are
        // extended from these (same group ids) and rebuild the match vector
        // on first use, so it has the new row
        let first = Arc::new(g);
        let mut versions = GraphVersions::from_arc(Arc::clone(&first));
        let mut patch = TimepointPatch::new("t3");
        patch.add_edge("u5", "u3"); // m -> f, a new edge row
        patch.set_time_varying("u5", pubs, Value::Int(1));
        let second = versions.append_timepoint(&patch).unwrap();
        let next = second.group_columns(&[gender]);
        assert_eq!(next.lookup(std::slice::from_ref(&f)), Some(gf));
        let fresh = next.match_columns(&second, MatchKey::Edge(gm, gf));
        assert!(!Arc::ptr_eq(&warm_edges, &fresh));
        let new_row = second
            .edge_between(second.node_id("u5").unwrap(), second.node_id("u3").unwrap())
            .unwrap()
            .index();
        assert_eq!(new_row, first.n_edges());
        let mut want = ones(&warm_edges, 0);
        want.push(new_row);
        assert_eq!(ones(&fresh, 0), want);
        // the first epoch still serves its own vector
        assert!(Arc::ptr_eq(
            &warm_edges,
            &cols.match_columns(&first, MatchKey::Edge(gm, gf))
        ));

        // a static rewrite drops the columns and their matches with them:
        // u1 turns female, so the next epoch's vector has it
        let mut patch = TimepointPatch::new("t4");
        patch.set_static("u1", gender, f.clone());
        let third = versions.append_timepoint(&patch).unwrap();
        assert_eq!(third.group_cols.lock().unwrap().len(), 0);
        let rebuilt = third.group_columns(&[gender]);
        let gf3 = rebuilt.lookup(std::slice::from_ref(&f)).unwrap();
        let women = rebuilt.match_columns(&third, MatchKey::Node(gf3));
        let u1 = third.node_id("u1").unwrap().index();
        assert!(ones(&women, 0).contains(&u1));
        assert!(!ones(&warm_nodes, 0).contains(&u1));
    }

    #[test]
    fn match_cache_is_capped_and_evicts_the_least_recently_used() {
        let g = fig1();
        let (_, pubs) = attrs(&g);
        let cols = g.group_columns(&[pubs]);
        let n_groups = cols.tuples().len() as u32;
        assert!(n_groups >= 2);
        // more distinct selectors than the cap: node keys, then edge keys
        let keys: Vec<MatchKey> = (0..n_groups)
            .map(MatchKey::Node)
            .chain((0..n_groups).map(|gid| MatchKey::Edge(gid, 0)))
            .take(MATCH_CACHE_CAP + 1)
            .collect();
        assert_eq!(keys.len(), MATCH_CACHE_CAP + 1);
        let oldest = cols.match_columns(&g, keys[0]);
        let kept = cols.match_columns(&g, keys[1]);
        for &key in &keys[2..MATCH_CACHE_CAP] {
            let _ = cols.match_columns(&g, key);
        }
        assert_eq!(cols.matches.lock().unwrap().len(), MATCH_CACHE_CAP);
        // touch `oldest`, so `kept` is now the least recently used …
        assert!(Arc::ptr_eq(&oldest, &cols.match_columns(&g, keys[0])));
        // … and one more selector evicts it
        let _ = cols.match_columns(&g, keys[MATCH_CACHE_CAP]);
        assert_eq!(cols.matches.lock().unwrap().len(), MATCH_CACHE_CAP);
        assert!(Arc::ptr_eq(&oldest, &cols.match_columns(&g, keys[0])));
        assert!(!Arc::ptr_eq(&kept, &cols.match_columns(&g, keys[1])));
        // evicting the list evicts its match columns with it
        let gender = g.schema().id("gender").unwrap();
        let list = |k: usize| {
            let mut l = vec![gender];
            l.extend(std::iter::repeat_n(pubs, k));
            l
        };
        let weak = Arc::downgrade(&oldest);
        drop((oldest, kept, cols));
        for k in 1..=GROUP_CACHE_CAP {
            let _ = g.group_columns(&list(k));
        }
        assert!(weak.upgrade().is_none());
    }
}
