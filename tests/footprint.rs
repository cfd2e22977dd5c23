//! Footprint regression: what a generated graph keeps on the heap, and what
//! one DIST walk allocates.
//!
//! The benchmark gates `peak_rss_mb` relative to the parent commit (5 %), so
//! a slow erosion over several changes would pass it every time. These tests
//! hold absolute numbers instead: the live heap of a quarter-scale DBLP
//! graph, the bytes of value storage per materialised cell (a `u32` code;
//! 24-byte `Value`s before), and the high-water marks of one DIST count,
//! of the whole-graph `agg` and `cube` reads over the whole of
//! DBLP and of a filtered two-point `evolution`, none of which may hold
//! anything as long as the entities, and of a popcount `explore`, which
//! holds one accumulator no wider than the columns it reads; and the bytes
//! a DIST-counting `explore` allocates in all, once the snapshot's indexes
//! are built, and those of a `suggest` scan, which builds no index.

use graphtempo::aggregate::{AggMode, AggregateGraph, GroupTable};
use graphtempo::cube::{GraphCube, Level};
use graphtempo::evolution::evolution_aggregate;
use graphtempo::explore::{
    explore, suggest_k, ChainCursor, ExploreConfig, ExtendSide, Selector, Semantics,
};
use graphtempo::ops::Event;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use tempo_datagen::DblpConfig;
use tempo_graph::{NodeId, TimePoint, TimeSet};

/// Bytes currently allocated through the global allocator.
static LIVE: AtomicUsize = AtomicUsize::new(0);

/// The most bytes `LIVE` has held since the last [`reset_peak`].
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// Bytes allocated since the process started, freed or not.
static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

/// Taken by each test for its whole run, so nothing else allocates while
/// one measures.
static MEASURING: Mutex<()> = Mutex::new(());

/// Adds `size` live bytes and raises the high-water mark to match.
fn grow(size: usize) {
    ALLOCATED.fetch_add(size, Ordering::Relaxed);
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

/// Starts a new high-water mark at the bytes live now, and returns them.
fn reset_peak() -> usize {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    live
}

/// The system allocator with a running total of live bytes and its peak.
struct Counting;

// SAFETY: every request is passed to `System` unchanged and its result
// returned unchanged, so `System`'s guarantees are this allocator's; the
// counters are statistics no allocation depends on.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // counted as the moment both blocks are live
        grow(new_size);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: as for `dealloc`; `new_size` is the caller's to get right.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn generated_graph_stays_small() {
    let _turn = MEASURING.lock().unwrap_or_else(PoisonError::into_inner);
    let before = LIVE.load(Ordering::Relaxed);
    let g = DblpConfig::scaled(0.25).generate().unwrap();
    let live = LIVE.load(Ordering::Relaxed) - before;
    // parent of the layout change: 19.6 MB; at the change: 5.5 MB
    assert!(
        live <= 8 << 20,
        "{live} B live after generate() of {} nodes, {} edges",
        g.n_nodes(),
        g.n_edges()
    );

    let pubs = g.schema().id("publications").unwrap();
    let matrices = [
        g.static_table(),
        g.tv_table(pubs).unwrap(),
        g.edge_values_matrix().unwrap(),
    ];
    let cols = || (matrices.iter()).flat_map(|m| (0..m.ncols()).map(|c| m.col_codes(c)));
    let cells: usize = cols().map(|col| col.len()).sum();
    let bytes: usize = cols().map(|col| col.capacity() * 4).sum();
    println!("{live} B live; {bytes} B of codes for {cells} materialised cells");
    assert!(cells > 100_000, "{cells} cells: not the graph this bounds");
    assert!(
        bytes <= 6 * cells,
        "{bytes} B of value storage for {cells} materialised cells"
    );
}

/// One DIST edge count over all 21 points of DBLP on
/// `gender,publications` — an `explore` evaluation of the All-edge selector
/// on a list with a time-varying attribute, which sums the DIST weights of
/// the cursor's keep set — peaks at its `n_groups²` accumulator plus walk
/// state the size of the scope, once the first count on the snapshot has
/// built its repeat index. A per-entity array would not fit: one bit
/// per edge is twice the bound's `n_edges / 16` bytes, and a first key per
/// edge far more.
#[test]
fn a_distinct_count_allocates_nothing_per_entity() {
    let _turn = MEASURING.lock().unwrap_or_else(PoisonError::into_inner);
    let g = DblpConfig::scaled(1.0).generate().unwrap();
    let cfg = ExploreConfig {
        event: Event::Stability,
        extend: ExtendSide::Old,
        semantics: Semantics::Union,
        k: 1,
        attrs: ["gender", "publications"]
            .map(|a| g.schema().id(a).unwrap())
            .to_vec(),
        selector: Selector::AllEdges,
    };
    let n_groups = GroupTable::cached(&g, &cfg.attrs).n_groups();
    g.group_columns(&cfg.attrs).edge_repeats(&g);
    // the last pair of the last reference's chain, ({0..19}, {20}), scopes
    // all 21 points; the cursor is positioned there before the count is
    // measured
    let mut cursor = ChainCursor::new(&g, &cfg);
    let last = g.domain().len() - 2;
    assert_eq!(cursor.keep_chain_pair(last, last).0.len(), 21);

    let before = reset_peak();
    let count = cursor.evaluate_chain_pair(last, last);
    let peak = PEAK.load(Ordering::Relaxed) - before;
    let bound = n_groups.pow(2) * 8 + g.n_edges() / 16;
    println!(
        "{peak} B peak, bound {bound} B, for {count} (edge, tuple) pairs of {} edges",
        g.n_edges()
    );
    assert!(count > 0);
    assert!(
        peak < bound,
        "{peak} B peak, bound {bound} B ({n_groups} groups, {} edges)",
        g.n_edges()
    );
}

/// Whole-graph `agg dist`, `agg all` and `cube … level=gender` on the
/// all-static `gender` list of DBLP, through the calls `Session` makes once
/// the snapshot holds the list's group ids. Each peaks below half of one
/// edge-length bit vector: the walk reads the scope's presence columns and
/// stores no keep set.
#[test]
fn whole_graph_reads_allocate_nothing_per_entity() {
    let _turn = MEASURING.lock().unwrap_or_else(PoisonError::into_inner);
    let g = DblpConfig::scaled(1.0).generate().unwrap();
    let [gender, pubs] = ["gender", "publications"].map(|a| g.schema().id(a).unwrap());
    let all = g.domain().all();
    let agg = |mode| GroupTable::cached(&g, &[gender]).aggregate_union(&g, &all, mode);
    let cube = GraphCube::build(&g, &[gender, pubs], 1);
    let level = Level::new(vec!["gender"]);
    let calls: [(&str, &dyn Fn() -> AggregateGraph); 3] = [
        ("agg dist", &|| agg(AggMode::Distinct)),
        ("agg all", &|| agg(AggMode::All)),
        ("cube level=gender", &|| cube.query(&level, &all).unwrap()),
    ];
    assert!(GroupTable::cached(&g, &[gender]).is_static());

    let bound = g.n_edges() / 16;
    for (what, call) in calls {
        let before = reset_peak();
        let answer = call();
        let peak = PEAK.load(Ordering::Relaxed) - before;
        println!("{what}: {peak} B peak, bound {bound} B");
        assert!(answer.total_edge_weight() > 0, "{what}");
        assert!(peak < bound, "{what}: {peak} B peak, bound {bound} B");
    }
}

/// `evolution t1=#15 t2=#16 attrs=gender filter=publications>4` on DBLP
/// evaluates its filter into one pass column per point of the scope, and
/// none outside it: the whole request peaks below half a byte per node.
#[test]
fn a_filtered_evolution_allocates_only_for_its_scope() {
    let _turn = MEASURING.lock().unwrap_or_else(PoisonError::into_inner);
    let g = DblpConfig::scaled(1.0).generate().unwrap();
    let [gender, pubs] = ["gender", "publications"].map(|a| g.schema().id(a).unwrap());
    let matrix = g.tv_table(pubs).unwrap();
    let filter = |_: &_, n: NodeId, t: TimePoint| {
        matrix
            .get(n.index(), t.index())
            .as_int()
            .is_some_and(|v| v > 4)
    };
    let n = g.domain().len();
    let [t1, t2] = [15, 16].map(|t| TimeSet::range(n, t, t));
    assert!(GroupTable::cached(&g, &[gender]).is_static());

    let before = reset_peak();
    let evo = evolution_aggregate(&g, &t1, &t2, &[gender], Some(&filter)).unwrap();
    let peak = PEAK.load(Ordering::Relaxed) - before;
    let bound = g.n_nodes() / 2;
    println!("{peak} B peak, bound {bound} B");
    assert!(evo.total_edge_weight().stability > 0);
    assert!(peak < bound, "{peak} B peak, bound {bound} B");
}

/// `explore event=stability semantics=intersect extend=new k=1
/// attrs=gender` with the All-edge selector on DBLP — the `Pop` arm, whose
/// count is a popcount of the keep words and which writes nothing but its
/// extended side — peaks below one and a half edge-length bit vectors: the
/// reference column and the base of each chain are read in place, no keep
/// set is allocated, and the extended side is as wide as the columns it
/// holds, which only the last chain's reach the last edge. A cursor that
/// allocated its extended side, a reference copy and a keep set at full
/// width would hold three such vectors.
#[test]
fn a_popcount_explore_allocates_only_what_it_writes() {
    let _turn = MEASURING.lock().unwrap_or_else(PoisonError::into_inner);
    let g = DblpConfig::scaled(1.0).generate().unwrap();
    let cfg = ExploreConfig {
        event: Event::Stability,
        extend: ExtendSide::New,
        semantics: Semantics::Intersection,
        k: 1,
        attrs: vec![g.schema().id("gender").unwrap()],
        selector: Selector::AllEdges,
    };
    assert!(GroupTable::cached(&g, &cfg.attrs).is_static());

    let before = reset_peak();
    let outcome = explore(&g, &cfg).unwrap();
    let peak = PEAK.load(Ordering::Relaxed) - before;
    let bound = g.n_edges() * 3 / 16;
    println!(
        "{peak} B peak, bound {bound} B, {} evaluations, {} pairs",
        outcome.evaluations,
        outcome.pairs.len()
    );
    assert!(!outcome.pairs.is_empty());
    assert!(peak < bound, "{peak} B peak, bound {bound} B");
}

/// `explore event=stability semantics=union extend=new k=1
/// attrs=publications` with the All-edge selector on DBLP counts one per
/// distinct (edge, tuple) over scopes of several points. Once a first run
/// has built the snapshot's group ids and repeat index, a second allocates
/// one edge-length keep set and a few KB besides in all, over its 20
/// evaluations: the count reads the keep set against the presence columns
/// and the index and keeps no per-evaluation accumulator, and the keep set
/// is allocated once, as wide as the widest edge column. (A keep set
/// reallocated at each wider chain put it at 169 128 B, against a bound
/// of one edge-length vector per evaluation.)
#[test]
fn a_distinct_explore_allocates_one_edge_vector_per_evaluation() {
    let _turn = MEASURING.lock().unwrap_or_else(PoisonError::into_inner);
    let g = DblpConfig::scaled(1.0).generate().unwrap();
    let cfg = ExploreConfig {
        event: Event::Stability,
        extend: ExtendSide::New,
        semantics: Semantics::Union,
        k: 1,
        attrs: vec![g.schema().id("publications").unwrap()],
        selector: Selector::AllEdges,
    };
    assert!(!GroupTable::cached(&g, &cfg.attrs).is_static());
    let warm = explore(&g, &cfg).unwrap();

    let before = ALLOCATED.load(Ordering::Relaxed);
    let outcome = explore(&g, &cfg).unwrap();
    let allocated = ALLOCATED.load(Ordering::Relaxed) - before;
    let bound = g.n_edges().div_ceil(8) + (6 << 10);
    println!(
        "{allocated} B allocated, bound {bound} B, {} evaluations, {} pairs",
        outcome.evaluations,
        outcome.pairs.len()
    );
    assert_eq!(outcome.pairs, warm.pairs);
    assert!(outcome.evaluations > 1 && !outcome.pairs.is_empty());
    assert!(
        allocated <= bound,
        "{allocated} B allocated, bound {bound} B"
    );
}

/// `suggest event=stability semantics=intersect extend=new
/// attrs=publications` with the All-edge selector on DBLP takes the max of
/// the consecutive pairs' DIST weights: it sizes every pair and keys a
/// few, all over one-point or two-point scopes whose count needs no repeat
/// index. Once the snapshot holds the list's group ids, the whole scan
/// allocates one edge-length keep set and a DIST accumulator per keyed
/// pair: less than the entries of the edge repeat index alone (45 760
/// against 46 296 B when this was written), which it therefore does not
/// build.
#[test]
fn a_suggest_scan_builds_no_repeat_index() {
    let _turn = MEASURING.lock().unwrap_or_else(PoisonError::into_inner);
    let g = DblpConfig::scaled(1.0).generate().unwrap();
    let cfg = ExploreConfig {
        event: Event::Stability,
        extend: ExtendSide::New,
        semantics: Semantics::Intersection,
        k: 0,
        attrs: vec![g.schema().id("publications").unwrap()],
        selector: Selector::AllEdges,
    };
    assert!(!GroupTable::cached(&g, &cfg.attrs).is_static());

    let before = ALLOCATED.load(Ordering::Relaxed);
    let k = suggest_k(&g, &cfg).unwrap();
    let allocated = ALLOCATED.load(Ordering::Relaxed) - before;
    let index = g.group_columns(&cfg.attrs).edge_repeats(&g);
    let bound = index.len() * std::mem::size_of::<(u32, u32)>();
    println!("{allocated} B allocated for k = {k:?}, bound {bound} B");
    assert!(k.is_some());
    assert!(
        allocated < bound,
        "{allocated} B allocated, bound {bound} B"
    );
}
