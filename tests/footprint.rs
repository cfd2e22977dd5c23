//! Footprint regression: what a generated graph keeps on the heap.
//!
//! The benchmark gates `peak_rss_mb` relative to the parent commit (5 %), so
//! a slow erosion over several changes would pass it every time. This test
//! holds the absolute numbers the dictionary-coded layout reached: the live
//! heap of a quarter-scale DBLP graph, and the bytes of value storage per
//! materialised cell (a `u32` code; 24-byte `Value`s before).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use tempo_datagen::DblpConfig;

/// Bytes currently allocated through the global allocator.
static LIVE: AtomicUsize = AtomicUsize::new(0);

/// The system allocator with a running total of live bytes.
struct Counting;

// SAFETY: every request is passed to `System` unchanged and its result
// returned unchanged, so `System`'s guarantees are this allocator's; the
// counter is a statistic no allocation depends on.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: as for `dealloc`; `new_size` is the caller's to get right.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The one test of this binary, so nothing else allocates while it measures.
#[test]
fn generated_graph_stays_small() {
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
