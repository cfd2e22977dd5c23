//! Concurrency regression tests for the snapshot registry: a mutex-guarded
//! map whose methods are each one lock section. Under real OS-thread
//! contention every successful CAS bumps the epoch exactly once, losers
//! never clobber, and `get` never observes a torn `(graph, epoch)` pair.
//! Together with the unit test `replace_if_current_is_a_cas` these hold the
//! two properties a broken registry loses first: a `get` that reads graph
//! and epoch in two lock sections (torn pair), and a `replace_if_current`
//! that skips the identity check (lost update).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use tempo_graph::{fixtures, GraphVersions, TimepointPatch};
use tempo_server::SnapshotRegistry;

#[test]
fn concurrent_cas_writers_bump_epoch_once_per_win() {
    let reg = Arc::new(SnapshotRegistry::new());
    reg.insert("g", Arc::new(fixtures::fig1()));
    let writers = 4;
    let attempts_each = 200;
    let wins: Vec<usize> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..writers)
            .map(|_| {
                let reg = Arc::clone(&reg);
                scope.spawn(move || {
                    let mut wins = 0usize;
                    for _ in 0..attempts_each {
                        let (cur, epoch) = reg.get("g").expect("entry never removed");
                        let next = Arc::new(fixtures::fig1());
                        match reg.replace_if_current("g", &cur, next) {
                            Some(new_epoch) => {
                                assert!(
                                    new_epoch > epoch,
                                    "CAS win must advance the epoch ({epoch} -> {new_epoch})"
                                );
                                wins += 1;
                            }
                            None => {
                                // Lost to a concurrent replacement; the entry
                                // must still be present with a newer epoch.
                                let (_, now) = reg.get("g").expect("entry never removed");
                                assert!(now >= epoch, "epochs are monotone");
                            }
                        }
                    }
                    wins
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("writer"))
            .collect()
    });
    let total_wins: usize = wins.iter().sum();
    let (_, final_epoch) = reg.get("g").expect("entry never removed");
    assert_eq!(
        final_epoch as usize,
        1 + total_wins,
        "every successful CAS bumps the epoch exactly once"
    );
    assert!(
        total_wins >= writers,
        "each writer's first CAS can win at most once per round, but some must win"
    );
}

/// Releases the readers even when the writer unwinds, so a failing writer
/// fails the test instead of hanging it.
struct SetOnDrop<'a>(&'a AtomicBool);

impl Drop for SetOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// The writer derives each snapshot from the previous one with
/// `append_timepoint`, so the graph's own epoch stamp advances in step with
/// the registry's and a pair is torn exactly when the two disagree. Checked
/// once by hand against a `get` that cloned the graph in one lock section
/// and read the epoch in a second: the offset assertion below then fails
/// within the first few hundred reads, on every run.
#[test]
fn concurrent_readers_never_observe_a_torn_pair() {
    let reg = SnapshotRegistry::new();
    let g0 = Arc::new(fixtures::fig1());
    // the first insert fixes the offset: registry epoch 1, graph epoch 0
    assert_eq!(reg.insert("g", Arc::clone(&g0)), g0.epoch() + 1);
    let done = AtomicBool::new(false);
    let start = Barrier::new(3);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let _release_readers = SetOnDrop(&done);
            start.wait();
            let mut versions = GraphVersions::from_arc(g0);
            for i in 0..400 {
                let cur = versions.current();
                let mut patch = TimepointPatch::new(format!("a{i}"));
                patch.mark_node("u1");
                let next = versions.append_timepoint(&patch).expect("fresh label");
                let won = reg.replace_if_current("g", &cur, next);
                assert!(won.is_some(), "single writer cannot lose the CAS");
            }
        });
        for _ in 0..2 {
            scope.spawn(|| {
                start.wait();
                let mut last_epoch = 0u64;
                while !done.load(Ordering::SeqCst) {
                    let (graph, epoch) = reg.get("g").expect("entry never removed");
                    assert!(
                        epoch >= last_epoch,
                        "epochs are monotone under a single writer"
                    );
                    assert_eq!(
                        epoch,
                        graph.epoch() + 1,
                        "torn pair: registry epoch {epoch} with the graph of epoch {}",
                        graph.epoch() + 1
                    );
                    last_epoch = epoch;
                }
            });
        }
    });
    let (graph, epoch) = reg.get("g").expect("entry never removed");
    assert_eq!((graph.epoch(), epoch), (400, 401));
}
