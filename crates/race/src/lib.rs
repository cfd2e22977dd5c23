//! `tempo-race`: exhaustive interleaving checker for GraphTempo's
//! lock-free protocols.
//!
//! The workspace's one shared-state protocol — the [`EpochMap`] CAS +
//! epoch publication behind the server's snapshot registry — lives here,
//! written once against the [`Atomics`] abstraction:
//!
//! * production code instantiates it with [`RealAtomics`] (plain
//!   `std::sync` types, fully inlined — the generics cost nothing after
//!   monomorphization);
//! * the checker instantiates it with [`VirtualAtomics`] and runs a
//!   bounded exhaustive DFS over every thread interleaving (sleep-set
//!   pruned), validating happens-before with vector clocks: no data
//!   race on the protected plain data, no deadlock or lost wakeup, no
//!   torn `(value, epoch)` read, and linearizable CAS outcomes.
//!
//! Run `cargo run -p tempo-race --release` for the full sweep: the clean
//! protocol must enumerate completely with zero violations, and both
//! seeded mutations (a torn `get`, a blind replace) must be reported. The
//! same catalog runs in `cargo test` via `tests/protocols.rs`.

#![warn(missing_docs)]

pub mod atomics;
pub mod check;
pub mod epoch;
pub mod real;
pub mod scenarios;

pub use atomics::{AtomicBoolT, AtomicU64T, AtomicUsizeT, Atomics, MutexT, Ordering};
pub use check::{Checker, Report, Scenario, VCell, Violation, ViolationKind, VirtualAtomics};
pub use epoch::{EpochMap, EpochSpec, Identity};
pub use real::RealAtomics;
