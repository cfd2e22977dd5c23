//! The checker scenario for the extracted [`EpochMap`] protocol, plus the
//! seeded mutation catalog.
//!
//! The scenario models the protocol exactly as production drives it and
//! surrounds it with *plain* [`VCell`] data whose safety depends on the
//! protocol's happens-before edges — the same shape as the registry's
//! graph snapshots. A weakened protocol therefore shows up as a detected
//! data race (or a deadlock / failed invariant), not as a silent wrong
//! answer.

use std::sync::Arc;

use crate::check::{Checker, Report, Scenario, VCell, VirtualAtomics};
use crate::epoch::{EpochMap, EpochSpec};

/// Two concurrent CAS writers over an [`EpochMap`] seeded at epoch 1.
/// Every stored value is an `Arc<u64>` equal to the epoch it was stored
/// with, so a torn `(value, epoch)` read or a lost update is observable
/// as a value/epoch mismatch. The final check asserts linearizability:
/// the number of CAS wins accounts exactly for the epoch advance.
pub fn epoch_scenario(spec: EpochSpec) -> impl Fn(&VirtualAtomics) -> Scenario {
    move |env| {
        let map: Arc<EpochMap<Arc<u64>, VirtualAtomics>> = Arc::new(EpochMap::with(env, spec));
        map.insert("g", Arc::new(1));
        let outcomes: Arc<Vec<VCell<Option<u64>>>> =
            Arc::new((0..2).map(|_| env.cell(None, "epoch.outcome")).collect());
        let threads = (0..2)
            .map(|w| {
                let map = Arc::clone(&map);
                let outcomes = Arc::clone(&outcomes);
                let body: Box<dyn FnOnce() + Send> = Box::new(move || {
                    let (cur, epoch) = map.get("g").expect("invariant: seeded in setup");
                    assert_eq!(
                        *cur, epoch,
                        "torn (value, epoch) pair observed by writer {w}"
                    );
                    let won = map.replace_if_current("g", &cur, Arc::new(epoch + 1));
                    outcomes[w].write(won);
                });
                body
            })
            .collect();
        let finally_map = Arc::clone(&map);
        let finally_outcomes = Arc::clone(&outcomes);
        Scenario {
            threads,
            finally: Some(Box::new(move || {
                let (value, epoch) = finally_map.get("g").expect("invariant: never removed");
                assert_eq!(*value, epoch, "final (value, epoch) pair is torn");
                let mut wins: Vec<u64> =
                    (0..2).filter_map(|w| finally_outcomes[w].read()).collect();
                assert!(
                    !wins.is_empty(),
                    "no writer succeeded: CAS lost both updates"
                );
                assert_eq!(
                    epoch,
                    1 + wins.len() as u64,
                    "epoch advance does not match the number of CAS wins"
                );
                wins.sort_unstable();
                wins.dedup();
                assert_eq!(
                    1 + wins.len() as u64,
                    epoch,
                    "two CAS wins reported the same epoch"
                );
            })),
        }
    }
}

/// One named checker case; `expect_violation` distinguishes the clean
/// protocol sweeps from the seeded-mutation detections.
pub struct Case {
    /// Display name.
    pub name: &'static str,
    /// Whether the checker is *required* to report a violation.
    pub expect_violation: bool,
    run: Box<dyn Fn(&Checker) -> Report>,
}

impl Case {
    /// Runs the case under `checker`.
    #[must_use]
    pub fn run(&self, checker: &Checker) -> Report {
        (self.run)(checker)
    }
}

fn clean(name: &'static str, run: impl Fn(&Checker) -> Report + 'static) -> Case {
    Case {
        name,
        expect_violation: false,
        run: Box::new(run),
    }
}

fn seeded(name: &'static str, run: impl Fn(&Checker) -> Report + 'static) -> Case {
    Case {
        name,
        expect_violation: true,
        run: Box::new(run),
    }
}

/// The clean protocol sweep: the production protocol shape, zero
/// violations and complete enumeration required.
#[must_use]
pub fn protocol_cases() -> Vec<Case> {
    vec![clean("epoch CAS writers=2", |c| {
        c.check("epoch CAS writers=2", epoch_scenario(EpochSpec::default()))
    })]
}

/// The seeded mutations: each deliberately weakens one protocol site and
/// must be reported by the checker.
#[must_use]
pub fn mutation_cases() -> Vec<Case> {
    vec![
        seeded("epoch: get() splits value and epoch reads", |c| {
            let spec = EpochSpec {
                coupled_get: false,
                ..EpochSpec::default()
            };
            c.check("epoch torn get", epoch_scenario(spec))
        }),
        seeded("epoch: replace_if_current skips the identity check", |c| {
            let spec = EpochSpec {
                cas_checks_identity: false,
                ..EpochSpec::default()
            };
            c.check("epoch blind replace", epoch_scenario(spec))
        }),
    ]
}
