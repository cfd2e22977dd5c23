//! Request budgets: wall-clock deadlines and cooperative cancellation for
//! long explorations.
//!
//! A server holding `Arc<TemporalGraph>` snapshots cannot let one client's
//! `explore` monopolize a worker forever, so the engine polls a [`Budget`]
//! at its evaluation checkpoints. The deadline itself lives in
//! `tempo-instrument` ([`Deadline`]) because the workspace's `no-instant`
//! lint confines raw clock reads to that crate.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use tempo_graph::GraphError;
use tempo_instrument::Deadline;

/// A request-scoped execution budget checked at engine checkpoints.
///
/// The explore engine calls [`check`](Budget::check) before every pair
/// evaluation, so a run stops within one evaluation of its deadline passing
/// or its cancel flag being raised. The default budget is unlimited and its
/// checkpoints cost two `Option` tests.
#[derive(Clone, Debug, Default)]
pub struct Budget {
    deadline: Option<Deadline>,
    cancel: Option<Arc<AtomicBool>>,
}

impl Budget {
    /// A budget with no limits: every checkpoint passes.
    #[must_use]
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// Adds a wall-clock deadline `ms` milliseconds from now. A zero
    /// deadline fails the very first checkpoint.
    #[must_use]
    pub fn with_deadline_ms(mut self, ms: u64) -> Self {
        self.deadline = Some(Deadline::after_millis(ms));
        self
    }

    /// Adds a cooperative cancel flag, typically raised by another thread
    /// (e.g. a connection handler noticing the client went away).
    #[must_use]
    pub fn with_cancel_flag(mut self, flag: Arc<AtomicBool>) -> Self {
        self.cancel = Some(flag);
        self
    }

    /// Checkpoint: passes while the budget holds.
    ///
    /// # Errors
    /// Returns [`GraphError::Cancelled`] once the cancel flag is raised or
    /// the deadline has passed.
    #[inline]
    pub fn check(&self) -> Result<(), GraphError> {
        if let Some(flag) = &self.cancel {
            // ordering: cancellation is advisory — raising the flag
            // publishes no data, and a checkpoint observing it one round
            // late is harmless.
            if flag.load(Ordering::Relaxed) {
                return Err(GraphError::Cancelled("cancel flag raised".to_owned()));
            }
        }
        if let Some(d) = &self.deadline {
            if d.expired() {
                return Err(GraphError::Cancelled(format!(
                    "deadline of {} ms exceeded",
                    d.limit_millis()
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_always_passes() {
        let b = Budget::unlimited();
        for _ in 0..3 {
            assert_eq!(b.check(), Ok(()));
        }
    }

    #[test]
    fn zero_deadline_fails_immediately() {
        let b = Budget::unlimited().with_deadline_ms(0);
        assert!(matches!(b.check(), Err(GraphError::Cancelled(_))));
    }

    #[test]
    fn cancel_flag_trips_the_checkpoint() {
        let flag = Arc::new(AtomicBool::new(false));
        let b = Budget::unlimited().with_cancel_flag(Arc::clone(&flag));
        assert_eq!(b.check(), Ok(()));
        flag.store(true, Ordering::Relaxed);
        assert!(matches!(b.check(), Err(GraphError::Cancelled(_))));
    }
}
