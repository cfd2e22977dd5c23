//! Request budgets: wall-clock deadlines for long explorations.
//!
//! A server holding `Arc<TemporalGraph>` snapshots cannot let one client's
//! `explore` monopolize a worker forever, so the engine polls a [`Budget`]
//! at its evaluation checkpoints. The deadline itself lives in
//! `tempo-instrument` ([`Deadline`]) because the workspace's `no-instant`
//! lint confines raw clock reads to that crate.

use tempo_graph::GraphError;
use tempo_instrument::Deadline;

/// A request-scoped execution budget checked at engine checkpoints.
///
/// The explore engine calls [`check`](Budget::check) before every pair
/// evaluation, so a run stops within one evaluation of its deadline
/// passing. The default budget is unlimited and its checkpoints cost one
/// `Option` test.
#[derive(Clone, Debug, Default)]
pub struct Budget {
    deadline: Option<Deadline>,
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

    /// Checkpoint: passes while the budget holds.
    ///
    /// # Errors
    /// Returns [`GraphError::Cancelled`] once the deadline has passed.
    #[inline]
    pub fn check(&self) -> Result<(), GraphError> {
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
}
