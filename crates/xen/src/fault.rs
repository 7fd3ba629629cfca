//! Deterministic fault injection for the simulated hypervisor.
//!
//! A [`FaultPlan`] is a seeded description of the misbehaviour a scenario
//! wants to exercise: grant-copy ops that fail mid-batch, event-channel
//! notifications that are dropped or delayed, and xenstore ops that error.
//! (Domain death is a scheduler-level event, not a hypercall-level one:
//! the system layer schedules kills, hangs and wedges itself.) The plan is
//! installed on the [`Hypervisor`](crate::Hypervisor) (`hv.faults`) and
//! consulted from the charged hypercall wrappers, so drivers under test see
//! faults exactly where real Xen would surface them: in per-op copy
//! statuses, in missing interrupts, and in hypercall return values.
//!
//! Determinism: the plan carries its own PCG stream, and the stream is
//! advanced **only** when the corresponding fault class is armed (a
//! nonzero rate). A default plan therefore consumes no randomness at all, so
//! pre-existing seeded scenarios reproduce byte-for-byte with the fault
//! layer compiled in.

use kite_sim::{Nanos, Pcg};

use crate::error::XenError;

/// A seeded, deterministic fault-injection plan.
///
/// Rates are probabilities in `[0, 1]` applied independently per
/// operation.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    rng: Pcg,
    /// Probability that an individual grant-copy op fails with `BadGrant`.
    pub copy_fail_rate: f64,
    /// Probability that an `EVTCHNOP_send` notification is dropped.
    pub notify_drop_rate: f64,
    /// Probability that a notification is delayed by `notify_delay`.
    pub notify_delay_rate: f64,
    /// Extra latency added to delayed notifications.
    pub notify_delay: Nanos,
    /// Probability that a charged xenstore op fails with `Again`.
    pub xs_fail_rate: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// A plan that injects nothing (and consumes no randomness).
    pub fn none() -> FaultPlan {
        FaultPlan::seeded(0)
    }

    /// An empty plan with its own RNG stream; arm fault classes with the
    /// `with_*` builders.
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            rng: Pcg::new(seed, 0xfa17_fa17_fa17_fa17),
            copy_fail_rate: 0.0,
            notify_drop_rate: 0.0,
            notify_delay_rate: 0.0,
            notify_delay: Nanos::ZERO,
            xs_fail_rate: 0.0,
        }
    }

    /// Arms per-op grant-copy failures.
    pub fn with_copy_failures(mut self, rate: f64) -> FaultPlan {
        self.copy_fail_rate = rate;
        self
    }

    /// Arms notification drops.
    pub fn with_notify_drops(mut self, rate: f64) -> FaultPlan {
        self.notify_drop_rate = rate;
        self
    }

    /// Arms notification delays of `delay` each.
    pub fn with_notify_delays(mut self, rate: f64, delay: Nanos) -> FaultPlan {
        self.notify_delay_rate = rate;
        self.notify_delay = delay;
        self
    }

    /// Arms xenstore op failures.
    pub fn with_xs_failures(mut self, rate: f64) -> FaultPlan {
        self.xs_fail_rate = rate;
        self
    }

    /// Decides whether the next grant-copy op should fail.
    pub fn fail_copy_op(&mut self) -> bool {
        if self.copy_fail_rate <= 0.0 {
            return false;
        }
        self.rng.chance(self.copy_fail_rate)
    }

    /// Decides whether the next notification is dropped.
    pub fn drop_notify(&mut self) -> bool {
        if self.notify_drop_rate <= 0.0 {
            return false;
        }
        self.rng.chance(self.notify_drop_rate)
    }

    /// Extra delivery latency for the next notification (usually zero).
    pub fn notify_delay(&mut self) -> Nanos {
        if self.notify_delay_rate <= 0.0 {
            return Nanos::ZERO;
        }
        if self.rng.chance(self.notify_delay_rate) {
            self.notify_delay
        } else {
            Nanos::ZERO
        }
    }

    /// Decides whether the next charged xenstore op fails, and with what.
    pub fn fail_xs(&mut self) -> Option<XenError> {
        if self.xs_fail_rate <= 0.0 {
            return None;
        }
        if self.rng.chance(self.xs_fail_rate) {
            // EAGAIN: the transient, retry-me shape real xenstored clients
            // must already handle.
            Some(XenError::Again)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_plan_is_inert_and_random_free() {
        let mut p = FaultPlan::none();
        for _ in 0..100 {
            assert!(!p.fail_copy_op());
            assert!(!p.drop_notify());
            assert_eq!(p.notify_delay(), Nanos::ZERO);
            assert_eq!(p.fail_xs(), None);
        }
        // The RNG never advanced: same internal stream as a fresh plan.
        let mut fresh = FaultPlan::none().with_copy_failures(0.5);
        p.copy_fail_rate = 0.5;
        for _ in 0..64 {
            assert_eq!(p.fail_copy_op(), fresh.fail_copy_op());
        }
    }

    #[test]
    fn seeded_plans_are_deterministic() {
        let run = |seed| {
            let mut p = FaultPlan::seeded(seed)
                .with_copy_failures(0.25)
                .with_notify_drops(0.25);
            let mut pattern = Vec::new();
            for _ in 0..256 {
                pattern.push((p.fail_copy_op(), p.drop_notify()));
            }
            pattern
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn rates_hit_roughly_that_often() {
        let mut p = FaultPlan::seeded(3).with_xs_failures(0.3);
        let mut hits = 0;
        for _ in 0..10_000 {
            if p.fail_xs().is_some() {
                hits += 1;
            }
        }
        assert!((2_500..3_500).contains(&hits), "hits={hits}");
    }
}
