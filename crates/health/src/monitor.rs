//! The Dom0-side failure detector.
//!
//! [`HealthMonitor`] watches one backend domain and renders a
//! [`HealthState`] verdict on every probe from two independent signals:
//!
//! 1. **Heartbeat advance** — the monitor reads the target's
//!    [`heartbeat`] key and counts a miss when the value
//!    did not increase since the previous probe (presence is not enough:
//!    xenstored keeps a dead domain's last beat). Consecutive misses walk
//!    `Healthy → Suspect(missed=k)`; at [`MISS_THRESHOLD`] misses the
//!    verdict is `Failed`. This catches crashes, which stop the beat loop.
//! 2. **Ring progress** — the system layer hands each probe a
//!    [`ProgressSample`] of the backend's request-consumer watermark. A
//!    ring with pending requests whose consumer has not moved for
//!    [`STALL_PROBES`] consecutive probes is declared `Failed` too. This
//!    catches livelocks (`Fault::Hang` in `kite-system`) where the domain is
//!    happily beating but serving nothing.
//!
//! An SLO breach (see [`crate::slo`]) marks the backend `Suspect` without
//! escalating to `Failed` — slow is suspicious, only dead/stuck warrants
//! a restart.
//!
//! Detection latency is bounded: a probe fires at most [`PROBE_INTERVAL`]
//! after the failure, and at most [`MISS_THRESHOLD`] further probes (one
//! of which may still observe a pre-failure beat or watermark advance)
//! are needed for the verdict, so detection takes at most
//! [`DETECT_BOUND`] — the bound the recovery tests assert. Every state
//! edge emits a [`EventKind::HealthTransition`] trace event, so Perfetto
//! exports show suspicion windows as marks on Dom0's track.

use kite_sim::Nanos;
use kite_trace::EventKind;
use kite_xen::{DomainId, Hypervisor};

use crate::heartbeat;

/// How a system decides a driver domain failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum DetectionMode {
    /// The omniscient baseline: recovery starts the instant the fault is
    /// injected, with zero detection latency. Kept for ablation.
    #[default]
    Oracle,
    /// The real thing: recovery starts when the [`HealthMonitor`]'s
    /// verdict turns [`HealthState::Failed`].
    Watchdog,
}

/// Virtual time between Dom0 probes.
pub const PROBE_INTERVAL: Nanos = Nanos::from_millis(500);

/// Virtual time between the target's heartbeat publications: two beats
/// per probe window, so one missed write (e.g. an injected xenstore
/// fault) does not fake a dead domain.
pub const HEARTBEAT_INTERVAL: Nanos = Nanos(PROBE_INTERVAL.0 / 2);

/// Consecutive missed probes before the verdict is `Failed`.
pub const MISS_THRESHOLD: u32 = 3;

/// Consecutive no-progress probes (with requests pending) before the
/// verdict is `Failed`.
pub const STALL_PROBES: u32 = 3;

/// Worst-case detection latency: `PROBE_INTERVAL × (MISS_THRESHOLD + 1)`.
pub const DETECT_BOUND: Nanos = Nanos(PROBE_INTERVAL.0 * (MISS_THRESHOLD as u64 + 1));

/// The per-backend verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HealthState {
    /// Beating and making progress.
    Healthy,
    /// Something is off — missed beats, a stalling ring, or a breached
    /// SLO — but not yet conclusively dead.
    Suspect {
        /// Consecutive missed heartbeat probes (0 when the suspicion
        /// comes from a stall or an SLO breach).
        missed: u32,
    },
    /// Conclusively failed; the system layer should start recovery.
    Failed,
}

impl HealthState {
    /// Stable lower-case label for traces and `kitetop`.
    pub fn name(self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Suspect { .. } => "suspect",
            HealthState::Failed => "failed",
        }
    }

    /// Whether this verdict calls for recovery.
    pub fn is_failed(self) -> bool {
        self == HealthState::Failed
    }
}

/// One probe's view of a backend's ring progress.
///
/// `consumed` is a free-running consumer watermark (e.g. the sum of the
/// backend rings' `req_cons`); `pending` is the number of unconsumed
/// requests currently visible. The monitor only compares successive
/// `consumed` values — units don't matter as long as they advance when
/// the backend serves requests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProgressSample {
    /// Free-running count of requests consumed so far.
    pub consumed: u64,
    /// Requests currently waiting in the ring(s).
    pub pending: u64,
}

/// Watches one backend domain; see the module docs for the protocol.
#[derive(Clone, Debug)]
pub struct HealthMonitor {
    target: DomainId,
    state: HealthState,
    missed: u32,
    last_beat: Option<u64>,
    beat_seen_at: Nanos,
    /// Per-queue consumer watermarks from the previous probe. Length
    /// follows the sample vector handed to the probe (resized — with
    /// counters reset — when the backend's queue count changes, e.g.
    /// across a reconnect).
    last_consumed: Vec<Option<u64>>,
    stalled: Vec<u32>,
}

impl HealthMonitor {
    /// A monitor run by Dom0 over `target`, created at virtual time
    /// `now` in the `Healthy` state.
    pub fn new(target: DomainId, now: Nanos) -> Self {
        HealthMonitor {
            target,
            state: HealthState::Healthy,
            missed: 0,
            last_beat: None,
            beat_seen_at: now,
            last_consumed: Vec::new(),
            stalled: Vec::new(),
        }
    }

    /// The watched domain.
    pub fn target(&self) -> DomainId {
        self.target
    }

    /// The current verdict.
    pub fn state(&self) -> HealthState {
        self.state
    }

    /// Virtual time since the last observed beat *advance*.
    pub fn heartbeat_age(&self, now: Nanos) -> Nanos {
        now.saturating_sub(self.beat_seen_at)
    }

    /// Re-aims the monitor at a replacement domain (after recovery) and
    /// resets all detector state to `Healthy`.
    pub fn retarget(&mut self, hv: &mut Hypervisor, target: DomainId, now: Nanos) {
        self.target = target;
        self.missed = 0;
        self.last_beat = None;
        self.beat_seen_at = now;
        self.last_consumed.clear();
        self.stalled.clear();
        self.transition(hv, HealthState::Healthy, "recovered");
    }

    /// Runs one probe at virtual time `now`: reads the heartbeat key as
    /// Dom0, folds in one ring-progress sample *per backend queue* and the
    /// SLO verdict, and returns the new state.
    ///
    /// Stall detection is per queue: each queue's consumer watermark is
    /// compared against the previous probe's, and **any** queue frozen
    /// with pending work for [`STALL_PROBES`] consecutive probes fails the
    /// whole backend. An aggregate sample cannot do this — seven healthy
    /// queues' progress would mask the eighth's wedge indefinitely.
    /// An empty `samples` skips the stall check for this probe (counters
    /// hold); a changed queue count resets the stall counters.
    pub fn probe_queues(
        &mut self,
        hv: &mut Hypervisor,
        now: Nanos,
        samples: &[ProgressSample],
        slo_ok: bool,
    ) -> HealthState {
        // 1. Heartbeat: alive means the counter advanced since the last
        // probe (or this is the first observation of a value).
        let (read, _cost) = hv.xs_read(DomainId::DOM0, &heartbeat::key(self.target));
        let beat_ok = match read.ok().and_then(|v| v.parse::<u64>().ok()) {
            Some(b) => {
                let advanced = self.last_beat.is_none_or(|prev| b > prev);
                if advanced {
                    self.last_beat = Some(b);
                    self.beat_seen_at = now;
                }
                advanced
            }
            None => false,
        };
        if beat_ok {
            self.missed = 0;
        } else {
            self.missed += 1;
        }
        // 2. Ring progress: pending work with a frozen consumer is a
        // stall. Tracked per queue so one wedged queue cannot hide
        // behind its siblings' watermark advances.
        if !samples.is_empty() {
            if samples.len() != self.last_consumed.len() {
                self.last_consumed = vec![None; samples.len()];
                self.stalled = vec![0; samples.len()];
            }
            for (i, p) in samples.iter().enumerate() {
                if p.pending > 0 && self.last_consumed[i] == Some(p.consumed) {
                    self.stalled[i] += 1;
                } else {
                    self.stalled[i] = 0;
                }
                self.last_consumed[i] = Some(p.consumed);
            }
        }
        let worst_stall = self.stalled.iter().copied().max().unwrap_or(0);
        // 3. Verdict, hardest evidence first.
        let (next, cause) = if self.missed >= MISS_THRESHOLD {
            (HealthState::Failed, "heartbeat")
        } else if worst_stall >= STALL_PROBES {
            (HealthState::Failed, "stall")
        } else if self.missed > 0 {
            (
                HealthState::Suspect {
                    missed: self.missed,
                },
                "heartbeat",
            )
        } else if worst_stall > 0 {
            (HealthState::Suspect { missed: 0 }, "stall")
        } else if !slo_ok {
            (HealthState::Suspect { missed: 0 }, "slo")
        } else {
            (HealthState::Healthy, "recovered")
        };
        self.transition(hv, next, cause);
        self.state
    }

    fn transition(&mut self, hv: &mut Hypervisor, next: HealthState, cause: &'static str) {
        if next == self.state {
            return;
        }
        let (watched, missed) = (self.target.0, self.missed);
        hv.trace
            .emit_with(DomainId::DOM0.0, || EventKind::HealthTransition {
                watched,
                state: next.name(),
                cause,
                missed,
            });
        self.state = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heartbeat::HeartbeatPublisher;
    use kite_xen::DomainKind;

    fn setup() -> (Hypervisor, DomainId, HealthMonitor, HeartbeatPublisher) {
        let mut hv = Hypervisor::new();
        hv.create_domain("Domain-0", DomainKind::Dom0, 512, 1);
        let dd = hv.create_domain("dd", DomainKind::Driver, 128, 1);
        let mon = HealthMonitor::new(dd, Nanos::ZERO);
        (hv, dd, mon, HeartbeatPublisher::new(dd))
    }

    #[test]
    fn beating_target_stays_healthy() {
        let (mut hv, _dd, mut mon, mut hb) = setup();
        for i in 1..=10u64 {
            hb.beat(&mut hv).unwrap();
            let s = mon.probe_queues(&mut hv, Nanos::from_millis(500 * i), &[], true);
            assert_eq!(s, HealthState::Healthy);
        }
        assert_eq!(mon.heartbeat_age(Nanos::from_millis(5_000)), Nanos::ZERO);
    }

    #[test]
    fn stopped_beat_walks_suspect_then_failed() {
        let (mut hv, dd, mut mon, mut hb) = setup();
        hb.beat(&mut hv).unwrap();
        assert_eq!(
            mon.probe_queues(&mut hv, Nanos::from_millis(500), &[], true),
            HealthState::Healthy
        );
        hv.destroy_domain(dd).unwrap();
        // Beat frozen: presence is not liveness.
        assert_eq!(
            mon.probe_queues(&mut hv, Nanos::from_secs(1), &[], true),
            HealthState::Suspect { missed: 1 }
        );
        assert_eq!(
            mon.probe_queues(&mut hv, Nanos::from_millis(1_500), &[], true),
            HealthState::Suspect { missed: 2 }
        );
        assert_eq!(
            mon.probe_queues(&mut hv, Nanos::from_secs(2), &[], true),
            HealthState::Failed
        );
        // The verdict is sticky until retarget.
        assert_eq!(
            mon.probe_queues(&mut hv, Nanos::from_millis(2_500), &[], true),
            HealthState::Failed
        );
        assert!(mon.heartbeat_age(Nanos::from_secs(2)) >= Nanos::from_millis(1_500));
    }

    #[test]
    fn missing_key_counts_as_missed() {
        let (mut hv, _dd, mut mon, _hb) = setup();
        // No beat ever published: three probes reach Failed.
        mon.probe_queues(&mut hv, Nanos::from_millis(500), &[], true);
        mon.probe_queues(&mut hv, Nanos::from_secs(1), &[], true);
        let s = mon.probe_queues(&mut hv, Nanos::from_millis(1_500), &[], true);
        assert_eq!(s, HealthState::Failed);
    }

    #[test]
    fn stall_with_pending_requests_fails_after_n_probes() {
        let (mut hv, _dd, mut mon, mut hb) = setup();
        let sample = |c, p| {
            [ProgressSample {
                consumed: c,
                pending: p,
            }]
        };
        // Beating but frozen consumer with pending work: the livelock.
        hb.beat(&mut hv).unwrap();
        assert_eq!(
            mon.probe_queues(&mut hv, Nanos::from_millis(500), &sample(7, 3), true),
            HealthState::Healthy,
            "first sample is baseline"
        );
        hb.beat(&mut hv).unwrap();
        assert_eq!(
            mon.probe_queues(&mut hv, Nanos::from_secs(1), &sample(7, 4), true),
            HealthState::Suspect { missed: 0 }
        );
        hb.beat(&mut hv).unwrap();
        mon.probe_queues(&mut hv, Nanos::from_millis(1_500), &sample(7, 5), true);
        hb.beat(&mut hv).unwrap();
        assert_eq!(
            mon.probe_queues(&mut hv, Nanos::from_secs(2), &sample(7, 6), true),
            HealthState::Failed
        );
    }

    #[test]
    fn one_wedged_queue_among_many_still_fails() {
        let (mut hv, _dd, mut mon, mut hb) = setup();
        let s = |c, p| ProgressSample {
            consumed: c,
            pending: p,
        };
        // Queues 0–2 make progress every probe; queue 3 is frozen with
        // pending work. The aggregate (sum) would advance every probe
        // and never stall — per-queue tracking must fail the backend.
        for i in 1..=4u64 {
            hb.beat(&mut hv).unwrap();
            let verdict = mon.probe_queues(
                &mut hv,
                Nanos::from_millis(500 * i),
                &[s(100 * i, 1), s(90 * i, 2), s(80 * i, 0), s(7, 3)],
                true,
            );
            if i <= 1 {
                assert_eq!(verdict, HealthState::Healthy, "probe {i} is baseline");
            } else if i <= 3 {
                assert_eq!(verdict, HealthState::Suspect { missed: 0 }, "probe {i}");
            } else {
                assert_eq!(verdict, HealthState::Failed, "probe {i}");
            }
        }
    }

    #[test]
    fn queue_count_change_resets_stall_counters() {
        let (mut hv, _dd, mut mon, mut hb) = setup();
        let s = |c, p| ProgressSample {
            consumed: c,
            pending: p,
        };
        hb.beat(&mut hv).unwrap();
        mon.probe_queues(&mut hv, Nanos::from_millis(500), &[s(7, 3), s(9, 2)], true);
        hb.beat(&mut hv).unwrap();
        assert_eq!(
            mon.probe_queues(&mut hv, Nanos::from_secs(1), &[s(7, 3), s(9, 2)], true),
            HealthState::Suspect { missed: 0 }
        );
        // Reconnect with a different queue count: fresh baselines.
        hb.beat(&mut hv).unwrap();
        assert_eq!(
            mon.probe_queues(&mut hv, Nanos::from_millis(1_500), &[s(7, 3)], true),
            HealthState::Healthy
        );
    }

    #[test]
    fn idle_ring_is_not_a_stall() {
        let (mut hv, _dd, mut mon, mut hb) = setup();
        for i in 1..=8u64 {
            hb.beat(&mut hv).unwrap();
            // Consumer frozen but nothing pending: just idle.
            let s = mon.probe_queues(
                &mut hv,
                Nanos::from_millis(500 * i),
                &[ProgressSample {
                    consumed: 42,
                    pending: 0,
                }],
                true,
            );
            assert_eq!(s, HealthState::Healthy);
        }
    }

    #[test]
    fn progress_resets_the_stall_counter() {
        let (mut hv, _dd, mut mon, mut hb) = setup();
        let mut t = Nanos::ZERO;
        let mut probe = |hv: &mut Hypervisor, hb: &mut HeartbeatPublisher, c, p| {
            t += Nanos::from_millis(500);
            hb.beat(hv).unwrap();
            mon.probe_queues(
                hv,
                t,
                &[ProgressSample {
                    consumed: c,
                    pending: p,
                }],
                true,
            )
        };
        probe(&mut hv, &mut hb, 10, 5);
        assert_eq!(
            probe(&mut hv, &mut hb, 10, 5),
            HealthState::Suspect { missed: 0 }
        );
        // The consumer moved: suspicion clears.
        assert_eq!(probe(&mut hv, &mut hb, 11, 4), HealthState::Healthy);
    }

    #[test]
    fn slo_breach_is_suspicion_not_failure() {
        let (mut hv, _dd, mut mon, mut hb) = setup();
        hb.beat(&mut hv).unwrap();
        assert_eq!(
            mon.probe_queues(&mut hv, Nanos::from_millis(500), &[], false),
            HealthState::Suspect { missed: 0 }
        );
        for i in 2..=20u64 {
            hb.beat(&mut hv).unwrap();
            let s = mon.probe_queues(&mut hv, Nanos::from_millis(500 * i), &[], false);
            assert_eq!(s, HealthState::Suspect { missed: 0 }, "never escalates");
        }
        hb.beat(&mut hv).unwrap();
        assert_eq!(
            mon.probe_queues(&mut hv, Nanos::from_millis(10_500), &[], true),
            HealthState::Healthy
        );
    }

    #[test]
    fn retarget_resets_to_healthy_and_watches_the_new_domain() {
        let (mut hv, dd, mut mon, _hb) = setup();
        hv.destroy_domain(dd).unwrap();
        for i in 1..=3u64 {
            mon.probe_queues(&mut hv, Nanos::from_millis(500 * i), &[], true);
        }
        assert!(mon.state().is_failed());
        let dd2 = hv.create_domain("dd2", DomainKind::Driver, 128, 1);
        mon.retarget(&mut hv, dd2, Nanos::from_secs(9));
        assert_eq!(mon.state(), HealthState::Healthy);
        assert_eq!(mon.target(), dd2);
        let mut hb2 = HeartbeatPublisher::new(dd2);
        hb2.beat(&mut hv).unwrap();
        assert_eq!(
            mon.probe_queues(&mut hv, Nanos::from_millis(9_500), &[], true),
            HealthState::Healthy
        );
    }

    #[test]
    fn transitions_emit_health_trace_events() {
        let (mut hv, dd, mut mon, mut hb) = setup();
        hv.trace.enable(1 << 10);
        hb.beat(&mut hv).unwrap();
        mon.probe_queues(&mut hv, Nanos::from_millis(500), &[], true);
        hv.destroy_domain(dd).unwrap();
        for i in 2..=5u64 {
            mon.probe_queues(&mut hv, Nanos::from_millis(500 * i), &[], true);
        }
        // healthy→suspect(1), suspect(1)→suspect(2), suspect(2)→failed.
        let states: Vec<&str> = hv
            .trace
            .events()
            .filter_map(|e| match e.kind {
                EventKind::HealthTransition { state, .. } => Some(state),
                _ => None,
            })
            .collect();
        assert_eq!(states, ["suspect", "suspect", "failed"]);
    }

    #[test]
    fn detect_bound_is_probe_times_threshold_plus_one() {
        assert_eq!(DETECT_BOUND, Nanos::from_secs(2));
    }
}
