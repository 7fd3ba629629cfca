//! Serializing resource models: links and CPUs.
//!
//! Both models answer the same question — "if a unit of work arrives at
//! virtual time `t`, when does it finish?" — while tracking what the
//! experiments report: CPU utilization (Figure 10b) and the frames a
//! saturated link drops (Figure 6).

use crate::sched::Scheduler;
use crate::time::Nanos;

/// A point-to-point link with a fixed bit rate and propagation latency.
///
/// Frames serialize one at a time: a frame arriving while a previous frame
/// is still being clocked out queues behind it. The transmit queue has a
/// finite byte capacity; overflow drops model NIC ring exhaustion (nuttcp's
/// UDP loss in Figure 6).
#[derive(Clone, Debug)]
pub struct Link {
    /// Link bit rate in bits per second.
    pub rate_bps: u64,
    /// One-way propagation + PHY latency.
    pub latency: Nanos,
    /// Transmit queue capacity in bytes.
    pub queue_bytes: u64,
    next_free: Nanos,
    dropped: u64,
}

/// Outcome of a link transmit attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxOutcome {
    /// Frame accepted; it departs the sender at `departs` and arrives at the
    /// receiver at `arrives`.
    Sent { departs: Nanos, arrives: Nanos },
    /// Queue full: frame dropped.
    Dropped,
}

impl Link {
    /// Creates a link with the given rate, latency and queue capacity.
    pub fn new(rate_bps: u64, latency: Nanos, queue_bytes: u64) -> Link {
        Link {
            rate_bps,
            latency,
            queue_bytes,
            next_free: Nanos::ZERO,
            dropped: 0,
        }
    }

    /// A 10GbE link with typical SFP+ direct-attach latency.
    pub fn ten_gbe() -> Link {
        // 512 KiB of transmit ring is in line with an 82599's per-queue
        // descriptor capacity at MTU-sized frames.
        Link::new(10_000_000_000, Nanos::from_micros(1), 512 * 1024)
    }

    /// Time to clock `bytes` onto the wire at this link's rate.
    pub fn serialization_delay(&self, bytes: u64) -> Nanos {
        Nanos((bytes * 8).saturating_mul(1_000_000_000) / self.rate_bps)
    }

    /// Bytes sitting in the transmit queue at `now` (accepted but not yet
    /// clocked onto the wire). The queue drains continuously at the link
    /// rate.
    pub fn backlog_bytes(&self, now: Nanos) -> u64 {
        let pending_ns = self.next_free.saturating_sub(now).as_nanos() as u128;
        (pending_ns * self.rate_bps as u128 / 8_000_000_000u128) as u64
    }

    /// Attempts to transmit a frame of `bytes` at time `now`.
    pub fn transmit(&mut self, now: Nanos, bytes: u64) -> TxOutcome {
        if self.backlog_bytes(now) + bytes > self.queue_bytes {
            self.dropped += 1;
            return TxOutcome::Dropped;
        }
        let start = self.next_free.max(now);
        let ser = self.serialization_delay(bytes);
        let departs = start + ser;
        self.next_free = departs;
        TxOutcome::Sent {
            departs,
            arrives: departs + self.latency,
        }
    }

    /// Attempts to transmit a frame of `bytes` at time `now`, scheduling
    /// an arrival event on `sched` if the frame is accepted.
    ///
    /// `arrival` maps the arrival instant to the event payload; it runs
    /// only on success, so a dropped frame costs no payload construction.
    /// The returned outcome lets the caller account drops.
    pub fn transmit_then<E, S: Scheduler<E>>(
        &mut self,
        sched: &mut S,
        now: Nanos,
        bytes: u64,
        arrival: impl FnOnce(Nanos) -> E,
    ) -> TxOutcome {
        let outcome = self.transmit(now, bytes);
        if let TxOutcome::Sent { arrives, .. } = outcome {
            sched.schedule_at(arrives, arrival(arrives));
        }
        outcome
    }

    /// Frames dropped due to queue overflow.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// A serially executing CPU with utilization accounting.
///
/// Work submitted while the CPU is busy queues behind the current work —
/// this is how the single-vCPU driver domains of the paper are modeled, and
/// why a slow interrupt handler would delay subsequent notifications
/// (the design problem Kite's dedicated threads solve).
#[derive(Clone, Debug, Default)]
pub struct Cpu {
    next_free: Nanos,
    busy_accum: Nanos,
    slices: u64,
}

impl Cpu {
    /// Creates an idle CPU.
    pub fn new() -> Cpu {
        Cpu::default()
    }

    /// Runs `cost` of work starting no earlier than `now`.
    ///
    /// Returns the completion time. The caller is responsible for scheduling
    /// a completion event at that instant.
    pub fn run(&mut self, now: Nanos, cost: Nanos) -> Nanos {
        let start = self.next_free.max(now);
        let done = start + cost;
        self.next_free = done;
        self.busy_accum += cost;
        self.slices += 1;
        done
    }

    /// The earliest instant at which new work could begin.
    pub fn free_at(&self) -> Nanos {
        self.next_free
    }

    /// True if the CPU has no queued work at `now`.
    pub fn idle_at(&self, now: Nanos) -> bool {
        self.next_free <= now
    }

    /// Total busy time accumulated.
    pub fn busy(&self) -> Nanos {
        self.busy_accum
    }

    /// Number of work slices executed.
    pub fn slices(&self) -> u64 {
        self.slices
    }

    /// Utilization over a window, in percent (sysstat-style).
    pub fn utilization_percent(&self, window: Nanos) -> f64 {
        if window == Nanos::ZERO {
            0.0
        } else {
            (100.0 * self.busy_accum.as_nanos() as f64 / window.as_nanos() as f64).min(100.0)
        }
    }
}

/// A pool of `M` serially executing vCPUs.
///
/// Models a multi-vCPU driver domain: work pinned to vCPU `k` queues
/// behind earlier work on the same vCPU but runs concurrently (in
/// virtual time) with work on the other vCPUs. A pool of one behaves
/// exactly like a single [`Cpu`] — the legacy single-vCPU model is the
/// `M = 1` special case, not a separate code path.
#[derive(Clone, Debug)]
pub struct CpuPool {
    cpus: Vec<Cpu>,
}

impl CpuPool {
    /// Creates a pool of `n` idle vCPUs (`n` is clamped to at least 1).
    pub fn new(n: usize) -> CpuPool {
        CpuPool {
            cpus: vec![Cpu::new(); n.max(1)],
        }
    }

    /// Number of vCPUs in the pool.
    pub fn len(&self) -> usize {
        self.cpus.len()
    }

    /// Always false: a pool holds at least one vCPU.
    pub fn is_empty(&self) -> bool {
        self.cpus.is_empty()
    }

    /// Runs `cost` of work on vCPU `idx % len` starting no earlier than
    /// `now`; returns the completion time. Callers pin related work
    /// (e.g. one backend queue) to a fixed `idx` so it stays serialized
    /// while unrelated queues proceed on other vCPUs.
    pub fn run_on(&mut self, idx: usize, now: Nanos, cost: Nanos) -> Nanos {
        let n = self.cpus.len();
        self.cpus[idx % n].run(now, cost)
    }

    /// The earliest instant at which new work could begin on vCPU
    /// `idx % len`.
    pub fn free_at(&self, idx: usize) -> Nanos {
        let n = self.cpus.len();
        self.cpus[idx % n].free_at()
    }

    /// True if every vCPU has drained its queued work at `now`.
    pub fn idle_at(&self, now: Nanos) -> bool {
        self.cpus.iter().all(|c| c.idle_at(now))
    }

    /// Total busy time accumulated across all vCPUs.
    pub fn busy(&self) -> Nanos {
        self.cpus.iter().fold(Nanos::ZERO, |acc, c| acc + c.busy())
    }

    /// Busy time accumulated by each vCPU, unclamped. The mean that
    /// [`utilization_percent`](Self::utilization_percent) reports hides
    /// skew (and saturates at 100): this is the row to read when a
    /// multi-queue number looks capped.
    pub fn busy_each(&self) -> Vec<Nanos> {
        self.cpus.iter().map(Cpu::busy).collect()
    }

    /// Total work slices executed across all vCPUs.
    pub fn slices(&self) -> u64 {
        self.cpus.iter().map(Cpu::slices).sum()
    }

    /// Mean per-vCPU utilization over a window, in percent: the pool
    /// analogue of [`Cpu::utilization_percent`], so a saturated 4-vCPU
    /// pool still reads 100%, not 400%.
    pub fn utilization_percent(&self, window: Nanos) -> f64 {
        self.cpus
            .iter()
            .map(|c| c.utilization_percent(window))
            .sum::<f64>()
            / self.cpus.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_delay_matches_rate() {
        let l = Link::new(1_000_000_000, Nanos::ZERO, u64::MAX); // 1 Gbps
                                                                 // 125 bytes = 1000 bits = 1us at 1Gbps.
        assert_eq!(l.serialization_delay(125), Nanos::from_micros(1));
    }

    #[test]
    fn frames_serialize_back_to_back() {
        let mut l = Link::new(1_000_000_000, Nanos::from_micros(5), u64::MAX);
        let a = l.transmit(Nanos::ZERO, 125);
        let b = l.transmit(Nanos::ZERO, 125);
        match (a, b) {
            (
                TxOutcome::Sent {
                    departs: d1,
                    arrives: a1,
                },
                TxOutcome::Sent {
                    departs: d2,
                    arrives: a2,
                },
            ) => {
                assert_eq!(d1, Nanos::from_micros(1));
                assert_eq!(a1, Nanos::from_micros(6));
                assert_eq!(d2, Nanos::from_micros(2));
                assert_eq!(a2, Nanos::from_micros(7));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn queue_overflow_drops() {
        let mut l = Link::new(1_000, Nanos::ZERO, 100); // absurdly slow
        assert!(matches!(
            l.transmit(Nanos::ZERO, 80),
            TxOutcome::Sent { .. }
        ));
        assert_eq!(l.transmit(Nanos::ZERO, 80), TxOutcome::Dropped);
        assert_eq!(l.dropped(), 1);
    }

    #[test]
    fn queue_drains_continuously() {
        let mut l = Link::new(8_000, Nanos::ZERO, 100); // 1000 bytes/s
        assert!(matches!(
            l.transmit(Nanos::ZERO, 80),
            TxOutcome::Sent { .. }
        ));
        assert_eq!(l.backlog_bytes(Nanos::ZERO), 80);
        // Halfway through serialization, half the bytes have left.
        assert_eq!(l.backlog_bytes(Nanos::from_millis(40)), 40);
        // Another frame fits once enough drained.
        assert!(matches!(
            l.transmit(Nanos::from_millis(40), 60),
            TxOutcome::Sent { .. }
        ));
        assert_eq!(l.dropped(), 0);
    }

    #[test]
    fn cpu_serializes_work() {
        let mut c = Cpu::new();
        let d1 = c.run(Nanos::ZERO, Nanos::from_micros(10));
        let d2 = c.run(Nanos::ZERO, Nanos::from_micros(5));
        assert_eq!(d1, Nanos::from_micros(10));
        assert_eq!(d2, Nanos::from_micros(15));
        assert!(!c.idle_at(Nanos::from_micros(14)));
        assert!(c.idle_at(Nanos::from_micros(15)));
    }

    #[test]
    fn cpu_idle_gap_not_counted_busy() {
        let mut c = Cpu::new();
        c.run(Nanos::ZERO, Nanos::from_micros(10));
        c.run(Nanos::from_micros(90), Nanos::from_micros(10));
        assert_eq!(c.busy(), Nanos::from_micros(20));
        assert!((c.utilization_percent(Nanos::from_micros(100)) - 20.0).abs() < 1e-9);
        assert_eq!(c.slices(), 2);
    }

    #[test]
    fn pool_of_one_matches_single_cpu() {
        let mut pool = CpuPool::new(1);
        let mut cpu = Cpu::new();
        for i in 0..8u64 {
            let now = Nanos::from_micros(3 * i);
            let cost = Nanos::from_micros(5);
            // Any pin index lands on the only vCPU.
            assert_eq!(pool.run_on(i as usize, now, cost), cpu.run(now, cost));
        }
        assert_eq!(pool.busy(), cpu.busy());
        assert_eq!(pool.slices(), cpu.slices());
    }

    #[test]
    fn pool_runs_distinct_pins_concurrently() {
        let mut pool = CpuPool::new(4);
        let cost = Nanos::from_micros(10);
        // Four queues' worth of work submitted at t=0 all finish at 10us.
        for q in 0..4 {
            assert_eq!(pool.run_on(q, Nanos::ZERO, cost), Nanos::from_micros(10));
        }
        // Same-pin work still serializes.
        assert_eq!(pool.run_on(0, Nanos::ZERO, cost), Nanos::from_micros(20));
        assert!(!pool.idle_at(Nanos::from_micros(19)));
        assert!(pool.idle_at(Nanos::from_micros(20)));
        assert_eq!(pool.busy(), Nanos::from_micros(50));
    }

    #[test]
    fn transmit_then_schedules_the_arrival() {
        use crate::sched::{EventSched, SchedulerKind};
        let mut sched: EventSched<&str> = EventSched::new(SchedulerKind::Wheel);
        let mut l = Link::new(1_000_000_000, Nanos::from_micros(5), u64::MAX);
        let tx = l.transmit_then(&mut sched, Nanos::ZERO, 125, |_| "frame-arrives");
        assert!(matches!(tx, TxOutcome::Sent { .. }));
        assert_eq!(sched.pop(), Some((Nanos::from_micros(6), "frame-arrives")));
        assert_eq!(sched.pop(), None);
    }

    #[test]
    fn pool_utilization_is_mean_per_vcpu() {
        let mut pool = CpuPool::new(2);
        pool.run_on(0, Nanos::ZERO, Nanos::from_micros(10));
        // vCPU 0 is 100% busy over 10us, vCPU 1 idle: mean is 50%.
        assert!((pool.utilization_percent(Nanos::from_micros(10)) - 50.0).abs() < 1e-9);
        // The per-vCPU view shows the skew the mean hides, unclamped.
        pool.run_on(0, Nanos::ZERO, Nanos::from_micros(10));
        assert_eq!(
            pool.busy_each(),
            [Nanos::from_micros(20), Nanos::ZERO],
            "200% of the window on vCPU 0"
        );
    }
}
