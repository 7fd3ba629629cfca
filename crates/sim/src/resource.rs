//! Serializing resource models: one busy-until-t resource and the
//! models built on it.
//!
//! [`Cpu`] is the only resource here that is busy until some instant:
//! work arriving at virtual time `t` starts when the resource frees and
//! runs to completion, and the time it ran is booked as busy. A driver
//! domain's vCPU, a DomU's vCPU, an NVMe flash channel and a wire are all
//! that one model. [`CpuPool`] is the only dispatch over several of them,
//! pinned ([`CpuPool::run_on`]) or least-loaded
//! ([`CpuPool::run_least_loaded`]). [`Link`] serialises frames on an
//! inner [`Cpu`] and adds what a wire has on top: a bit rate, a
//! propagation latency and a bounded transmit queue. [`IdleWake`] is the
//! one wake-from-idle formula the driver and guest vCPUs pay.

use crate::sched::Scheduler;
use crate::time::Nanos;

/// A point-to-point link with a fixed bit rate and propagation latency.
///
/// Frames serialize one at a time on the wire, a [`Cpu`] whose work is a
/// frame's serialisation delay: a frame arriving while a previous frame
/// is still being clocked out queues behind it. The transmit queue has a
/// finite byte capacity; overflow drops model NIC ring exhaustion
/// (nuttcp's UDP loss in Figure 6), and the caller counts each
/// [`TxOutcome::Dropped`].
#[derive(Clone, Debug)]
pub struct Link {
    /// Link bit rate in bits per second.
    pub rate_bps: u64,
    /// One-way propagation + PHY latency.
    pub latency: Nanos,
    /// Transmit queue capacity in bytes.
    pub queue_bytes: u64,
    wire: Cpu,
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
            wire: Cpu::new(),
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
        let pending_ns = self.wire.free_at().saturating_sub(now).as_nanos() as u128;
        (pending_ns * self.rate_bps as u128 / 8_000_000_000u128) as u64
    }

    /// Attempts to transmit a frame of `bytes` at time `now`.
    pub fn transmit(&mut self, now: Nanos, bytes: u64) -> TxOutcome {
        if self.backlog_bytes(now) + bytes > self.queue_bytes {
            return TxOutcome::Dropped;
        }
        let departs = self.wire.run(now, self.serialization_delay(bytes));
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
}

/// A serially executing resource with utilization accounting: the one
/// model of "busy until t".
///
/// Work submitted while the CPU is busy queues behind the current work —
/// this is how the single-vCPU driver domains of the paper are modeled, and
/// why a slow interrupt handler would delay subsequent notifications
/// (the design problem Kite's dedicated threads solve).
#[derive(Clone, Debug, Default)]
pub struct Cpu {
    next_free: Nanos,
    busy_accum: Nanos,
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
        done
    }

    /// The earliest instant at which new work could begin.
    pub fn free_at(&self) -> Nanos {
        self.next_free
    }

    /// Total busy time accumulated.
    pub fn busy(&self) -> Nanos {
        self.busy_accum
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

/// A pool of `M` serially executing [`Cpu`]s.
///
/// Models a multi-vCPU domain or a multi-channel device: work on member
/// `k` queues behind earlier work on the same member but runs
/// concurrently (in virtual time) with work on the others. There are two
/// dispatches. [`run_on`](Self::run_on) pins work to a member, so one
/// backend queue stays serialized on its vCPU.
/// [`run_least_loaded`](Self::run_least_loaded) gives it to the member
/// that frees first, the first of equally free ones. A pool of one
/// behaves exactly like a single [`Cpu`] under both.
///
/// A member's [`free_at`](Self::free_at) only grows, so the pool's
/// [`drained_at`](Self::drained_at) is a running maximum, not a scan.
#[derive(Clone, Debug)]
pub struct CpuPool {
    cpus: Vec<Cpu>,
    drained: Nanos,
}

impl CpuPool {
    /// Creates a pool of `n` idle vCPUs (`n` is clamped to at least 1).
    pub fn new(n: usize) -> CpuPool {
        CpuPool {
            cpus: vec![Cpu::new(); n.max(1)],
            drained: Nanos::ZERO,
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
        let done = self.cpus[idx % n].run(now, cost);
        self.drained = self.drained.max(done);
        done
    }

    /// Runs `cost` of work on the vCPU that frees first (the first of
    /// equally free ones) starting no earlier than `now`; returns the
    /// completion time.
    pub fn run_least_loaded(&mut self, now: Nanos, cost: Nanos) -> Nanos {
        let cpu = self
            .cpus
            .iter_mut()
            .min_by_key(|c| c.free_at())
            .expect("a pool holds at least one vCPU");
        let done = cpu.run(now, cost);
        self.drained = self.drained.max(done);
        done
    }

    /// The earliest instant at which new work could begin on vCPU
    /// `idx % len`.
    pub fn free_at(&self, idx: usize) -> Nanos {
        let n = self.cpus.len();
        self.cpus[idx % n].free_at()
    }

    /// When the last of the vCPUs goes idle: the latest
    /// [`free_at`](Self::free_at).
    pub fn drained_at(&self) -> Nanos {
        self.drained
    }

    /// Busy time accumulated by each vCPU, unclamped. The mean that
    /// [`utilization_percent`](Self::utilization_percent) reports hides
    /// skew (and saturates at 100): this is the row to read when a
    /// multi-queue number looks capped.
    pub fn busy_each(&self) -> Vec<Nanos> {
        self.cpus.iter().map(Cpu::busy).collect()
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

/// Wake-from-idle latency: an interrupt that finds its target idle for
/// `idle` pays `min(cap, idle / div)` before the handler runs, so a
/// longer sleep costs more up to a cap (halt exit, scheduler warm-up).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IdleWake {
    /// The most a wake can cost.
    pub cap: Nanos,
    /// Idle time per nanosecond of wake latency.
    pub div: u64,
}

impl IdleWake {
    /// The wake latency after `idle` of idle time.
    pub fn after(&self, idle: Nanos) -> Nanos {
        Nanos(idle.as_nanos() / self.div).min(self.cap)
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
        // A dropped frame never occupies the wire.
        assert_eq!(l.wire.busy(), l.serialization_delay(80));
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
    }

    #[test]
    fn link_wire_is_busy_for_the_serialisation_delays_it_sent() {
        let mut l = Link::new(1_000_000_000, Nanos::from_micros(5), u64::MAX);
        let frames = [(0, 125), (0, 1500), (40, 64), (400, 9000)];
        let mut sent = Nanos::ZERO;
        for (at, bytes) in frames {
            let tx = l.transmit(Nanos::from_micros(at), bytes);
            assert!(matches!(tx, TxOutcome::Sent { .. }));
            sent += l.serialization_delay(bytes);
        }
        // Idle gaps between frames are not busy time.
        assert_eq!(l.wire.busy(), sent);
        assert!(l.wire.free_at() > sent);
    }

    #[test]
    fn cpu_serializes_work() {
        let mut c = Cpu::new();
        let d1 = c.run(Nanos::ZERO, Nanos::from_micros(10));
        let d2 = c.run(Nanos::ZERO, Nanos::from_micros(5));
        assert_eq!(d1, Nanos::from_micros(10));
        assert_eq!(d2, Nanos::from_micros(15));
        assert_eq!(c.free_at(), Nanos::from_micros(15));
    }

    #[test]
    fn cpu_idle_gap_not_counted_busy() {
        let mut c = Cpu::new();
        c.run(Nanos::ZERO, Nanos::from_micros(10));
        c.run(Nanos::from_micros(90), Nanos::from_micros(10));
        assert_eq!(c.busy(), Nanos::from_micros(20));
        assert!((c.utilization_percent(Nanos::from_micros(100)) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn pool_of_one_matches_single_cpu() {
        let mut pinned = CpuPool::new(1);
        let mut least = CpuPool::new(1);
        let mut cpu = Cpu::new();
        for i in 0..8u64 {
            let now = Nanos::from_micros(3 * i);
            let cost = Nanos::from_micros(5);
            let done = cpu.run(now, cost);
            // Any pin index lands on the only vCPU, and so does the
            // least-loaded pick.
            assert_eq!(pinned.run_on(i as usize, now, cost), done);
            assert_eq!(least.run_least_loaded(now, cost), done);
        }
        for pool in [&pinned, &least] {
            assert_eq!(pool.busy_each(), [cpu.busy()]);
            assert_eq!(
                (pool.free_at(5), pool.drained_at()),
                (cpu.free_at(), cpu.free_at())
            );
        }
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
        assert_eq!(pool.drained_at(), Nanos::from_micros(20));
        let busy: Vec<u64> = pool.busy_each().iter().map(|b| b.as_nanos()).collect();
        assert_eq!(busy, [20_000, 10_000, 10_000, 10_000]);
    }

    #[test]
    fn least_loaded_picks_the_first_of_equally_free_vcpus() {
        let mut pool = CpuPool::new(3);
        let us = Nanos::from_micros;
        // All idle: the first vCPU takes the work, then the next free.
        assert_eq!(pool.run_least_loaded(Nanos::ZERO, us(30)), us(30));
        assert_eq!(pool.run_least_loaded(Nanos::ZERO, us(10)), us(10));
        assert_eq!(pool.busy_each(), [us(30), us(10), Nanos::ZERO]);
        // vCPU 2 is idle, so it is strictly the least loaded.
        assert_eq!(pool.run_least_loaded(Nanos::ZERO, us(10)), us(10));
        // vCPUs 1 and 2 tie at 10us: the first of them, vCPU 1, wins.
        assert_eq!(pool.run_least_loaded(Nanos::ZERO, us(5)), us(15));
        assert_eq!(pool.busy_each(), [us(30), us(15), us(10)]);
        // Work arriving after every vCPU frees starts at once.
        assert_eq!(pool.run_least_loaded(us(100), us(1)), us(101));
        assert_eq!(pool.busy_each(), [us(30), us(15), us(11)]);
    }

    #[test]
    fn drained_at_is_the_latest_free_at() {
        let mut pool = CpuPool::new(4);
        assert_eq!(pool.drained_at(), Nanos::ZERO);
        for (q, done) in [(2, 7), (0, 3), (3, 5)] {
            pool.run_on(q, Nanos::ZERO, Nanos::from_micros(done));
        }
        let latest = (0..4).map(|q| pool.free_at(q)).max().unwrap();
        assert_eq!((pool.drained_at(), latest), (Nanos::from_micros(7), latest));
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

    #[test]
    fn idle_wake_grows_with_idle_time_up_to_its_cap() {
        let wake = IdleWake {
            cap: Nanos::from_micros(90),
            div: 50,
        };
        assert_eq!(wake.after(Nanos::ZERO), Nanos::ZERO);
        assert_eq!(wake.after(Nanos::from_micros(100)), Nanos::from_micros(2));
        assert_eq!(wake.after(Nanos::from_secs(1)), wake.cap);
    }
}
