//! A 10GbE NIC model (Intel 82599ES class).
//!
//! The transmit side serializes frames onto a [`Link`] after a fixed
//! per-frame driver/DMA overhead; the receive side queues arriving frames
//! and moderates interrupts (ITR-style coalescing), which is why a driver
//! domain sees *batches* of frames per IRQ at high rates — the behaviour
//! Kite's `soft_start`/`pusher` threads are built around.
//!
//! Receive is RSS: the part has one Rx ring, one ITR timer and one MSI-X
//! vector *per queue*, and [`kite_net::flow::steer`] — the hash netback
//! steers with — picks the ring, so with equal queue counts NIC ring `k`
//! feeds netback queue `k` and a flow stays in FIFO order on one ring.
//! One ring (the default) is the whole model with `steer` constant 0.

use std::collections::VecDeque;

use kite_sim::{Link, Nanos, TxOutcome};

/// Cost envelope of the NIC, consumed by [`Nic::with_profile`].
///
/// Like [`crate::NvmeProfile`], start from [`Default`]; the profile is
/// read once at construction:
///
/// ```
/// use kite_devices::{LineRate, Nic, NicProfile};
/// use kite_sim::Nanos;
/// let profile = NicProfile::default().with_line_rate(LineRate::Gbe25);
/// assert_eq!(profile.irq_coalesce, Nanos::from_micros(10));
/// let nic = Nic::with_profile(profile);
/// assert_eq!(nic.link.rate_bps, LineRate::Gbe25.bps());
/// ```
#[derive(Clone, Debug)]
pub struct NicProfile {
    /// Per-frame driver overhead (descriptor write, doorbell, DMA setup).
    pub per_frame_tx: Nanos,
    /// Extra overhead per wire segment when the TSO engine cuts a
    /// super-frame (header replication, descriptor per segment). Zero
    /// by default: hardware segmentation is nearly free next to the
    /// per-frame doorbell, which is the whole point of offload.
    pub per_seg_tx: Nanos,
    /// Line rate of the attached wire in bits per second.
    pub line_rate_bps: u64,
    /// Interrupt moderation window.
    pub irq_coalesce: Nanos,
    /// Receive ring capacity in frames (per ring).
    pub rx_queue_frames: usize,
    /// Receive rings (RSS queues), each with its own interrupt vector.
    pub rx_queues: u32,
    /// Transmit-side queueing capacity in bytes (hardware ring + qdisc).
    pub tx_queue_bytes: u64,
}

/// Wire speeds the NIC models ship profiles for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LineRate {
    /// 10GbE (Intel 82599ES class) — the default.
    Gbe10,
    /// 25GbE (Intel E810 / Mellanox CX-5 class).
    Gbe25,
    /// 100GbE (Mellanox CX-6 class).
    Gbe100,
}

impl LineRate {
    /// The raw line rate in bits per second.
    pub fn bps(self) -> u64 {
        match self {
            LineRate::Gbe10 => 10_000_000_000,
            LineRate::Gbe25 => 25_000_000_000,
            LineRate::Gbe100 => 100_000_000_000,
        }
    }
}

impl Default for NicProfile {
    fn default() -> NicProfile {
        // 82599ES at 10GbE: ITR default ≈ 20 µs; BQL keeps the hardware
        // ring short but the qdisc absorbs tens of MB of TSO-era bursts.
        NicProfile {
            per_frame_tx: Nanos::from_nanos(250),
            per_seg_tx: Nanos::ZERO,
            line_rate_bps: LineRate::Gbe10.bps(),
            irq_coalesce: Nanos::from_micros(20),
            rx_queue_frames: 2048,
            rx_queues: 1,
            tx_queue_bytes: 64 * 1024 * 1024,
        }
    }
}

impl NicProfile {
    /// Selects a wire speed. Faster parts also moderate interrupts
    /// harder: the ITR window shrinks with the line rate so the IRQ
    /// rate per byte stays in the envelope real drivers target.
    pub fn with_line_rate(mut self, rate: LineRate) -> NicProfile {
        self.line_rate_bps = rate.bps();
        self.irq_coalesce = match rate {
            LineRate::Gbe10 => Nanos::from_micros(20),
            LineRate::Gbe25 => Nanos::from_micros(10),
            LineRate::Gbe100 => Nanos::from_micros(5),
        };
        self
    }

    /// Selects the number of RSS receive rings (the NIC builds at least
    /// one): a driver domain asks for one per netback queue.
    pub fn with_rx_queues(mut self, n: u32) -> NicProfile {
        self.rx_queues = n;
        self
    }
}

/// Receive-side interrupt decision from [`Nic::rx_enqueue`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RxIrq {
    /// Deliver receive ring `ring`'s interrupt at `at`.
    FireAt {
        /// When the vector fires.
        at: Nanos,
        /// The ring the frame steered to.
        ring: u16,
    },
    /// The ring's interrupt is already pending; the frame rides along.
    AlreadyPending,
    /// The ring overflowed; the frame was dropped.
    Dropped,
}

/// One receive ring's state: its frames and its interrupt moderation.
#[derive(Clone, Debug, Default)]
struct RxRingState {
    frames: VecDeque<Vec<u8>>,
    irq_pending: bool,
    last_irq: Nanos,
}

/// The driver's handle on one receive ring ([`Nic::rx`]).
pub struct RxRing<'a> {
    ring: &'a mut RxRingState,
    irq_coalesce: Nanos,
}

impl RxRing<'_> {
    /// The ring's interrupt handler ran at `now`: moves up to `budget`
    /// queued frames onto the end of `out` and re-arms the ring's
    /// moderation.
    pub fn drain_into(self, now: Nanos, budget: usize, out: &mut Vec<Vec<u8>>) {
        self.ring.last_irq = now;
        self.ring.irq_pending = false;
        let n = budget.min(self.ring.frames.len());
        out.extend(self.ring.frames.drain(..n));
    }

    /// [`drain_into`](Self::drain_into) a fresh list.
    pub fn drain(self, now: Nanos, budget: usize) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        self.drain_into(now, budget, &mut out);
        out
    }

    /// Marks the ring's interrupt pending without a frame (poll-again
    /// path).
    ///
    /// Returns when it should fire, or `None` if the ring is empty or
    /// its interrupt is already pending.
    pub fn rearm_irq(self, now: Nanos) -> Option<Nanos> {
        if self.ring.frames.is_empty() || self.ring.irq_pending {
            return None;
        }
        self.ring.irq_pending = true;
        Some((self.ring.last_irq + self.irq_coalesce).max(now))
    }
}

/// The NIC model.
#[derive(Clone, Debug)]
pub struct Nic {
    /// Wire-facing transmit side.
    pub link: Link,
    profile: NicProfile,
    rings: Vec<RxRingState>,
    rx_dropped: u64,
}

impl Nic {
    /// A 10GbE NIC with 82599-like parameters.
    pub fn ten_gbe() -> Nic {
        Nic::with_profile(NicProfile::default())
    }

    /// A NIC with an explicit cost profile (wire speed included).
    pub fn with_profile(profile: NicProfile) -> Nic {
        let mut link = Link::ten_gbe();
        link.rate_bps = profile.line_rate_bps;
        link.queue_bytes = profile.tx_queue_bytes;
        Nic {
            link,
            rings: vec![RxRingState::default(); profile.rx_queues.max(1) as usize],
            profile,
            rx_dropped: 0,
        }
    }

    /// Transmits a (possibly TSO-segmented) frame: one per-frame
    /// doorbell, plus the per-segment engine cost for every wire
    /// segment the super-frame resolves to. `wire_bytes` already
    /// includes the replicated headers and per-segment overhead.
    pub fn transmit_segs(&mut self, now: Nanos, wire_bytes: u64, segs: u32) -> TxOutcome {
        let cost = self.profile.per_frame_tx + self.profile.per_seg_tx * segs as u64;
        self.link.transmit(now + cost, wire_bytes)
    }

    /// A frame arrived from the wire: RSS steers it to a receive ring,
    /// which queues it and decides on that ring's interrupt.
    pub fn rx_enqueue(&mut self, now: Nanos, frame: Vec<u8>) -> RxIrq {
        let k = kite_net::flow::steer(&frame, self.rings.len() as u32) as usize;
        let ring = &mut self.rings[k];
        if ring.frames.len() >= self.profile.rx_queue_frames {
            self.rx_dropped += 1;
            return RxIrq::Dropped;
        }
        ring.frames.push_back(frame);
        if ring.irq_pending {
            return RxIrq::AlreadyPending;
        }
        ring.irq_pending = true;
        RxIrq::FireAt {
            at: (ring.last_irq + self.profile.irq_coalesce).max(now),
            ring: k as u16,
        }
    }

    /// Receive ring `k`, as its interrupt handler sees it.
    pub fn rx(&mut self, k: usize) -> RxRing<'_> {
        RxRing {
            ring: &mut self.rings[k],
            irq_coalesce: self.profile.irq_coalesce,
        }
    }

    /// The one-ring NIC's handler: [`RxRing::drain`] on ring 0.
    pub fn drain_rx(&mut self, now: Nanos, budget: usize) -> Vec<Vec<u8>> {
        self.rx(0).drain(now, budget)
    }

    /// Frames dropped by receive-queue overflow.
    pub fn rx_dropped(&self) -> u64 {
        self.rx_dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fire(at: Nanos, ring: u16) -> RxIrq {
        RxIrq::FireAt { at, ring }
    }

    #[test]
    fn transmit_adds_overhead_then_serializes() {
        let mut nic = Nic::ten_gbe();
        match nic.transmit_segs(Nanos::ZERO, 1538, 1) {
            TxOutcome::Sent { departs, .. } => {
                // 250ns overhead + 1538B at 10Gbps = 1230.4ns.
                assert_eq!(departs.as_nanos(), 250 + 1230);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn line_rate_profiles_scale_serialization() {
        let mut nic25 = Nic::with_profile(NicProfile::default().with_line_rate(LineRate::Gbe25));
        match nic25.transmit_segs(Nanos::ZERO, 1538, 1) {
            TxOutcome::Sent { departs, .. } => {
                // 250ns overhead + 1538B at 25Gbps = 492.1ns.
                assert_eq!(departs.as_nanos(), 250 + 492);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(nic25.profile.irq_coalesce, Nanos::from_micros(10));
        let nic100 = Nic::with_profile(NicProfile::default().with_line_rate(LineRate::Gbe100));
        assert_eq!(nic100.link.rate_bps, LineRate::Gbe100.bps());
    }

    #[test]
    fn per_segment_cost_is_charged_per_tso_segment() {
        let mut nic = Nic::with_profile(NicProfile {
            per_seg_tx: Nanos::from_nanos(40),
            ..NicProfile::default()
        });
        match nic.transmit_segs(Nanos::ZERO, 1538, 4) {
            TxOutcome::Sent { departs, .. } => {
                assert_eq!(departs.as_nanos(), 250 + 4 * 40 + 1230);
            }
            other => panic!("{other:?}"),
        }
        // The default profile charges nothing per segment, so a
        // 16-segment super-frame departs like one frame of its bytes.
        let mut plain = Nic::ten_gbe();
        let a = plain.transmit_segs(Nanos::ZERO, 1538, 1);
        let mut plain2 = Nic::ten_gbe();
        let b = plain2.transmit_segs(Nanos::ZERO, 1538, 16);
        assert_eq!(a, b);
    }

    #[test]
    fn first_rx_fires_immediately_then_coalesces() {
        let mut nic = Nic::ten_gbe();
        let t0 = Nanos::from_micros(100);
        assert_eq!(nic.rx_enqueue(t0, vec![0; 100]), fire(t0, 0));
        // While pending, more frames ride along.
        assert_eq!(nic.rx_enqueue(t0, vec![0; 100]), RxIrq::AlreadyPending);
        // Handler drains both.
        let frames = nic.drain_rx(t0, 64);
        assert_eq!(frames.len(), 2);
        // Next frame soon after is moderated to last_irq + coalesce.
        let t1 = t0 + Nanos::from_micros(1);
        assert_eq!(
            nic.rx_enqueue(t1, vec![0; 100]),
            fire(t0 + Nanos::from_micros(20), 0)
        );
    }

    #[test]
    fn queue_overflow_drops() {
        let mut nic = Nic::ten_gbe();
        nic.profile.rx_queue_frames = 2;
        assert!(matches!(
            nic.rx_enqueue(Nanos::ZERO, vec![1]),
            RxIrq::FireAt { .. }
        ));
        assert_eq!(nic.rx_enqueue(Nanos::ZERO, vec![2]), RxIrq::AlreadyPending);
        assert_eq!(nic.rx_enqueue(Nanos::ZERO, vec![3]), RxIrq::Dropped);
        assert_eq!(nic.rx_dropped(), 1);
        assert_eq!(nic.drain_rx(Nanos::ZERO, 64), [vec![1], vec![2]]);
    }

    #[test]
    fn drain_budget_leaves_backlog_and_rearm_works() {
        let mut nic = Nic::ten_gbe();
        let t0 = Nanos::ZERO;
        for i in 0..10 {
            nic.rx_enqueue(t0, vec![i]);
        }
        let got = nic.drain_rx(t0, 4);
        assert_eq!(got.len(), 4);
        // Re-arm schedules a moderated IRQ for the backlog.
        let fire = nic.rx(0).rearm_irq(t0).unwrap();
        assert_eq!(fire, t0 + nic.profile.irq_coalesce);
        // Double re-arm is suppressed.
        assert_eq!(nic.rx(0).rearm_irq(t0), None);
        assert_eq!(nic.drain_rx(fire, 64).len(), 6, "the backlog");
    }

    #[test]
    fn rearm_with_empty_queue_is_none() {
        let mut nic = Nic::ten_gbe();
        assert_eq!(nic.rx(0).rearm_irq(Nanos::ZERO), None);
    }

    // ---- RSS receive rings ---------------------------------------------

    /// A UDP frame of flow `src_port`, and the ring it steers to of `n`.
    fn flow_frame(src_port: u16, n: u32) -> (Vec<u8>, u16) {
        use kite_net::{MacAddr, UdpDatagram};
        let f = UdpDatagram::new(src_port, 9000, [0x5a; 64]).encode_frame(
            MacAddr::local(2),
            MacAddr::local(1),
            "10.0.0.1".parse().unwrap(),
            "10.0.0.2".parse().unwrap(),
        );
        let ring = kite_net::flow::steer(&f, n) as u16;
        (f, ring)
    }

    /// Two flows of a 4-ring NIC that land on different rings.
    fn two_rings() -> ((Vec<u8>, u16), (Vec<u8>, u16)) {
        let a = flow_frame(1200, 4);
        let b = (1201..)
            .map(|p| flow_frame(p, 4))
            .find(|(_, ring)| *ring != a.1)
            .expect("some flow steers elsewhere");
        (a, b)
    }

    fn four_rings() -> Nic {
        Nic::with_profile(NicProfile::default().with_rx_queues(4))
    }

    #[test]
    fn a_pending_interrupt_on_one_ring_does_not_suppress_another() {
        let mut nic = four_rings();
        let ((fa, ra), (fb, rb)) = two_rings();
        let t0 = Nanos::from_micros(100);
        assert_eq!(nic.rx_enqueue(t0, fa.clone()), fire(t0, ra));
        assert_eq!(nic.rx_enqueue(t0, fa.clone()), RxIrq::AlreadyPending);
        // Ring B has its own vector: its first frame still fires.
        assert_eq!(nic.rx_enqueue(t0, fb), fire(t0, rb));
        // Each handler sees only its own ring's frames, in order.
        assert_eq!(nic.rx(ra as usize).drain(t0, 64), vec![fa.clone(), fa]);
        assert_eq!(nic.rx(rb as usize).drain(t0, 64).len(), 1);
        assert!((0..4).all(|r| nic.rx(r).drain(t0, 64).is_empty()));
    }

    #[test]
    fn moderation_windows_are_per_ring() {
        let mut nic = four_rings();
        let ((fa, ra), (fb, rb)) = two_rings();
        let t0 = Nanos::from_micros(100);
        assert_eq!(nic.rx_enqueue(t0, fa.clone()), fire(t0, ra));
        nic.rx(ra as usize).drain(t0, 64);
        // Ring A fired at t0, so its next interrupt is moderated; ring B
        // has not fired yet and interrupts at once.
        let t1 = t0 + Nanos::from_micros(1);
        assert_eq!(
            nic.rx_enqueue(t1, fa.clone()),
            fire(t0 + nic.profile.irq_coalesce, ra)
        );
        assert_eq!(nic.rx_enqueue(t1, fb.clone()), fire(t1, rb));
        // Draining B leaves A's pending interrupt and backlog alone.
        nic.rx(rb as usize).drain(t1, 64);
        assert_eq!(nic.rx(ra as usize).rearm_irq(t1), None, "A still pending");
        assert_eq!(nic.rx(rb as usize).rearm_irq(t1), None, "B is empty");
        // The capacity is per ring too: A's one queued frame fills it.
        nic.profile.rx_queue_frames = 1;
        assert_eq!(
            nic.rx_enqueue(t1, fb),
            fire(t1 + nic.profile.irq_coalesce, rb)
        );
        assert_eq!(nic.rx_enqueue(t1, fa), RxIrq::Dropped);
        assert_eq!(nic.rx_dropped(), 1);
    }

    /// With one ring the steering is constant and the handle is the whole
    /// receive side: enqueue, moderated drain, budgeted drain and re-arm
    /// give what the single-queue model always gave, whatever the flows.
    #[test]
    fn one_ring_nic_is_the_single_queue_model() {
        let mut nic = Nic::ten_gbe();
        let itr = nic.profile.irq_coalesce;
        let t0 = Nanos::from_micros(50);
        let frames: Vec<Vec<u8>> = (0..6).map(|p| flow_frame(1200 + p, 1).0).collect();
        assert_eq!(nic.rx_enqueue(t0, frames[0].clone()), fire(t0, 0));
        for f in &frames[1..] {
            assert_eq!(nic.rx_enqueue(t0, f.clone()), RxIrq::AlreadyPending);
        }
        // A budgeted drain keeps arrival order and leaves the rest queued.
        assert_eq!(nic.drain_rx(t0, 4), frames[..4]);
        assert_eq!(nic.rx(0).rearm_irq(t0), Some(t0 + itr));
        assert_eq!(nic.rx(0).rearm_irq(t0), None);
        let t1 = t0 + itr;
        assert_eq!(nic.rx(0).drain(t1, usize::MAX), frames[4..]);
        assert_eq!(nic.rx(0).rearm_irq(t1), None);
        let t2 = t1 + Nanos::from_micros(1);
        assert_eq!(nic.rx_enqueue(t2, frames[0].clone()), fire(t1 + itr, 0));
    }
}
