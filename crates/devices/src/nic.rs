//! A 10GbE NIC model (Intel 82599ES class).
//!
//! The transmit side serializes frames onto a [`Link`] after a fixed
//! per-frame driver/DMA overhead; the receive side queues arriving frames
//! and moderates interrupts (ITR-style coalescing), which is why a driver
//! domain sees *batches* of frames per IRQ at high rates — the behaviour
//! Kite's `soft_start`/`pusher` threads are built around.

use std::collections::VecDeque;

use kite_sim::{Link, Nanos, TxOutcome};

use crate::Device;

/// Cost envelope of the NIC, consumed by [`Nic::with_profile`].
///
/// Like [`crate::NvmeProfile`], start from [`Default`]; the profile is
/// read once at construction:
///
/// ```
/// use kite_devices::{LineRate, Nic, NicProfile};
/// use kite_sim::Nanos;
/// let nic = Nic::with_profile(NicProfile::default().with_line_rate(LineRate::Gbe25));
/// assert_eq!(nic.irq_coalesce, Nanos::from_micros(10));
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
    /// Receive queue capacity in frames.
    pub rx_queue_frames: usize,
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
}

/// Receive-side interrupt decision from [`Nic::rx_enqueue`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RxIrq {
    /// Deliver an interrupt at the given time.
    FireAt(Nanos),
    /// An interrupt is already pending; the frame rides along.
    AlreadyPending,
    /// Receive queue overflowed; the frame was dropped.
    Dropped,
}

/// The NIC model.
#[derive(Clone, Debug)]
pub struct Nic {
    /// Wire-facing transmit side.
    pub link: Link,
    /// Per-frame driver overhead (descriptor write, doorbell, DMA setup).
    pub per_frame_tx: Nanos,
    /// Extra per-wire-segment overhead when TSO cuts a super-frame.
    pub per_seg_tx: Nanos,
    /// Interrupt moderation window (82599 ITR default ≈ 20 µs at 10GbE).
    pub irq_coalesce: Nanos,
    /// Receive queue capacity in frames.
    pub rx_queue_frames: usize,
    rx_queue: VecDeque<Vec<u8>>,
    irq_pending: bool,
    last_irq: Nanos,
    rx_frames: u64,
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
            per_seg_tx: profile.per_seg_tx,
            per_frame_tx: profile.per_frame_tx,
            irq_coalesce: profile.irq_coalesce,
            rx_queue_frames: profile.rx_queue_frames,
            rx_queue: VecDeque::new(),
            irq_pending: false,
            last_irq: Nanos::ZERO,
            rx_frames: 0,
            rx_dropped: 0,
        }
    }

    /// Transmits a frame at `now`; returns wire departure/arrival or drop.
    pub fn transmit(&mut self, now: Nanos, wire_bytes: u64) -> TxOutcome {
        self.transmit_segs(now, wire_bytes, 1)
    }

    /// Transmits a (possibly TSO-segmented) frame: one per-frame
    /// doorbell, plus the per-segment engine cost for every wire
    /// segment the super-frame resolves to. `wire_bytes` already
    /// includes the replicated headers and per-segment overhead.
    pub fn transmit_segs(&mut self, now: Nanos, wire_bytes: u64, segs: u32) -> TxOutcome {
        let cost = self.per_frame_tx + self.per_seg_tx * segs as u64;
        self.link.transmit(now + cost, wire_bytes)
    }

    /// A frame arrived from the wire; queues it and decides on an IRQ.
    pub fn rx_enqueue(&mut self, now: Nanos, frame: Vec<u8>) -> RxIrq {
        if self.rx_queue.len() >= self.rx_queue_frames {
            self.rx_dropped += 1;
            return RxIrq::Dropped;
        }
        self.rx_frames += 1;
        self.rx_queue.push_back(frame);
        if self.irq_pending {
            return RxIrq::AlreadyPending;
        }
        self.irq_pending = true;
        let fire = (self.last_irq + self.irq_coalesce).max(now);
        RxIrq::FireAt(fire)
    }

    /// The driver's interrupt handler ran at `now`: drains up to `budget`
    /// queued frames and re-arms moderation.
    pub fn drain_rx(&mut self, now: Nanos, budget: usize) -> Vec<Vec<u8>> {
        self.last_irq = now;
        self.irq_pending = false;
        let n = budget.min(self.rx_queue.len());
        self.rx_queue.drain(..n).collect()
    }

    /// Frames still queued (driver should poll again before sleeping).
    pub fn rx_backlog(&self) -> usize {
        self.rx_queue.len()
    }

    /// Marks an IRQ as pending without a frame (poll-again path).
    ///
    /// Returns when it should fire, or `None` if one is already pending.
    pub fn rearm_irq(&mut self, now: Nanos) -> Option<Nanos> {
        if self.rx_queue.is_empty() || self.irq_pending {
            return None;
        }
        self.irq_pending = true;
        Some((self.last_irq + self.irq_coalesce).max(now))
    }

    /// Received frame count.
    pub fn rx_frames(&self) -> u64 {
        self.rx_frames
    }

    /// Frames dropped by receive-queue overflow.
    pub fn rx_dropped(&self) -> u64 {
        self.rx_dropped
    }
}

impl Device for Nic {
    fn model(&self) -> &'static str {
        "Intel 82599ES"
    }

    fn reset(&mut self) {
        // Frames sitting in the rx queue at reset are lost on the floor —
        // account them as drops so lifetime counters stay honest.
        self.rx_dropped += self.rx_queue.len() as u64;
        self.rx_queue.clear();
        self.irq_pending = false;
        self.last_irq = Nanos::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transmit_adds_overhead_then_serializes() {
        let mut nic = Nic::ten_gbe();
        match nic.transmit(Nanos::ZERO, 1538) {
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
        match nic25.transmit(Nanos::ZERO, 1538) {
            TxOutcome::Sent { departs, .. } => {
                // 250ns overhead + 1538B at 25Gbps = 492.1ns.
                assert_eq!(departs.as_nanos(), 250 + 492);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(nic25.irq_coalesce, Nanos::from_micros(10));
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
        // The default profile charges nothing per segment, so
        // `transmit` and `transmit_segs` agree.
        let mut plain = Nic::ten_gbe();
        let a = plain.transmit(Nanos::ZERO, 1538);
        let mut plain2 = Nic::ten_gbe();
        let b = plain2.transmit_segs(Nanos::ZERO, 1538, 16);
        assert_eq!(a, b);
    }

    #[test]
    fn first_rx_fires_immediately_then_coalesces() {
        let mut nic = Nic::ten_gbe();
        let t0 = Nanos::from_micros(100);
        assert_eq!(nic.rx_enqueue(t0, vec![0; 100]), RxIrq::FireAt(t0));
        // While pending, more frames ride along.
        assert_eq!(nic.rx_enqueue(t0, vec![0; 100]), RxIrq::AlreadyPending);
        // Handler drains both.
        let frames = nic.drain_rx(t0, 64);
        assert_eq!(frames.len(), 2);
        // Next frame soon after is moderated to last_irq + coalesce.
        let t1 = t0 + Nanos::from_micros(1);
        assert_eq!(
            nic.rx_enqueue(t1, vec![0; 100]),
            RxIrq::FireAt(t0 + Nanos::from_micros(20))
        );
    }

    #[test]
    fn queue_overflow_drops() {
        let mut nic = Nic::ten_gbe();
        nic.rx_queue_frames = 2;
        assert!(matches!(
            nic.rx_enqueue(Nanos::ZERO, vec![1]),
            RxIrq::FireAt(_)
        ));
        assert_eq!(nic.rx_enqueue(Nanos::ZERO, vec![2]), RxIrq::AlreadyPending);
        assert_eq!(nic.rx_enqueue(Nanos::ZERO, vec![3]), RxIrq::Dropped);
        assert_eq!(nic.rx_dropped(), 1);
        assert_eq!(nic.rx_frames(), 2);
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
        assert_eq!(nic.rx_backlog(), 6);
        // Re-arm schedules a moderated IRQ for the backlog.
        let fire = nic.rearm_irq(t0).unwrap();
        assert_eq!(fire, t0 + nic.irq_coalesce);
        // Double re-arm is suppressed.
        assert_eq!(nic.rearm_irq(t0), None);
    }

    #[test]
    fn rearm_with_empty_queue_is_none() {
        let mut nic = Nic::ten_gbe();
        assert_eq!(nic.rearm_irq(Nanos::ZERO), None);
    }

    #[test]
    fn reset_drops_queued_frames_and_interrupt_state() {
        let mut nic = Nic::ten_gbe();
        let t0 = Nanos::from_micros(100);
        assert!(matches!(nic.rx_enqueue(t0, vec![0; 64]), RxIrq::FireAt(_)));
        assert_eq!(nic.rx_enqueue(t0, vec![0; 64]), RxIrq::AlreadyPending);
        nic.reset();
        assert_eq!(nic.model(), "Intel 82599ES");
        assert_eq!(nic.rx_backlog(), 0);
        // Lifetime counters survive; the two queued frames count as drops.
        assert_eq!(nic.rx_frames(), 2);
        assert_eq!(nic.rx_dropped(), 2);
        // Interrupt state is clean: the next frame fires immediately.
        let t1 = Nanos::from_micros(101);
        assert_eq!(nic.rx_enqueue(t1, vec![0; 64]), RxIrq::FireAt(t1));
    }
}
