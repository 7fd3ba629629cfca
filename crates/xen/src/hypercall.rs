//! Hypercall cost model and per-domain accounting.
//!
//! The paper repeatedly attributes design decisions to hypercall expense
//! ("grant table operations, which involve costly hypercalls"). This module
//! makes those costs explicit and countable so experiments can report both
//! *time* spent in hypercalls and *how many* each design issues — the
//! quantity Kite's batching, persistent grants and notification suppression
//! all exist to reduce.

use kite_sim::Nanos;

/// Kinds of hypercalls the reproduction charges for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HypercallKind {
    /// `EVTCHNOP_send` — notify a peer domain.
    EvtchnSend,
    /// Other event-channel plumbing (alloc/bind/close).
    EvtchnOp,
    /// `GNTTABOP_map_grant_ref`.
    GntMap,
    /// `GNTTABOP_unmap_grant_ref` (includes TLB shootdown cost).
    GntUnmap,
    /// `GNTTABOP_copy` — hypervisor data copy (plus a per-byte charge).
    GntCopy,
    /// Xenstore operation (read/write/watch round trip to xenstored).
    XsOp,
}

/// Number of hypercall kinds (for meter arrays).
pub const HYPERCALL_KINDS: usize = 6;

impl HypercallKind {
    fn index(self) -> usize {
        match self {
            HypercallKind::EvtchnSend => 0,
            HypercallKind::EvtchnOp => 1,
            HypercallKind::GntMap => 2,
            HypercallKind::GntUnmap => 3,
            HypercallKind::GntCopy => 4,
            HypercallKind::XsOp => 5,
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            HypercallKind::EvtchnSend => "evtchn_send",
            HypercallKind::EvtchnOp => "evtchn_op",
            HypercallKind::GntMap => "gnttab_map",
            HypercallKind::GntUnmap => "gnttab_unmap",
            HypercallKind::GntCopy => "gnttab_copy",
            HypercallKind::XsOp => "xenstore_op",
        }
    }
}

/// Calibrated costs of hypervisor operations.
///
/// Base values are in line with published Xen HVM microbenchmarks on
/// Haswell/Broadwell-class hardware (a VMEXIT/VMENTRY round trip costs
/// on the order of a microsecond; unmap is costlier than map because of
/// TLB invalidation).
#[derive(Clone, Debug)]
pub struct CostModel {
    /// Base VMEXIT+dispatch+VMENTRY cost of any hypercall.
    pub hypercall_base: Nanos,
    /// Extra cost of `EVTCHNOP_send` beyond the base.
    pub evtchn_send_extra: Nanos,
    /// Extra cost per grant map operation.
    pub gnt_map_extra: Nanos,
    /// Extra cost per grant unmap (TLB shootdown).
    pub gnt_unmap_extra: Nanos,
    /// Fixed per-copy-descriptor cost of `GNTTABOP_copy`.
    pub gnt_copy_extra: Nanos,
    /// Per-byte cost of hypervisor copies (memory bandwidth bound).
    pub copy_per_byte_ps: u64,
    /// Cost of one xenstore round trip (socket/ring + xenstored work).
    pub xs_op: Nanos,
    /// Interrupt injection latency: evtchn send to handler entry in the
    /// target domain (includes virtual IRQ delivery and vmentry).
    pub irq_delivery: Nanos,
}

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel {
            hypercall_base: Nanos::from_nanos(700),
            evtchn_send_extra: Nanos::from_nanos(300),
            gnt_map_extra: Nanos::from_nanos(700),
            gnt_unmap_extra: Nanos::from_nanos(1400),
            gnt_copy_extra: Nanos::from_nanos(250),
            copy_per_byte_ps: 50, // 0.05 ns/byte ≈ 20 GB/s effective
            xs_op: Nanos::from_micros(25),
            irq_delivery: Nanos::from_micros(4),
        }
    }
}

impl CostModel {
    /// Cost of one `GNTTABOP_copy` hypercall carrying `nops` descriptors
    /// that together move `bytes` of payload.
    ///
    /// This is the batch shape real Xen exposes: the VMEXIT/VMENTRY base
    /// is paid **once per hypercall**, the fixed descriptor cost once per
    /// op, and the memory-bandwidth cost per byte. A batch of one op is
    /// exactly as expensive as the legacy single-op call, so the thin
    /// `grant_copy` wrapper costs what it always did.
    pub fn gnt_copy_batch(&self, nops: usize, bytes: usize) -> Nanos {
        self.hypercall_base
            + self.gnt_copy_extra * nops as u64
            + Nanos(bytes as u64 * self.copy_per_byte_ps / 1000)
    }

    /// Cost of a hypercall of `kind` moving `bytes` of payload.
    pub fn cost(&self, kind: HypercallKind, bytes: usize) -> Nanos {
        let extra = match kind {
            HypercallKind::EvtchnSend => self.evtchn_send_extra,
            HypercallKind::EvtchnOp => Nanos::ZERO,
            HypercallKind::GntMap => self.gnt_map_extra,
            HypercallKind::GntUnmap => self.gnt_unmap_extra,
            HypercallKind::GntCopy => {
                self.gnt_copy_extra + Nanos(bytes as u64 * self.copy_per_byte_ps / 1000)
            }
            HypercallKind::XsOp => self.xs_op,
        };
        self.hypercall_base + extra
    }
}

/// Per-domain hypercall counters and accumulated time.
#[derive(Clone, Debug, Default)]
pub struct HypercallMeter {
    counts: [u64; HYPERCALL_KINDS],
    time: [Nanos; HYPERCALL_KINDS],
}

impl HypercallMeter {
    /// Creates a zeroed meter.
    pub fn new() -> HypercallMeter {
        HypercallMeter::default()
    }

    /// Charges one hypercall of `kind` that cost `cost` (the
    /// [`CostModel`]'s price, or a batch's, which depends on the
    /// descriptor count, not just bytes).
    pub fn charge_costed(&mut self, kind: HypercallKind, cost: Nanos) {
        self.counts[kind.index()] += 1;
        self.time[kind.index()] += cost;
    }

    /// Count of hypercalls of `kind`.
    pub fn count(&self, kind: HypercallKind) -> u64 {
        self.counts[kind.index()]
    }

    /// Total hypercall count.
    pub fn total_count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Accumulated time in hypercalls of `kind`.
    pub fn time(&self, kind: HypercallKind) -> Nanos {
        self.time[kind.index()]
    }

    /// Total time in all hypercalls.
    pub fn total_time(&self) -> Nanos {
        self.time.iter().copied().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copy_cost_scales_with_bytes() {
        let m = CostModel::default();
        let small = m.cost(HypercallKind::GntCopy, 64);
        let large = m.cost(HypercallKind::GntCopy, 4096);
        assert!(large > small);
        // A 4 KiB copy adds ~328ns of per-byte cost on defaults.
        let per_byte = large.as_nanos() - m.cost(HypercallKind::GntCopy, 0).as_nanos();
        assert_eq!(per_byte, 4096 * m.copy_per_byte_ps / 1000);
    }

    #[test]
    fn unmap_costlier_than_map() {
        let m = CostModel::default();
        assert!(m.cost(HypercallKind::GntUnmap, 0) > m.cost(HypercallKind::GntMap, 0));
    }

    #[test]
    fn meter_accumulates() {
        let m = CostModel::default();
        let mut meter = HypercallMeter::new();
        let (c1, c2) = (
            m.cost(HypercallKind::EvtchnSend, 0),
            m.cost(HypercallKind::EvtchnSend, 0),
        );
        meter.charge_costed(HypercallKind::EvtchnSend, c1);
        meter.charge_costed(HypercallKind::EvtchnSend, c2);
        meter.charge_costed(HypercallKind::GntCopy, m.cost(HypercallKind::GntCopy, 4096));
        assert_eq!(meter.count(HypercallKind::EvtchnSend), 2);
        assert_eq!(meter.count(HypercallKind::GntCopy), 1);
        assert_eq!(meter.total_count(), 3);
        assert_eq!(meter.time(HypercallKind::EvtchnSend), c1 + c2);
        assert!(meter.total_time() > c1 + c2);
    }
}
