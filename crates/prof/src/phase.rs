//! Static registry of profiled phases.
//!
//! Every instrumented code path in the workspace names itself with one
//! of these variants. Keeping the registry closed (an enum, not interned
//! strings) is what lets the profiler state be fixed-size and the
//! disabled path allocation-free: per-phase histograms are a plain
//! `[[u64; 64]; Phase::COUNT]` array and a span entry is an array index,
//! never a hash-map lookup.

/// A profiled phase of the simulator or one of the backends.
///
/// The `Dispatch*` variants partition event dispatch by event kind so a
/// flamegraph shows *which* events dominate, not just "dispatch". The
/// remaining variants cover the named hot paths from ROADMAP item 5:
/// scheduler push/pop, netback drains, blkback submit/reap, grant-copy
/// batches, and trace emission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Phase {
    /// `EventSched::schedule_at` — heap push / wheel insert.
    SchedPush,
    /// `EventSched::pop` — heap pop / wheel scan-and-extract.
    SchedPop,
    /// Dispatch of guest application send events.
    DispatchAppSend,
    /// Dispatch of wire-propagation events (either direction).
    DispatchWire,
    /// Dispatch of NIC interrupt events.
    DispatchNicIrq,
    /// Dispatch of backend-facing IRQ / ring-kick events.
    DispatchIrq,
    /// Dispatch of block request submission events.
    DispatchBlkSubmit,
    /// Dispatch of NVMe completion-queue events.
    DispatchBlkComplete,
    /// Dispatch of fault-injection events (crash, hang, wedge).
    DispatchFault,
    /// Dispatch of recovery events (driver restarted).
    DispatchRecovery,
    /// Dispatch of health machinery ticks (heartbeat, probe).
    DispatchHealthTick,
    /// Netback TX drain (`pusher_run`): guest ring -> wire.
    NetbackTxDrain,
    /// Netback RX drain (`soft_start_run`): wire -> guest ring.
    NetbackRxDrain,
    /// Blkback request-thread submission pass.
    BlkbackSubmit,
    /// Blkback NVMe completion reaping.
    BlkbackReap,
    /// Batched grant-copy hypercall.
    GrantCopy,
    /// Tracer event emission (`Tracer::emit_with`).
    TraceEmit,
}

impl Phase {
    /// Number of phases in the registry (array dimension for per-phase
    /// state).
    pub const COUNT: usize = 17;

    /// All phases, in declaration order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::SchedPush,
        Phase::SchedPop,
        Phase::DispatchAppSend,
        Phase::DispatchWire,
        Phase::DispatchNicIrq,
        Phase::DispatchIrq,
        Phase::DispatchBlkSubmit,
        Phase::DispatchBlkComplete,
        Phase::DispatchFault,
        Phase::DispatchRecovery,
        Phase::DispatchHealthTick,
        Phase::NetbackTxDrain,
        Phase::NetbackRxDrain,
        Phase::BlkbackSubmit,
        Phase::BlkbackReap,
        Phase::GrantCopy,
        Phase::TraceEmit,
    ];

    /// Stable snake_case name used in tables, collapsed stacks, and
    /// bench rows.
    pub const fn name(self) -> &'static str {
        match self {
            Phase::SchedPush => "sched_push",
            Phase::SchedPop => "sched_pop",
            Phase::DispatchAppSend => "dispatch_app_send",
            Phase::DispatchWire => "dispatch_wire",
            Phase::DispatchNicIrq => "dispatch_nic_irq",
            Phase::DispatchIrq => "dispatch_irq",
            Phase::DispatchBlkSubmit => "dispatch_blk_submit",
            Phase::DispatchBlkComplete => "dispatch_blk_complete",
            Phase::DispatchFault => "dispatch_fault",
            Phase::DispatchRecovery => "dispatch_recovery",
            Phase::DispatchHealthTick => "dispatch_health_tick",
            Phase::NetbackTxDrain => "netback_tx_drain",
            Phase::NetbackRxDrain => "netback_rx_drain",
            Phase::BlkbackSubmit => "blkback_submit",
            Phase::BlkbackReap => "blkback_reap",
            Phase::GrantCopy => "grant_copy",
            Phase::TraceEmit => "trace_emit",
        }
    }

    /// Index into per-phase arrays.
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Inverse of [`Phase::index`]. Panics on out-of-range input.
    pub fn from_index(i: usize) -> Phase {
        Phase::ALL[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_consistent() {
        assert_eq!(Phase::ALL.len(), Phase::COUNT);
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
            assert_eq!(Phase::from_index(i), *p);
        }
    }

    #[test]
    fn names_are_unique_snake_case() {
        let mut seen = std::collections::BTreeSet::new();
        for p in Phase::ALL {
            let n = p.name();
            assert!(seen.insert(n), "duplicate phase name {n}");
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_lowercase() || c == '_' || c.is_ascii_digit()),
                "phase name {n} is not snake_case"
            );
        }
    }
}
