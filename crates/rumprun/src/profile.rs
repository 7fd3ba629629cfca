//! OS overhead profiles: the per-OS costs the datapaths charge.
//!
//! The backend *mechanism* (rings, grants, event channels) is identical
//! between a Kite and a Linux driver domain — the paper deliberately mirrors
//! Linux's design and optimizations. What differs is the OS around it: how
//! an interrupt becomes a running worker and how many kernel layers a packet
//! or block request crosses. An [`OsProfile`] quantifies those per-OS costs;
//! the driver code in `kite-core` is written once and parameterized by it.
//! Every field is charged by a datapath: a cost nothing charges does not
//! belong here.

use kite_sim::{IdleWake, Nanos};

/// Per-OS cost parameters for the driver-domain data path.
#[derive(Clone, Debug)]
pub struct OsProfile {
    /// Interrupt handler entry/exit (ack + wake).
    pub irq_overhead: Nanos,
    /// Wake-to-run latency for the deferred worker on an idle vCPU.
    pub wakeup_latency: Nanos,
    /// Extra per-packet OS-layer cost on the network path (skb/mbuf
    /// handling, bridge hooks, queue disciplines).
    pub per_packet: Nanos,
    /// Extra per-request OS-layer cost on the block path (bio assembly,
    /// elevator, completion bouncing).
    pub per_block_request: Nanos,
    /// The extra dispatch latency paid when a driver vCPU has been idle
    /// (wake-from-halt VMEXIT, scheduler warm-up, softirq/workqueue
    /// thread migration). Grows with idle time up to its cap; calibrated
    /// against the paper's Figure 7 latencies.
    pub idle_wake: IdleWake,
}

/// The Kite (rumprun) profile: single address space, cooperative threads,
/// syscalls compiled to function calls, shallow NetBSD driver path.
/// The idle-wake parameters model HVM halt-exit plus the trivial BMK
/// scheduler; Linux's are much larger (softirq + kthread scheduling).
pub fn kite_profile() -> OsProfile {
    OsProfile {
        irq_overhead: Nanos::from_nanos(350),
        wakeup_latency: Nanos::from_nanos(700),
        per_packet: Nanos::from_nanos(550),
        per_block_request: Nanos::from_micros(2),
        idle_wake: IdleWake {
            cap: Nanos::from_micros(90),
            div: 50,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kite_dispatch_is_sub_microsecond_class() {
        let p = kite_profile();
        assert!(p.irq_overhead + p.wakeup_latency < Nanos::from_micros(2));
    }
}
