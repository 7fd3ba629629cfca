//! The Linux OS overhead profile for the shared backend mechanism.

use kite_rumprun::OsProfile;
use kite_sim::{IdleWake, Nanos};

/// Linux driver-domain profile: softirq/NAPI dispatch, kthread wakeups
/// through the scheduler, and deeper per-packet (skb, bridge netfilter
/// hooks) and per-bio block layers.
pub fn linux_profile() -> OsProfile {
    OsProfile {
        irq_overhead: Nanos::from_nanos(900),
        wakeup_latency: Nanos::from_micros(3),
        per_packet: Nanos::from_nanos(800),
        per_block_request: Nanos::from_micros(4),
        idle_wake: IdleWake {
            cap: Nanos::from_micros(295),
            div: 10,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kite_rumprun::kite_profile;

    #[test]
    fn linux_dispatch_slower_than_kite() {
        let (l, k) = (linux_profile(), kite_profile());
        assert!(l.irq_overhead + l.wakeup_latency > k.irq_overhead + k.wakeup_latency);
    }

    #[test]
    fn per_layer_costs_higher_but_same_magnitude() {
        // The paper finds Kite *competitive*, not dramatically faster: the
        // profiles must differ by small factors, not orders of magnitude.
        let l = linux_profile();
        let k = kite_profile();
        let r = l.per_packet.as_nanos() as f64 / k.per_packet.as_nanos() as f64;
        assert!((1.0..3.0).contains(&r), "per-packet ratio {r:.2}");
        let r = l.per_block_request.as_nanos() as f64 / k.per_block_request.as_nanos() as f64;
        assert!((1.0..3.0).contains(&r), "per-request ratio {r:.2}");
    }
}
