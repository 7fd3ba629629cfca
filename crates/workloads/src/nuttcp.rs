//! nuttcp (Figure 6): UDP throughput with loss accounting.
//!
//! The paper runs nuttcp v8.2.2 in UDP mode with a 4 MB window and 8 KB
//! buffers, reaching ≈7 Gbps with <1.5 % loss through both driver domains.
//! We reproduce it as an open-loop client → guest UDP flood at a
//! configurable offered rate; loss emerges from NIC queue and PV-path
//! exhaustion, not from a dial.

use kite_sim::Nanos;
use kite_system::{addrs, BackendOs, NetSystem, Side};

/// nuttcp parameters.
#[derive(Clone, Debug)]
pub struct NuttcpParams {
    /// Offered rate in bits per second.
    pub offered_bps: u64,
    /// Datagram (buffer) size in bytes (paper: 8 KB).
    pub buffer_bytes: usize,
    /// Test duration (virtual).
    pub duration: Nanos,
}

impl Default for NuttcpParams {
    fn default() -> NuttcpParams {
        NuttcpParams {
            offered_bps: 7_200_000_000,
            buffer_bytes: 8192,
            duration: Nanos::from_millis(300),
        }
    }
}

/// nuttcp results.
#[derive(Clone, Debug)]
pub struct NuttcpReport {
    /// Achieved goodput in Gbps.
    pub goodput_gbps: f64,
    /// Datagram loss fraction (0..1).
    pub loss: f64,
    /// Driver-domain vCPU utilization in percent.
    pub driver_cpu: f64,
}

/// Runs the benchmark against one driver-domain OS. The third parameter
/// is ignored (kept for `benchmark/`, ROADMAP item 9).
pub fn run(os: BackendOs, params: &NuttcpParams, _seed: u64) -> NuttcpReport {
    let mut sys = NetSystem::new(os);
    // Open-loop sender: `buffer_bytes` datagrams at even spacing.
    let interval = Nanos(params.buffer_bytes as u64 * 8 * 1_000_000_000 / params.offered_bps);
    let mut t = Nanos::from_micros(100);
    let mut sent_bytes = 0u64;
    while t < params.duration {
        sys.send_udp_at(
            t,
            Side::Client,
            addrs::GUEST,
            5101,
            5100,
            vec![0x6e; params.buffer_bytes],
        );
        sent_bytes += params.buffer_bytes as u64;
        t += interval;
    }
    sys.run_to_quiescence();
    let end = sys.now();
    let received = sys.metrics.guest_rx_bytes;
    let elapsed = end.as_secs_f64().max(params.duration.as_secs_f64());
    NuttcpReport {
        goodput_gbps: received as f64 * 8.0 / elapsed / 1e9,
        loss: 1.0 - received as f64 / sent_bytes as f64,
        driver_cpu: sys.driver_cpu_percent(end),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reaches_about_seven_gbps_with_low_loss() {
        let params = NuttcpParams {
            duration: Nanos::from_millis(60),
            ..NuttcpParams::default()
        };
        for os in BackendOs::both() {
            let r = run(os, &params, 1);
            assert!(
                r.goodput_gbps > 6.2,
                "{}: goodput {:.2} Gbps too low (Fig 6: ≈7)",
                os.name(),
                r.goodput_gbps
            );
            assert!(
                r.loss < 0.015,
                "{}: loss {:.3} above the paper's 1.5%",
                os.name(),
                r.loss
            );
        }
    }

    #[test]
    fn overload_produces_loss_not_collapse() {
        // Offer 13 Gbps into a 10 Gbps wire: loss must rise, goodput must
        // stay near the achievable rate.
        let params = NuttcpParams {
            offered_bps: 13_000_000_000,
            duration: Nanos::from_millis(40),
            ..NuttcpParams::default()
        };
        let r = run(BackendOs::Kite, &params, 2);
        assert!(r.loss > 0.1, "expected heavy loss, got {:.3}", r.loss);
        assert!(r.goodput_gbps > 5.0, "goodput {:.2}", r.goodput_gbps);
    }
}
