//! Network latency microbenchmarks (Figure 7): ping, Netperf, memtier.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use kite_sim::{Histogram, Nanos, OnlineStats};
use kite_system::{addrs, BackendOs, NetSystem, Reply, Side};

use crate::common::{rr_closed_loop, RrConfig};

/// One latency figure row: mean plus tail per workload, in ms.
#[derive(Clone, Copy, Debug)]
pub struct LatencyReport {
    /// ping RTTs (100 echoes at 1 s intervals).
    pub ping: WorkloadLatency,
    /// Netperf-style RR latency (1000 req/s).
    pub netperf: WorkloadLatency,
    /// memtier latency (SET:GET 1:10, 8 KB values).
    pub memtier: WorkloadLatency,
}

/// Mean and tail percentiles of one workload's latencies, in
/// milliseconds. The percentiles come from a log-bucketed
/// [`Histogram`], so they carry its ~1.4% bucket-width quantization.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadLatency {
    /// Sample mean.
    pub mean_ms: f64,
    /// Median.
    pub p50_ms: f64,
    /// 99th percentile.
    pub p99_ms: f64,
    /// 99.9th percentile.
    pub p999_ms: f64,
}

/// Latency samples of one workload run: an [`OnlineStats`] for the mean
/// (what Figure 7 plots) and a [`Histogram`] for the tail, fed from the
/// same round trips.
#[derive(Clone, Debug, Default)]
pub struct LatencyStats {
    stats: OnlineStats,
    hist: Histogram,
}

impl LatencyStats {
    /// Creates an empty accumulator.
    pub fn new() -> LatencyStats {
        LatencyStats::default()
    }

    /// Records one round-trip sample.
    pub fn push_nanos(&mut self, d: Nanos) {
        self.stats.push_nanos(d);
        self.hist.record(d);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.stats.count()
    }

    /// Sample mean in nanoseconds, or 0 if empty.
    pub fn mean(&self) -> f64 {
        self.stats.mean()
    }

    /// The mean and p50/p99/p99.9 in milliseconds (one bucket walk).
    pub fn summary_ms(&self) -> WorkloadLatency {
        let qs = self.hist.quantiles(&[0.5, 0.99, 0.999]);
        let ms = |n: Nanos| n.as_nanos() as f64 / 1e6;
        WorkloadLatency {
            mean_ms: self.mean() / 1e6,
            p50_ms: ms(qs[0]),
            p99_ms: ms(qs[1]),
            p999_ms: ms(qs[2]),
        }
    }
}

/// ping: `count` echoes at 1 s intervals. The third parameter is
/// ignored (kept for `benchmark/`, ROADMAP item 9).
pub fn ping(os: BackendOs, count: u16, _seed: u64) -> LatencyStats {
    let mut sys = NetSystem::new(os);
    for i in 0..count {
        sys.ping_at(Nanos::from_secs(1) * (u64::from(i) + 1), i);
    }
    sys.run_to_quiescence();
    // The system records each echo RTT in both shapes already; adopt
    // them instead of replaying the samples.
    LatencyStats {
        stats: sys.metrics.ping_rtts.clone(),
        hist: sys.latency_histogram().clone(),
    }
}

/// Netperf UDP_RR: `n` transactions at `rate_per_sec`. The fourth
/// parameter is ignored (kept for `benchmark/`, ROADMAP item 9).
pub fn netperf_rr(os: BackendOs, n: u64, rate_per_sec: u64, _seed: u64) -> LatencyStats {
    let mut sys = NetSystem::new(os);
    sys.set_guest_app(Box::new(|_, msg| {
        vec![Reply {
            dst_ip: msg.src_ip,
            dst_port: msg.src_port,
            src_port: msg.dst_port,
            payload: vec![1],
            cost: Nanos::from_micros(3),
        }]
    }));
    // The round trips so far, and the send time of each one in flight
    // by its client port.
    let state = Rc::new(RefCell::new((LatencyStats::new(), HashMap::new())));
    let client = Rc::clone(&state);
    sys.set_client_app(Box::new(move |now, msg| {
        let (rtts, sent) = &mut *client.borrow_mut();
        if let Some(t0) = sent.remove(&msg.dst_port) {
            rtts.push_nanos(now - t0);
        }
        Vec::new()
    }));
    let gap = Nanos(1_000_000_000 / rate_per_sec);
    for i in 0..n {
        let t = gap * (i + 1);
        let port = 10_000 + (i % 50_000) as u16;
        state.borrow_mut().1.insert(port, t);
        sys.send_udp_at(t, Side::Client, addrs::GUEST, 12865, port, vec![0]);
    }
    sys.run_to_quiescence();
    let rtts = std::mem::take(&mut state.borrow_mut().0);
    rtts
}

/// memtier against a memcached model: closed loop with `connections`
/// concurrent connections, SET:GET 1:10, `value_bytes` values, `ops` total.
pub fn memtier(os: BackendOs, connections: u16, ops: u64, value_bytes: usize) -> LatencyStats {
    const KIND_GET: u16 = 1;
    const KIND_SET: u16 = 2;
    rr_closed_loop(
        os,
        RrConfig {
            workers: connections,
            ops_per_worker: ops / u64::from(connections),
            pipeline: 1,
            request: Box::new(move |i| {
                if i.is_multiple_of(11) {
                    (KIND_SET, value_bytes)
                } else {
                    (KIND_GET, 16)
                }
            }),
            response: Box::new(move |kind| if kind == KIND_GET { value_bytes } else { 6 }),
            // Memcached op cost: hash + slab + event-loop and socket
            // syscalls per op (calibrated to Fig 7's memtier ≈0.15 ms).
            server_cost: Nanos::from_micros(105),
            port: 11211,
        },
    )
    .latency
}

/// Produces the full Figure 7 row for one OS.
pub fn figure7(os: BackendOs) -> LatencyReport {
    LatencyReport {
        ping: ping(os, 100, 0).summary_ms(),
        netperf: netperf_rr(os, 2000, 1000, 0).summary_ms(),
        memtier: memtier(os, 4, 2000, 8192).summary_ms(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure7_shape_kite_at_or_below_linux() {
        let kite = figure7(BackendOs::Kite);
        let linux = figure7(BackendOs::Linux);
        assert!(
            kite.ping.mean_ms < linux.ping.mean_ms,
            "{kite:?} vs {linux:?}"
        );
        assert!(
            kite.netperf.mean_ms < linux.netperf.mean_ms,
            "{kite:?} vs {linux:?}"
        );
        assert!(
            kite.memtier.mean_ms <= linux.memtier.mean_ms * 1.05,
            "{kite:?} vs {linux:?}"
        );
        // Magnitudes match the paper's figure.
        assert!(
            (0.2..0.45).contains(&kite.ping.mean_ms),
            "kite ping {}",
            kite.ping.mean_ms
        );
        assert!(
            (0.35..0.65).contains(&linux.ping.mean_ms),
            "linux ping {}",
            linux.ping.mean_ms
        );
        assert!(
            kite.netperf.mean_ms < 0.2,
            "kite netperf {}",
            kite.netperf.mean_ms
        );
        // Percentiles are ordered and bracket the mean for every row.
        for w in [kite.ping, kite.netperf, kite.memtier, linux.ping] {
            assert!(
                w.p50_ms <= w.p99_ms && w.p99_ms <= w.p999_ms,
                "tail must be ordered: {w:?}"
            );
            assert!(w.p50_ms > 0.0 && w.p999_ms < 10.0, "magnitude sane: {w:?}");
        }
    }

    #[test]
    fn netperf_all_transactions_complete() {
        let s = netperf_rr(BackendOs::Kite, 500, 1000, 3);
        assert_eq!(s.count(), 500);
    }

    #[test]
    fn memtier_runs_to_completion() {
        let s = memtier(BackendOs::Kite, 4, 440, 8192);
        assert_eq!(s.count(), 440);
        assert!(s.mean() > 0.0);
    }

    #[test]
    fn ping_percentiles_come_from_the_same_samples_as_the_mean() {
        let s = ping(BackendOs::Kite, 20, 5);
        assert_eq!(s.count(), 20);
        let w = s.summary_ms();
        // The median brackets the mean loosely: the RTT distribution is
        // skewed (a few fast first-wake pings pull the mean down) and
        // log buckets quantize upward by one bucket (~1.4%), but a p50
        // drawn from different samples than the mean would land far
        // outside a 2x band.
        assert!(
            w.p50_ms <= w.mean_ms * 1.5 && w.p50_ms >= w.mean_ms * 0.5,
            "{w:?}"
        );
        assert!(w.p50_ms <= w.p99_ms && w.p99_ms <= w.p999_ms, "{w:?}");
    }
}
