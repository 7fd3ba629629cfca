//! Redis + redis-benchmark (Figure 9): pipelined SET/GET throughput.
//!
//! The paper runs redis-benchmark in pipeline mode (`-P 1000`) varying the
//! thread count 5–20 and reports SET and GET ops/s on a log scale — both
//! flat across threads and nearly identical between Kite and Linux (the
//! pipelined path is throughput-bound, not latency-bound).

use kite_sim::Nanos;
use kite_system::BackendOs;

use crate::common::{rr_closed_loop, RrConfig};

/// Thread counts of Figure 9.
pub const FIG9_THREADS: [u16; 4] = [5, 10, 15, 20];

/// One Redis measurement.
#[derive(Clone, Debug)]
pub struct RedisReport {
    /// Benchmark threads.
    pub threads: u16,
    /// SET operations per second.
    pub set_ops_per_sec: f64,
    /// GET operations per second.
    pub get_ops_per_sec: f64,
}

fn run_op(os: BackendOs, threads: u16, is_set: bool, ops: u64, seed: u64) -> f64 {
    // Pipeline depth scaled from the paper's 1000 (stationary throughput
    // is insensitive to depth once the path is saturated).
    let pipeline = 64;
    // redis-benchmark aggregates pipelined commands into large batches on
    // the wire; value size ~1 KiB keeps the message real but small.
    let (req, rsp) = if is_set { (1024, 8) } else { (24, 1024) };
    let r = rr_closed_loop(
        os,
        seed,
        RrConfig {
            workers: threads,
            ops_per_worker: ops / u64::from(threads),
            pipeline,
            request: Box::new(move |_| (if is_set { 2 } else { 1 }, req)),
            response: Box::new(move |_| rsp),
            // Redis command processing (single-threaded server core).
            server_cost: Nanos::from_micros(4),
            port: 6379,
        },
    );
    r.ops as f64 / r.duration.as_secs_f64()
}

/// Runs SET and GET sweeps for one OS and thread count.
pub fn run(os: BackendOs, threads: u16, ops: u64, seed: u64) -> RedisReport {
    RedisReport {
        threads,
        set_ops_per_sec: run_op(os, threads, true, ops, seed),
        get_ops_per_sec: run_op(os, threads, false, ops, seed + 1),
    }
}

/// The full Figure 9 series for one OS.
pub fn figure9(os: BackendOs, ops: u64, seed: u64) -> Vec<RedisReport> {
    FIG9_THREADS
        .iter()
        .map(|&t| run(os, t, ops, seed))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_flat_across_threads_and_par() {
        let kite = figure9(BackendOs::Kite, 6000, 1);
        let linux = figure9(BackendOs::Linux, 6000, 1);
        for (k, l) in kite.iter().zip(&linux) {
            // Fig 9: similar performance, log-scale flat.
            let ratio = k.get_ops_per_sec / l.get_ops_per_sec;
            assert!((0.7..1.6).contains(&ratio), "{k:?} vs {l:?}");
            assert!(k.get_ops_per_sec > 2e4, "{k:?}");
            assert!(k.set_ops_per_sec > 2e4, "{k:?}");
        }
        // Flat: max/min within 2.5x across thread counts.
        let gets: Vec<f64> = kite.iter().map(|r| r.get_ops_per_sec).collect();
        let (mn, mx) = gets
            .iter()
            .fold((f64::MAX, 0f64), |(a, b), &x| (a.min(x), b.max(x)));
        assert!(mx / mn < 2.5, "{gets:?}");
    }
}
