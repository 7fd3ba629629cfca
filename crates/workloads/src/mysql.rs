//! MySQL + SysBench: the network-bound run (Figure 10) and the
//! storage-bound run (Figure 13).
//!
//! Figure 10: read-only OLTP against an in-memory database — the network
//! path is stressed, DomU CPU does the query work, throughput climbs with
//! threads toward the DomU's capacity, and both driver domains look alike.
//!
//! Figure 13: complex queries against a 20 GB on-disk database — every
//! transaction issues random tablespace reads through blkfront, and the
//! curves for Kite and Linux are identical.

use std::cell::Cell;
use std::rc::Rc;

use kite_sim::{Nanos, Pcg};
use kite_system::{BackendOs, IoKind, IoOp, StorSystem};

use crate::common::{rr_closed_loop, stor_closed_loop, RrConfig};

/// Thread counts of Figure 10a.
pub const FIG10_THREADS: [u16; 5] = [5, 10, 20, 40, 60];

/// One network-run measurement (Figure 10).
#[derive(Clone, Debug)]
pub struct MysqlNetReport {
    /// SysBench threads.
    pub threads: u16,
    /// Transactions per second.
    pub tps: f64,
    /// DomU mean CPU utilization percent (Figure 10b).
    pub guest_cpu: f64,
}

/// Runs the read-only network-bound benchmark (Figure 10).
pub fn run_net(os: BackendOs, threads: u16, transactions: u64, seed: u64) -> MysqlNetReport {
    let r = rr_closed_loop(
        os,
        seed,
        RrConfig {
            workers: threads,
            ops_per_worker: transactions / u64::from(threads),
            pipeline: 1,
            // One transaction = 14 read-only statements batched on the
            // wire: ~700 B of SQL, ~9 KB of result rows.
            request: Box::new(|_| (1, 700)),
            response: Box::new(|_| 9 * 1024),
            // Transaction CPU cost on the (22-vCPU) DomU.
            server_cost: Nanos::from_micros(3600),
            port: 3306,
        },
    );
    MysqlNetReport {
        threads,
        tps: r.ops as f64 / r.duration.as_secs_f64(),
        guest_cpu: r.guest_cpu,
    }
}

/// The Figure 10 sweep for one OS.
pub fn figure10(os: BackendOs, transactions: u64, seed: u64) -> Vec<MysqlNetReport> {
    FIG10_THREADS
        .iter()
        .map(|&t| run_net(os, t, transactions, seed))
        .collect()
}

/// One storage-run measurement (Figure 13).
#[derive(Clone, Debug)]
pub struct MysqlStorageReport {
    /// SysBench threads.
    pub threads: u16,
    /// Transactions per second.
    pub tps: f64,
    /// Tablespace read throughput in MB/s.
    pub read_mbps: f64,
}

/// Runs the disk-bound complex-query benchmark (Figure 13).
///
/// Each simulated transaction performs `reads_per_tx` random 16 KiB
/// tablespace reads (InnoDB page size) over a `dataset_mib` tablespace;
/// a worker starts its next transaction when the previous one completes.
pub fn run_storage(
    os: BackendOs,
    threads: u16,
    transactions_per_thread: u64,
    seed: u64,
) -> MysqlStorageReport {
    const PAGE: usize = 16 * 1024;
    const READS_PER_TX: u64 = 8;
    let dataset_sectors: u64 = 1024 * 1024 * 1024 / 512; // 1 GiB tablespace

    let mut sys = StorSystem::new(os, seed);
    struct Worker {
        tx_done: u64,
        reads_left: u64,
    }
    let mut workers: Vec<Worker> = (0..threads)
        .map(|_| Worker {
            tx_done: 0,
            reads_left: READS_PER_TX,
        })
        .collect();
    let mut rng = Pcg::seeded(seed ^ 0x5eed);
    let tx_count = Rc::new(Cell::new(0u64));
    let txs = tx_count.clone();
    stor_closed_loop(&mut sys, Nanos::from_micros(100), threads, move |tag| {
        let w = &mut workers[tag as usize];
        if w.reads_left == 0 {
            w.tx_done += 1;
            txs.set(txs.get() + 1);
            if w.tx_done >= transactions_per_thread {
                return Vec::new();
            }
            w.reads_left = READS_PER_TX;
        }
        w.reads_left -= 1;
        let sector = (rng.range_u64(0, dataset_sectors - (PAGE / 512) as u64) / 32) * 32;
        let kind = IoKind::Read { sector, len: PAGE };
        vec![IoOp { tag, kind }]
    });
    let secs = sys.now().as_secs_f64();
    let txs = tx_count.get();
    MysqlStorageReport {
        threads,
        tps: txs as f64 / secs,
        read_mbps: sys.metrics.read_bytes as f64 / 1e6 / secs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn net_throughput_climbs_then_saturates() {
        let series = figure10(BackendOs::Kite, 1200, 1);
        assert!(
            series[4].tps > 2.5 * series[0].tps,
            "throughput climbs with threads: {series:#?}"
        );
        // Saturation: the last doubling of threads gains sublinearly.
        let gain = series[4].tps / series[3].tps;
        assert!(gain < 1.8, "saturating: {series:#?}");
        // CPU utilization grows with load.
        assert!(series[4].guest_cpu > series[0].guest_cpu);
    }

    #[test]
    fn net_kite_and_linux_alike() {
        let k = run_net(BackendOs::Kite, 20, 800, 2);
        let l = run_net(BackendOs::Linux, 20, 800, 2);
        let ratio = k.tps / l.tps;
        assert!(
            (0.9..1.15).contains(&ratio),
            "Fig 10a parity: {k:?} vs {l:?}"
        );
        assert!(
            (k.guest_cpu - l.guest_cpu).abs() < 10.0,
            "Fig 10b similar CPU: {k:?} vs {l:?}"
        );
    }

    #[test]
    fn storage_identical_curves() {
        let k = run_storage(BackendOs::Kite, 20, 12, 3);
        let l = run_storage(BackendOs::Linux, 20, 12, 3);
        let ratio = k.tps / l.tps;
        assert!(
            (0.9..1.15).contains(&ratio),
            "Fig 13 identical: {k:?} vs {l:?}"
        );
        assert!(k.tps > 10.0, "{k:?}");
    }

    #[test]
    fn storage_scales_with_threads() {
        let one = run_storage(BackendOs::Kite, 1, 12, 4);
        let twenty = run_storage(BackendOs::Kite, 20, 12, 4);
        assert!(twenty.tps > 2.0 * one.tps, "{one:?} vs {twenty:?}");
    }
}
