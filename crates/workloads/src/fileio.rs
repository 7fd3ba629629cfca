//! SysBench file I/O (Figure 12): random read/write over a file set.
//!
//! The paper: 192 files totalling 15 GB, random ops at a 3:2 read:write
//! ratio, sweeping threads 1–100 (Fig 12a, 256 KiB blocks) and block size
//! 16 KiB–128 MiB (Fig 12b, 20 threads). We scale the file set (same
//! geometry: 192 files) and run each point to a fixed op count; the page
//! cache is dropped before each run as the paper does.

use std::cell::Cell;
use std::rc::Rc;

use kite_sim::{Nanos, Pcg};
use kite_system::{BackendOs, IoKind, IoOp};

use crate::common::{prepare_files, stor_closed_loop, FileSet};

/// The thread counts Figure 12a runs (256 KiB blocks).
pub const FIG12A_THREADS: [u16; 5] = [1, 5, 20, 60, 100];
/// The block sizes Figure 12b runs (20 threads).
pub const FIG12B_BLOCKS: [usize; 4] = [16 << 10, 256 << 10, 4 << 20, 64 << 20];

/// One sysbench file I/O measurement.
#[derive(Clone, Debug)]
pub struct FileioReport {
    /// Combined read+write throughput in MB/s.
    pub mbps: f64,
}

/// Runs the random 3:2 read:write phase.
pub fn run(os: BackendOs, threads: u16, block: usize, total_ops: u64, seed: u64) -> FileioReport {
    // Scaled file set: 192 files; sized so the set comfortably exceeds the
    // cache and fits the device at the largest block size.
    let file_bytes = block.clamp(1024 * 1024, 8 * 1024 * 1024);
    let FileSet {
        mut sys,
        mut fs,
        files,
    } = prepare_files(os, seed, 192, Nanos::from_micros(30), || file_bytes);
    let t_start = sys.now() + Nanos::from_millis(1);

    let ops_done = Rc::new(Cell::new(0u64));
    let done = ops_done.clone();
    let mut rng = Pcg::seeded(seed ^ 0xf11e);
    let block_c = block.min(file_bytes);
    let max_off = (file_bytes - block_c) / 512 * 512;
    // The harness asks every worker once before any I/O completes; those
    // first operations follow no finished one and are not counted.
    let mut unstarted = threads;
    // One logical op: possibly several device I/Os, or none on a full
    // cache hit — then the op is done on the spot and the worker moves on.
    stor_closed_loop(&mut sys, t_start, threads, move |tag| {
        let first = unstarted > 0;
        unstarted -= u16::from(first);
        loop {
            if !first {
                if done.get() >= total_ops {
                    return Vec::new();
                }
                done.set(done.get() + 1);
            }
            let (_, ino) = files[rng.index(files.len())];
            let offset = if max_off == 0 {
                0
            } else {
                rng.range_u64(0, max_off as u64 / 512) * 512
            };
            let is_read = rng.range_u64(0, 5) < 3; // 3:2 read:write
            let ios = if is_read {
                fs.read(ino, offset, block_c).unwrap().device_ios
            } else {
                fs.write(ino, offset, block_c).unwrap()
            };
            if ios.is_empty() {
                continue;
            }
            let to_op = |io: &kite_fs::DevIo| {
                let (sector, bytes) = (io.sector, io.bytes);
                let kind = if is_read {
                    IoKind::Read { sector, len: bytes }
                } else {
                    let data = vec![0x77; bytes];
                    IoKind::Write { sector, data }
                };
                IoOp { tag, kind }
            };
            return ios.iter().map(to_op).collect();
        }
    });
    let elapsed = (sys.now() - t_start).as_secs_f64();
    FileioReport {
        // `block_c` is what each op actually transferred (blocks larger
        // than the scaled files are clamped, as sysbench clamps at EOF).
        mbps: ops_done.get() as f64 * block_c as f64 / 1e6 / elapsed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_scales_with_threads() {
        let one = run(BackendOs::Kite, 1, 256 * 1024, 60, 1);
        let twenty = run(BackendOs::Kite, 20, 256 * 1024, 400, 1);
        assert!(
            twenty.mbps > 2.0 * one.mbps,
            "Fig 12a shape: {one:?} vs {twenty:?}"
        );
    }

    #[test]
    fn throughput_rises_with_block_size() {
        let small = run(BackendOs::Kite, 20, 16 * 1024, 400, 2);
        let large = run(BackendOs::Kite, 20, 4 * 1024 * 1024, 120, 2);
        assert!(
            large.mbps > 3.0 * small.mbps,
            "Fig 12b shape: {small:?} vs {large:?}"
        );
    }

    #[test]
    fn kite_at_least_linux_at_high_threads() {
        let k = run(BackendOs::Kite, 40, 256 * 1024, 400, 3);
        let l = run(BackendOs::Linux, 40, 256 * 1024, 400, 3);
        assert!(
            k.mbps >= l.mbps * 0.95,
            "Fig 12a: Kite ≥ Linux at high threads: {k:?} vs {l:?}"
        );
    }
}
