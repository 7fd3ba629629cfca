//! Filebench personalities (Figures 14–16): fileserver, webserver and the
//! MongoDB profile, all over the extent FS on a blkfront device.
//!
//! * **fileserver** (Fig 14): 50 threads doing create/write/append/read/
//!   stat/delete over ~100k files of 128 KB mean, I/O size swept
//!   16 KB–8 MB.
//! * **webserver** (Fig 16): 50 threads doing open/read/close over ~200k
//!   files of 64 KB, plus a shared append log.
//! * **MongoDB** (Fig 15): 1 user, 4 MB I/Os over a 20 GB set, read-heavy
//!   with periodic fsync-like flushes.
//!
//! File counts and dataset sizes are scaled (EXPERIMENTS.md); op mixes,
//! thread counts and I/O sizes are the paper's.

use kite_sim::{Nanos, Pcg};
use kite_system::{BackendOs, IoKind, IoOp};

use crate::common::{prepare_files, stor_closed_loop, FileSet};

/// The I/O sizes Figure 14 runs.
pub const FIG14_IOSIZES: [usize; 4] = [16 << 10, 128 << 10, 1 << 20, 8 << 20];

/// One Filebench measurement.
#[derive(Clone, Debug)]
pub struct FilebenchReport {
    /// Application-level throughput in MB/s.
    pub mbps: f64,
    /// Mean CPU time per op in µs (the figures' "CPU(us/op)" panel —
    /// here: mean op turnaround on the storage path).
    pub us_per_op: f64,
    /// Mean op latency in ms.
    pub latency_ms: f64,
}

/// Per-op work selection for a personality.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Personality {
    Fileserver,
    Webserver,
    Mongo,
}

fn run_personality(
    os: BackendOs,
    personality: Personality,
    threads: u16,
    io_size: usize,
    total_ops: u64,
    seed: u64,
) -> FilebenchReport {
    let (nfiles, mean_size) = match personality {
        Personality::Fileserver => (500, 128 * 1024),
        Personality::Webserver => (1000, 64 * 1024),
        Personality::Mongo => (64, 8 * 1024 * 1024),
    };
    // File sizes vary ±50% around the mean (gamma-ish via two uniforms).
    let mut size_rng = Pcg::seeded(seed ^ 0xf11eb);
    let FileSet {
        mut sys,
        mut fs,
        mut files,
    } = prepare_files(os, nfiles, Nanos::from_micros(25), || {
        mean_size / 2 + size_rng.index(mean_size)
    });
    let t_start = sys.now() + Nanos::from_millis(1);

    let mut rng = Pcg::seeded(seed ^ 0xbe11c);
    let mut next_name = nfiles;

    // One filebench "operation" = a short sequence of fs calls ending in
    // device I/O: the bytes it moves for the application, and its device
    // ops (none on a full cache hit or a stat).
    let mut mk = move |tag: u64| -> (u64, Vec<IoOp>) {
        let to_ops = |ios: Vec<kite_fs::DevIo>, write: bool| -> Vec<IoOp> {
            ios.into_iter()
                .map(|io| IoOp {
                    tag,
                    kind: if write {
                        IoKind::Write {
                            sector: io.sector,
                            data: vec![0x55; io.bytes],
                        }
                    } else {
                        IoKind::Read {
                            sector: io.sector,
                            len: io.bytes,
                        }
                    },
                })
                .collect()
        };
        match personality {
            Personality::Fileserver => {
                // Weighted mix: whole-file read, write(iosize), append 1KB,
                // create+write, stat, delete+create.
                match rng.index(10) {
                    0..=3 => {
                        let (_, ino) = files[rng.index(files.len())];
                        let size = fs.size(ino).unwrap_or(0) as usize;
                        let n = size.min(io_size).max(4096);
                        let plan = fs.read(ino, 0, n).unwrap_or_default();
                        (n as u64, to_ops(plan.device_ios, false))
                    }
                    4..=6 => {
                        let (_, ino) = files[rng.index(files.len())];
                        // Whole-file rewrite capped at 2x the file (the
                        // personality's files stay ~mean-sized).
                        let size = fs.size(ino).unwrap_or(4096) as usize;
                        let n = io_size.min(2 * size.max(4096));
                        let ios = fs.write(ino, 0, n).unwrap_or_default();
                        (n as u64, to_ops(ios, true))
                    }
                    7 => {
                        let (_, ino) = files[rng.index(files.len())];
                        let ios = fs.append(ino, 1024).unwrap_or_default();
                        (1024, to_ops(ios, true))
                    }
                    8 => {
                        // stat: metadata only.
                        let (name, _) = files[rng.index(files.len())].clone();
                        let _ = fs.stat(&name);
                        (0, Vec::new())
                    }
                    _ => {
                        // delete + create fresh (fragmentation churn).
                        let idx = rng.index(files.len());
                        let (name, _) = files[idx].clone();
                        let _ = fs.delete(&name);
                        let new_name = format!("f{next_name:06}");
                        next_name += 1;
                        let ino = fs.create(&new_name).unwrap();
                        let n = io_size.min(mean_size);
                        let ios = fs.write(ino, 0, n).unwrap_or_default();
                        files[idx] = (new_name, ino);
                        (n as u64, to_ops(ios, true))
                    }
                }
            }
            Personality::Webserver => {
                // open/read whole file/close + occasional log append.
                if rng.index(10) == 0 {
                    let (_, ino) = files[0];
                    let ios = fs.append(ino, 16 * 1024).unwrap_or_default();
                    (16 * 1024, to_ops(ios, true))
                } else {
                    let (_, ino) = files[rng.index(files.len())];
                    let size = fs.size(ino).unwrap_or(4096) as usize;
                    let plan = fs.read(ino, 0, size).unwrap_or_default();
                    (size as u64, to_ops(plan.device_ios, false))
                }
            }
            Personality::Mongo => {
                // Read-mostly 4MB random extents + periodic journal write.
                let (_, ino) = files[rng.index(files.len())];
                if rng.index(5) == 0 {
                    let ios = fs.append(ino, io_size).unwrap_or_default();
                    (io_size as u64, to_ops(ios, true))
                } else {
                    let size = fs.size(ino).unwrap_or(0) as usize;
                    let n = io_size.min(size.max(4096));
                    let max_off = size.saturating_sub(n) / 512 * 512;
                    let off = if max_off == 0 {
                        0
                    } else {
                        rng.range_u64(0, max_off as u64 / 512) * 512
                    };
                    let plan = fs.read(ino, off, n).unwrap_or_default();
                    (n as u64, to_ops(plan.device_ios, false))
                }
            }
        }
    };

    // Workers stop once `total_ops` operations have completed; the ones
    // still in flight then finish and count too.
    let r = stor_closed_loop(&mut sys, t_start, threads, move |tag, done| {
        (done < total_ops).then(|| mk(tag))
    });
    let elapsed = (sys.now() - t_start).as_secs_f64();
    FilebenchReport {
        mbps: r.bytes as f64 / 1e6 / elapsed,
        us_per_op: elapsed * 1e6 / r.ops.max(1) as f64,
        latency_ms: r.latency.mean() / 1e6,
    }
}

/// Figure 14: fileserver at one I/O size (50 threads).
pub fn fileserver(os: BackendOs, io_size: usize, ops: u64, seed: u64) -> FilebenchReport {
    run_personality(os, Personality::Fileserver, 50, io_size, ops, seed)
}

/// Figure 16: webserver (50 threads, 1 MB I/O size).
pub fn webserver(os: BackendOs, ops: u64, seed: u64) -> FilebenchReport {
    run_personality(os, Personality::Webserver, 50, 1024 * 1024, ops, seed)
}

/// Figure 15: the MongoDB profile (1 user, 4 MB I/Os).
pub fn mongodb(os: BackendOs, ops: u64, seed: u64) -> FilebenchReport {
    run_personality(os, Personality::Mongo, 1, 4 * 1024 * 1024, ops, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fileserver_throughput_rises_with_io_size() {
        let small = fileserver(BackendOs::Kite, 16 * 1024, 300, 1);
        let large = fileserver(BackendOs::Kite, 2 * 1024 * 1024, 150, 1);
        assert!(
            large.mbps > 1.5 * small.mbps,
            "Fig 14 shape: {small:?} vs {large:?}"
        );
    }

    #[test]
    fn fileserver_kite_at_least_linux() {
        let k = fileserver(BackendOs::Kite, 256 * 1024, 250, 2);
        let l = fileserver(BackendOs::Linux, 256 * 1024, 250, 2);
        assert!(k.mbps >= l.mbps * 0.95, "Fig 14: {k:?} vs {l:?}");
    }

    #[test]
    fn mongodb_kite_beats_linux() {
        let k = mongodb(BackendOs::Kite, 80, 3);
        let l = mongodb(BackendOs::Linux, 80, 3);
        assert!(
            k.mbps >= l.mbps,
            "Fig 15: Kite outperforms for low concurrency: {k:?} vs {l:?}"
        );
        assert!(k.us_per_op <= l.us_per_op * 1.02, "{k:?} vs {l:?}");
    }

    #[test]
    fn webserver_kite_slightly_better() {
        let k = webserver(BackendOs::Kite, 300, 4);
        let l = webserver(BackendOs::Linux, 300, 4);
        assert!(k.mbps >= l.mbps * 0.95, "Fig 16: {k:?} vs {l:?}");
        assert!(k.latency_ms <= l.latency_ms * 1.1, "{k:?} vs {l:?}");
    }
}
