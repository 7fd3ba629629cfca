//! dd (Figure 11): sequential raw-device throughput.
//!
//! `dd` reads or writes the block device sequentially with a fixed block
//! size, one I/O outstanding (the classic synchronous loop with kernel
//! readahead giving it a little pipelining). The paper moves 10 GB per
//! run; we move a scaled amount at the same stationary rate.

use kite_sim::{Nanos, Pcg};
use kite_system::{BackendOs, IoKind, IoOp, StorSystem};

use crate::common::stor_closed_loop;

/// One dd measurement.
#[derive(Clone, Debug)]
pub struct DdReport {
    /// Throughput in MB/s.
    pub mbps: f64,
}

/// Block size dd issues (256 KiB, the artifact's effective request size).
pub const DD_BS: usize = 256 * 1024;

/// Runs dd in one direction, transferring `total_bytes`. dd is
/// synchronous: one worker, one block outstanding.
pub fn run(os: BackendOs, read: bool, total_bytes: u64, seed: u64) -> DdReport {
    let mut sys = StorSystem::new(os, seed);
    let total_ops = total_bytes / DD_BS as u64;
    let mut rng = Pcg::seeded(seed);
    let mut i = 0;
    let r = stor_closed_loop(&mut sys, Nanos::from_micros(10), 1, move |worker, _| {
        if i >= total_ops {
            return None;
        }
        let sector = i * (DD_BS / 512) as u64;
        i += 1;
        let kind = if read {
            IoKind::Read { sector, len: DD_BS }
        } else {
            let mut data = vec![0u8; DD_BS];
            rng.fill_bytes(&mut data[..64]); // head entropy; rest zeros
            IoKind::Write { sector, data }
        };
        Some((DD_BS as u64, vec![IoOp { tag: worker, kind }]))
    });
    DdReport {
        mbps: r.bytes as f64 / 1e6 / sys.now().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_rates_in_figure11_band() {
        // Paper Figure 11: ~1 GB/s class for both OSs, both directions.
        for os in BackendOs::both() {
            for read in [true, false] {
                let r = run(os, read, 64 * 1024 * 1024, 1);
                assert!(
                    (600.0..2200.0).contains(&r.mbps),
                    "{} {}: {:.0} MB/s",
                    os.name(),
                    if read { "read" } else { "write" },
                    r.mbps
                );
            }
        }
    }

    #[test]
    fn kite_and_linux_similar() {
        let k = run(BackendOs::Kite, true, 64 * 1024 * 1024, 2);
        let l = run(BackendOs::Linux, true, 64 * 1024 * 1024, 2);
        let ratio = k.mbps / l.mbps;
        assert!((0.9..1.2).contains(&ratio), "{k:?} vs {l:?}");
    }
}
