//! Boot sequence model (Figure 4c: Kite boots in ≈7 s vs ≈75 s for Linux).
//!
//! A boot is a list of stages with durations; the totals are what the
//! paper's experiment E1 measures by hand ("until you see 'Network domain
//! is ready'"). Every boot, the first and each restart after a crash,
//! takes exactly the nominal total: the model has no source of boot-time
//! variance, so it invents none.

use kite_sim::Nanos;

/// One boot stage.
#[derive(Clone, Debug)]
pub struct BootStage {
    /// Stage name.
    pub name: &'static str,
    /// Nominal duration.
    pub duration: Nanos,
}

/// An ordered boot sequence.
#[derive(Clone, Debug)]
pub struct BootSequence {
    /// Stages in order.
    pub stages: Vec<BootStage>,
}

impl BootSequence {
    /// Nominal total boot time.
    pub fn total(&self) -> Nanos {
        self.stages.iter().map(|s| s.duration).sum()
    }
}

/// Kite driver-domain boot: HVM loader, BMK, rump init, PCI probe, done.
///
/// Device probe (NIC link autonegotiation / NVMe controller reset)
/// dominates; there is no initramfs, no udev, no service manager.
pub fn kite_boot() -> BootSequence {
    BootSequence {
        stages: vec![
            BootStage {
                name: "HVM loader + firmware handoff",
                duration: Nanos::from_millis(900),
            },
            BootStage {
                name: "BMK init (memory, threads, interrupts)",
                duration: Nanos::from_millis(150),
            },
            BootStage {
                name: "rump kernel init (factions, vfs)",
                duration: Nanos::from_millis(450),
            },
            BootStage {
                name: "xenbus/xenstore attach",
                duration: Nanos::from_millis(200),
            },
            BootStage {
                name: "PCI enumerate + device probe (link/ctrl reset)",
                duration: Nanos::from_millis(4600),
            },
            BootStage {
                name: "backend app start (bridge/ifconfig)",
                duration: Nanos::from_millis(650),
            },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kite_boots_in_about_seven_seconds() {
        let t = kite_boot().total().as_secs_f64();
        assert!((6.5..7.5).contains(&t), "kite boot = {t:.2}s");
    }

    #[test]
    fn device_probe_dominates() {
        let seq = kite_boot();
        let probe = seq
            .stages
            .iter()
            .find(|s| s.name.contains("probe"))
            .unwrap()
            .duration;
        assert!(probe.as_nanos() * 2 > seq.total().as_nanos());
    }
}
