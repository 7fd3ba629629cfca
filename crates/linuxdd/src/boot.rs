//! Ubuntu driver-domain boot model (Figure 4c: ≈75 s to login).

use kite_rumprun::{BootSequence, BootStage};
use kite_sim::Nanos;

/// The Ubuntu 18.04 driver-domain boot sequence: GRUB, kernel, initramfs,
/// udev settling on passthrough hardware, systemd's unit graph, network
/// bring-up and finally getty. Service management dominates — none of it
/// exists in a unikernel.
pub fn ubuntu_boot() -> BootSequence {
    BootSequence {
        stages: vec![
            BootStage {
                name: "HVM firmware + GRUB menu/load",
                duration: Nanos::from_millis(5500),
            },
            BootStage {
                name: "kernel decompress + early init",
                duration: Nanos::from_millis(4200),
            },
            BootStage {
                name: "initramfs (modules, device wait)",
                duration: Nanos::from_millis(9500),
            },
            BootStage {
                name: "root fs mount + pivot",
                duration: Nanos::from_millis(3300),
            },
            BootStage {
                name: "udev coldplug + PCI passthrough settle",
                duration: Nanos::from_millis(12500),
            },
            BootStage {
                name: "systemd unit graph (basic.target)",
                duration: Nanos::from_millis(16800),
            },
            BootStage {
                name: "networking.service + bridge scripts",
                duration: Nanos::from_millis(13200),
            },
            BootStage {
                name: "xen-utils + xl devd start",
                duration: Nanos::from_millis(4600),
            },
            BootStage {
                name: "remaining units + getty/login",
                duration: Nanos::from_millis(5400),
            },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kite_rumprun::kite_boot;

    #[test]
    fn ubuntu_boots_in_about_75_seconds() {
        let t = ubuntu_boot().total().as_secs_f64();
        assert!((72.0..78.0).contains(&t), "ubuntu boot = {t:.1}s");
    }

    #[test]
    fn kite_at_least_10x_faster() {
        let ratio = ubuntu_boot().total().as_secs_f64() / kite_boot().total().as_secs_f64();
        assert!(ratio >= 10.0, "claim C1: 10x faster boot; got {ratio:.1}x");
    }

    #[test]
    fn no_stage_exists_in_kite_equivalent() {
        // The dominating stages are service-management work absent from a
        // unikernel: systemd, udev, initramfs.
        let seq = ubuntu_boot();
        let managed: Nanos = seq
            .stages
            .iter()
            .filter(|s| {
                s.name.contains("systemd")
                    || s.name.contains("udev")
                    || s.name.contains("initramfs")
            })
            .map(|s| s.duration)
            .sum();
        assert!(managed.as_secs_f64() > 30.0);
    }
}
