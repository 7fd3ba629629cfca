//! Combined attack-surface report (Figure 4 + §5.1 rolled together).

use crate::cves::{table3_cves, DomainSurface};

/// One row of the attack-surface comparison.
#[derive(Clone, Debug)]
pub struct SurfaceRow {
    /// Domain name.
    pub name: String,
    /// Linked/available syscall count (Fig 4a).
    pub syscalls: usize,
    /// Image size in bytes (Fig 4b).
    pub image_bytes: u64,
    /// Boot time in seconds (Fig 4c).
    pub boot_secs: f64,
    /// Table 3 CVEs mitigated (of 11).
    pub cves_mitigated: usize,
}

/// Builds the comparison table for the canonical three domains.
pub fn surface_report() -> Vec<SurfaceRow> {
    let cves = table3_cves();
    vec![
        SurfaceRow {
            name: "Kite (network)".into(),
            syscalls: kite_rumprun::kite_network_syscalls().len(),
            image_bytes: kite_rumprun::kite_network_image().total_bytes,
            boot_secs: kite_rumprun::kite_boot().total().as_secs_f64(),
            cves_mitigated: DomainSurface::kite_network().mitigated(&cves).len(),
        },
        SurfaceRow {
            name: "Kite (storage)".into(),
            syscalls: kite_rumprun::kite_storage_syscalls().len(),
            image_bytes: kite_rumprun::kite_storage_image().total_bytes,
            boot_secs: kite_rumprun::kite_boot().total().as_secs_f64(),
            cves_mitigated: DomainSurface::kite_storage().mitigated(&cves).len(),
        },
        SurfaceRow {
            name: "Ubuntu".into(),
            syscalls: kite_linux::ubuntu_driver_domain_syscalls().len(),
            image_bytes: kite_linux::ubuntu_image().total_bytes,
            boot_secs: kite_linux::ubuntu_boot().total().as_secs_f64(),
            cves_mitigated: DomainSurface::ubuntu().mitigated(&cves).len(),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_reproduces_figure4_claims() {
        let rows = surface_report();
        let kite = &rows[0];
        let ubuntu = &rows[2];
        assert!(
            ubuntu.syscalls >= 10 * kite.syscalls,
            "Fig 4a: 10x syscalls"
        );
        assert!(
            ubuntu.image_bytes as f64 / kite.image_bytes as f64 >= 8.0,
            "Fig 4b: ~10x image"
        );
        assert!(
            ubuntu.boot_secs / kite.boot_secs >= 10.0,
            "Fig 4c: 10x boot"
        );
        assert_eq!(kite.cves_mitigated, 11);
        assert!(ubuntu.cves_mitigated <= 2);
    }
}
