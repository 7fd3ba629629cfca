//! The block status application (§3.3): the storage domain's counterpart
//! to the network app.
//!
//! Reads the physical device's geometry from the (NetBSD) driver, publishes
//! it in xenstore for blkback instances to advertise, and monitors
//! connected devices — again as part of the single unikernel process.

use kite_xen::{DeviceKind, DevicePaths, DomainId, Hypervisor, Result};

/// Per-device status row the app maintains.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VbdStatus {
    /// Guest domain.
    pub front: DomainId,
    /// Device index.
    pub index: u32,
    /// Connection state value read from xenstore.
    pub state: u8,
}

/// The block status application.
pub struct BlockApp {
    /// The driver domain it runs in.
    pub domain: DomainId,
    /// Device capacity in sectors (probed from the NVMe driver).
    pub sectors: u64,
    /// Sector size.
    pub sector_size: u32,
}

impl BlockApp {
    /// Probes the device (geometry comes from the NVMe driver) and
    /// publishes it under the driver domain's home for blkbacks to use.
    pub fn start(hv: &mut Hypervisor, domain: DomainId, sectors: u64) -> Result<BlockApp> {
        let home = format!("/local/domain/{}/device-info", domain.0);
        hv.store.write(
            domain,
            None,
            &format!("{home}/sectors"),
            &sectors.to_string(),
        )?;
        hv.store
            .write(domain, None, &format!("{home}/sector-size"), "512")?;
        hv.store
            .write(domain, None, &format!("{home}/mode"), "rw")?;
        Ok(BlockApp {
            domain,
            sectors,
            sector_size: 512,
        })
    }

    /// Scans xenstore for this domain's vbd backends and their states.
    pub fn status(&self, hv: &mut Hypervisor) -> Vec<VbdStatus> {
        let root = DevicePaths::backend_root(self.domain, DeviceKind::Vbd);
        let mut out = Vec::new();
        let fronts = match hv.store.directory(self.domain, &root) {
            Ok(v) => v,
            Err(_) => return out,
        };
        for f in fronts {
            let Ok(front) = f.parse::<u16>() else {
                continue;
            };
            let idxs = hv
                .store
                .directory(self.domain, &format!("{root}/{f}"))
                .unwrap_or_default();
            for i in idxs {
                let Ok(index) = i.parse::<u32>() else {
                    continue;
                };
                let paths = DevicePaths::new(DomainId(front), self.domain, DeviceKind::Vbd, index);
                let state = hv
                    .store
                    .read(self.domain, None, &paths.backend_state())
                    .ok()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(0);
                out.push(VbdStatus {
                    front: DomainId(front),
                    index,
                    state,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kite_xen::DomainKind;

    #[test]
    fn publishes_device_info() {
        let mut hv = Hypervisor::new();
        hv.create_domain("Domain-0", DomainKind::Dom0, 1024, 4);
        let dd = hv.create_domain("blkbackend", DomainKind::Driver, 1024, 1);
        let app = BlockApp::start(&mut hv, dd, 976_773_168).unwrap(); // 500GB
        assert_eq!(app.sector_size, 512);
        let (v, _) = hv.xs_read(dd, &format!("/local/domain/{}/device-info/sectors", dd.0));
        assert_eq!(v.unwrap(), "976773168");
    }

    #[test]
    fn status_reflects_backends() {
        let mut hv = Hypervisor::new();
        hv.create_domain("Domain-0", DomainKind::Dom0, 1024, 4);
        let dd = hv.create_domain("blkbackend", DomainKind::Driver, 1024, 1);
        let gu = hv.create_domain("guest", DomainKind::Guest, 1024, 2);
        let app = BlockApp::start(&mut hv, dd, 1000).unwrap();
        assert!(app.status(&mut hv).is_empty());
        let paths = DevicePaths::new(gu, dd, DeviceKind::Vbd, 0);
        hv.store
            .write(DomainId::DOM0, None, &paths.backend_state(), "4")
            .unwrap();
        let st = app.status(&mut hv);
        assert_eq!(
            st,
            vec![VbdStatus {
                front: gu,
                index: 0,
                state: 4
            }]
        );
    }
}
