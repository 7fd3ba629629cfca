//! The block status application (§3.3): the storage domain's counterpart
//! to the network app.
//!
//! Reads the physical device's geometry from the (NetBSD) driver and
//! publishes it in xenstore for blkback instances to advertise — again
//! as part of the single unikernel process.

use kite_xen::{DomainId, Hypervisor, Result};

/// Probes the device (geometry comes from the NVMe driver) and
/// publishes it under the driver domain's home for blkbacks to use.
pub fn start(hv: &mut Hypervisor, domain: DomainId, sectors: u64) -> Result<()> {
    let home = format!("/local/domain/{}/device-info", domain.0);
    hv.store.write(
        domain,
        None,
        &format!("{home}/sectors"),
        &sectors.to_string(),
    )?;
    hv.store
        .write(domain, None, &format!("{home}/sector-size"), "512")?;
    hv.store.write(domain, None, &format!("{home}/mode"), "rw")
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
        start(&mut hv, dd, 976_773_168).unwrap(); // 500GB
        let (v, _) = hv.xs_read(dd, &format!("/local/domain/{}/device-info/sectors", dd.0));
        assert_eq!(v.unwrap(), "976773168");
        let (v, _) = hv.xs_read(
            dd,
            &format!("/local/domain/{}/device-info/sector-size", dd.0),
        );
        assert_eq!(v.unwrap(), "512");
    }
}
