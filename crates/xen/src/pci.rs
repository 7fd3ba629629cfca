//! PCI passthrough: assigning physical devices to driver domains.
//!
//! Mirrors the `xl pci-assignable-add` / `pci=[ "BDF" ]` workflow from the
//! paper's artifact appendix: Dom0 first marks a device assignable (binds
//! it to `xen-pciback`), then a domain config claims it.

use core::fmt;
use std::collections::HashMap;
use std::str::FromStr;

use crate::domain::DomainId;
use crate::error::{Result, XenError};

/// A PCI bus/device/function address.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Bdf {
    /// Bus number.
    pub bus: u8,
    /// Device number (0–31).
    pub dev: u8,
    /// Function number (0–7).
    pub func: u8,
}

impl fmt::Display for Bdf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:02x}:{:02x}.{:x}", self.bus, self.dev, self.func)
    }
}

impl FromStr for Bdf {
    type Err = XenError;

    fn from_str(s: &str) -> Result<Bdf> {
        let (bus, rest) = s.split_once(':').ok_or(XenError::Inval)?;
        let (dev, func) = rest.split_once('.').ok_or(XenError::Inval)?;
        Ok(Bdf {
            bus: u8::from_str_radix(bus, 16).map_err(|_| XenError::Inval)?,
            dev: u8::from_str_radix(dev, 16).map_err(|_| XenError::Inval)?,
            func: u8::from_str_radix(func, 16).map_err(|_| XenError::Inval)?,
        })
    }
}

/// A physical PCI device present in the machine.
#[derive(Clone, Debug)]
pub struct PciDevice {
    /// Its address.
    pub bdf: Bdf,
    /// Marketing name (`lspci` style).
    pub name: String,
}

/// PCI passthrough state for the whole machine.
#[derive(Default)]
pub struct PciBus {
    devices: HashMap<Bdf, PciDevice>,
    assignable: HashMap<Bdf, bool>,
    assigned: HashMap<Bdf, DomainId>,
}

impl PciBus {
    /// Creates an empty bus.
    pub fn new() -> PciBus {
        PciBus::default()
    }

    /// Registers a physical device (platform construction).
    pub fn add_device(&mut self, dev: PciDevice) {
        self.assignable.insert(dev.bdf, false);
        self.devices.insert(dev.bdf, dev);
    }

    /// `xl pci-assignable-add`: marks a device available for passthrough.
    pub fn make_assignable(&mut self, bdf: Bdf) -> Result<()> {
        match self.assignable.get_mut(&bdf) {
            Some(a) => {
                *a = true;
                Ok(())
            }
            None => Err(XenError::PciUnavailable),
        }
    }

    /// Assigns an assignable, unassigned device to a domain.
    pub fn assign(&mut self, bdf: Bdf, dom: DomainId) -> Result<()> {
        if !self.assignable.get(&bdf).copied().unwrap_or(false) {
            return Err(XenError::PciUnavailable);
        }
        if self.assigned.contains_key(&bdf) {
            return Err(XenError::PciUnavailable);
        }
        self.assigned.insert(bdf, dom);
        Ok(())
    }

    /// Detaches a device from its domain.
    pub fn detach(&mut self, bdf: Bdf, dom: DomainId) -> Result<()> {
        match self.assigned.get(&bdf) {
            Some(&d) if d == dom => {
                self.assigned.remove(&bdf);
                Ok(())
            }
            Some(_) => Err(XenError::Perm),
            None => Err(XenError::PciUnavailable),
        }
    }

    /// Devices assigned to `dom`.
    pub fn devices_of(&self, dom: DomainId) -> Vec<&PciDevice> {
        self.assigned
            .iter()
            .filter(|&(_, &d)| d == dom)
            .filter_map(|(bdf, _)| self.devices.get(bdf))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nic() -> PciDevice {
        PciDevice {
            bdf: "03:00.0".parse().unwrap(),
            name: "Intel 82599ES 10-Gigabit SFI/SFP+".into(),
        }
    }

    #[test]
    fn bdf_parse_display_roundtrip() {
        let b: Bdf = "03:00.1".parse().unwrap();
        assert_eq!(b.to_string(), "03:00.1");
        let b: Bdf = "af:1f.7".parse().unwrap();
        assert_eq!((b.bus, b.dev, b.func), (0xaf, 0x1f, 7));
        assert!("zz:00.0".parse::<Bdf>().is_err());
        assert!("03-00.0".parse::<Bdf>().is_err());
    }

    #[test]
    fn passthrough_workflow() {
        let mut bus = PciBus::new();
        let d = nic();
        let bdf = d.bdf;
        bus.add_device(d);
        // Must be made assignable first.
        assert_eq!(bus.assign(bdf, DomainId(1)), Err(XenError::PciUnavailable));
        bus.make_assignable(bdf).unwrap();
        bus.assign(bdf, DomainId(1)).unwrap();
        assert_eq!(bus.devices_of(DomainId(1)).len(), 1);
        // Double assignment rejected.
        assert_eq!(bus.assign(bdf, DomainId(2)), Err(XenError::PciUnavailable));
        // Only the owner detaches.
        assert_eq!(bus.detach(bdf, DomainId(2)), Err(XenError::Perm));
        bus.detach(bdf, DomainId(1)).unwrap();
        assert!(bus.devices_of(DomainId(1)).is_empty());
    }

    #[test]
    fn devices_of_lists_assignments() {
        let mut bus = PciBus::new();
        let d = nic();
        let bdf = d.bdf;
        bus.add_device(d);
        bus.make_assignable(bdf).unwrap();
        bus.assign(bdf, DomainId(1)).unwrap();
        let devs = bus.devices_of(DomainId(1));
        assert_eq!(devs.len(), 1);
        assert_eq!(devs[0].bdf, bdf);
        assert!(bus.devices_of(DomainId(2)).is_empty());
    }

    #[test]
    fn unknown_device_not_assignable() {
        let mut bus = PciBus::new();
        assert_eq!(
            bus.make_assignable("00:00.0".parse().unwrap()),
            Err(XenError::PciUnavailable)
        );
    }
}
