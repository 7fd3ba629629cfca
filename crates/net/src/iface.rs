//! Network interface descriptors — what `ifconfig(8)` manipulates.
//!
//! Kite ports NetBSD's `ifconfig` and `brconfig` into the unikernel; this
//! module is the state those tools operate on: a table of named interfaces
//! (the physical `ixg0` IF plus one `vif<n>` per netback instance), each
//! with a MAC, optional IPv4 address and up/down flag.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use crate::ether::MacAddr;

/// The role an interface plays.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IfKind {
    /// A physical NIC (driver-domain side of PCI passthrough).
    Physical,
    /// A netback virtual interface (one per connected frontend).
    Vif,
    /// A bridge interface.
    Bridge,
}

/// One interface's configuration.
#[derive(Clone, Debug)]
pub struct Interface {
    /// Name, e.g. `ixg0`, `vif2.0`, `bridge0`.
    pub name: String,
    /// Role.
    pub kind: IfKind,
    /// Hardware address.
    pub mac: MacAddr,
    /// Assigned IPv4 address, if any.
    pub addr: Option<Ipv4Addr>,
    /// Netmask, if an address is assigned.
    pub netmask: Option<Ipv4Addr>,
    /// Administrative up/down.
    pub up: bool,
}

/// The interface table of one network stack instance.
#[derive(Clone, Debug, Default)]
pub struct IfTable {
    ifs: BTreeMap<String, Interface>,
}

impl IfTable {
    /// Creates an empty table.
    pub fn new() -> IfTable {
        IfTable::default()
    }

    /// Registers an interface (driver attach); starts down, unnumbered.
    pub fn attach(&mut self, name: impl Into<String>, kind: IfKind, mac: MacAddr) -> &Interface {
        let name = name.into();
        self.ifs.insert(
            name.clone(),
            Interface {
                name: name.clone(),
                kind,
                mac,
                addr: None,
                netmask: None,
                up: false,
            },
        );
        &self.ifs[&name]
    }

    /// Removes an interface (driver detach).
    pub fn detach(&mut self, name: &str) -> bool {
        self.ifs.remove(name).is_some()
    }

    /// `ifconfig <if> <addr> netmask <mask>`.
    pub fn set_addr(&mut self, name: &str, addr: Ipv4Addr, netmask: Ipv4Addr) -> bool {
        if let Some(i) = self.ifs.get_mut(name) {
            i.addr = Some(addr);
            i.netmask = Some(netmask);
            true
        } else {
            false
        }
    }

    /// `ifconfig <if> up` / `down`.
    pub fn set_up(&mut self, name: &str, up: bool) -> bool {
        if let Some(i) = self.ifs.get_mut(name) {
            i.up = up;
            true
        } else {
            false
        }
    }

    /// Looks up an interface.
    pub fn get(&self, name: &str) -> Option<&Interface> {
        self.ifs.get(name)
    }

    /// All interfaces, sorted by name.
    pub fn iter(&self) -> impl Iterator<Item = &Interface> {
        self.ifs.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attach_configure_lookup() {
        let mut t = IfTable::new();
        t.attach("ixg0", IfKind::Physical, MacAddr::local(1));
        assert!(!t.get("ixg0").unwrap().up);
        assert!(t.set_addr(
            "ixg0",
            "192.168.1.50".parse().unwrap(),
            "255.255.255.0".parse().unwrap()
        ));
        assert!(t.set_up("ixg0", true));
        let i = t.get("ixg0").unwrap();
        assert!(i.up);
        assert_eq!(i.addr, Some("192.168.1.50".parse().unwrap()));
    }

    #[test]
    fn unknown_interface_ops_fail() {
        let mut t = IfTable::new();
        assert!(!t.set_up("nope0", true));
        assert!(!t.set_addr(
            "nope0",
            "1.2.3.4".parse().unwrap(),
            "255.0.0.0".parse().unwrap()
        ));
        assert!(!t.detach("nope0"));
    }

    #[test]
    fn detach_removes() {
        let mut t = IfTable::new();
        t.attach("vif2.0", IfKind::Vif, MacAddr::local(2));
        assert!(t.detach("vif2.0"));
        assert!(t.get("vif2.0").is_none());
    }
}
