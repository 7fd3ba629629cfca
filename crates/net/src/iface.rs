//! Network interface descriptors — what `ifconfig(8)` manipulates.
//!
//! Kite ports NetBSD's `ifconfig` and `brconfig` into the unikernel; this
//! module is the state those tools operate on: a table of named interfaces
//! (the physical `ixg0` IF plus one `vif<n>` per netback instance), each
//! with its role and MAC.

use std::collections::BTreeMap;

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

    /// Registers an interface (driver attach).
    pub fn attach(&mut self, name: impl Into<String>, kind: IfKind, mac: MacAddr) -> &Interface {
        let name = name.into();
        self.ifs.insert(
            name.clone(),
            Interface {
                name: name.clone(),
                kind,
                mac,
            },
        );
        &self.ifs[&name]
    }

    /// Removes an interface (driver detach).
    pub fn detach(&mut self, name: &str) -> bool {
        self.ifs.remove(name).is_some()
    }

    /// Looks up an interface.
    pub fn get(&self, name: &str) -> Option<&Interface> {
        self.ifs.get(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attach_and_lookup() {
        let mut t = IfTable::new();
        t.attach("ixg0", IfKind::Physical, MacAddr::local(1));
        let i = t.get("ixg0").unwrap();
        assert_eq!((i.kind, i.mac), (IfKind::Physical, MacAddr::local(1)));
    }

    #[test]
    fn unknown_interface_ops_fail() {
        let mut t = IfTable::new();
        assert!(t.get("nope0").is_none());
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
