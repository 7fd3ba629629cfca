//! Domain identities and the domain registry.
//!
//! In Xen terms: Dom0 is the privileged administrative VM, driver domains
//! are unprivileged VMs granted PCI devices, and DomUs are plain guests.

use crate::error::{Result, XenError};

/// A Xen domain identifier. Dom0 is always id 0.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct DomainId(pub u16);

impl DomainId {
    /// The privileged administrative domain.
    pub const DOM0: DomainId = DomainId(0);

    /// True for Dom0.
    pub fn is_dom0(self) -> bool {
        self.0 == 0
    }
}

/// `d`'s entry in a per-domain table indexed by `DomainId.0`, growing the
/// table to reach it. Ids are dense and never reused, so the table is as
/// long as the number of domains that ever used it.
pub(crate) fn slot_mut<T: Default>(table: &mut Vec<T>, d: DomainId) -> &mut T {
    let idx = d.0 as usize;
    if idx >= table.len() {
        table.resize_with(idx + 1, T::default);
    }
    &mut table[idx]
}

/// The role a domain plays in the scenario.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DomainKind {
    /// The privileged administrative VM (runs xenstored).
    Dom0,
    /// An unprivileged VM running physical drivers + backends.
    Driver,
    /// An unprivileged application guest (runs frontends).
    Guest,
}

/// Lifecycle state of a domain.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DomainState {
    /// Created and not destroyed (boot timing is the system layer's
    /// `BootSequence`, not a state here).
    Live,
    /// Shut down or destroyed; its grants and ports are dead.
    Dead,
}

/// Static + dynamic information about one domain.
#[derive(Clone, Debug)]
pub struct Domain {
    /// This domain's id.
    pub id: DomainId,
    /// Human-readable name (`xl list` style).
    pub name: String,
    /// Role of the domain.
    pub kind: DomainKind,
    /// Memory reservation in MiB (limits page allocations).
    pub mem_mib: u64,
    /// Number of virtual CPUs.
    pub vcpus: u32,
    /// Lifecycle state.
    pub state: DomainState,
    /// Pages currently allocated to the domain.
    pub pages_allocated: u64,
}

impl Domain {
    /// Maximum number of 4 KiB pages this domain may allocate.
    pub fn page_limit(&self) -> u64 {
        self.mem_mib * 256 // 256 pages per MiB
    }
}

/// Registry of all domains in the machine.
#[derive(Clone, Debug, Default)]
pub struct DomainTable {
    domains: Vec<Domain>,
}

impl DomainTable {
    /// Creates an empty registry (no Dom0 yet).
    pub fn new() -> DomainTable {
        DomainTable::default()
    }

    /// Creates a domain and returns its id. Ids are assigned sequentially,
    /// so the first domain created is Dom0.
    pub fn create(
        &mut self,
        name: impl Into<String>,
        kind: DomainKind,
        mem_mib: u64,
        vcpus: u32,
    ) -> DomainId {
        let id = DomainId(self.domains.len() as u16);
        debug_assert!(
            (id.is_dom0()) == matches!(kind, DomainKind::Dom0),
            "the first domain must be Dom0 and only the first"
        );
        self.domains.push(Domain {
            id,
            name: name.into(),
            kind,
            mem_mib,
            vcpus,
            state: DomainState::Live,
            pages_allocated: 0,
        });
        id
    }

    /// Looks up a domain.
    pub fn get(&self, id: DomainId) -> Result<&Domain> {
        self.domains
            .get(id.0 as usize)
            .filter(|d| d.state != DomainState::Dead)
            .ok_or(XenError::NoSuchDomain(id))
    }

    /// Looks up a domain mutably.
    pub fn get_mut(&mut self, id: DomainId) -> Result<&mut Domain> {
        self.domains
            .get_mut(id.0 as usize)
            .filter(|d| d.state != DomainState::Dead)
            .ok_or(XenError::NoSuchDomain(id))
    }

    /// Returns true if the domain exists and is not dead.
    pub fn alive(&self, id: DomainId) -> bool {
        self.get(id).is_ok()
    }

    /// Destroys a domain. Its id is never reused.
    pub fn destroy(&mut self, id: DomainId) -> Result<()> {
        self.get_mut(id)?.state = DomainState::Dead;
        Ok(())
    }

    /// Iterates over live domains.
    pub fn iter(&self) -> impl Iterator<Item = &Domain> {
        self.domains.iter().filter(|d| d.state != DomainState::Dead)
    }

    /// Iterates every domain ever created, dead ones included — trace
    /// exports keep a named track for a crashed driver domain.
    pub fn iter_all(&self) -> impl Iterator<Item = &Domain> {
        self.domains.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_domain_is_dom0() {
        let mut t = DomainTable::new();
        let d0 = t.create("Domain-0", DomainKind::Dom0, 8192, 4);
        assert_eq!(d0, DomainId::DOM0);
        assert!(d0.is_dom0());
    }

    #[test]
    fn sequential_ids_and_lookup() {
        let mut t = DomainTable::new();
        t.create("Domain-0", DomainKind::Dom0, 8192, 4);
        let dd = t.create("netbackend", DomainKind::Driver, 1024, 1);
        let gu = t.create("guest", DomainKind::Guest, 5120, 22);
        assert_eq!(dd, DomainId(1));
        assert_eq!(gu, DomainId(2));
        assert_eq!(t.get(dd).unwrap().name, "netbackend");
        assert_eq!(t.get(gu).unwrap().vcpus, 22);
    }

    #[test]
    fn destroy_makes_domain_unreachable() {
        let mut t = DomainTable::new();
        t.create("Domain-0", DomainKind::Dom0, 8192, 4);
        let dd = t.create("dd", DomainKind::Driver, 1024, 1);
        t.destroy(dd).unwrap();
        assert!(!t.alive(dd));
        assert_eq!(t.get(dd).err(), Some(XenError::NoSuchDomain(dd)));
        // Ids are not reused.
        let g = t.create("g", DomainKind::Guest, 512, 1);
        assert_eq!(g, DomainId(2));
    }

    #[test]
    fn page_limit_scales_with_reservation() {
        let mut t = DomainTable::new();
        t.create("Domain-0", DomainKind::Dom0, 8192, 4);
        let dd = t.create("dd", DomainKind::Driver, 1024, 1);
        assert_eq!(t.get(dd).unwrap().page_limit(), 1024 * 256);
    }
}
