//! The driver-domain heartbeat protocol.
//!
//! A monitored domain publishes a monotonically increasing counter to a
//! well-known key in its own delegated xenstore subtree:
//!
//! ```text
//! /local/domain/<domid>/data/heartbeat = "<beat>"
//! ```
//!
//! The domain owns `/local/domain/<domid>` (xenstored delegates it at
//! creation), so the write needs no extra permission setup; Dom0 may read
//! anything. Beats go through the *charged* [`Hypervisor::xs_write`]
//! wrapper: each one costs virtual time and is subject to xenstore fault
//! injection — a fault-failed write is simply a missed beat, exactly the
//! failure mode a watchdog exists to absorb.
//!
//! Because xenstored outlives domains, a killed domain's last beat stays
//! in the store. Liveness is therefore judged by *advance*, not presence:
//! the monitor counts a probe as missed when the value did not increase
//! since the previous probe (see [`crate::monitor`]).

use kite_xen::{DomainId, Hypervisor, Result};

/// The well-known heartbeat key of a domain.
pub fn key(dom: DomainId) -> String {
    format!("/local/domain/{}/data/heartbeat", dom.0)
}

/// Publishes a domain's heartbeat counter.
///
/// One instance per monitored domain; the system layer calls
/// [`HeartbeatPublisher::beat`] on its heartbeat-interval tick.
#[derive(Clone, Debug)]
pub struct HeartbeatPublisher {
    dom: DomainId,
    beat: u64,
}

impl HeartbeatPublisher {
    /// A publisher for `dom`, starting at beat zero (nothing published
    /// until the first [`HeartbeatPublisher::beat`]).
    pub fn new(dom: DomainId) -> HeartbeatPublisher {
        HeartbeatPublisher { dom, beat: 0 }
    }

    /// Publishes the next beat, returning its value. Errors (a dead
    /// domain, an injected xenstore fault) leave the counter advanced —
    /// a lost beat is lost, not retried with the same value.
    pub fn beat(&mut self, hv: &mut Hypervisor) -> Result<u64> {
        // A dead domain runs no code: its beat loop is simply gone.
        if !hv.domains.alive(self.dom) {
            return Err(kite_xen::XenError::NoSuchDomain(self.dom));
        }
        self.beat += 1;
        let (r, _cost) = hv.xs_write(self.dom, &key(self.dom), &self.beat.to_string());
        r.map(|()| self.beat)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kite_xen::DomainKind;

    #[test]
    fn beats_increase_and_land_in_the_store() {
        let mut hv = Hypervisor::new();
        hv.create_domain("Domain-0", DomainKind::Dom0, 512, 1);
        let dd = hv.create_domain("dd", DomainKind::Driver, 128, 1);
        let mut p = HeartbeatPublisher::new(dd);
        // Nothing is published before the first beat.
        assert!(hv.xs_read(DomainId::DOM0, &key(dd)).0.is_err());
        assert_eq!(p.beat(&mut hv).unwrap(), 1);
        assert_eq!(p.beat(&mut hv).unwrap(), 2);
        let (v, _) = hv.xs_read(DomainId::DOM0, &key(dd));
        assert_eq!(v.unwrap(), "2");
    }

    #[test]
    fn stale_beat_survives_domain_destruction() {
        let mut hv = Hypervisor::new();
        hv.create_domain("Domain-0", DomainKind::Dom0, 512, 1);
        let dd = hv.create_domain("dd", DomainKind::Driver, 128, 1);
        let mut p = HeartbeatPublisher::new(dd);
        p.beat(&mut hv).unwrap();
        hv.destroy_domain(dd).unwrap();
        // xenstored outlives the domain: the key still reads, frozen.
        let (v, _) = hv.xs_read(DomainId::DOM0, &key(dd));
        assert_eq!(v.unwrap(), "1");
        // The dead domain can no longer advance it.
        assert!(p.beat(&mut hv).is_err());
    }
}
