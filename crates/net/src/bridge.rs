//! A learning Ethernet bridge.
//!
//! This is the heart of Kite's network application: the driver domain
//! creates one bridge, attaches the physical NIC interface (IF) and every
//! netback virtual interface (VIF), and lets MAC learning route frames
//! between guests and the outside world — exactly NetBSD's `bridge(4)`
//! behaviour that the ported `brconfig(8)` drives.

use std::collections::HashMap;

use kite_sim::Nanos;

use crate::ether::MacAddr;

/// A bridge port handle.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct BridgePort(pub u32);

/// Where the bridge decided a frame should go.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Forward {
    /// Send out exactly one port.
    Unicast(BridgePort),
    /// Flood out all listed ports (unknown destination or broadcast).
    Flood(Vec<BridgePort>),
    /// Drop (destination learned on the ingress port itself).
    Drop,
}

#[derive(Clone, Debug)]
struct FdbEntry {
    port: BridgePort,
    last_seen: Nanos,
}

/// A learning bridge with forwarding-database aging.
#[derive(Clone, Debug)]
pub struct Bridge {
    name: String,
    ports: Vec<(BridgePort, String)>,
    next_port: u32,
    fdb: HashMap<MacAddr, FdbEntry>,
    /// FDB entry lifetime (NetBSD default: 240 s).
    pub aging: Nanos,
}

impl Bridge {
    /// Creates an empty bridge named e.g. `bridge0`.
    pub fn new(name: impl Into<String>) -> Bridge {
        Bridge {
            name: name.into(),
            ports: Vec::new(),
            next_port: 0,
            fdb: HashMap::new(),
            aging: Nanos::from_secs(240),
        }
    }

    /// The bridge's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Attaches an interface (`brconfig add`); returns its port handle.
    pub fn add_port(&mut self, ifname: impl Into<String>) -> BridgePort {
        let p = BridgePort(self.next_port);
        self.next_port += 1;
        self.ports.push((p, ifname.into()));
        p
    }

    /// Detaches a port (`brconfig delete`); its learned MACs are flushed.
    pub fn remove_port(&mut self, port: BridgePort) {
        self.ports.retain(|&(p, _)| p != port);
        self.fdb.retain(|_, e| e.port != port);
    }

    /// Processes a frame arriving on `ingress`: learns the source and
    /// returns the forwarding decision for the destination.
    pub fn input(
        &mut self,
        ingress: BridgePort,
        src: MacAddr,
        dst: MacAddr,
        now: Nanos,
    ) -> Forward {
        // Learn (or migrate) the source address.
        if !src.is_multicast() {
            self.fdb.insert(
                src,
                FdbEntry {
                    port: ingress,
                    last_seen: now,
                },
            );
        }
        if dst.is_multicast() {
            return Forward::Flood(self.flood_ports(ingress));
        }
        match self.fdb.get(&dst) {
            Some(e) if now.saturating_sub(e.last_seen) < self.aging => {
                if e.port == ingress {
                    Forward::Drop
                } else {
                    Forward::Unicast(e.port)
                }
            }
            _ => Forward::Flood(self.flood_ports(ingress)),
        }
    }

    fn flood_ports(&self, ingress: BridgePort) -> Vec<BridgePort> {
        self.ports
            .iter()
            .map(|&(p, _)| p)
            .filter(|&p| p != ingress)
            .collect()
    }

    /// Where a MAC is currently learned, if fresh.
    pub fn lookup(&self, mac: MacAddr, now: Nanos) -> Option<BridgePort> {
        self.fdb
            .get(&mac)
            .filter(|e| now.saturating_sub(e.last_seen) < self.aging)
            .map(|e| e.port)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mac(i: u32) -> MacAddr {
        MacAddr::local(i)
    }

    #[test]
    fn unknown_destination_floods_except_ingress() {
        let mut b = Bridge::new("bridge0");
        let p0 = b.add_port("ixg0");
        let p1 = b.add_port("vif0");
        let p2 = b.add_port("vif1");
        match b.input(p1, mac(1), mac(99), Nanos::ZERO) {
            Forward::Flood(ports) => {
                assert!(ports.contains(&p0));
                assert!(ports.contains(&p2));
                assert!(!ports.contains(&p1));
            }
            other => panic!("expected flood, got {other:?}"),
        }
    }

    #[test]
    fn learning_enables_unicast() {
        let mut b = Bridge::new("bridge0");
        let p0 = b.add_port("ixg0");
        let p1 = b.add_port("vif0");
        // Host 1 talks from p1 — learned.
        b.input(p1, mac(1), MacAddr::BROADCAST, Nanos::ZERO);
        // Traffic to host 1 from p0 now unicasts to p1.
        assert_eq!(b.input(p0, mac(2), mac(1), Nanos(1)), Forward::Unicast(p1));
        assert_eq!(b.lookup(mac(1), Nanos(1)), Some(p1));
    }

    #[test]
    fn hairpin_dropped() {
        let mut b = Bridge::new("bridge0");
        let p0 = b.add_port("ixg0");
        b.add_port("vif0");
        b.input(p0, mac(1), MacAddr::BROADCAST, Nanos::ZERO);
        // Destination learned on the same port the frame came from.
        assert_eq!(b.input(p0, mac(2), mac(1), Nanos(1)), Forward::Drop);
    }

    #[test]
    fn broadcast_always_floods() {
        let mut b = Bridge::new("bridge0");
        let p0 = b.add_port("ixg0");
        let p1 = b.add_port("vif0");
        match b.input(p0, mac(1), MacAddr::BROADCAST, Nanos::ZERO) {
            Forward::Flood(ports) => assert_eq!(ports, vec![p1]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn fdb_ages_out() {
        let mut b = Bridge::new("bridge0");
        let p0 = b.add_port("ixg0");
        let p1 = b.add_port("vif0");
        b.input(p1, mac(1), MacAddr::BROADCAST, Nanos::ZERO);
        let stale = Nanos::from_secs(241);
        assert_eq!(b.lookup(mac(1), stale), None);
        match b.input(p0, mac(2), mac(1), stale) {
            Forward::Flood(_) => {}
            other => panic!("expected flood after aging, got {other:?}"),
        }
    }

    #[test]
    fn station_migration_updates_fdb() {
        let mut b = Bridge::new("bridge0");
        let p0 = b.add_port("ixg0");
        let p1 = b.add_port("vif0");
        let p2 = b.add_port("vif1");
        b.input(p1, mac(1), MacAddr::BROADCAST, Nanos::ZERO);
        // The same MAC now appears on p2 (guest migrated).
        b.input(p2, mac(1), MacAddr::BROADCAST, Nanos(5));
        assert_eq!(b.input(p0, mac(2), mac(1), Nanos(6)), Forward::Unicast(p2));
    }

    #[test]
    fn remove_port_flushes_fdb() {
        let mut b = Bridge::new("bridge0");
        let p0 = b.add_port("ixg0");
        let p1 = b.add_port("vif0");
        b.input(p1, mac(1), MacAddr::BROADCAST, Nanos::ZERO);
        b.remove_port(p1);
        assert_eq!(b.lookup(mac(1), Nanos(1)), None);
        assert_eq!(b.ports, [(p0, "ixg0".to_string())]);
        // Flooding no longer includes the removed port.
        match b.input(p0, mac(2), mac(1), Nanos(2)) {
            Forward::Flood(ports) => assert!(ports.is_empty()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn multicast_source_not_learned() {
        let mut b = Bridge::new("bridge0");
        let p0 = b.add_port("ixg0");
        b.add_port("vif0");
        b.input(p0, MacAddr::BROADCAST, mac(1), Nanos::ZERO);
        assert_eq!(b.lookup(MacAddr::BROADCAST, Nanos(1)), None);
    }
}
