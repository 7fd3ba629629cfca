//! A learning Ethernet bridge.
//!
//! This is the heart of Kite's network application: the driver domain
//! creates one bridge, attaches the physical NIC interface (IF) and every
//! netback virtual interface (VIF), and lets MAC learning route frames
//! between guests and the outside world — exactly NetBSD's `bridge(4)`
//! behaviour that the ported `brconfig(8)` drives.
//!
//! The forwarding database is `bridge(4)`'s route table, bounded like
//! it: at most [`BRIDGE_RTABLE_MAX`] learned addresses, so a guest that
//! sends from ever-new source MACs cannot grow the driver domain's
//! memory. A table that small is a vector searched linearly.

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

/// Most addresses the forwarding database learns: NetBSD's default
/// `BRIDGE_RTABLE_MAX` (`brconfig maxaddr`).
pub const BRIDGE_RTABLE_MAX: usize = 100;

/// Forwarding-database entry lifetime (NetBSD default: 240 s).
pub const BRIDGE_AGING: Nanos = Nanos::from_secs(240);

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
    /// Learned addresses, at most [`BRIDGE_RTABLE_MAX`].
    fdb: Vec<(MacAddr, FdbEntry)>,
}

impl Bridge {
    /// Creates an empty bridge named e.g. `bridge0`.
    pub fn new(name: impl Into<String>) -> Bridge {
        Bridge {
            name: name.into(),
            ports: Vec::new(),
            next_port: 0,
            fdb: Vec::new(),
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
        self.fdb.retain(|(_, e)| e.port != port);
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
        if !src.is_multicast() {
            self.learn(ingress, src, now);
        }
        if dst.is_multicast() {
            return Forward::Flood(self.flood_ports(ingress));
        }
        match self.lookup(dst, now) {
            Some(port) if port == ingress => Forward::Drop,
            Some(port) => Forward::Unicast(port),
            None => Forward::Flood(self.flood_ports(ingress)),
        }
    }

    /// Learns (or migrates) `mac` on `port`, as `bridge_rtupdate` does:
    /// a known address is refreshed in place; a new one is added while
    /// the table has room. A full table first drops the entries older
    /// than [`BRIDGE_AGING`] — what `bridge(4)`'s periodic ager
    /// would already have removed — and if it is still full the address
    /// is not learned (`ENOSPC`): frames to it flood.
    fn learn(&mut self, port: BridgePort, mac: MacAddr, now: Nanos) {
        let entry = FdbEntry {
            port,
            last_seen: now,
        };
        if let Some((_, e)) = self.fdb.iter_mut().find(|(m, _)| *m == mac) {
            *e = entry;
            return;
        }
        if self.fdb.len() >= BRIDGE_RTABLE_MAX {
            self.fdb
                .retain(|(_, e)| now.saturating_sub(e.last_seen) < BRIDGE_AGING);
        }
        if self.fdb.len() < BRIDGE_RTABLE_MAX {
            self.fdb.push((mac, entry));
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
            .iter()
            .find(|(m, _)| *m == mac)
            .filter(|(_, e)| now.saturating_sub(e.last_seen) < BRIDGE_AGING)
            .map(|(_, e)| e.port)
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
    fn mac_flood_fills_the_table_once_and_ages_out() {
        let mut b = Bridge::new("bridge0");
        let p0 = b.add_port("ixg0");
        let p1 = b.add_port("vif0");
        // A station outside, learned before the flood.
        let station = mac(1 << 20);
        b.input(p0, station, MacAddr::BROADCAST, Nanos::ZERO);
        // The guest sends from 10 000 distinct source MACs.
        for i in 0..10_000 {
            b.input(p1, mac(i), station, Nanos(1 + u64::from(i)));
        }
        let t = Nanos(20_000);
        let learned = (0..10_000)
            .filter(|&i| b.lookup(mac(i), t).is_some())
            .count();
        assert_eq!(learned, BRIDGE_RTABLE_MAX - 1, "the station holds one slot");
        assert_eq!(b.fdb.len(), BRIDGE_RTABLE_MAX);
        // The station still unicasts; an address the full table refused
        // floods.
        assert_eq!(b.input(p1, mac(3), station, t), Forward::Unicast(p0));
        assert_eq!(b.lookup(mac(9_999), t), None);
        assert_eq!(
            b.input(p0, station, mac(9_999), t),
            Forward::Flood(vec![p1])
        );
        // Once the flood's entries are older than `BRIDGE_AGING`, a new source
        // is learned again; the two refreshed at `t` stay.
        let later = Nanos(200) + BRIDGE_AGING;
        b.input(p1, mac(20_000), MacAddr::BROADCAST, later);
        assert_eq!(b.lookup(mac(20_000), later), Some(p1));
        assert_eq!(b.lookup(station, later), Some(p0));
        assert_eq!(b.lookup(mac(3), later), Some(p1));
        assert_eq!(b.fdb.len(), 3);
    }

    #[test]
    fn relearning_updates_in_place_without_growing() {
        let mut b = Bridge::new("bridge0");
        let p0 = b.add_port("ixg0");
        let p1 = b.add_port("vif0");
        for i in 0..3 * BRIDGE_RTABLE_MAX as u64 {
            let port = if i % 2 == 0 { p0 } else { p1 };
            b.input(port, mac(7), MacAddr::BROADCAST, Nanos(i));
        }
        assert_eq!(b.fdb.len(), 1);
        assert_eq!(b.lookup(mac(7), Nanos(1_000)), Some(p1));
    }

    /// Per frame, `input` between two stations costs less than 4× as
    /// much after a guest's 10 000-MAC flood as with the two stations
    /// alone: the flood fills the bounded table once and the stations'
    /// lookups stay short. Wall clock, so release only (`benchmark/`
    /// reports the quiet case as `net.bridge_input_ns_per_frame`).
    #[test]
    #[cfg_attr(debug_assertions, ignore)]
    fn input_cost_stays_flat_after_a_mac_flood() {
        use std::hint::black_box;
        use std::time::Instant;
        const FRAMES: u64 = 20_000;
        struct Rig {
            b: Bridge,
            ports: [BridgePort; 2],
            macs: [MacAddr; 2],
        }
        let rig = |flood: u32| {
            let mut b = Bridge::new("bridge0");
            let ports = [b.add_port("ixg0"), b.add_port("vif0")];
            let macs = [mac(1 << 20), mac(1 << 21)];
            for k in 0..2 {
                b.input(ports[k], macs[k], MacAddr::BROADCAST, Nanos::ZERO);
            }
            for i in 0..flood {
                b.input(ports[1], mac(i), macs[0], Nanos(1 + u64::from(i)));
            }
            Rig { b, ports, macs }
        };
        let trial = |r: &mut Rig| {
            let start = Instant::now();
            for i in 0..FRAMES {
                let now = Nanos(20_000 + i);
                for k in 0..2 {
                    let dst = black_box(r.macs[1 - k]);
                    black_box(r.b.input(r.ports[k], r.macs[k], dst, now));
                }
            }
            start.elapsed().as_nanos() as f64 / (2 * FRAMES) as f64
        };
        let (mut quiet, mut flooded) = (rig(0), rig(10_000));
        assert_eq!(flooded.b.fdb.len(), BRIDGE_RTABLE_MAX);
        let (mut at2, mut at_full) = (Vec::new(), Vec::new());
        for _ in 0..11 {
            at2.push(trial(&mut quiet));
            at_full.push(trial(&mut flooded));
        }
        let median = |v: &mut Vec<f64>| {
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        };
        let (at2, at_full) = (median(&mut at2), median(&mut at_full));
        assert!(
            at_full < 4.0 * at2,
            "input after the flood {at_full:.1} ns/frame vs {at2:.1} with two stations"
        );
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
