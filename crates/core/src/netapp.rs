//! The network application (§3.2, §4.3): Kite's single-process replacement
//! for Linux's xen driver-domain scripts.
//!
//! On launch it creates a bridge, assigns the gateway IP to the physical
//! interface and adds the IF to the bridge (the paper's ported
//! `ifconfig(8)` and `brconfig(8)`; here direct calls on [`Bridge`]),
//! then hotplugs each new VIF into the bridge. (The real
//! application yields the CPU between iterations of that loop; the
//! non-preemptive scheduler is modelled where interrupts are dispatched,
//! in `kite_system::Host`.)

use std::net::Ipv4Addr;

use kite_net::{
    Bridge, BridgePort, Endpoint, EtherType, EthernetFrame, IpProto, Ipv4Packet, MacAddr, Nat,
    UdpDatagram,
};

/// How the network application links VIFs to the physical NIC (§3.1
/// names both techniques; bridging is the default, NAT the alternative).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LinkMode {
    /// L2 learning bridge (NetBSD `bridge(4)` + `brconfig`).
    Bridge,
    /// L3 source NAT behind the gateway address.
    Nat,
}

/// The network application's state.
pub struct NetworkApp {
    /// The bridge connecting the IF and all VIFs.
    pub bridge: Bridge,
    /// The physical IF's bridge port.
    pub if_port: BridgePort,
    /// VIF↔NIC linking technique.
    pub mode: LinkMode,
    /// The SNAT table (used in [`LinkMode::Nat`]).
    pub nat: Nat,
}

impl NetworkApp {
    /// Boots the application: creates `bridge0`, attaches the physical
    /// interface `phys_if` to it, and NATs behind `gateway`.
    pub fn start(phys_if: &str, gateway: Ipv4Addr) -> Self {
        let mut bridge = Bridge::new("bridge0");
        // `brconfig bridge0 add ixg0 up`
        let if_port = bridge.add_port(phys_if);
        NetworkApp {
            bridge,
            if_port,
            mode: LinkMode::Bridge,
            nat: Nat::new(gateway),
        }
    }

    /// Switches to NAT linking (call before traffic starts).
    pub fn use_nat(&mut self) {
        self.mode = LinkMode::Nat;
    }

    /// NAT translation for a guest→world frame: rewrites the source
    /// IP/port to the gateway and re-encodes checksums. Returns `None`
    /// for frames NAT cannot carry (non-IPv4/UDP here).
    pub fn nat_outbound(&mut self, frame: &[u8]) -> Option<Vec<u8>> {
        let eth = EthernetFrame::decode(frame)?;
        if eth.ethertype != EtherType::Ipv4 {
            return None;
        }
        let ip = Ipv4Packet::decode(&eth.payload)?;
        let udp = match ip.proto {
            IpProto::Udp => UdpDatagram::decode(&ip.payload, ip.src, ip.dst)?,
            _ => return None,
        };
        let ext = self.nat.translate_out(
            IpProto::Udp,
            Endpoint {
                ip: ip.src,
                port: udp.src_port,
            },
        );
        let new_udp = UdpDatagram::new(ext.port, udp.dst_port, udp.payload);
        Some(new_udp.encode_frame(eth.dst, eth.src, ext.ip, ip.dst))
    }

    /// NAT translation for a world→gateway frame: rewrites the
    /// destination back to the inside endpoint. Returns `None` for
    /// unsolicited traffic (dropped, as a NAT does).
    pub fn nat_inbound(&mut self, frame: &[u8], guest_mac: MacAddr) -> Option<Vec<u8>> {
        let eth = EthernetFrame::decode(frame)?;
        if eth.ethertype != EtherType::Ipv4 {
            return None;
        }
        let ip = Ipv4Packet::decode(&eth.payload)?;
        let udp = match ip.proto {
            IpProto::Udp => UdpDatagram::decode(&ip.payload, ip.src, ip.dst)?,
            _ => return None,
        };
        let inside = self.nat.translate_in(IpProto::Udp, udp.dst_port)?;
        let new_udp = UdpDatagram::new(udp.src_port, inside.port, udp.payload);
        Some(new_udp.encode_frame(guest_mac, eth.src, ip.src, inside.ip))
    }

    /// Hotplug: a new netback VIF appeared — add it to the bridge
    /// (`brconfig bridge0 add vifN.M`).
    pub fn add_vif(&mut self, vif: &str) -> BridgePort {
        self.bridge.add_port(vif)
    }

    /// Hot-unplug: the frontend behind the VIF on `port` disconnected.
    pub fn remove_vif(&mut self, port: BridgePort) {
        self.bridge.remove_port(port);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kite_net::Forward;
    use kite_sim::Nanos;

    fn gw() -> Ipv4Addr {
        "192.168.1.50".parse().unwrap()
    }

    #[test]
    fn startup_attaches_the_if_to_the_bridge() {
        let mut app = NetworkApp::start("ixg0", gw());
        // `ixg0` is the bridge's only port: its broadcast floods nowhere.
        let phys = app.if_port;
        let flood = app
            .bridge
            .input(phys, MacAddr::local(9), MacAddr::BROADCAST, Nanos(1));
        assert_eq!(flood, Forward::Flood);
        assert_eq!(app.bridge.port_at(0), Some(phys));
        assert_eq!(app.bridge.port_at(1), None);
    }

    #[test]
    fn vif_hotplug_and_forwarding() {
        let mut app = NetworkApp::start("ixg0", gw());
        let vif_port = app.add_vif("vif2.0");
        // A broadcast from the NIC reaches the new VIF's port.
        let phys = app.if_port;
        let flood = app
            .bridge
            .input(phys, MacAddr::local(9), MacAddr::BROADCAST, Nanos(1));
        assert_eq!(flood, Forward::Flood);
        assert_eq!(app.bridge.port_at(0), Some(phys));
        assert_eq!(app.bridge.port_at(1), Some(vif_port));
        assert_eq!(app.bridge.port_at(2), None);
        // Guest talks out through the VIF; bridge learns.
        let guest_mac = MacAddr::local(100);
        let ext_mac = MacAddr::local(200);
        app.bridge
            .input(vif_port, guest_mac, MacAddr::BROADCAST, Nanos::ZERO);
        assert_eq!(
            app.bridge.input(phys, ext_mac, guest_mac, Nanos(1)),
            Forward::Unicast(vif_port)
        );
    }

    #[test]
    fn vif_unplug_cleans_up() {
        let mut app = NetworkApp::start("ixg0", gw());
        let vif_port = app.add_vif("vif2.0");
        app.remove_vif(vif_port);
        // The VIF's port left the bridge: a broadcast from the NIC
        // floods to no port.
        let phys = app.if_port;
        let flood = app
            .bridge
            .input(phys, MacAddr::local(9), MacAddr::BROADCAST, Nanos(1));
        assert_eq!(flood, Forward::Flood);
        assert_eq!(app.bridge.port_at(0), Some(phys));
        assert_eq!(app.bridge.port_at(1), None);
    }

    #[test]
    fn nat_rewrites_and_reverses() {
        let mut app = NetworkApp::start("ixg0", gw());
        app.use_nat();
        assert_eq!(app.mode, LinkMode::Nat);
        let guest_ip: Ipv4Addr = "192.168.1.100".parse().unwrap();
        let client_ip: Ipv4Addr = "192.168.1.10".parse().unwrap();
        let udp = kite_net::UdpDatagram::new(5555, 80, b"req".to_vec());
        let ip = kite_net::Ipv4Packet::new(
            guest_ip,
            client_ip,
            kite_net::IpProto::Udp,
            udp.encode(guest_ip, client_ip),
        );
        let frame = kite_net::EthernetFrame::new(
            MacAddr::local(9),
            MacAddr::local(100),
            kite_net::EtherType::Ipv4,
            ip.encode(),
        )
        .encode();
        // Outbound: source becomes the gateway, checksums stay valid.
        let out = app.nat_outbound(&frame).unwrap();
        let eth = kite_net::EthernetFrame::decode(&out).unwrap();
        let ip2 = kite_net::Ipv4Packet::decode(&eth.payload).unwrap();
        assert_eq!(ip2.src, gw());
        let udp2 = kite_net::UdpDatagram::decode(&ip2.payload, ip2.src, ip2.dst).unwrap();
        assert_eq!(udp2.payload, b"req");
        assert_ne!(udp2.src_port, 5555, "source port rewritten");

        // The client replies to the gateway endpoint; inbound restores
        // the guest address/port.
        let reply = kite_net::UdpDatagram::new(80, udp2.src_port, b"rsp".to_vec());
        let rip = kite_net::Ipv4Packet::new(
            client_ip,
            gw(),
            kite_net::IpProto::Udp,
            reply.encode(client_ip, gw()),
        );
        let rframe = kite_net::EthernetFrame::new(
            MacAddr::local(1),
            MacAddr::local(9),
            kite_net::EtherType::Ipv4,
            rip.encode(),
        )
        .encode();
        let back = app.nat_inbound(&rframe, MacAddr::local(100)).unwrap();
        let eth3 = kite_net::EthernetFrame::decode(&back).unwrap();
        assert_eq!(eth3.dst, MacAddr::local(100));
        let ip3 = kite_net::Ipv4Packet::decode(&eth3.payload).unwrap();
        assert_eq!(ip3.dst, guest_ip);
        let udp3 = kite_net::UdpDatagram::decode(&ip3.payload, ip3.src, ip3.dst).unwrap();
        assert_eq!(udp3.dst_port, 5555);
        assert_eq!(udp3.payload, b"rsp");
    }

    #[test]
    fn nat_drops_unsolicited_inbound() {
        let mut app = NetworkApp::start("ixg0", gw());
        app.use_nat();
        let udp = kite_net::UdpDatagram::new(80, 44444, b"scan".to_vec());
        let client_ip: Ipv4Addr = "192.168.1.10".parse().unwrap();
        let ip = kite_net::Ipv4Packet::new(
            client_ip,
            gw(),
            kite_net::IpProto::Udp,
            udp.encode(client_ip, gw()),
        );
        let frame = kite_net::EthernetFrame::new(
            MacAddr::local(1),
            MacAddr::local(9),
            kite_net::EtherType::Ipv4,
            ip.encode(),
        )
        .encode();
        assert!(app.nat_inbound(&frame, MacAddr::local(100)).is_none());
    }
}
