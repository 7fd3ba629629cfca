//! The unikernelized DHCP server (§5.5): Kite's daemon-VM proof point.
//!
//! The paper ports OpenDHCP to rumprun with 16 lines of changes and shows
//! the daemon VM matching Linux latency. This is a complete single-threaded
//! DHCP server over the real RFC 2131 codec: lease pool, DISCOVER→OFFER,
//! REQUEST→ACK/NAK, RELEASE, lease expiry and renewal.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use kite_net::{DhcpMessage, DhcpMessageType, MacAddr};
use kite_sim::Nanos;

/// One lease record.
#[derive(Clone, Debug)]
pub struct Lease {
    /// Leased address.
    pub ip: Ipv4Addr,
    /// Expiry instant.
    pub expires: Nanos,
}

/// Server's own address (option 54), also the router it hands out.
const SERVER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
/// First address of the pool.
const RANGE_START: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 100);
/// Lease duration.
const LEASE_TIME: Nanos = Nanos::from_secs(3600);
/// Subnet mask handed out.
const SUBNET_MASK: Ipv4Addr = Ipv4Addr::new(255, 255, 255, 0);

/// The DHCP server.
pub struct DhcpServer {
    /// Pool size.
    range_len: u32,
    leases: HashMap<MacAddr, Lease>,
    by_ip: HashMap<Ipv4Addr, MacAddr>,
}

fn ip_add(base: Ipv4Addr, off: u32) -> Ipv4Addr {
    Ipv4Addr::from(u32::from(base).wrapping_add(off))
}

impl DhcpServer {
    /// Creates a server whose pool holds `range_len` addresses.
    pub fn new(range_len: u32) -> DhcpServer {
        DhcpServer {
            range_len,
            leases: HashMap::new(),
            by_ip: HashMap::new(),
        }
    }

    /// An address is available to `for_mac` when it is unleased, expired,
    /// or already bound to that same client (renewal/re-offer).
    fn find_free_ip(
        &self,
        now: Nanos,
        prefer: Option<Ipv4Addr>,
        for_mac: MacAddr,
    ) -> Option<Ipv4Addr> {
        let in_pool = |ip: Ipv4Addr| {
            let off = u32::from(ip).wrapping_sub(u32::from(RANGE_START));
            off < self.range_len
        };
        let free = |ip: Ipv4Addr| match self.by_ip.get(&ip) {
            None => true,
            Some(&mac) if mac == for_mac => true,
            Some(mac) => self
                .leases
                .get(mac)
                .map(|l| l.expires <= now)
                .unwrap_or(true),
        };
        if let Some(p) = prefer {
            if in_pool(p) && free(p) {
                return Some(p);
            }
        }
        (0..self.range_len)
            .map(|i| ip_add(RANGE_START, i))
            .find(|&ip| free(ip))
    }

    fn lease(&mut self, mac: MacAddr, ip: Ipv4Addr, now: Nanos) {
        if let Some(old) = self.leases.get(&mac) {
            self.by_ip.remove(&old.ip);
        }
        self.by_ip.insert(ip, mac);
        self.leases.insert(
            mac,
            Lease {
                ip,
                expires: now + LEASE_TIME,
            },
        );
    }

    fn reply_base(&self, req: &DhcpMessage, ty: DhcpMessageType) -> DhcpMessage {
        let mut m = DhcpMessage::client(ty, req.xid, req.chaddr);
        m.server_id = Some(SERVER_IP);
        m.subnet_mask = Some(SUBNET_MASK);
        m.router = Some(SERVER_IP);
        m.lease_secs = Some(LEASE_TIME.as_secs_f64() as u32);
        m
    }

    /// Handles one inbound message; returns the reply to transmit, if any.
    pub fn handle(&mut self, msg: &DhcpMessage, now: Nanos) -> Option<DhcpMessage> {
        match msg.msg_type {
            DhcpMessageType::Discover => {
                // Re-offer an existing binding when we have one.
                let existing = self
                    .leases
                    .get(&msg.chaddr)
                    .map(|l| l.ip)
                    .or(msg.requested_ip);
                let ip = self.find_free_ip(now, existing, msg.chaddr)?;
                let mut rep = self.reply_base(msg, DhcpMessageType::Offer);
                rep.yiaddr = ip;
                Some(rep)
            }
            DhcpMessageType::Request => {
                let want = msg.requested_ip.or(if msg.ciaddr.is_unspecified() {
                    None
                } else {
                    Some(msg.ciaddr)
                });
                let Some(want) = want else {
                    return Some(self.reply_base(msg, DhcpMessageType::Nak));
                };
                // Grant if it's our binding or the address is free.
                let ours = self
                    .leases
                    .get(&msg.chaddr)
                    .map(|l| l.ip == want && l.expires > now)
                    .unwrap_or(false);
                let available = self.find_free_ip(now, Some(want), msg.chaddr) == Some(want);
                if ours || available {
                    self.lease(msg.chaddr, want, now);
                    let mut rep = self.reply_base(msg, DhcpMessageType::Ack);
                    rep.yiaddr = want;
                    Some(rep)
                } else {
                    Some(self.reply_base(msg, DhcpMessageType::Nak))
                }
            }
            DhcpMessageType::Release => {
                if let Some(l) = self.leases.remove(&msg.chaddr) {
                    self.by_ip.remove(&l.ip);
                }
                None
            }
            DhcpMessageType::Decline => {
                // Mark the declined address as bound to a sentinel so it is
                // skipped until expiry.
                if let Some(ip) = msg.requested_ip {
                    self.by_ip.insert(ip, MacAddr::BROADCAST);
                    self.leases.insert(
                        MacAddr::BROADCAST,
                        Lease {
                            ip,
                            expires: now + LEASE_TIME,
                        },
                    );
                }
                None
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server() -> DhcpServer {
        DhcpServer::new(150)
    }

    fn discover(mac: u32, xid: u32) -> DhcpMessage {
        DhcpMessage::client(DhcpMessageType::Discover, xid, MacAddr::local(mac))
    }

    #[test]
    fn full_dora_cycle() {
        let mut s = server();
        let now = Nanos::ZERO;
        let offer = s.handle(&discover(1, 100), now).unwrap();
        assert_eq!(offer.msg_type, DhcpMessageType::Offer);
        assert_eq!(offer.xid, 100);
        let ip = offer.yiaddr;
        assert!(!ip.is_unspecified());

        let mut req = DhcpMessage::client(DhcpMessageType::Request, 100, MacAddr::local(1));
        req.requested_ip = Some(ip);
        let ack = s.handle(&req, now).unwrap();
        assert_eq!(ack.msg_type, DhcpMessageType::Ack);
        assert_eq!(ack.yiaddr, ip);
    }

    #[test]
    fn distinct_clients_get_distinct_addresses() {
        let mut s = server();
        let now = Nanos::ZERO;
        let mut ips = std::collections::HashSet::new();
        for i in 0..10 {
            let offer = s.handle(&discover(i, i), now).unwrap();
            let mut req = DhcpMessage::client(DhcpMessageType::Request, i, MacAddr::local(i));
            req.requested_ip = Some(offer.yiaddr);
            let ack = s.handle(&req, now).unwrap();
            assert!(ips.insert(ack.yiaddr), "duplicate ip {}", ack.yiaddr);
        }
    }

    #[test]
    fn rediscover_reoffers_same_binding() {
        let mut s = server();
        let now = Nanos::ZERO;
        let o1 = s.handle(&discover(1, 1), now).unwrap();
        let mut req = DhcpMessage::client(DhcpMessageType::Request, 1, MacAddr::local(1));
        req.requested_ip = Some(o1.yiaddr);
        s.handle(&req, now).unwrap();
        let o2 = s.handle(&discover(1, 2), Nanos::from_secs(10)).unwrap();
        assert_eq!(o2.yiaddr, o1.yiaddr);
    }

    #[test]
    fn taken_address_naked() {
        let mut s = server();
        let now = Nanos::ZERO;
        let o1 = s.handle(&discover(1, 1), now).unwrap();
        let mut req1 = DhcpMessage::client(DhcpMessageType::Request, 1, MacAddr::local(1));
        req1.requested_ip = Some(o1.yiaddr);
        s.handle(&req1, now).unwrap();
        // Client 2 greedily requests client 1's address.
        let mut req2 = DhcpMessage::client(DhcpMessageType::Request, 2, MacAddr::local(2));
        req2.requested_ip = Some(o1.yiaddr);
        let rep = s.handle(&req2, now).unwrap();
        assert_eq!(rep.msg_type, DhcpMessageType::Nak);
    }

    #[test]
    fn release_frees_address() {
        let mut s = server();
        let now = Nanos::ZERO;
        let o = s.handle(&discover(1, 1), now).unwrap();
        let mut req = DhcpMessage::client(DhcpMessageType::Request, 1, MacAddr::local(1));
        req.requested_ip = Some(o.yiaddr);
        s.handle(&req, now).unwrap();
        let rel = DhcpMessage::client(DhcpMessageType::Release, 2, MacAddr::local(1));
        assert!(s.handle(&rel, now).is_none());
        // Another client can now take it.
        let mut req2 = DhcpMessage::client(DhcpMessageType::Request, 3, MacAddr::local(2));
        req2.requested_ip = Some(o.yiaddr);
        assert_eq!(s.handle(&req2, now).unwrap().msg_type, DhcpMessageType::Ack);
    }

    #[test]
    fn leases_expire() {
        let mut s = server();
        let now = Nanos::ZERO;
        let o = s.handle(&discover(1, 1), now).unwrap();
        let mut req = DhcpMessage::client(DhcpMessageType::Request, 1, MacAddr::local(1));
        req.requested_ip = Some(o.yiaddr);
        s.handle(&req, now).unwrap();
        let later = Nanos::from_secs(3601);
        // The expired address is reusable by another client.
        let mut req2 = DhcpMessage::client(DhcpMessageType::Request, 2, MacAddr::local(2));
        req2.requested_ip = Some(o.yiaddr);
        assert_eq!(
            s.handle(&req2, later).unwrap().msg_type,
            DhcpMessageType::Ack
        );
    }

    #[test]
    fn pool_exhaustion_stops_offers() {
        let mut s = DhcpServer::new(2);
        let now = Nanos::ZERO;
        for i in 0..2 {
            let o = s.handle(&discover(i, i), now).unwrap();
            let mut req = DhcpMessage::client(DhcpMessageType::Request, i, MacAddr::local(i));
            req.requested_ip = Some(o.yiaddr);
            s.handle(&req, now).unwrap();
        }
        assert!(s.handle(&discover(99, 99), now).is_none());
    }

    #[test]
    fn request_without_address_is_naked() {
        let mut s = server();
        let req = DhcpMessage::client(DhcpMessageType::Request, 7, MacAddr::local(7));
        assert_eq!(
            s.handle(&req, Nanos::ZERO).unwrap().msg_type,
            DhcpMessageType::Nak
        );
    }

    #[test]
    fn replies_carry_network_options() {
        let mut s = server();
        let o = s.handle(&discover(1, 1), Nanos::ZERO).unwrap();
        assert_eq!(o.server_id, Some(SERVER_IP));
        assert_eq!(o.subnet_mask, Some(SUBNET_MASK));
        assert_eq!(o.router, Some(SERVER_IP));
        assert_eq!(o.lease_secs, Some(3600));
    }
}
