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

/// Server configuration.
#[derive(Clone, Debug)]
pub struct DhcpConfig {
    /// Server's own address (option 54).
    pub server_ip: Ipv4Addr,
    /// First address of the pool.
    pub range_start: Ipv4Addr,
    /// Pool size.
    pub range_len: u32,
    /// Lease duration.
    pub lease_time: Nanos,
    /// Subnet mask handed out.
    pub subnet_mask: Ipv4Addr,
    /// Router handed out.
    pub router: Ipv4Addr,
}

impl Default for DhcpConfig {
    fn default() -> DhcpConfig {
        DhcpConfig {
            server_ip: Ipv4Addr::new(10, 0, 0, 1),
            range_start: Ipv4Addr::new(10, 0, 0, 100),
            range_len: 150,
            lease_time: Nanos::from_secs(3600),
            subnet_mask: Ipv4Addr::new(255, 255, 255, 0),
            router: Ipv4Addr::new(10, 0, 0, 1),
        }
    }
}

/// Server statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct DhcpStats {
    /// DISCOVERs seen.
    pub discovers: u64,
    /// OFFERs sent.
    pub offers: u64,
    /// ACKs sent.
    pub acks: u64,
    /// NAKs sent.
    pub naks: u64,
    /// RELEASEs processed.
    pub releases: u64,
}

/// The DHCP server.
pub struct DhcpServer {
    /// Configuration.
    pub config: DhcpConfig,
    leases: HashMap<MacAddr, Lease>,
    by_ip: HashMap<Ipv4Addr, MacAddr>,
    stats: DhcpStats,
}

fn ip_add(base: Ipv4Addr, off: u32) -> Ipv4Addr {
    Ipv4Addr::from(u32::from(base).wrapping_add(off))
}

impl DhcpServer {
    /// Creates a server with the given configuration.
    pub fn new(config: DhcpConfig) -> DhcpServer {
        DhcpServer {
            config,
            leases: HashMap::new(),
            by_ip: HashMap::new(),
            stats: DhcpStats::default(),
        }
    }

    /// Server statistics.
    pub fn stats(&self) -> DhcpStats {
        self.stats
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
            let off = u32::from(ip).wrapping_sub(u32::from(self.config.range_start));
            off < self.config.range_len
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
        (0..self.config.range_len)
            .map(|i| ip_add(self.config.range_start, i))
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
                expires: now + self.config.lease_time,
            },
        );
    }

    fn reply_base(&self, req: &DhcpMessage, ty: DhcpMessageType) -> DhcpMessage {
        let mut m = DhcpMessage::client(ty, req.xid, req.chaddr);
        m.server_id = Some(self.config.server_ip);
        m.subnet_mask = Some(self.config.subnet_mask);
        m.router = Some(self.config.router);
        m.lease_secs = Some((self.config.lease_time.as_secs_f64()) as u32);
        m
    }

    /// Handles one inbound message; returns the reply to transmit, if any.
    pub fn handle(&mut self, msg: &DhcpMessage, now: Nanos) -> Option<DhcpMessage> {
        match msg.msg_type {
            DhcpMessageType::Discover => {
                self.stats.discovers += 1;
                // Re-offer an existing binding when we have one.
                let existing = self
                    .leases
                    .get(&msg.chaddr)
                    .map(|l| l.ip)
                    .or(msg.requested_ip);
                let ip = self.find_free_ip(now, existing, msg.chaddr)?;
                self.stats.offers += 1;
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
                    self.stats.naks += 1;
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
                    self.stats.acks += 1;
                    let mut rep = self.reply_base(msg, DhcpMessageType::Ack);
                    rep.yiaddr = want;
                    Some(rep)
                } else {
                    self.stats.naks += 1;
                    Some(self.reply_base(msg, DhcpMessageType::Nak))
                }
            }
            DhcpMessageType::Release => {
                self.stats.releases += 1;
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
                            expires: now + self.config.lease_time,
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
        DhcpServer::new(DhcpConfig::default())
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
        assert_eq!(s.stats().acks, 1);
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
        let cfg = DhcpConfig {
            range_len: 2,
            ..DhcpConfig::default()
        };
        let mut s = DhcpServer::new(cfg);
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
        assert_eq!(o.server_id, Some(s.config.server_ip));
        assert_eq!(o.subnet_mask, Some(s.config.subnet_mask));
        assert_eq!(o.router, Some(s.config.router));
        assert_eq!(o.lease_secs, Some(3600));
    }
}
