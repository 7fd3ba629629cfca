//! `bidir_mtu` — closed-loop bidirectional ping-pong at wire MTU.
//!
//! 64 flows × 4 outstanding 1400 B datagrams, half of the flows started
//! from each side; every delivery makes the receiving application send a
//! fresh datagram back on the same flow (the client after a seeded think
//! time). `gso(false)`, 25GbE wire, 8 queues on an 8-vCPU driver domain.
//!
//! Why: per-packet costs with no offload to amortise them, Toeplitz
//! steering and the `CpuPool`, and netback's pusher *and* soft_start used
//! equally — the same layer `gso_stream` uses one-sidedly, so a Tx-chain
//! win that costs the Rx path shows here. It is also ROADMAP's
//! unexplained ceiling: goodput far below the wire with the driver vCPUs
//! mostly idle.
//!
//! Latency is the round trip (send → delivery of the datagram that
//! answers it). One-way latency is bimodal here — guest→client takes
//! 15–80 µs, client→guest 250–340 µs, half the datagrams each — so its
//! median sits on the cliff between the modes and moved 13 % between
//! seeds; the round trip contains one leg of each.

use std::cell::RefCell;
use std::rc::Rc;

use kite::sim::Nanos;
use kite::system::{addrs, BackendOs, LineRate, Reply, Side, SystemConfig, UdpMsg};

use crate::harness::{finish_net, Harness, NetTally, PingTrain};
use crate::rep::{check_payload, make_payload, note, Ledger, Order, Rep, ThinkTime};

pub const DATAGRAMS: u64 = 60_000;
const FLOWS: usize = 64;
const OUTSTANDING: usize = 4;
const LEN: usize = 1400;
/// Guest application turnaround before the datagram back leaves (the
/// client's is a `ThinkTime` draw).
const GUEST_TURNAROUND: Nanos = Nanos::from_nanos(500);
const CLIENT_PORT: u16 = 9999;
const FLOW_PORT0: u16 = 1200;
const START: Nanos = Nanos::from_micros(10);

struct State {
    /// Guest→client datagrams, checked at the client.
    to_client: Ledger,
    /// Client→guest datagrams, checked at the guest.
    to_guest: Ledger,
    think: ThinkTime,
    lat_ns: Vec<u64>,
    last_done: Nanos,
    errors: Vec<String>,
}

impl State {
    fn issued(&self) -> u64 {
        self.to_client.sent() + self.to_guest.sent()
    }

    fn delivered(&self) -> u64 {
        self.to_client.delivered + self.to_guest.delivered
    }

    /// One endpoint's application: check the datagram that arrived on
    /// `flow`, then send a fresh one back while the budget lasts.
    fn bounce(&mut self, at: Side, now: Nanos, flow: usize, msg: &UdpMsg) -> Vec<Reply> {
        let (inbound, outbound) = match at {
            Side::Client => (&mut self.to_client, &mut self.to_guest),
            Side::Guest => (&mut self.to_guest, &mut self.to_client),
        };
        let checked = check_payload(&msg.payload, LEN)
            .ok_or_else(|| "corrupt datagram".to_string())
            .and_then(|(sent, seq)| inbound.deliver(flow, sent, seq).map(|began| (sent, began)));
        let sent = match checked {
            Ok((sent, began)) => {
                // The opening datagrams answer nothing: no round trip.
                if began != sent {
                    self.lat_ns.push((now - began).0);
                }
                self.last_done = now;
                sent
            }
            Err(e) => {
                note(&mut self.errors, e);
                return Vec::new();
            }
        };
        if inbound.sent() + outbound.sent() == DATAGRAMS {
            return Vec::new();
        }
        let seq = outbound.send_answering(now, sent);
        vec![Reply {
            dst_ip: msg.src_ip,
            dst_port: msg.src_port,
            src_port: msg.dst_port,
            payload: make_payload(LEN, now, seq),
            cost: match at {
                Side::Client => self.think.draw(flow, now),
                Side::Guest => GUEST_TURNAROUND,
            },
        }]
    }
}

pub fn rep(seed: u64, traced: bool) -> Rep {
    let mut h = Harness::start(traced);
    let mut cfg = SystemConfig::new(BackendOs::Kite, seed)
        .queues(8)
        .gso(false)
        .wire_profile(LineRate::Gbe25);
    if traced {
        cfg = cfg.profiling(true).req_tracing(1);
    }
    let mut sys = cfg.build_net();
    let st = Rc::new(RefCell::new(State {
        to_client: Ledger::new(Order::Counted, FLOWS, DATAGRAMS as usize),
        to_guest: Ledger::new(Order::Asserted, FLOWS, DATAGRAMS as usize),
        think: ThinkTime::new(seed, 0x6269_6469, FLOWS),
        lat_ns: Vec::with_capacity(DATAGRAMS as usize),
        last_done: Nanos::ZERO,
        errors: Vec::new(),
    }));
    let client = Rc::clone(&st);
    sys.set_client_app(Box::new(move |now, msg| {
        let flow = msg.src_port.wrapping_sub(FLOW_PORT0) as usize;
        client.borrow_mut().bounce(Side::Client, now, flow, msg)
    }));
    let guest = Rc::clone(&st);
    sys.set_guest_app(Box::new(move |now, msg| {
        let flow = msg.dst_port.wrapping_sub(FLOW_PORT0) as usize;
        guest.borrow_mut().bounce(Side::Guest, now, flow, msg)
    }));
    h.built();

    for flow in 0..FLOWS {
        let port = FLOW_PORT0 + flow as u16;
        for _ in 0..OUTSTANDING {
            let mut s = st.borrow_mut();
            // The first half of the flows starts at the guest, the second
            // at the client.
            if flow < FLOWS / 2 {
                let seq = s.to_client.send(START);
                let p = make_payload(LEN, START, seq);
                sys.send_udp_at(START, Side::Guest, addrs::CLIENT, CLIENT_PORT, port, p);
            } else {
                let seq = s.to_guest.send(START);
                let p = make_payload(LEN, START, seq);
                sys.send_udp_at(START, Side::Client, addrs::GUEST, port, CLIENT_PORT, p);
            }
        }
    }
    let mut pings = PingTrain::new();
    h.run_closed_loop(
        &mut sys,
        DATAGRAMS,
        || st.borrow().delivered(),
        |sys, end| pings.inject(sys, end),
    );

    let mut s = st.borrow_mut();
    let mut rep = Rep {
        attempted: DATAGRAMS,
        completed: s.delivered(),
        payload_bytes: sys.metrics.guest_rx_bytes + sys.metrics.client_rx_bytes,
        first_send: START,
        last_done: s.last_done,
        lat_ns: std::mem::take(&mut s.lat_ns),
        errors: std::mem::take(&mut s.errors),
        ..Rep::default()
    };
    let tally = NetTally {
        udp_sent: s.issued(),
        bytes_checked: s.delivered() * LEN as u64,
        guest_sent_reordered: s.to_client.reordered,
    };
    finish_net(h, &sys, &pings, tally, &mut rep);
    rep
}
