//! `rr_open` — open-loop request/response with small packets.
//!
//! Poisson arrivals (seeded, mean gap 4 µs = 250k req/s, about 60 % of
//! the single-queue knee) of 128 B requests client→guest over 64 flows;
//! the guest's echo server answers each with 1 KiB after 5 µs of work.
//! Single queue, stock 10GbE, default segmentation mode.
//!
//! Why: latency-bound small packets. Events per operation are at their
//! highest here, so the scheduler and the notify → IRQ → wake chain
//! dominate both clocks while bulk copying is negligible — the workload a
//! scheduler or event-channel change must move and a frame-copy change
//! must not.

use std::cell::RefCell;
use std::rc::Rc;

use kite::sim::{Nanos, Pcg};
use kite::system::{addrs, BackendOs, Reply, Side, SystemConfig};

use crate::harness::{finish_net, Harness, NetTally, PingTrain};
use crate::rep::{check_payload, make_payload, note, Ledger, Order, Rep};

pub const REQUESTS: u64 = 40_000;
const FLOWS: usize = 64;
const MEAN_GAP: Nanos = Nanos::from_micros(4);
const REQ_LEN: usize = 128;
const REPLY_LEN: usize = 1024;
const SERVER_COST: Nanos = Nanos::from_micros(5);
const SERVER_PORT: u16 = 7777;
const FLOW_PORT0: u16 = 1200;
const START: Nanos = Nanos::from_micros(10);

#[derive(Default)]
struct State {
    /// Requests, checked where the guest's server receives them.
    requests: Ledger,
    /// The replies the client expects: same (send time, sequence) as the
    /// request, registered at request time.
    replies: Ledger,
    replies_sent: u64,
    lat_ns: Vec<u64>,
    last_done: Nanos,
    errors: Vec<String>,
}

pub fn rep(seed: u64, traced: bool) -> Rep {
    let mut h = Harness::start(traced);
    let mut cfg = SystemConfig::new(BackendOs::Kite, seed);
    if traced {
        cfg = cfg.profiling(true).req_tracing(1);
    }
    let mut sys = cfg.build_net();
    let st = Rc::new(RefCell::new(State {
        requests: Ledger::new(Order::Asserted, FLOWS, REQUESTS as usize),
        replies: Ledger::new(Order::Counted, FLOWS, REQUESTS as usize),
        lat_ns: Vec::with_capacity(REQUESTS as usize),
        ..State::default()
    }));

    let server = Rc::clone(&st);
    sys.set_guest_app(Box::new(move |_now, msg| {
        let mut s = server.borrow_mut();
        let flow = msg.src_port.wrapping_sub(FLOW_PORT0) as usize;
        let checked = check_payload(&msg.payload, REQ_LEN)
            .ok_or_else(|| "corrupt request".to_string())
            .and_then(|(sent, seq)| s.requests.deliver(flow, sent, seq).map(|_| (sent, seq)));
        match checked {
            Ok((sent, seq)) => {
                s.replies_sent += 1;
                vec![Reply {
                    dst_ip: msg.src_ip,
                    dst_port: msg.src_port,
                    src_port: msg.dst_port,
                    payload: make_payload(REPLY_LEN, sent, seq),
                    cost: SERVER_COST,
                }]
            }
            Err(e) => {
                note(&mut s.errors, e);
                Vec::new()
            }
        }
    }));
    let client = Rc::clone(&st);
    sys.set_client_app(Box::new(move |now, msg| {
        let mut s = client.borrow_mut();
        let flow = msg.dst_port.wrapping_sub(FLOW_PORT0) as usize;
        let checked = check_payload(&msg.payload, REPLY_LEN)
            .ok_or_else(|| "corrupt reply".to_string())
            .and_then(|(sent, seq)| s.replies.deliver(flow, sent, seq));
        match checked {
            Ok(sent) => {
                // Latency from the *scheduled* send.
                s.lat_ns.push((now - sent).0);
                s.last_done = now;
            }
            Err(e) => note(&mut s.errors, e),
        }
        Vec::new()
    }));
    h.built();

    let mut rng = Pcg::new(seed, 0x7272_6f70_656e);
    let mut pings = PingTrain::new();
    let mut next_at = START;
    let mut sent = 0u64;
    while sent < REQUESTS {
        let end = h.window_end();
        while sent < REQUESTS && next_at < end {
            let flow = rng.index(FLOWS);
            let seq = {
                let mut s = st.borrow_mut();
                s.replies.send(next_at);
                s.requests.send(next_at)
            };
            sys.send_udp_at(
                next_at,
                Side::Client,
                addrs::GUEST,
                SERVER_PORT,
                FLOW_PORT0 + flow as u16,
                make_payload(REQ_LEN, next_at, seq),
            );
            sent += 1;
            next_at += rng.exp(MEAN_GAP);
        }
        pings.inject(&mut sys, end);
        h.run_window(&mut sys);
    }
    h.quiesce(&mut sys);

    let mut s = st.borrow_mut();
    let mut rep = Rep {
        attempted: REQUESTS,
        completed: s.replies.delivered,
        payload_bytes: sys.metrics.guest_rx_bytes + sys.metrics.client_rx_bytes,
        first_send: START,
        last_done: s.last_done,
        lat_ns: std::mem::take(&mut s.lat_ns),
        errors: std::mem::take(&mut s.errors),
        ..Rep::default()
    };
    let tally = NetTally {
        udp_sent: s.requests.sent() + s.replies_sent,
        bytes_checked: s.requests.delivered * REQ_LEN as u64
            + s.replies.delivered * REPLY_LEN as u64,
        guest_sent_reordered: s.replies.reordered,
    };
    finish_net(h, &sys, &pings, tally, &mut rep);
    rep
}
