//! `gso_stream` — closed-loop, ack-clocked bulk transmit.
//!
//! 16 flows × 2 outstanding 48 KiB messages guest→client; the client acks
//! each complete message with 16 B after a seeded think time and the
//! guest application sends the flow's next message when the ack arrives.
//! `gso(true)`, 100GbE wire, one queue.
//!
//! Why: the byte-moving Tx path — netfront descriptor chains, netback's
//! chain validation, grant copy, TSO, the wire. The scheduler is a small
//! share of host time here and per-hop frame copies a large one, so this
//! is where a zero-copy frame path must show and a scheduler change must
//! not.

use std::cell::RefCell;
use std::rc::Rc;

use kite::sim::Nanos;
use kite::system::{addrs, BackendOs, LineRate, Reply, Side, SystemConfig};

use crate::harness::{finish_net, Harness, NetTally, PingTrain};
use crate::rep::{check_payload, make_payload, note, Ledger, Order, Rep, ThinkTime, HDR};

pub const MESSAGES: u64 = 2_500;
const FLOWS: usize = 16;
const OUTSTANDING: usize = 2;
const MSG_LEN: usize = 48 * 1024;
const ACK_LEN: usize = HDR;
/// Guest application work to produce one message (a `write()` of 48 KiB).
const SEND_COST: Nanos = Nanos::from_micros(2);
const SINK_PORT: u16 = 9999;
const FLOW_PORT0: u16 = 1200;
const START: Nanos = Nanos::from_micros(10);

struct State {
    /// Messages guest→client, checked at the client.
    msgs: Ledger,
    /// Acks client→guest, checked at the guest.
    acks: Ledger,
    ack_delay: ThinkTime,
    lat_ns: Vec<u64>,
    last_done: Nanos,
    errors: Vec<String>,
}

pub fn rep(seed: u64, traced: bool) -> Rep {
    let mut h = Harness::start(traced);
    let mut cfg = SystemConfig::new(BackendOs::Kite, seed)
        .gso(true)
        .wire_profile(LineRate::Gbe100);
    if traced {
        cfg = cfg.profiling(true).req_tracing(1);
    }
    let mut sys = cfg.build_net();
    let st = Rc::new(RefCell::new(State {
        msgs: Ledger::new(Order::Counted, FLOWS, MESSAGES as usize),
        acks: Ledger::new(Order::Asserted, FLOWS, MESSAGES as usize),
        ack_delay: ThinkTime::new(seed, 0x6773_6f73_7472, FLOWS),
        lat_ns: Vec::with_capacity(MESSAGES as usize),
        last_done: Nanos::ZERO,
        errors: Vec::new(),
    }));

    let sink = Rc::clone(&st);
    sys.set_client_app(Box::new(move |now, msg| {
        let mut s = sink.borrow_mut();
        let flow = msg.src_port.wrapping_sub(FLOW_PORT0) as usize;
        let checked = check_payload(&msg.payload, MSG_LEN)
            .ok_or_else(|| "corrupt message".to_string())
            .and_then(|(sent, seq)| s.msgs.deliver(flow, sent, seq));
        match checked {
            Ok(sent) => {
                // Message issue → last byte at the receiving application.
                s.lat_ns.push((now - sent).0);
                s.last_done = now;
                let ack = s.acks.send(now);
                vec![Reply {
                    dst_ip: msg.src_ip,
                    dst_port: msg.src_port,
                    src_port: msg.dst_port,
                    payload: make_payload(ACK_LEN, now, ack),
                    cost: s.ack_delay.draw(flow, now),
                }]
            }
            Err(e) => {
                note(&mut s.errors, e);
                Vec::new()
            }
        }
    }));
    let source = Rc::clone(&st);
    sys.set_guest_app(Box::new(move |now, msg| {
        let mut s = source.borrow_mut();
        let flow = msg.dst_port.wrapping_sub(FLOW_PORT0) as usize;
        let checked = check_payload(&msg.payload, ACK_LEN)
            .ok_or_else(|| "corrupt ack".to_string())
            .and_then(|(sent, seq)| s.acks.deliver(flow, sent, seq));
        if let Err(e) = checked {
            note(&mut s.errors, e);
            return Vec::new();
        }
        if s.msgs.sent() == MESSAGES {
            return Vec::new();
        }
        let seq = s.msgs.send(now);
        vec![Reply {
            dst_ip: msg.src_ip,
            dst_port: msg.src_port,
            src_port: msg.dst_port,
            payload: make_payload(MSG_LEN, now, seq),
            cost: SEND_COST,
        }]
    }));
    h.built();

    for flow in 0..FLOWS {
        for _ in 0..OUTSTANDING {
            let seq = st.borrow_mut().msgs.send(START);
            sys.send_udp_at(
                START,
                Side::Guest,
                addrs::CLIENT,
                SINK_PORT,
                FLOW_PORT0 + flow as u16,
                make_payload(MSG_LEN, START, seq),
            );
        }
    }
    let mut pings = PingTrain::new();
    h.run_closed_loop(
        &mut sys,
        MESSAGES,
        || st.borrow().msgs.delivered,
        |sys, end| pings.inject(sys, end),
    );

    let mut s = st.borrow_mut();
    let mut rep = Rep {
        attempted: MESSAGES,
        completed: s.msgs.delivered,
        payload_bytes: sys.metrics.client_rx_bytes,
        first_send: START,
        last_done: s.last_done,
        lat_ns: std::mem::take(&mut s.lat_ns),
        errors: std::mem::take(&mut s.errors),
        ..Rep::default()
    };
    let tally = NetTally {
        udp_sent: s.msgs.sent() + s.acks.sent(),
        bytes_checked: s.msgs.delivered * MSG_LEN as u64,
        guest_sent_reordered: s.msgs.reordered,
    };
    finish_net(h, &sys, &pings, tally, &mut rep);
    rep
}
