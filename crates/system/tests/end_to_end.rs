//! End-to-end integration tests: real bytes through every hop.

use std::cell::RefCell;
use std::rc::Rc;

use kite_net::ether::TSO_MSS;
use kite_sim::Nanos;
use kite_system::{
    addrs, scenario, BackendOs, IoKind, IoOp, NetSystem, Reply, Side, StorSystem, SystemConfig,
    GSO_UDP,
};

#[test]
fn udp_request_reply_roundtrip_with_payload_integrity() {
    for os in BackendOs::both() {
        let mut sys = NetSystem::new(os);
        // Guest echo server on port 7.
        sys.set_guest_app(scenario::echo_server(Nanos::from_micros(1)));
        let got: Rc<RefCell<Vec<Vec<u8>>>> = Rc::new(RefCell::new(Vec::new()));
        let got2 = got.clone();
        sys.set_client_app(Box::new(move |_, msg| {
            got2.borrow_mut().push(msg.payload.to_vec());
            Vec::new()
        }));
        let payload: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        sys.send_udp_at(
            Nanos::from_millis(1),
            Side::Client,
            addrs::GUEST,
            7,
            40000,
            payload.clone(),
        );
        sys.run_to_quiescence();
        let got = got.borrow();
        assert_eq!(got.len(), 1, "{}: echo reply arrived", os.name());
        assert_eq!(got[0], payload, "{}: payload intact end to end", os.name());
        let st = sys.netback_stats();
        assert!(st.rx_packets >= 1, "request crossed netback Rx");
        assert!(st.tx_packets >= 1, "reply crossed netback Tx");
        assert_eq!(sys.metrics.drops, 0);
    }
}

#[test]
fn large_message_chunks_and_reassembles() {
    // A 64 KiB message crosses in super-frame chunks with GSO
    // negotiated, in MSS-sized ones when the guest segments in software.
    for (gso, unit) in [(true, GSO_UDP), (false, TSO_MSS)] {
        let mut sys = SystemConfig::new(BackendOs::Kite, 7).gso(gso).build_net();
        let bytes_seen = Rc::new(RefCell::new(0usize));
        let bs = bytes_seen.clone();
        sys.set_guest_app(Box::new(move |_, msg| {
            *bs.borrow_mut() += msg.payload.len();
            Vec::new()
        }));
        sys.send_udp_at(
            Nanos::from_millis(1),
            Side::Client,
            addrs::GUEST,
            5001,
            40000,
            vec![0xab; 65536],
        );
        sys.run_to_quiescence();
        assert_eq!(*bytes_seen.borrow(), 65536, "gso={gso}");
        assert_eq!(
            sys.metrics.guest_rx_msgs,
            65536_usize.div_ceil(unit) as u64,
            "gso={gso}: one message per {unit}-byte chunk"
        );
    }
}

#[test]
fn ping_rtt_sub_millisecond_and_kite_faster() {
    let mut rtts = Vec::new();
    for os in BackendOs::both() {
        let mut sys = NetSystem::new(os);
        for i in 0..20 {
            sys.ping_at(Nanos::from_millis(10 * i as u64), i);
        }
        sys.run_to_quiescence();
        assert_eq!(
            sys.metrics.ping_rtts.count(),
            20,
            "{}: all pings replied",
            os.name()
        );
        let mean = sys.metrics.ping_rtts.mean();
        rtts.push(mean);
        assert!(
            mean < 1_000_000.0,
            "{}: RTT {}ns below 1ms",
            os.name(),
            mean
        );
        assert!(
            mean > 10_000.0,
            "{}: RTT {}ns is physically plausible",
            os.name(),
            mean
        );
    }
    // Paper Fig 7: Kite ping latency < Linux.
    assert!(rtts[1] < rtts[0], "Kite {} < Linux {}", rtts[1], rtts[0]);
}

#[test]
fn guest_to_client_direction_works() {
    let mut sys = NetSystem::new(BackendOs::Kite);
    let got = Rc::new(RefCell::new(0u64));
    let g = got.clone();
    sys.set_client_app(Box::new(move |_, msg| {
        *g.borrow_mut() += msg.payload.len() as u64;
        Vec::new()
    }));
    for i in 0..50 {
        sys.send_udp_at(
            Nanos::from_micros(100 * i),
            Side::Guest,
            addrs::CLIENT,
            9999,
            1234,
            vec![1u8; 1400],
        );
    }
    sys.run_to_quiescence();
    assert_eq!(*got.borrow(), 50 * 1400);
    assert_eq!(sys.netback_stats().tx_packets, 50);
}

#[test]
fn storage_write_then_read_verifies_bytes() {
    for os in BackendOs::both() {
        let mut sys = StorSystem::new(os);
        // 320 KiB written as two 160 KiB halves under one tag, in flight
        // at once: tags are the workload's labels, so each half completes
        // on its own.
        let data: Vec<u8> = (0..320 * 1024).map(|i| (i % 241) as u8).collect();
        let (first, second) = data.split_at(data.len() / 2);
        let writes = Rc::new(RefCell::new(0u64));
        let w = writes.clone();
        sys.set_handler(Box::new(move |_, done| {
            assert_eq!((done.tag, done.ok), (1, true));
            *w.borrow_mut() += 1;
            Vec::new()
        }));
        let second_at = 2048 + (first.len() / 512) as u64;
        for (sector, half) in [(2048, first), (second_at, second)] {
            let kind = IoKind::Write {
                sector,
                data: half.to_vec(),
            };
            sys.submit_at(Nanos::from_millis(1), IoOp { tag: 1, kind });
        }
        sys.run_to_quiescence();
        assert_eq!(*writes.borrow(), 2, "{}: one IoDone per write", os.name());
        assert_eq!(sys.outstanding(), 0, "{}", os.name());
        assert_eq!(sys.metrics.ios, 2, "{}: both writes completed", os.name());

        // Read it back through the whole PV path: three ring requests
        // (128 + 128 + 64 KiB) land in one buffer, in order.
        let read_back: Rc<RefCell<Option<Vec<u8>>>> = Rc::new(RefCell::new(None));
        let rb = read_back.clone();
        sys.set_handler(Box::new(move |_, done| {
            if done.tag == 2 {
                *rb.borrow_mut() = done.data.clone();
            }
            Vec::new()
        }));
        sys.submit_at(
            sys.now() + Nanos::from_millis(1),
            IoOp {
                tag: 2,
                kind: IoKind::Read {
                    sector: 2048,
                    len: data.len(),
                },
            },
        );
        sys.run_to_quiescence();
        let rb = read_back.borrow();
        assert_eq!(
            rb.as_deref(),
            Some(data.as_slice()),
            "{}: bytes intact",
            os.name()
        );
    }
}

#[test]
fn storage_flush_and_closed_loop_worker() {
    let mut sys = StorSystem::new(BackendOs::Kite);
    // A closed-loop worker: write 64 KiB, then flush, then stop. Tags:
    // 1 = write, 2 = flush.
    sys.set_handler(Box::new(move |_, done| {
        assert!(done.ok);
        if done.tag == 1 {
            vec![IoOp {
                tag: 2,
                kind: IoKind::Flush,
            }]
        } else {
            Vec::new()
        }
    }));
    sys.submit_at(
        Nanos::from_millis(1),
        IoOp {
            tag: 1,
            kind: IoKind::Write {
                sector: 0,
                data: vec![7u8; 65536],
            },
        },
    );
    sys.run_to_quiescence();
    assert_eq!(sys.metrics.ios, 2);
    assert_eq!(sys.outstanding(), 0);
}

#[test]
fn storage_uses_indirect_segments_for_large_io() {
    let mut sys = StorSystem::new(BackendOs::Kite);
    // One 128 KiB request = 32 segments: must go indirect (> 11 segs).
    sys.submit_at(
        Nanos::from_millis(1),
        IoOp {
            tag: 1,
            kind: IoKind::Write {
                sector: 0,
                data: vec![3u8; 128 * 1024],
            },
        },
    );
    sys.run_to_quiescence();
    let st = sys.blkback_stats();
    assert_eq!(st.requests, 1, "a single (indirect) ring request sufficed");
    assert_eq!(sys.metrics.ios, 1);
}

#[test]
fn persistent_grants_reduce_maps_on_repeat_io() {
    let mut sys = StorSystem::new(BackendOs::Kite);
    for i in 0..20 {
        sys.submit_at(
            Nanos::from_millis(1 + i),
            IoOp {
                tag: i,
                kind: IoKind::Write {
                    sector: 0,
                    data: vec![i as u8; 4096],
                },
            },
        );
    }
    sys.run_to_quiescence();
    let st = sys.blkback_stats();
    assert_eq!(st.requests, 20);
    assert!(
        st.persistent_hits > 0,
        "page pool reuse should hit the persistent-grant cache: {st:?}"
    );
    assert!(st.grant_maps < 20, "maps avoided: {st:?}");
}

#[test]
fn deterministic_replay_same_seed() {
    let run = || {
        let mut sys = NetSystem::new(BackendOs::Kite);
        sys.set_guest_app(Box::new(|_, msg| {
            vec![Reply {
                dst_ip: msg.src_ip,
                dst_port: msg.src_port,
                src_port: msg.dst_port,
                payload: vec![0; 64],
                cost: Nanos::from_micros(2),
            }]
        }));
        for i in 0..200u64 {
            sys.send_udp_at(
                Nanos::from_micros(50 * i),
                Side::Client,
                addrs::GUEST,
                80,
                4000,
                vec![1; 200],
            );
        }
        sys.run_to_quiescence();
        (
            sys.now().as_nanos(),
            sys.metrics.client_rx_bytes,
            sys.events_processed(),
        )
    };
    assert_eq!(run(), run(), "same build, same trajectory");
}

#[test]
fn nat_mode_carries_guest_initiated_flows() {
    let mut sys = NetSystem::new(BackendOs::Kite);
    sys.use_nat();
    // Client echoes whatever arrives (it sees the gateway as the source).
    sys.set_client_app(scenario::echo_server(Nanos::from_micros(1)));
    let got: Rc<RefCell<Vec<Vec<u8>>>> = Rc::new(RefCell::new(Vec::new()));
    let g2 = got.clone();
    let src_seen: Rc<RefCell<Option<std::net::Ipv4Addr>>> = Rc::new(RefCell::new(None));
    sys.set_guest_app(Box::new(move |_, msg| {
        g2.borrow_mut().push(msg.payload.to_vec());
        Vec::new()
    }));
    // Record what source the client sees by wrapping its handler… instead,
    // assert afterwards via the NAT flow table.
    drop(src_seen);
    sys.send_udp_at(
        Nanos::from_millis(1),
        Side::Guest,
        addrs::CLIENT,
        9999,
        5555,
        b"through the NAT".to_vec(),
    );
    sys.run_to_quiescence();
    let got = got.borrow();
    assert_eq!(got.len(), 1, "reply translated back to the guest");
    assert_eq!(got[0], b"through the NAT");
    assert_eq!(sys.netapp.nat.flows(), 1, "one SNAT flow established");
}

#[test]
fn nat_mode_drops_unsolicited_inbound_udp() {
    let mut sys = NetSystem::new(BackendOs::Kite);
    sys.use_nat();
    let seen = Rc::new(RefCell::new(0u64));
    let s2 = seen.clone();
    sys.set_guest_app(Box::new(move |_, _| {
        *s2.borrow_mut() += 1;
        Vec::new()
    }));
    // The client scans the gateway directly: no flow, must be dropped.
    sys.send_udp_at(
        Nanos::from_millis(1),
        Side::Client,
        addrs::GATEWAY,
        31337,
        4444,
        vec![0; 64],
    );
    sys.run_to_quiescence();
    assert_eq!(*seen.borrow(), 0, "unsolicited UDP never reaches the guest");
    assert!(sys.metrics.drops >= 1);
    // But ping still works in NAT mode (gateway proxies ICMP).
    sys.ping_at(sys.now() + Nanos::from_millis(1), 1);
    sys.run_to_quiescence();
    assert_eq!(sys.metrics.ping_rtts.count(), 1);
}

/// The first eight payload bytes of a test datagram: its per-flow
/// sequence number.
fn seq_of(payload: &[u8]) -> u64 {
    u64::from_le_bytes(payload[..8].try_into().expect("sequence header"))
}

fn seq_payload(seq: u64, len: usize) -> Vec<u8> {
    let mut p = vec![seq as u8; len];
    p[..8].copy_from_slice(&seq.to_le_bytes());
    p
}

/// Closed-loop bidirectional MTU ping-pong over 8 queues on 25GbE with
/// software segmentation (the `bidir_mtu` regime, where netfront's
/// interrupts arrive a few hundred ns apart): the guest's handler clock
/// never runs backwards, so what the guest application sends arrives in
/// per-flow order, and so does what the client sends.
#[test]
fn eight_queue_bidir_guest_clock_is_monotone_and_flows_stay_ordered() {
    const FLOWS: u64 = 64;
    const OUTSTANDING: u64 = 4;
    const DATAGRAMS: u64 = 60_000;
    const LEN: usize = 1400;
    const PORT0: u16 = 1200;
    struct State {
        sent: u64,
        next_out: [u64; FLOWS as usize],
        next_at_client: [u64; FLOWS as usize],
        next_at_guest: [u64; FLOWS as usize],
        guest_now: Nanos,
        client_ready: [Nanos; FLOWS as usize],
        delivered: u64,
    }
    impl State {
        /// The datagram answering one that just arrived on `flow`, while
        /// the budget lasts.
        fn answer(&mut self, msg: &kite_system::UdpMsg, flow: usize, cost: Nanos) -> Vec<Reply> {
            self.delivered += 1;
            if self.sent == DATAGRAMS {
                return Vec::new();
            }
            self.sent += 1;
            let seq = self.next_out[flow];
            self.next_out[flow] += 1;
            vec![Reply {
                dst_ip: msg.src_ip,
                dst_port: msg.src_port,
                src_port: msg.dst_port,
                payload: seq_payload(seq, LEN),
                cost,
            }]
        }
    }
    let mut sys = SystemConfig::new(BackendOs::Kite, 7)
        .queues(8)
        .gso(false)
        .wire_profile(kite_system::LineRate::Gbe25)
        .build_net();
    let st = Rc::new(RefCell::new(State {
        sent: 0,
        next_out: [0; FLOWS as usize],
        next_at_client: [0; FLOWS as usize],
        next_at_guest: [0; FLOWS as usize],
        guest_now: Nanos::ZERO,
        client_ready: [Nanos::ZERO; FLOWS as usize],
        delivered: 0,
    }));
    // Both directions of a flow draw sequence numbers from one counter,
    // so each receiver checks that what it sees of the flow only rises.
    let guest = Rc::clone(&st);
    sys.set_guest_app(Box::new(move |now, msg| {
        let mut s = guest.borrow_mut();
        assert!(
            now >= s.guest_now,
            "guest handler ran at {now:?} after one at {:?}",
            s.guest_now
        );
        s.guest_now = now;
        let flow = (msg.dst_port - PORT0) as usize;
        let seq = seq_of(&msg.payload);
        assert!(
            seq >= s.next_at_guest[flow],
            "client-sent flow {flow} reordered"
        );
        s.next_at_guest[flow] = seq + 1;
        s.answer(msg, flow, Nanos::from_nanos(500))
    }));
    let client = Rc::clone(&st);
    sys.set_client_app(Box::new(move |now, msg| {
        let mut s = client.borrow_mut();
        let flow = (msg.src_port - PORT0) as usize;
        let seq = seq_of(&msg.payload);
        assert!(
            seq >= s.next_at_client[flow],
            "guest-sent flow {flow} reordered"
        );
        s.next_at_client[flow] = seq + 1;
        // A think time that varies per datagram, like a real peer's; a
        // flow's answers still leave in the order they were produced.
        let think = Nanos::from_nanos(300 + (seq * 7919 + flow as u64 * 104_729) % 1_700);
        let ready = (now + think).max(s.client_ready[flow]);
        s.client_ready[flow] = ready;
        s.answer(msg, flow, ready - now)
    }));
    let start = Nanos::from_micros(10);
    for flow in 0..FLOWS {
        let port = PORT0 + flow as u16;
        for _ in 0..OUTSTANDING {
            let mut s = st.borrow_mut();
            s.sent += 1;
            let seq = s.next_out[flow as usize];
            s.next_out[flow as usize] += 1;
            let p = seq_payload(seq, LEN);
            // Half the flows open at the guest, half at the client.
            if flow < FLOWS / 2 {
                sys.send_udp_at(start, Side::Guest, addrs::CLIENT, 9999, port, p);
            } else {
                sys.send_udp_at(start, Side::Client, addrs::GUEST, port, 9999, p);
            }
        }
    }
    sys.run_to_quiescence();
    assert_eq!(st.borrow().delivered, DATAGRAMS, "every datagram arrived");
    assert_eq!(sys.metrics.drops, 0);
}

/// The storage twin of the test above: blkfront's completions, and the
/// follow-ups a closed loop submits from them, are stamped on one guest
/// clock that never steps backwards. The three open scenarios are the
/// 4-ring `blkback_rings_4` burst, the one-ring ablation burst and a
/// heavier 4-ring burst (2, 1 and 512 handler runs earlier than their
/// predecessor before `Host` owned the guest's handler clock).
#[test]
fn blkfront_guest_clock_is_monotone_open_and_closed_loop() {
    /// Runs `sys` to quiescence under a handler that answers each
    /// completion with `next(tag)`; returns how many completions arrived
    /// and how many of them ran before their predecessor.
    fn run(mut sys: StorSystem, mut next: impl FnMut(u64) -> Vec<IoOp> + 'static) -> (u64, u64) {
        let seen = Rc::new(RefCell::new((Nanos::ZERO, 0u64, 0u64)));
        let probe = Rc::clone(&seen);
        sys.set_handler(Box::new(move |now, done| {
            assert!(done.ok);
            assert!(done.submitted <= now, "completed before it was submitted");
            let (last, count, backwards) = &mut *probe.borrow_mut();
            *count += 1;
            *backwards += u64::from(now < *last);
            *last = now;
            next(done.tag)
        }));
        sys.run_to_quiescence();
        assert_eq!(sys.outstanding(), 0);
        let (_, count, backwards) = *seen.borrow();
        (count, backwards)
    }
    let rings = |n| SystemConfig::new(BackendOs::Kite, 7).queues(n).build_stor();
    let us = Nanos::from_micros;
    for (name, nrings, streams, per_stream, chunk, gap) in [
        ("4 rings, 4 x 64 x 8 KiB", 4, 4, 64, 8 << 10, us(2)),
        ("1 ring, 64 x 128 KiB", 1, 1, 64, 128 << 10, us(40)),
        ("4 rings, 8 x 256 x 64 KiB", 4, 8, 256, 64 << 10, us(5)),
    ] {
        let mut sys = rings(nrings);
        scenario::interleaved_streams(&mut sys, streams, per_stream, chunk, gap);
        let (count, backwards) = run(sys, |_| Vec::new());
        assert_eq!(count, streams * per_stream, "{name}");
        assert_eq!(backwards, 0, "{name}: handler clock stepped backwards");
    }

    // Closed loop: 32 workers over 4 rings, each submitting its next
    // write (128 KiB and 4 KiB alternating, its own region) from the
    // completion of the last.
    const WORKERS: u64 = 32;
    const OPS: u64 = 64;
    let write = |worker: u64, i: u64| {
        let big = (worker + i).is_multiple_of(2);
        let data = vec![scenario::FILL; if big { 128 << 10 } else { 4 << 10 }];
        let sector = (worker << 20) + i * 256;
        IoOp {
            tag: worker,
            kind: IoKind::Write { sector, data },
        }
    };
    let mut sys = rings(4);
    for w in 0..WORKERS {
        sys.submit_at(us(100 + w), write(w, 0));
    }
    let mut issued = [1u64; WORKERS as usize];
    let (count, backwards) = run(sys, move |w| {
        let i = &mut issued[w as usize];
        if *i == OPS {
            return Vec::new();
        }
        *i += 1;
        vec![write(w, *i - 1)]
    });
    assert_eq!(count, WORKERS * OPS);
    assert_eq!(backwards, 0, "closed loop: handler clock stepped backwards");
}

/// NAT rewrites a reply's destination, so the netback queue it steers
/// to is not the one its NIC ring feeds: the VIF callback still wakes the
/// queue the frame landed on, and nothing is stranded.
#[test]
fn nat_replies_reach_the_guest_across_queues() {
    let mut sys = SystemConfig::new(BackendOs::Kite, 77).queues(8).build_net();
    sys.use_nat();
    sys.set_client_app(scenario::echo_server(Nanos::from_micros(1)));
    let got = Rc::new(RefCell::new(0u64));
    let g2 = got.clone();
    sys.set_guest_app(Box::new(move |_, _| {
        *g2.borrow_mut() += 1;
        Vec::new()
    }));
    for flow in 0..32u16 {
        sys.send_udp_at(
            Nanos::from_millis(1 + u64::from(flow)),
            Side::Guest,
            addrs::CLIENT,
            9999,
            5000 + flow,
            vec![flow as u8; 200],
        );
    }
    sys.run_to_quiescence();
    assert_eq!(
        *got.borrow(),
        32,
        "every echo translated back and delivered"
    );
    assert_eq!(sys.rx_queue_depths(), [0; 8], "no frame parked in netback");
}
