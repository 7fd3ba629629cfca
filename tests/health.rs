//! Active health monitoring, end to end.
//!
//! The recovery tests in `tests/recovery.rs` use the oracle detector —
//! the fault injector tells the toolstack the instant a domain dies.
//! These tests flip both systems to [`DetectionMode::Watchdog`] and
//! prove the heartbeat/stall monitor *notices* failures on its own:
//! kills (heartbeats stop) and hangs (heartbeats continue but rings
//! stall) on both the net and the block path, with a detection latency
//! that is strictly positive, bounded by the probe schedule, and
//! deterministic per seed. The `kitetop` renderer rides the same
//! virtual-time guarantees, so its output must be byte-identical across
//! same-seed runs.

use std::cell::RefCell;
use std::rc::Rc;

use kite_health::{render_top, HealthState, SloConfig, DETECT_BOUND};
use kite_sim::Nanos;
use kite_system::{
    addrs, scenario, BackendOs, DetectionMode, Fault, IoKind, IoOp, NetSystem, Side, SystemConfig,
};
use kite_trace::EventKind;

const MSGS: u64 = 120;

/// A watchdog-mode net system with 30 s of steady guest→client UDP
/// traffic at 4 msg/s — fast enough that the tx ring always has pending
/// requests between two 500 ms probes, which the stall detector needs.
fn net_watchdog(os: BackendOs, seed: u64) -> (NetSystem, Rc<RefCell<u64>>) {
    let mut sys = SystemConfig::new(os, seed)
        .tracing(1 << 16)
        .watchdog()
        .build_net();
    let received: Rc<RefCell<u64>> = Rc::new(RefCell::new(0));
    let r2 = received.clone();
    sys.set_client_app(Box::new(move |_, _| {
        *r2.borrow_mut() += 1;
        Vec::new()
    }));
    scenario::steady_stream(&mut sys, MSGS, 1, 1400, Nanos::from_millis(250));
    (sys, received)
}

/// The paper-facing guarantee: with no oracle, a killed driver domain is
/// still detected (via missed heartbeats), recovered, and no
/// acknowledged frame is lost — and the detection latency is positive
/// yet bounded by `DETECT_BOUND`.
#[test]
fn net_watchdog_detects_kill_within_bound() {
    for os in BackendOs::both() {
        let (mut sys, received) = net_watchdog(os, 42);
        let kill = Nanos::from_secs(2);
        sys.fault_at(kill, Fault::Kill);
        sys.run_to_quiescence();
        assert!(sys.backend_alive(), "{}: backend back up", os.name());
        assert_eq!(sys.recovery.crashes, 1, "{}", os.name());
        assert_eq!(sys.recovery.hangs, 0, "{}", os.name());
        assert_eq!(sys.recovery.reconnects, 1, "{}", os.name());
        let got = *received.borrow();
        assert!(got >= MSGS, "{}: acked frames lost", os.name());
        let span = sys
            .hv
            .trace
            .span_between("kill", "detect")
            .expect("kill and detect milestones present");
        assert!(span > Nanos::ZERO, "{}: detection takes time", os.name());
        assert!(
            span <= DETECT_BOUND,
            "{}: detection latency {span:?} exceeds the probe-schedule bound",
            os.name()
        );
        assert_eq!(
            sys.recovery.detect_latency(),
            Some(span),
            "{}: stats and trace must agree on the detection latency",
            os.name()
        );
    }
}

/// A hung (livelocked) driver domain keeps heartbeating, so only the
/// ring-stall heuristic can catch it: pending requests with a frozen
/// consumer watermark across consecutive probes.
#[test]
fn net_watchdog_detects_hang_via_ring_stall() {
    for os in BackendOs::both() {
        let (mut sys, received) = net_watchdog(os, 42);
        let hang = Nanos::from_secs(2);
        sys.fault_at(hang, Fault::Hang);
        sys.run_to_quiescence();
        assert!(sys.backend_alive(), "{}: backend back up", os.name());
        assert_eq!(sys.recovery.hangs, 1, "{}", os.name());
        assert_eq!(sys.recovery.crashes, 0, "{}", os.name());
        assert_eq!(sys.recovery.reconnects, 1, "{}", os.name());
        let got = *received.borrow();
        assert!(got >= MSGS, "{}: acked frames lost", os.name());
        assert!(
            sys.hv.trace.milestone("hang").is_some(),
            "{}: the hang is traced",
            os.name()
        );
        assert!(
            sys.hv.trace.milestone("kill").is_none(),
            "{}: a hang is not a kill",
            os.name()
        );
        let span = sys
            .hv
            .trace
            .span_between("hang", "detect")
            .expect("hang and detect milestones present");
        assert!(span > Nanos::ZERO, "{}", os.name());
        assert!(
            span <= DETECT_BOUND,
            "{}: stall detection latency {span:?} out of bound",
            os.name()
        );
        assert_eq!(sys.recovery.detect_latency(), Some(span), "{}", os.name());
    }
}

/// A livelocked 4-queue driver domain services none of its NIC's four
/// receive vectors: every ring's frames fall on the floor and are booked,
/// ring by ring, as path drops and as the recovery's dropped frames.
#[test]
fn hung_four_queue_driver_books_every_rings_frames_as_dropped() {
    const QUEUES: u32 = 4;
    let mut sys = SystemConfig::new(BackendOs::Kite, 42)
        .queues(QUEUES)
        .tracing(1 << 16)
        .watchdog()
        .build_net();
    // One client→guest flow per NIC ring (the hash covers addresses and
    // ports only, so any MAC pair stands in).
    let ports: Vec<u16> = (0..QUEUES)
        .map(|ring| {
            (1200..)
                .find(|&port| {
                    let frame = kite_net::UdpDatagram::new(port, 9999, [0u8; 8]).encode_frame(
                        kite_net::MacAddr::local(1),
                        kite_net::MacAddr::local(2),
                        addrs::CLIENT,
                        addrs::GUEST,
                    );
                    kite_net::flow::steer(&frame, QUEUES) == ring
                })
                .expect("some flow steers to every ring")
        })
        .collect();
    let got: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(vec![0; QUEUES as usize]));
    let (g2, p2) = (got.clone(), ports.clone());
    sys.set_guest_app(Box::new(move |_, msg| {
        let ring = p2.iter().position(|&p| p == msg.src_port).expect("ours");
        g2.borrow_mut()[ring] += 1;
        Vec::new()
    }));
    // Steady guest→client traffic keeps requests pending on a Tx ring,
    // which the stall detector needs; the client streams to the guest on
    // all four rings from before the hang until well after the reboot.
    const PER_RING: u64 = 120;
    for i in 0..PER_RING {
        let t = Nanos::from_millis(1 + 100 * i);
        sys.send_udp_at(
            t,
            Side::Guest,
            addrs::CLIENT,
            9999,
            1234,
            vec![i as u8; 1400],
        );
        for &port in &ports {
            sys.send_udp_at(t, Side::Client, addrs::GUEST, 9999, port, vec![i as u8; 64]);
        }
    }
    let hang = Nanos::from_secs(2);
    sys.fault_at(hang, Fault::Hang);
    sys.run_to_quiescence();
    assert!(sys.backend_alive(), "backend back up");
    assert_eq!((sys.recovery.hangs, sys.recovery.reconnects), (1, 1));
    let detect = sys
        .hv
        .trace
        .span_between("hang", "detect")
        .expect("hang and detect milestones present");
    // Each ring received one frame per 100 ms while its handler was
    // livelocked, and more while the driver domain rebooted with its VIF
    // unplugged. Every frame is delivered or booked, once as a path drop
    // and once against the recovery.
    let in_hang = (0..PER_RING)
        .map(|i| Nanos::from_millis(1 + 100 * i))
        .filter(|&t| t > hang && t < hang + detect)
        .count() as u64;
    assert!(in_hang >= 10, "the hang window spans several probes");
    for (ring, &n) in got.borrow().iter().enumerate() {
        assert!(
            n <= PER_RING - in_hang,
            "ring {ring}: {n} of {PER_RING} delivered through a {in_hang}-frame hang"
        );
    }
    let delivered: u64 = got.borrow().iter().sum();
    assert_eq!(
        delivered + sys.metrics.drops,
        u64::from(QUEUES) * PER_RING,
        "{delivered} delivered"
    );
    assert_eq!(sys.recovery.dropped_frames, sys.metrics.drops);
}

/// Same contract on the block path: kills and hangs mid-write-stream are
/// detected by the watchdog, every submitted write still completes, and
/// nothing is left outstanding.
#[test]
fn stor_watchdog_detects_kill_and_hang() {
    for os in BackendOs::both() {
        for hang in [false, true] {
            let mut sys = SystemConfig::new(os, 42)
                .tracing(1 << 16)
                .watchdog()
                .build_stor();
            const WRITES: u64 = 50;
            sys.set_handler(Box::new(|_, done| {
                assert!(done.ok, "write {} failed", done.tag);
                Vec::new()
            }));
            for i in 0..WRITES {
                sys.submit_at(
                    Nanos::from_millis(1 + 300 * i),
                    IoOp {
                        tag: i,
                        kind: IoKind::Write {
                            sector: 128 * i,
                            data: vec![(i + 1) as u8; 16 * 1024],
                        },
                    },
                );
            }
            let fault = Nanos::from_millis(2_000);
            sys.fault_at(fault, if hang { Fault::Hang } else { Fault::Kill });
            sys.run_to_quiescence();
            let label = if hang { "hang" } else { "kill" };
            assert!(sys.backend_alive(), "{}/{label}", os.name());
            assert_eq!(sys.recovery.reconnects, 1, "{}/{label}", os.name());
            assert_eq!(
                (sys.recovery.crashes, sys.recovery.hangs),
                if hang { (0, 1) } else { (1, 0) },
                "{}/{label}",
                os.name()
            );
            assert_eq!(
                sys.metrics.ios,
                WRITES,
                "{}/{label}: all writes done",
                os.name()
            );
            assert_eq!(sys.outstanding(), 0, "{}/{label}", os.name());
            let span = sys
                .hv
                .trace
                .span_between(label, "detect")
                .expect("fault and detect milestones present");
            assert!(span > Nanos::ZERO, "{}/{label}", os.name());
            assert!(
                span <= DETECT_BOUND,
                "{}/{label}: detection latency {span:?} out of bound",
                os.name()
            );
            assert_eq!(
                sys.recovery.detect_latency(),
                Some(span),
                "{}/{label}",
                os.name()
            );
        }
    }
}

/// The oracle-vs-watchdog ablation contract: the oracle "detects" at the
/// kill instant (zero latency by construction), while the watchdog's
/// `detect` milestone must never coincide with the kill timestamp.
#[test]
fn oracle_detects_instantly_watchdog_never_does() {
    let run = |mode: DetectionMode| {
        let (mut sys, _received) = net_watchdog(BackendOs::Kite, 42);
        if mode == DetectionMode::Oracle {
            // `net_watchdog` enabled the watchdog; build the oracle run
            // from scratch instead so both modes share the workload.
            sys = SystemConfig::new(BackendOs::Kite, 42)
                .tracing(1 << 16)
                .build_net();
            scenario::steady_stream(&mut sys, MSGS, 1, 1400, Nanos::from_millis(250));
        }
        sys.fault_at(Nanos::from_secs(2), Fault::Kill);
        sys.run_to_quiescence();
        (
            sys.hv.trace.span_between("kill", "detect"),
            sys.recovery.detect_latency(),
        )
    };
    let (oracle_span, oracle_lat) = run(DetectionMode::Oracle);
    assert_eq!(oracle_span, Some(Nanos::ZERO), "oracle detects for free");
    assert_eq!(oracle_lat, Some(Nanos::ZERO));
    let (wd_span, wd_lat) = run(DetectionMode::Watchdog);
    assert!(
        wd_span.unwrap() > Nanos::ZERO,
        "watchdog detect must trail the kill"
    );
    assert_eq!(wd_span, wd_lat);
}

/// Watchdog-driven recovery is part of the deterministic simulation:
/// same seed, same probes, same detection instant, same trajectory —
/// for kills and for hangs.
#[test]
fn watchdog_recovery_is_deterministic_same_seed() {
    for hang in [false, true] {
        let run = |seed: u64| {
            let (mut sys, received) = net_watchdog(BackendOs::Kite, seed);
            let fault = Nanos::from_secs(2);
            sys.fault_at(fault, if hang { Fault::Hang } else { Fault::Kill });
            sys.run_to_quiescence();
            let got = *received.borrow();
            (
                sys.now().as_nanos(),
                sys.events_processed(),
                sys.recovery.detect_latency(),
                sys.recovery.downtime.as_nanos(),
                got,
            )
        };
        assert_eq!(run(555), run(555), "hang={hang}: same seed, same detection");
    }
}

/// `kitetop` renders from virtual-time state only: two same-seed runs
/// snapshotted at the same virtual instants produce byte-identical text.
#[test]
fn kitetop_output_is_byte_identical_same_seed() {
    let run = |seed: u64| {
        let (mut sys, _received) = net_watchdog(BackendOs::Kite, seed);
        sys.fault_at(Nanos::from_secs(2), Fault::Kill);
        let mut out = String::new();
        for stop in [Nanos::from_secs(1), Nanos::from_millis(3_200)] {
            sys.run_until(stop);
            out.push_str(&render_top(&sys.top_snapshot()));
        }
        sys.run_to_quiescence();
        out.push_str(&render_top(&sys.top_snapshot()));
        out
    };
    let a = run(909);
    let b = run(909);
    assert_eq!(a, b, "kitetop output must be byte-identical");
    // The three snapshots walk the health state machine.
    assert!(a.contains("healthy"), "steady state renders healthy");
    assert!(a.contains("suspect("), "mid-detection renders suspect(k)");
}

/// `kitetop` on the storage path: the driver row's rates are blkback's
/// lifetime requests and bytes over elapsed virtual time, the net-only
/// cells read 0, and RXQ_DEPTH lists each ring's unconsumed requests —
/// mid-run and after the rings drain.
#[test]
fn kitetop_driver_row_reads_blkback_stats_on_four_rings() {
    const RINGS: usize = 4;
    let mut sys = SystemConfig::new(BackendOs::Kite, 7)
        .queues(RINGS as u32)
        .build_stor();
    scenario::interleaved_streams(&mut sys, 4, 64, 8 * 1024, Nanos::from_micros(2));
    for i in 0..16u64 {
        let kind = IoKind::Read {
            sector: i * 16,
            len: 8 * 1024,
        };
        sys.submit_at(
            Nanos::from_millis(2) + Nanos::from_micros(5 * i),
            IoOp {
                tag: 1000 + i,
                kind,
            },
        );
    }
    for (stop, drained) in [(Some(Nanos::from_micros(400)), false), (None, true)] {
        match stop {
            Some(t) => sys.run_until(t),
            None => sys.run_to_quiescence(),
        }
        let top = sys.top_snapshot();
        let secs = top.at.as_secs_f64();
        let row = top
            .rows
            .iter()
            .find(|r| r.kind == "driver")
            .expect("a driver row");
        let bb = sys.blkback_stats();
        assert!(bb.requests > 0, "at {secs}s: blkback has served requests");
        assert_eq!((row.req_per_sec * secs).round() as u64, bb.requests);
        let bytes = (row.mbytes_per_sec * secs * 1e6).round() as u64;
        assert_eq!(bytes, bb.read_bytes + bb.write_bytes);
        assert!(bb.read_bytes > 0 || !drained, "the reads are counted too");
        assert_eq!((row.rx_dropped, row.gso_frames), (0, 0));
        assert_eq!(row.rx_qdepth.len(), RINGS, "one depth per ring");
        if drained {
            assert_eq!(row.rx_qdepth, [0; RINGS], "every ring drained");
        }
    }
}

/// A breached latency SLO marks the backend suspect — observability
/// without triggering recovery (the backend is slow, not dead).
#[test]
fn slo_breach_marks_backend_suspect() {
    let mut sys = SystemConfig::new(BackendOs::Kite, 42)
        .tracing(1 << 16)
        .watchdog()
        // Any measured RTT busts a 1 ns p99 budget.
        .slo(SloConfig {
            p99: Some(Nanos(1)),
            min_samples: 1,
        })
        .build_net();
    for i in 0..8u64 {
        sys.ping_at(Nanos::from_millis(1 + 10 * i), i as u16);
    }
    // Past the first probe (500 ms): the monitor has seen the breach.
    sys.run_to_quiescence();
    assert_eq!(
        sys.health(),
        Some(HealthState::Suspect { missed: 0 }),
        "breached SLO must render the backend suspect"
    );
    assert!(
        sys.backend_alive(),
        "an SLO breach alone must not trigger recovery"
    );
    assert!(
        sys.hv.trace.events().any(|e| matches!(
            e.kind,
            EventKind::HealthTransition {
                state: "suspect",
                ..
            }
        )),
        "the suspect transition is traced"
    );
}

/// Only ONE of four netback queues wedges: the domain keeps
/// heartbeating and the other three queues keep consuming, so aggregate
/// ring progress looks healthy — per-queue stall probing is the only
/// detector that can catch it. The watchdog must still declare failure
/// within the probe-schedule bound, recover, and renegotiate all four
/// queues without losing an accepted frame.
#[test]
fn net_watchdog_detects_single_wedged_queue_via_ring_stall() {
    use kite::net::{flow, EtherType, EthernetFrame, IpProto, Ipv4Packet, MacAddr, UdpDatagram};
    let mut sys = SystemConfig::new(BackendOs::Kite, 42)
        .queues(4)
        .tracing(1 << 16)
        .watchdog()
        .build_net();
    let received: Rc<RefCell<u64>> = Rc::new(RefCell::new(0));
    let r2 = received.clone();
    sys.set_client_app(Box::new(move |_, _| {
        *r2.borrow_mut() += 1;
        Vec::new()
    }));
    // Eight flows, so every queue keeps consuming but the wedged one.
    scenario::steady_stream(&mut sys, MSGS, 8, 1400, Nanos::from_millis(250));
    // Wedge exactly the queue flow 0 steers to, so the frozen ring is
    // guaranteed to keep receiving (and never consuming) requests.
    let udp = UdpDatagram::new(1234, 9999, vec![0u8; 8]);
    let ip = Ipv4Packet::new(
        addrs::GUEST,
        addrs::CLIENT,
        IpProto::Udp,
        udp.encode(addrs::GUEST, addrs::CLIENT),
    );
    let probe_frame = EthernetFrame::new(
        MacAddr::local(9),
        MacAddr::local(8),
        EtherType::Ipv4,
        ip.encode(),
    )
    .encode();
    let q = flow::steer(&probe_frame, 4) as usize;
    sys.fault_at(Nanos::from_secs(2), Fault::Wedge(q));
    sys.run_to_quiescence();
    assert!(sys.backend_alive(), "backend back up");
    assert_eq!(sys.recovery.reconnects, 1);
    assert_eq!(sys.recovery.crashes, 0, "a wedge is not a kill");
    assert_eq!(sys.recovery.hangs, 0, "a wedge is not a full livelock");
    assert_eq!(sys.queue_count(), 4, "replacement renegotiated every queue");
    let got = *received.borrow();
    assert!(got >= MSGS, "{got} delivered — acked frames lost");
    let span = sys
        .hv
        .trace
        .span_between("wedge", "detect")
        .expect("wedge and detect milestones present");
    assert!(span > Nanos::ZERO, "detection takes time");
    assert!(
        span <= DETECT_BOUND,
        "stall detection latency {span:?} out of bound"
    );
}
