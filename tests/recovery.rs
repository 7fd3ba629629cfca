//! Driver-domain crash/restart recovery, end to end.
//!
//! These tests kill the driver domain mid-workload (via
//! [`Host::fault_at`]), let the toolstack restart it through the OS boot
//! model, and assert the frontends reconnect and that no acknowledged
//! request is lost — the paper's core availability claim (§4.4: a
//! rumprun driver domain restarts in seconds, transparently to guests).

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use kite_health::DETECT_BOUND;
use kite_sim::Nanos;
use kite_system::{
    addrs, scenario, BackendOs, BlkPath, Datapath, Fault, Host, IoKind, IoOp, NetPath, NetSystem,
    Side, StorSystem, SystemConfig,
};
use kite_trace::EventKind;

/// Kill the driver domain mid-UDP-stream. Every frame the guest's send
/// path accepted (i.e. did not report as dropped) must reach the client
/// at least once — the unacknowledged tail is replayed through the
/// replacement device.
#[test]
fn net_driver_crash_mid_udp_stream_recovers_without_acked_loss() {
    let mut downtimes = Vec::new();
    for os in BackendOs::both() {
        let mut sys = SystemConfig::new(os, 42).tracing(1 << 16).build_net();
        let received: Rc<RefCell<u64>> = Rc::new(RefCell::new(0));
        let r2 = received.clone();
        sys.set_client_app(Box::new(move |_, msg| {
            assert_eq!(msg.payload.len(), 1400);
            *r2.borrow_mut() += 1;
            Vec::new()
        }));
        const MSGS: u64 = 200;
        // 100 s of steady traffic: spans the outage even for the Linux
        // driver domain's ~75 s boot.
        scenario::steady_stream(&mut sys, MSGS, 1, 1400, Nanos::from_millis(500));
        let kill = Nanos::from_secs(10);
        sys.fault_at(kill, Fault::Kill);
        // The stream is underway, then the backend dies...
        sys.run_until(kill + Nanos::from_millis(1));
        assert!(
            !sys.backend_alive(),
            "{}: backend dead after kill",
            os.name()
        );
        assert_eq!(sys.recovery.crashes, 1);
        // ...and the replacement domain brings service back.
        sys.run_to_quiescence();
        assert!(sys.backend_alive(), "{}: backend back up", os.name());
        assert_eq!(sys.recovery.reconnects, 1, "{}", os.name());
        let got = *received.borrow();
        assert!(
            got >= MSGS,
            "{}: {} delivered of {} accepted — acked frames lost",
            os.name(),
            got,
            MSGS
        );
        let down = sys.recovery.downtime;
        assert!(down > Nanos::ZERO, "{}: outage has extent", os.name());
        let cfb = sys
            .recovery
            .crash_to_first_byte()
            .expect("traffic resumed after the crash");
        assert!(
            cfb >= down,
            "{}: first byte ({cfb:?}) can't precede reconnect ({down:?})",
            os.name()
        );
        // Trace-level recovery story: the milestones appear exactly once,
        // in causal order, and the outage window is silent — not a single
        // evtchn notify between the kill and the reconnect.
        assert_eq!(sys.hv.trace.dropped(), 0, "{}: ring overflow", os.name());
        let seq_of = |what: &str| {
            sys.hv
                .trace
                .milestone(what)
                .unwrap_or_else(|| panic!("{}: milestone {what:?} missing", os.name()))
                .seq
        };
        let (m_kill, m_detect, m_reboot, m_reconnect, m_first) = (
            seq_of("kill"),
            seq_of("detect"),
            seq_of("reboot"),
            seq_of("reconnect"),
            seq_of("first_byte"),
        );
        assert!(
            m_kill < m_detect && m_detect < m_reboot && m_reboot < m_reconnect,
            "{}: recovery milestones out of order",
            os.name()
        );
        assert!(
            m_reconnect < m_first,
            "{}: first byte before reconnect",
            os.name()
        );
        let notifies = |lo: u64, hi: u64| {
            sys.hv
                .trace
                .events()
                .filter(|e| lo < e.seq && e.seq < hi)
                .filter(|e| matches!(e.kind, EventKind::Notify { .. }))
                .count()
        };
        assert_eq!(
            notifies(m_kill, m_reconnect),
            0,
            "{}: notifies during the outage",
            os.name()
        );
        assert!(
            notifies(m_reconnect, u64::MAX) > 0,
            "{}: no notifies after the reconnect",
            os.name()
        );
        let span = sys
            .hv
            .trace
            .span_between("kill", "first_byte")
            .expect("span");
        assert_eq!(
            span,
            cfb,
            "{}: trace span must equal the stats cfb",
            os.name()
        );
        downtimes.push((os, down));
    }
    // Paper Fig 10: the unikernel driver domain recovers much faster.
    assert!(
        downtimes[1].1 < downtimes[0].1,
        "kite downtime {:?} < linux downtime {:?}",
        downtimes[1].1,
        downtimes[0].1
    );
}

/// Kill the driver domain mid-write-stream. Every write whose completion
/// the workload saw (`done.ok`) — and every write still queued or in
/// flight at the crash — must land on the disk: reads through the
/// replacement backend verify the bytes.
#[test]
fn stor_driver_crash_mid_write_stream_loses_no_acked_io() {
    for os in BackendOs::both() {
        let mut sys = StorSystem::new(os);
        const WRITES: u64 = 50;
        const LEN: usize = 16 * 1024;
        let payload = |i: u64| vec![(i + 1) as u8; LEN];
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
                        data: payload(i),
                    },
                },
            );
        }
        // Kill 1 ms after write #6 submits: its ~2.8 ms device service
        // time guarantees the crash catches it in flight.
        let kill = Nanos::from_millis(1 + 300 * 6 + 1);
        sys.fault_at(kill, Fault::Kill);
        sys.run_to_quiescence();
        assert!(sys.backend_alive(), "{}: backend back up", os.name());
        assert_eq!(sys.recovery.crashes, 1, "{}", os.name());
        assert_eq!(sys.recovery.reconnects, 1, "{}", os.name());
        assert!(
            sys.recovery.retried_ops > 0,
            "{}: the crash caught requests in flight",
            os.name()
        );
        assert_eq!(
            sys.metrics.ios,
            WRITES,
            "{}: every write completed",
            os.name()
        );
        assert_eq!(sys.outstanding(), 0, "{}", os.name());

        // Read everything back through the replacement backend.
        let reads: Rc<RefCell<HashMap<u64, Vec<u8>>>> = Rc::new(RefCell::new(HashMap::new()));
        let r2 = reads.clone();
        sys.set_handler(Box::new(move |_, done| {
            assert!(done.ok);
            if done.tag >= 1000 {
                r2.borrow_mut()
                    .insert(done.tag - 1000, done.data.clone().expect("read data"));
            }
            Vec::new()
        }));
        for i in 0..WRITES {
            sys.submit_at(
                sys.now() + Nanos::from_millis(1 + i),
                IoOp {
                    tag: 1000 + i,
                    kind: IoKind::Read {
                        sector: 128 * i,
                        len: LEN,
                    },
                },
            );
        }
        sys.run_to_quiescence();
        let reads = reads.borrow();
        for i in 0..WRITES {
            assert_eq!(
                reads.get(&i).map(Vec::as_slice),
                Some(payload(i).as_slice()),
                "{}: write {i} survived the crash",
                os.name()
            );
        }
    }
}

/// A restart takes exactly the nominal boot (Fig 4c: 6.95 s for Kite,
/// 75 s for Ubuntu): the boot model has no variance of its own, so under
/// the failure oracle, which detects at once, the outage is the boot.
/// (`outage` checks the watchdog's: the boot plus the detection time.)
#[test]
fn a_restart_takes_exactly_the_nominal_boot() {
    let nominal = [
        (BackendOs::Kite, Nanos::from_millis(6_950)),
        (BackendOs::Linux, Nanos::from_secs(75)),
    ];
    for (os, boot) in nominal {
        assert_eq!(os.boot().total(), boot, "{}: nominal boot", os.name());
        let mut sys = NetSystem::new(os);
        net_load(&mut sys);
        sys.fault_at(Nanos::from_secs(2), Fault::Kill);
        sys.run_to_quiescence();
        assert_eq!(sys.recovery.reconnects, 1, "{}", os.name());
        assert_eq!(sys.recovery.detect_latency(), Some(Nanos::ZERO));
        assert_eq!(sys.recovery.downtime, boot, "{}", os.name());
    }
}

/// The crash/restart trajectory is part of the deterministic simulation:
/// the same build replays the same recovery, byte for byte.
#[test]
fn recovery_is_deterministic_same_seed() {
    let run = || {
        let mut sys = NetSystem::new(BackendOs::Kite);
        let received: Rc<RefCell<u64>> = Rc::new(RefCell::new(0));
        let r2 = received.clone();
        sys.set_client_app(Box::new(move |_, _| {
            *r2.borrow_mut() += 1;
            Vec::new()
        }));
        scenario::steady_stream(&mut sys, 100, 1, 600, Nanos::from_millis(200));
        sys.fault_at(Nanos::from_secs(5), Fault::Kill);
        sys.run_to_quiescence();
        let got = *received.borrow();
        (
            sys.now().as_nanos(),
            sys.events_processed(),
            sys.recovery.downtime.as_nanos(),
            got,
        )
    };
    assert_eq!(run(), run(), "same build, same recovery trajectory");
}

/// Two traced runs must export byte-identical Chrome-trace JSON and
/// byte-identical metrics JSON — virtual timestamps only, no wall clock
/// anywhere in the pipeline. The two builds differ only in
/// `SystemConfig::new`'s second argument, which the system ignores: a
/// build is a function of its config, and no seed reaches it.
#[test]
fn trace_export_is_byte_identical_across_same_seed_runs() {
    let run = |ignored: u64| {
        let mut sys = SystemConfig::new(BackendOs::Kite, ignored)
            .tracing(1 << 16)
            .build_net();
        scenario::steady_stream(&mut sys, 50, 1, 600, Nanos::from_millis(200));
        sys.fault_at(Nanos::from_secs(2), Fault::Kill);
        sys.run_to_quiescence();
        assert_eq!(sys.hv.trace.dropped(), 0);
        let chrome = sys.hv.export_chrome_trace();
        let metrics = kite_trace::metrics::render_json(&[sys.metrics_snapshot("det")]);
        (chrome, metrics)
    };
    let (c1, m1) = run(909);
    let (c2, m2) = run(0x5eed);
    assert_eq!(c1, c2, "chrome export must be byte-identical");
    assert_eq!(m1, m2, "metrics export must be byte-identical");
    kite_trace::chrome::validate(&c1).expect("export validates");
}

/// Kill or hang a 4-queue driver domain mid-workload: the replacement
/// comes back with all four queues negotiated and connected, every
/// accepted frame still reaches the client at least once, and the
/// per-flow streams stay in order through the replay.
#[test]
fn multi_queue_driver_recovers_all_queues_without_acked_loss() {
    for hang in [false, true] {
        let mut sys = kite_system::SystemConfig::new(BackendOs::Kite, 42)
            .queues(4)
            .build_net();
        assert_eq!(sys.queue_count(), 4, "all queues negotiated at boot");
        let seen: Rc<RefCell<Vec<(u16, u8)>>> = Rc::new(RefCell::new(Vec::new()));
        let s2 = seen.clone();
        sys.set_client_app(Box::new(move |_, msg| {
            s2.borrow_mut().push((msg.src_port, msg.payload[0]));
            Vec::new()
        }));
        const FLOWS: u16 = 8;
        const MSGS: u64 = 96;
        // ~24 s of traffic over 8 flows: spans the kite (~7 s) outage.
        // Message `i` carries `i` and rides flow `i % 8`, so what a flow
        // carries only rises.
        scenario::steady_stream(&mut sys, MSGS, FLOWS, 1000, Nanos::from_millis(250));
        let fault = if hang { Fault::Hang } else { Fault::Kill };
        sys.fault_at(Nanos::from_secs(2), fault);
        sys.run_to_quiescence();
        assert!(sys.backend_alive(), "hang={hang}: backend back up");
        assert_eq!(sys.recovery.reconnects, 1, "hang={hang}");
        assert_eq!(
            sys.queue_count(),
            4,
            "hang={hang}: replacement renegotiated every queue"
        );
        let seen = seen.borrow();
        assert!(
            seen.len() as u64 >= MSGS,
            "hang={hang}: {} delivered of {} accepted — acked frames lost",
            seen.len(),
            MSGS
        );
        // Replay may duplicate but never reorders within a flow.
        for flow in 0..FLOWS {
            let port = 1234 + flow;
            let seqs: Vec<u8> = seen
                .iter()
                .filter(|(p, _)| *p == port)
                .map(|&(_, s)| s)
                .collect();
            let mut dedup = seqs.clone();
            dedup.dedup();
            let strictly_sorted = dedup.windows(2).all(|w| w[0] < w[1]);
            assert!(
                strictly_sorted,
                "hang={hang}: flow {flow} reordered: {seqs:?}"
            );
        }
    }
}

/// The trace milestone `fault` emits when it fires.
fn fault_milestone(fault: Fault) -> &'static str {
    match fault {
        Fault::Kill => "kill",
        Fault::Hang => "hang",
        Fault::Wedge(_) => "wedge",
    }
}

/// Virtual times of every `what` milestone, oldest first.
fn milestone_times<D: Datapath>(sys: &Host<D>, what: &str) -> Vec<Nanos> {
    sys.hv
        .trace
        .events()
        .filter(|e| matches!(e.kind, EventKind::Milestone { what: w } if w == what))
        .map(|e| e.at)
        .collect()
}

/// 40 s of guest→client UDP at 4 msg/s: the Tx ring always has pending
/// requests between two probes, which the stall detector needs.
fn net_load(sys: &mut NetSystem) {
    scenario::steady_stream(sys, 160, 1, 1400, Nanos::from_millis(250));
}

/// 39 s of 16 KiB writes, one every 300 ms.
fn stor_load(sys: &mut StorSystem) {
    for i in 0..130u64 {
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
}

/// One watchdog-detected outage on either datapath: whatever the fault,
/// the host walks `fault → detect → reboot → reconnect → first_byte`,
/// detects within the probe-schedule bound, and books exactly
/// `reconnect − fault` as downtime.
fn outage<D: Datapath>(fault: Fault, os: BackendOs, queues: u32, load: fn(&mut Host<D>)) {
    let label = format!("{fault:?}/{}/q{queues}", os.name());
    let mut sys: Host<D> = SystemConfig::new(os, 42)
        .queues(queues)
        .tracing(1 << 16)
        .watchdog()
        .build();
    load(&mut sys);
    let at = Nanos::from_secs(2);
    sys.fault_at(at, fault);
    sys.run_to_quiescence();
    assert!(sys.backend_alive(), "{label}: backend back up");
    assert_eq!(sys.recovery.reconnects, 1, "{label}");
    assert_eq!(
        sys.queue_count(),
        queues as usize,
        "{label}: every queue back"
    );
    assert_eq!(sys.hv.trace.dropped(), 0, "{label}: trace ring overflow");

    let order = [
        fault_milestone(fault),
        "detect",
        "reboot",
        "reconnect",
        "first_byte",
    ];
    let seqs: Vec<u64> = order
        .iter()
        .map(|what| {
            sys.hv
                .trace
                .milestone(what)
                .unwrap_or_else(|| panic!("{label}: milestone {what:?} missing"))
                .seq
        })
        .collect();
    assert!(
        seqs.windows(2).all(|w| w[0] < w[1]),
        "{label}: milestones out of order: {order:?} at seqs {seqs:?}"
    );

    assert_eq!(
        milestone_times(&sys, fault_milestone(fault)),
        [at],
        "{label}"
    );
    let detect = milestone_times(&sys, "detect")[0];
    let reconnect = milestone_times(&sys, "reconnect")[0];
    let lat = sys.recovery.detect_latency();
    assert_eq!(lat, Some(detect - at), "{label}: stats and trace agree");
    assert!(lat.unwrap() > Nanos::ZERO, "{label}: detection takes time");
    assert!(
        lat.unwrap() <= DETECT_BOUND,
        "{label}: detection latency {lat:?} exceeds the probe-schedule bound"
    );
    assert_eq!(sys.recovery.downtime, reconnect - at, "{label}: downtime");
    assert_eq!(
        sys.recovery.downtime,
        lat.unwrap() + os.boot().total(),
        "{label}: the outage is detection plus the nominal boot"
    );
}

/// The recovery policy lives in the host, so the same contract holds for
/// every fault on both datapaths.
#[test]
fn every_fault_recovers_the_same_way_on_both_datapaths() {
    for fault in [Fault::Kill, Fault::Hang, Fault::Wedge(0)] {
        for os in BackendOs::both() {
            outage::<NetPath>(fault, os, 1, net_load);
            outage::<BlkPath>(fault, os, 1, stor_load);
        }
    }
    // Blkfront round-robins over rings, so a wedged ring 0 of 2 keeps
    // collecting requests it never consumes while ring 1 makes progress.
    outage::<BlkPath>(Fault::Wedge(0), BackendOs::Kite, 2, stor_load);
}

/// Every datagram either arrives or is counted as a drop, whatever the
/// fault, detector, backend OS and queue count: 400 datagrams each way,
/// 5 ms apart over 64 flows, with an echo server in the guest and the
/// fault at 300 ms. A wedge only the watchdog detects parks frames for
/// ever under the oracle, so that cell is left out.
#[test]
fn datagrams_are_conserved_across_the_fault_matrix() {
    const MSGS: u64 = 400;
    let cells = [
        (Fault::Kill, false),
        (Fault::Kill, true),
        (Fault::Hang, false),
        (Fault::Hang, true),
        (Fault::Wedge(0), true),
    ];
    for os in BackendOs::both() {
        for queues in [1, 4] {
            for (fault, watchdog) in cells {
                let label = format!("{fault:?}/{}/q{queues}/watchdog={watchdog}", os.name());
                let mut cfg = SystemConfig::new(os, 3).queues(queues);
                if watchdog {
                    cfg = cfg.watchdog();
                }
                let mut sys = cfg.build_net();
                let echoes = Rc::new(Cell::new(0u64));
                let (counted, mut echo) = (echoes.clone(), scenario::echo_server(Nanos::ZERO));
                sys.set_guest_app(Box::new(move |now, msg| {
                    let replies = echo(now, msg);
                    counted.set(counted.get() + replies.len() as u64);
                    replies
                }));
                for i in 0..MSGS {
                    let t = Nanos::from_millis(1 + 5 * i);
                    let flow = 2000 + (i % 64) as u16;
                    let payload = vec![i as u8; 200];
                    sys.send_udp_at(t, Side::Client, addrs::GUEST, 7, flow, payload.clone());
                    sys.send_udp_at(t, Side::Guest, addrs::CLIENT, 9999, flow, payload);
                }
                sys.fault_at(Nanos::from_millis(300), fault);
                sys.run_to_quiescence();
                assert!(sys.backend_alive(), "{label}: backend back up");
                let m = &sys.metrics;
                assert_eq!(
                    2 * MSGS + echoes.get(),
                    m.client_rx_msgs + m.guest_rx_msgs + m.drops,
                    "{label}: sent = delivered + drops"
                );
            }
        }
    }
}

/// A kill that was already recovered must not leak into a later
/// wedge-only outage: downtime is the sum of the two outages, not
/// `now − <the old kill>`.
#[test]
fn wedge_after_recovered_kill_books_only_its_own_downtime() {
    let mut sys = SystemConfig::new(BackendOs::Kite, 42)
        .tracing(1 << 16)
        .watchdog()
        .build_net();
    net_load(&mut sys);
    let (kill, wedge) = (Nanos::from_secs(2), Nanos::from_secs(20));
    sys.fault_at(kill, Fault::Kill);
    sys.fault_at(wedge, Fault::Wedge(0));
    sys.run_to_quiescence();
    assert!(sys.backend_alive());
    assert_eq!(sys.recovery.reconnects, 2);
    assert_eq!((sys.recovery.crashes, sys.recovery.hangs), (1, 0));
    let reconnects = milestone_times(&sys, "reconnect");
    assert_eq!(reconnects.len(), 2);
    assert!(reconnects[0] < wedge, "kill recovered before the wedge");
    assert_eq!(
        sys.recovery.downtime,
        (reconnects[0] - kill) + (reconnects[1] - wedge),
        "downtime is the sum of the two outages"
    );
    let detects = milestone_times(&sys, "detect");
    assert_eq!(sys.recovery.detect_latency(), Some(detects[1] - wedge));
    assert_eq!(
        milestone_times(&sys, "first_byte").len(),
        2,
        "each outage ends with its own first byte"
    );
}
