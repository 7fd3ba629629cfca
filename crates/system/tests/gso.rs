//! Segmentation-offload property tests over the full simulated stack.
//!
//! GSO is a *transport* optimization: descriptor chains change how bytes
//! cross the ring, never which bytes arrive. These tests pin that down:
//!
//! * the same seeded workload run with offload off and on delivers
//!   byte-identical per-flow payload streams at both endpoints, across
//!   1–8 queues — while the on-run demonstrably used chains (TSO on
//!   transmit, LRO on receive) and the off-run used none;
//! * a GSO run is deterministic across scheduler backends: heap and
//!   timer wheel produce byte-identical flow-annotated Chrome exports
//!   and identical final clocks;
//! * offload negotiation survives driver-domain crash recovery — the
//!   replacement backend re-advertises, the frontend renegotiates, and
//!   super-frames flow again after the reboot;
//! * the default scenario is the paper's machine: negotiated GSO over
//!   the 82599's 10GbE wire, on both driver-domain OSes.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use kite_sim::{Nanos, Pcg, SchedulerKind};
use kite_system::{addrs, scenario, BackendOs, Fault, LineRate, NetSystem, Side, SystemConfig};

/// Per-flow byte streams seen at one endpoint: `(src_port, dst_port)` →
/// concatenated payload bytes in arrival order. Chunking differs between
/// offload modes (1472-byte software segments vs 64KB super-frames), so
/// message *boundaries* differ; the reassembled stream must not.
type Streams = Rc<RefCell<BTreeMap<(u16, u16), Vec<u8>>>>;

fn recorder(streams: &Streams) -> kite_system::UdpHandler {
    let s = streams.clone();
    Box::new(move |_, msg| {
        s.borrow_mut()
            .entry((msg.src_port, msg.dst_port))
            .or_default()
            .extend_from_slice(&msg.payload);
        Vec::new()
    })
}

/// Drives the same seeded bidirectional workload (guest→client and
/// client→guest flows, Pcg-drawn sizes from sub-MTU to ~48KB) and
/// returns what each endpoint received, per flow.
fn seeded_run(gso: bool, queues: u32, kind: SchedulerKind) -> (NetSystem, Vec<u8>, Vec<u8>) {
    let mut sys = SystemConfig::new(BackendOs::Kite, 0xC0FFEE)
        .queues(queues)
        .gso(gso)
        .scheduler(kind)
        .build_net();
    let at_client: Streams = Rc::new(RefCell::new(BTreeMap::new()));
    let at_guest: Streams = Rc::new(RefCell::new(BTreeMap::new()));
    sys.set_client_app(recorder(&at_client));
    sys.set_guest_app(recorder(&at_guest));

    // The workload generator is seeded independently of the system so
    // both runs draw the identical message sequence.
    let mut rng = Pcg::seeded(7 * u64::from(queues) + 1);
    let mut t = Nanos::from_micros(100);
    for i in 0..60u64 {
        let flow = (rng.next_u64() % u64::from(queues.max(2))) as u16;
        let len = rng.range_u64(64, 48_000) as usize;
        let mut payload = vec![0u8; len];
        rng.fill_bytes(&mut payload);
        let (side, dst, dport) = if i % 3 == 0 {
            (Side::Client, addrs::GUEST, 7000 + flow)
        } else {
            (Side::Guest, addrs::CLIENT, 9000 + flow)
        };
        sys.send_udp_at(t, side, dst, dport, 40_000 + flow, payload);
        t += Nanos::from_micros(rng.range_u64(20, 400));
    }
    sys.run_to_quiescence();

    // Flatten the per-flow maps into one deterministic digest each:
    // BTreeMap ordering makes this independent of arrival interleaving
    // *across* flows while preserving order *within* each flow.
    let flatten = |s: &Streams| {
        let mut out = Vec::new();
        for ((sp, dp), bytes) in s.borrow().iter() {
            out.extend_from_slice(&sp.to_le_bytes());
            out.extend_from_slice(&dp.to_le_bytes());
            out.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
            out.extend_from_slice(bytes);
        }
        out
    };
    let (c, g) = (flatten(&at_client), flatten(&at_guest));
    (sys, c, g)
}

#[test]
fn offload_is_invisible_to_payload_streams_across_queue_counts() {
    for queues in [1u32, 2, 4, 8] {
        let (off_sys, off_client, off_guest) = seeded_run(false, queues, SchedulerKind::Wheel);
        let (on_sys, on_client, on_guest) = seeded_run(true, queues, SchedulerKind::Wheel);

        assert!(
            !off_sys.gso_negotiated(),
            "q={queues}: Off never negotiates"
        );
        assert!(on_sys.gso_negotiated(), "q={queues}: On negotiates");

        let off = off_sys.netback_stats();
        let on = on_sys.netback_stats();
        assert_eq!(off.gso_tx_frames, 0, "q={queues}: no chains without GSO");
        assert_eq!(off.lro_rx_frames, 0);
        assert!(
            on.gso_tx_frames > 0,
            "q={queues}: guest→client super-frames crossed the Tx ring"
        );
        assert!(
            on.lro_rx_frames > 0,
            "q={queues}: client→guest frames coalesced across Rx buffers"
        );
        assert_eq!(on.gso_errors(), 0, "q={queues}: clean run, no rejects");

        assert!(!off_client.is_empty() && !off_guest.is_empty());
        assert_eq!(
            off_client, on_client,
            "q={queues}: client-side per-flow streams must be byte-identical"
        );
        assert_eq!(
            off_guest, on_guest,
            "q={queues}: guest-side per-flow streams must be byte-identical"
        );
    }
}

#[test]
fn gso_runs_identically_on_heap_and_wheel_schedulers() {
    let run = |kind: SchedulerKind| {
        let mut sys = SystemConfig::new(BackendOs::Kite, 31)
            .queues(4)
            .gso(true)
            .scheduler(kind)
            .tracing(1 << 16)
            .req_tracing(2)
            .build_net();
        let mut rng = Pcg::seeded(99);
        let mut t = Nanos::from_micros(50);
        for _ in 0..48 {
            let len = rng.range_u64(1_000, 40_000) as usize;
            sys.send_udp_at(
                t,
                Side::Guest,
                addrs::CLIENT,
                9999,
                41_000 + (rng.next_u32() % 8) as u16,
                vec![0x6b; len],
            );
            t += Nanos::from_micros(rng.range_u64(30, 300));
        }
        sys.run_to_quiescence();
        (
            sys.now().as_nanos(),
            sys.events_processed(),
            sys.netback_stats().gso_tx_segs,
            sys.hv.export_chrome_trace(),
        )
    };
    let (h_now, h_ev, h_segs, h_trace) = run(SchedulerKind::Heap);
    let (w_now, w_ev, w_segs, w_trace) = run(SchedulerKind::Wheel);
    assert!(h_segs > 0, "the run exercised the super-frame path");
    assert_eq!((h_now, h_ev, h_segs), (w_now, w_ev, w_segs));
    assert_eq!(h_trace, w_trace, "flow-annotated exports byte-identical");
}

#[test]
fn offload_renegotiates_across_driver_crash_recovery() {
    let mut sys = SystemConfig::new(BackendOs::Kite, 5).gso(true).build_net();
    assert!(sys.gso_negotiated(), "negotiated at first connect");

    let last_arrival = Rc::new(RefCell::new(Nanos::ZERO));
    let la = last_arrival.clone();
    sys.set_client_app(Box::new(move |now, _| {
        *la.borrow_mut() = now;
        Vec::new()
    }));
    // 20 s of super-frame traffic spanning a kill at t=2s: the tail
    // must flow through the *replacement* backend.
    scenario::steady_stream(&mut sys, 80, 1, 30_000, Nanos::from_millis(250));
    let crash_at = Nanos::from_secs(2);
    sys.fault_at(crash_at, Fault::Kill);
    sys.run_to_quiescence();

    assert!(
        sys.gso_negotiated(),
        "replacement backend re-advertised and the frontend renegotiated"
    );
    assert!(
        *last_arrival.borrow() > crash_at,
        "traffic resumed after the crash (last arrival {:?})",
        *last_arrival.borrow()
    );
    let st = sys.netback_stats();
    assert!(
        st.gso_tx_frames > 0 && st.gso_errors() == 0,
        "super-frames kept flowing across incarnations: {st:?}"
    );
}

#[test]
fn default_scenario_negotiates_gso_over_ten_gbe() {
    for os in BackendOs::both() {
        let sys = SystemConfig::new(os, 3).build_net();
        assert!(sys.gso_negotiated(), "{}: default negotiates", os.name());
        assert_eq!(sys.wire(), LineRate::Gbe10, "{}", os.name());
        let off = SystemConfig::new(os, 3).gso(false).build_net();
        assert!(!off.gso_negotiated(), "{}: gso(false) declines", os.name());
    }
}
