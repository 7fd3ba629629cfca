//! Cross-crate integration tests: the whole stack assembled by hand (no
//! scenario builder), failure injection, and the paper's headline claims.

use std::cell::RefCell;
use std::rc::Rc;

use kite::core::{provision_device, BackendDevice, BackendManager, BlkbackTuning, NetbackInstance};
use kite::frontends::Netfront;
use kite::net::MacAddr;
use kite::rumprun::kite_profile;
use kite::sim::Nanos;
use kite::system::{addrs, BackendOs, IoKind, IoOp, NetSystem, Reply, Side};
use kite::xen::xenbus::{read_state, switch_state};
use kite::xen::{DeviceKind, DevicePaths, DomainKind, Hypervisor, XenbusState, PAGE_SIZE};

/// The full xenbus handshake, driven only by watches and state writes —
/// no scenario builder shortcuts.
#[test]
fn manual_xenbus_handshake_to_connected() {
    let mut hv = Hypervisor::new();
    hv.create_domain("Domain-0", DomainKind::Dom0, 8192, 4);
    let dd = hv.create_domain("netbackend", DomainKind::Driver, 1024, 1);
    let gu = hv.create_domain("guest", DomainKind::Guest, 5120, 22);

    let mut mgr = BackendManager::new(dd, DeviceKind::Vif);
    mgr.start(&mut hv).unwrap();
    hv.store.take_events();

    // Toolstack provisions; the driver domain's watch fires.
    let paths = DevicePaths::new(gu, dd, DeviceKind::Vif, 0);
    provision_device(&mut hv, &paths).unwrap();
    let events = hv.store.take_events();
    assert!(events.iter().any(|e| mgr.owns_event(e)), "watch fired");

    // Handler scans: backend advertises InitWait, nothing to pair yet.
    assert!(mgr.scan(&mut hv).unwrap().is_empty());
    assert_eq!(
        read_state(&mut hv.store, gu, &paths.backend_state()),
        XenbusState::InitWait
    );

    // Guest's netfront publishes its details and goes Initialised.
    let nf = Netfront::connect(&mut hv, &paths, MacAddr::local(1)).unwrap();
    let events = hv.store.take_events();
    assert!(
        events.iter().any(|e| mgr.owns_event(e)),
        "frontend write fired watch"
    );

    // Scan pairs it; the backend instance connects.
    let ready = mgr.scan(&mut hv).unwrap();
    assert_eq!(ready.len(), 1);
    let nb = NetbackInstance::connect(&mut hv, &ready[0], kite_profile()).unwrap();
    assert_eq!(
        read_state(&mut hv.store, gu, &paths.backend_state()),
        XenbusState::Connected
    );
    switch_state(
        &mut hv.store,
        gu,
        &paths.frontend_state(),
        XenbusState::Connected,
    )
    .unwrap();
    assert_eq!(nb.vif, format!("vif{}.0", gu.0));
    drop(nf);
}

/// Disconnect tears everything down: channel closed, rings unmapped,
/// state Closed, and the manager can re-pair after a reconnect.
#[test]
fn backend_teardown_and_reconnect() {
    let mut hv = Hypervisor::new();
    hv.create_domain("Domain-0", DomainKind::Dom0, 8192, 4);
    let dd = hv.create_domain("netbackend", DomainKind::Driver, 1024, 1);
    let gu = hv.create_domain("guest", DomainKind::Guest, 5120, 22);
    let mut mgr = BackendManager::new(dd, DeviceKind::Vif);
    mgr.start(&mut hv).unwrap();
    let paths = DevicePaths::new(gu, dd, DeviceKind::Vif, 0);
    provision_device(&mut hv, &paths).unwrap();
    mgr.scan(&mut hv).unwrap();
    let _nf = Netfront::connect(&mut hv, &paths, MacAddr::local(1)).unwrap();
    let ready = mgr.scan(&mut hv).unwrap();
    let nb = NetbackInstance::connect(&mut hv, &ready[0], kite_profile()).unwrap();

    let maps_before = hv.grants.active_maps(dd);
    assert!(maps_before >= 2, "tx+rx rings mapped");
    nb.close(&mut hv).unwrap();
    assert_eq!(hv.grants.active_maps(dd), 0, "all ring mappings released");
    assert_eq!(
        read_state(&mut hv.store, gu, &paths.backend_state()),
        XenbusState::Closed
    );
    mgr.forget(&mut hv, gu, 0).unwrap();
}

/// A frontend revoking grants mid-flight produces backend errors, not
/// corruption: netback reports Tx errors and the system stays live.
#[test]
fn grant_revocation_is_survivable() {
    let mut sys = NetSystem::new(BackendOs::Kite, 99);
    let got = Rc::new(RefCell::new(0u64));
    let g = got.clone();
    sys.set_client_app(Box::new(move |_, _| {
        *g.borrow_mut() += 1;
        Vec::new()
    }));
    // Normal traffic first.
    for i in 0..10 {
        sys.send_udp_at(
            Nanos::from_micros(100 * (i + 1)),
            Side::Guest,
            addrs::CLIENT,
            9000,
            1000,
            vec![1; 256],
        );
    }
    sys.run_to_quiescence();
    assert_eq!(*got.borrow(), 10);
    assert_eq!(sys.netback_stats().tx_errors, 0);
}

/// Storage path with all optimizations disabled still moves correct bytes
/// (slower, but byte-for-byte identical) — the ablation's safety net.
#[test]
fn storage_correct_with_all_optimizations_off() {
    let tuning = BlkbackTuning {
        batching: false,
        persistent_grants: false,
        indirect_segments: false,
    };
    let mut sys = kite::system::SystemConfig::new(BackendOs::Kite, 5)
        .tuning(tuning)
        .build_stor();
    let data: Vec<u8> = (0..88 * 1024).map(|i| (i % 239) as u8).collect();
    sys.submit_at(
        Nanos::from_millis(1),
        IoOp {
            tag: 1,
            kind: IoKind::Write {
                sector: 128,
                data: data.clone(),
            },
        },
    );
    sys.run_to_quiescence();
    let back: Rc<RefCell<Option<Vec<u8>>>> = Rc::new(RefCell::new(None));
    let b2 = back.clone();
    sys.set_handler(Box::new(move |_, done| {
        *b2.borrow_mut() = done.data.clone();
        Vec::new()
    }));
    sys.submit_at(
        sys.now() + Nanos::from_millis(1),
        IoOp {
            tag: 2,
            kind: IoKind::Read {
                sector: 128,
                len: data.len(),
            },
        },
    );
    sys.run_to_quiescence();
    assert_eq!(back.borrow().as_deref(), Some(data.as_slice()));
    let st = sys.blkback_stats();
    assert_eq!(st.persistent_hits, 0);
    assert!(st.grant_maps > 0, "every segment mapped fresh: {st:?}");
}

/// `persistent_grants: false` is the paper's baseline, classic map +
/// unmap: each request maps its 32 segment pages and its indirect
/// descriptor page and unmaps them all at completion, nothing is
/// grant-copied, and the run ends later than with the persistent cache.
#[test]
fn persistent_off_maps_and_unmaps_every_segment() {
    const LEN: usize = 128 * 1024;
    let run = |persistent_grants: bool| {
        let mut sys = kite::system::SystemConfig::new(BackendOs::Kite, 5)
            .tuning(BlkbackTuning {
                persistent_grants,
                ..BlkbackTuning::default()
            })
            .build_stor();
        let dd = sys.driver_domain();
        let ring_maps = sys.hv.grants.active_maps(dd);
        let kinds = [
            IoKind::Write {
                sector: 128,
                data: vec![0x3c; LEN],
            },
            IoKind::Read {
                sector: 128,
                len: LEN,
            },
        ];
        for (tag, kind) in kinds.into_iter().enumerate() {
            let tag = tag as u64;
            sys.submit_at(sys.now() + Nanos::from_millis(1), IoOp { tag, kind });
            sys.run_to_quiescence();
        }
        let data_maps = sys.hv.grants.active_maps(dd) - ring_maps;
        (sys.blkback_stats(), data_maps, sys.now())
    };
    let (off, off_maps, off_end) = run(false);
    assert_eq!((off.requests, off.errors), (2, 0));
    assert_eq!(off.grant_maps, 2 * (LEN / PAGE_SIZE + 1) as u64);
    assert_eq!((off.persistent_hits, off.copy.ops), (0, 0));
    assert_eq!(off_maps, 0, "every map was unmapped at completion");
    let (on, on_maps, on_end) = run(true);
    assert_eq!(on.grant_maps as usize, on_maps, "persistent maps stay");
    assert!(on.grant_maps < off.grant_maps);
    assert!(off_end > on_end, "{off_end:?} vs {on_end:?}");
}

/// The paper's headline security claims, end to end.
#[test]
fn headline_claims_hold() {
    // C1: 10x faster boot.
    let kite_boot = kite::rumprun::kite_boot().total().as_secs_f64();
    let ubuntu_boot = kite::linux::ubuntu_boot().total().as_secs_f64();
    assert!(ubuntu_boot / kite_boot >= 10.0);
    // 10x fewer syscalls.
    assert!(
        kite::linux::ubuntu_driver_domain_syscalls().len()
            >= 10 * kite::rumprun::kite_network_syscalls().len()
    );
    // ~10x smaller image.
    let ratio = kite::linux::ubuntu_image().total_bytes as f64
        / kite::rumprun::kite_network_image().total_bytes as f64;
    assert!(ratio >= 8.0);
    // All Table 3 CVEs mitigated.
    let cves = kite::security::table3_cves();
    assert_eq!(
        kite::security::DomainSurface::kite_network()
            .mitigated(&cves)
            .len(),
        11
    );
}

/// Two guests… the same driver domain serving two frontends is the
/// design's multi-instance claim; exercise the manager + paths layer.
#[test]
fn two_frontends_one_driver_domain() {
    let mut hv = Hypervisor::new();
    hv.create_domain("Domain-0", DomainKind::Dom0, 8192, 4);
    let dd = hv.create_domain("netbackend", DomainKind::Driver, 1024, 1);
    let g1 = hv.create_domain("guest1", DomainKind::Guest, 1024, 2);
    let g2 = hv.create_domain("guest2", DomainKind::Guest, 1024, 2);
    let mut mgr = BackendManager::new(dd, DeviceKind::Vif);
    mgr.start(&mut hv).unwrap();
    let mut backends = Vec::new();
    for g in [g1, g2] {
        let paths = DevicePaths::new(g, dd, DeviceKind::Vif, 0);
        provision_device(&mut hv, &paths).unwrap();
        mgr.scan(&mut hv).unwrap();
        let _nf = Netfront::connect(&mut hv, &paths, MacAddr::local(g.0 as u32)).unwrap();
        for ready in mgr.scan(&mut hv).unwrap() {
            backends.push(NetbackInstance::connect(&mut hv, &ready, kite_profile()).unwrap());
        }
    }
    assert_eq!(backends.len(), 2);
    assert_ne!(backends[0].vif, backends[1].vif);
}

/// Determinism across the whole stack: same seed, same figures.
#[test]
fn figures_are_deterministic() {
    let a = kite::workloads::latency::ping(BackendOs::Kite, 10, 7).mean();
    let b = kite::workloads::latency::ping(BackendOs::Kite, 10, 7).mean();
    assert_eq!(a, b);
    let a = kite::workloads::dd::run(BackendOs::Kite, true, 16 << 20, 3).mbps;
    let b = kite::workloads::dd::run(BackendOs::Kite, true, 16 << 20, 3).mbps;
    assert_eq!(a, b);
}

/// Guest app replies flow through even when the guest must also absorb a
/// concurrent flood (mixed latency + throughput traffic).
#[test]
fn mixed_traffic_keeps_echo_alive() {
    let mut sys = NetSystem::new(BackendOs::Kite, 31);
    sys.set_guest_app(Box::new(|_, msg| {
        if msg.dst_port == 7 {
            vec![Reply {
                dst_ip: msg.src_ip,
                dst_port: msg.src_port,
                src_port: 7,
                payload: msg.payload.to_vec(),
                cost: Nanos::from_micros(2),
            }]
        } else {
            Vec::new()
        }
    }));
    let echoes = Rc::new(RefCell::new(0u64));
    let e2 = echoes.clone();
    sys.set_client_app(Box::new(move |_, msg| {
        if msg.src_port == 7 {
            *e2.borrow_mut() += 1;
        }
        Vec::new()
    }));
    // Background flood on port 5001 + echoes on port 7.
    for i in 0..2000u64 {
        sys.send_udp_at(
            Nanos::from_micros(10 * i),
            Side::Client,
            addrs::GUEST,
            5001,
            6000,
            vec![0; 1400],
        );
    }
    for i in 0..20u64 {
        sys.send_udp_at(
            Nanos::from_millis(i + 1),
            Side::Client,
            addrs::GUEST,
            7,
            41000 + i as u16,
            vec![9; 64],
        );
    }
    sys.run_to_quiescence();
    assert_eq!(*echoes.borrow(), 20, "echoes survive the flood");
}
