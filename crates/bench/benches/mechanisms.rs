//! Microbenchmarks of the hot mechanisms: ring push/consume, grant copy,
//! bridge forwarding, xenstore, the gadget scanner's decoder.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use kite_bench::report;
use kite_net::ether::ETH_FRAME_MAX;
use kite_net::{Bridge, MacAddr};
use kite_security::gadgets::decode::decode;
use kite_sim::Nanos;
use kite_xen::netif::{NetifTxRequest, NetifTxResponse};
use kite_xen::ring::{BackRing, FrontRing};
use kite_xen::{DomainKind, GrantRef, Hypervisor};

fn bench_ring(c: &mut Criterion) {
    c.bench_function("ring_push_consume_roundtrip", |b| {
        let mut page = vec![0u8; 4096];
        let mut f: FrontRing<NetifTxRequest, NetifTxResponse> = FrontRing::init(&mut page);
        let mut back: BackRing<NetifTxRequest, NetifTxResponse> = BackRing::attach();
        let req = NetifTxRequest {
            gref: GrantRef(7),
            offset: 0,
            flags: 0,
            id: 1,
            size: ETH_FRAME_MAX as u16,
        };
        b.iter(|| {
            f.push_request(&mut page, black_box(&req)).unwrap();
            f.push_requests(&mut page);
            let r = back.consume_request(&page).unwrap().unwrap();
            back.push_response(
                &mut page,
                &NetifTxResponse {
                    id: r.id,
                    status: 0,
                },
            )
            .unwrap();
            back.push_responses(&mut page);
            f.consume_response(&page).unwrap().unwrap()
        });
    });
}

fn bench_grant_copy(c: &mut Criterion) {
    c.bench_function("grant_copy_4k", |b| {
        let mut hv = Hypervisor::new();
        hv.create_domain("Domain-0", DomainKind::Dom0, 1024, 4);
        let dd = hv.create_domain("dd", DomainKind::Driver, 256, 1);
        let gu = hv.create_domain("guest", DomainKind::Guest, 256, 2);
        let src = hv.alloc_page(gu).unwrap();
        let dst = hv.alloc_page(dd).unwrap();
        let gref = hv.grant_access(gu, dd, src, true).unwrap();
        b.iter(|| {
            hv.grant_copy_batch(
                dd,
                &[kite_xen::GrantCopyOp {
                    src: kite_xen::CopySide::Grant {
                        granter: gu,
                        gref,
                        offset: 0,
                    },
                    dst: kite_xen::CopySide::Local {
                        page: dst,
                        offset: 0,
                    },
                    len: black_box(4096),
                }],
            )
        });
    });
}

fn bench_grant_copy_batch(c: &mut Criterion) {
    // Host time of issuing one 32-op batch vs. 32 single-op hypercalls,
    // plus the virtual (modelled) cost delta — the batched path must be
    // strictly cheaper for any multi-op drain.
    let mut hv = Hypervisor::new();
    hv.create_domain("Domain-0", DomainKind::Dom0, 1024, 4);
    let dd = hv.create_domain("dd", DomainKind::Driver, 256, 1);
    let gu = hv.create_domain("guest", DomainKind::Guest, 256, 2);
    const NOPS: usize = 32;
    const LEN: usize = ETH_FRAME_MAX;
    let mut ops = Vec::with_capacity(NOPS);
    for _ in 0..NOPS {
        let src = hv.alloc_page(gu).unwrap();
        let dst = hv.alloc_page(dd).unwrap();
        let gref = hv.grant_access(gu, dd, src, true).unwrap();
        ops.push(kite_xen::GrantCopyOp {
            src: kite_xen::CopySide::Grant {
                granter: gu,
                gref,
                offset: 0,
            },
            dst: kite_xen::CopySide::Local {
                page: dst,
                offset: 0,
            },
            len: LEN,
        });
    }
    let batched_cost = hv
        .grant_copy_ops(dd, &ops, kite_xen::CopyMode::Batched)
        .cost;
    let single_cost = hv
        .grant_copy_ops(dd, &ops, kite_xen::CopyMode::SingleOp)
        .cost;
    assert!(
        batched_cost < single_cost,
        "batched ({batched_cost:?}) must undercut single-op ({single_cost:?})"
    );
    // Shared reporting path: same values land in `repro --json`.
    report::print_snapshots(&[report::grant_copy_snapshot()]);
    c.bench_function(&format!("grant_copy_batched_32x{LEN}"), |b| {
        b.iter(|| black_box(hv.grant_copy_ops(dd, &ops, kite_xen::CopyMode::Batched)))
    });
    c.bench_function(&format!("grant_copy_single_op_32x{LEN}"), |b| {
        b.iter(|| black_box(hv.grant_copy_ops(dd, &ops, kite_xen::CopyMode::SingleOp)))
    });
}

fn bench_recovery(c: &mut Criterion) {
    // Virtual-time headline (paper Fig 10): crash-to-first-byte through
    // a full driver-domain reboot, per backend OS.
    let kite = report::recovery_cycle(kite_system::BackendOs::Kite, 11);
    let linux = report::recovery_cycle(kite_system::BackendOs::Linux, 11);
    let kite_wd = report::recovery_cycle_with(
        kite_system::BackendOs::Kite,
        11,
        kite_system::DetectionMode::Watchdog,
    );
    report::print_snapshots(&[
        report::recovery_snapshot_of(&kite),
        report::recovery_snapshot_of(&linux),
        report::recovery_snapshot_of(&kite_wd),
    ]);
    for sys in [&kite, &linux, &kite_wd] {
        sys.recovery.crash_to_first_byte().expect("service resumed");
    }
    assert!(
        kite.recovery.crash_to_first_byte() < linux.recovery.crash_to_first_byte(),
        "a rumprun driver domain must recover strictly faster than Linux"
    );
    // The oracle detects for free; the heartbeat watchdog pays a real,
    // bounded detection latency on top of the same reboot.
    assert_eq!(kite.recovery.detect_latency(), Some(Nanos::ZERO));
    let wd_detect = kite_wd.recovery.detect_latency().expect("detected");
    assert!(wd_detect > Nanos::ZERO);
    c.bench_function("recovery_cycle_kite_sim", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(report::recovery_cycle(kite_system::BackendOs::Kite, seed).recovery)
        });
    });
}

fn bench_bridge(c: &mut Criterion) {
    c.bench_function("bridge_unicast_forward", |b| {
        let mut br = Bridge::new("bridge0");
        let p0 = br.add_port("ixg0");
        let p1 = br.add_port("vif0");
        br.input(p1, MacAddr::local(1), MacAddr::BROADCAST, Nanos::ZERO);
        b.iter(|| {
            br.input(
                p0,
                MacAddr::local(2),
                black_box(MacAddr::local(1)),
                Nanos(1),
            )
        });
    });
}

fn bench_xenstore(c: &mut Criterion) {
    c.bench_function("xenstore_write_read", |b| {
        let mut hv = Hypervisor::new();
        let d0 = hv.create_domain("Domain-0", DomainKind::Dom0, 1024, 4);
        let mut i = 0u64;
        b.iter(|| {
            let path = format!("/bench/{}", i % 64);
            i += 1;
            hv.store.write(d0, None, &path, "v").unwrap();
            hv.store.read(d0, None, &path).unwrap()
        });
    });
}

fn bench_decoder(c: &mut Criterion) {
    c.bench_function("x86_decode", |b| {
        let insns: Vec<Vec<u8>> = vec![
            vec![0x48, 0x89, 0xd8],
            vec![0x48, 0x8b, 0x05, 1, 2, 3, 4],
            vec![0xe8, 0, 0, 0, 0],
            vec![0xf3, 0x0f, 0x58, 0xc1],
        ];
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % insns.len();
            decode(black_box(&insns[i]))
        });
    });
}

criterion_group!(
    benches,
    bench_ring,
    bench_grant_copy,
    bench_grant_copy_batch,
    bench_recovery,
    bench_bridge,
    bench_xenstore,
    bench_decoder
);
criterion_main!(benches);
