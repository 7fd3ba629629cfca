//! Layer micro-drivers: tight loops over each layer's `pub` functions,
//! timed from outside, so a change to one layer can be seen in that
//! layer's own number before it is looked for end to end.
//!
//! All kernels run interleaved, round-robin, in ~20 ms slices over one
//! window, and each reports its *fastest* slice as ns per call: host
//! noise here comes in multi-second plateaus, which interleaving spreads
//! over every kernel and taking the minimum removes. Inputs come from the
//! seed; inputs and results pass through `black_box`.

use std::hint::black_box;
use std::net::Ipv4Addr;
use std::time::{Duration, Instant};

use kite::core::{
    provision_device, BackendManager, BlkbackInstance, BlkbackTuning, NetbackInstance,
};
use kite::devices::{Nic, NvmeCmd, NvmeController, NvmeProfile};
use kite::frontends::{Blkfront, Netfront};
use kite::net::{
    checksum, flow, Bridge, EtherType, EthernetFrame, IpProto, Ipv4Packet, MacAddr, UdpDatagram,
};
use kite::rumprun::kite_profile;
use kite::sim::{EventSched, Nanos, Pcg, Scheduler, SchedulerKind};
use kite::system::{BackendOs, SystemConfig};
use kite::trace::{EventKind, Tracer};
use kite::xen::netif::{NetifTxRequest, NetifTxResponse};
use kite::xen::xenbus::FEATURE_GSO_KEY;
use kite::xen::{
    BackRing, CopyMode, CopySide, DeviceKind, DevicePaths, DomainId, DomainKind, FrontRing,
    GrantCopyOp, GrantRef, Hypervisor,
};

use crate::{m, Metric};

const SLICE: Duration = Duration::from_millis(20);

/// Time and calls a kernel accumulated for one of its metrics.
#[derive(Clone, Copy, Default)]
struct Acc {
    time: Duration,
    units: u64,
}

impl Acc {
    fn add(&mut self, since: Instant, units: u64) {
        self.time += since.elapsed();
        self.units += units;
    }
}

/// (metric name, unit, divisor applied to ns per unit).
type MetricSpec = (&'static str, &'static str, f64);

/// Runs one batch of calls, booking the time into one `Acc` per metric.
type Step = Box<dyn FnMut(&mut [Acc])>;

/// One micro-driver: owns its rig (captured by `step`).
struct Kernel {
    metrics: Vec<MetricSpec>,
    step: Step,
}

fn kernel(metrics: &[MetricSpec], step: impl FnMut(&mut [Acc]) + 'static) -> Kernel {
    Kernel {
        metrics: metrics.to_vec(),
        step: Box::new(step),
    }
}

/// Runs every kernel round-robin until `window` is spent (each at least
/// twice: the first slice warms the rig).
pub fn run(seed: u64, window: Duration) -> Vec<Metric> {
    let mut kernels = all(seed);
    let mut best: Vec<Vec<f64>> = kernels
        .iter()
        .map(|k| vec![f64::INFINITY; k.metrics.len()])
        .collect();
    let start = Instant::now();
    let mut round = 0;
    while round < 2 || start.elapsed() < window {
        for (k, best) in kernels.iter_mut().zip(&mut best) {
            let mut accs = vec![Acc::default(); k.metrics.len()];
            let slice = Instant::now();
            while slice.elapsed() < SLICE {
                (k.step)(&mut accs);
            }
            if round == 0 {
                continue;
            }
            for (b, a) in best.iter_mut().zip(&accs) {
                if a.units > 0 {
                    *b = b.min(a.time.as_nanos() as f64 / a.units as f64);
                }
            }
        }
        round += 1;
    }
    kernels
        .iter()
        .zip(&best)
        .flat_map(|(k, best)| {
            k.metrics
                .iter()
                .zip(best)
                .map(|(&(name, unit, div), &ns)| m(name, ns / div, unit))
        })
        .collect()
}

// ---- rigs ----------------------------------------------------------------

fn udp_frame(rng: &mut Pcg, payload_len: usize, src_port: u16) -> Vec<u8> {
    let mut payload = vec![0u8; payload_len];
    rng.fill_bytes(&mut payload);
    let (src, dst) = (
        Ipv4Addr::new(192, 168, 1, 100),
        Ipv4Addr::new(192, 168, 1, 10),
    );
    let udp = UdpDatagram::new(src_port, 9999, payload).encode(src, dst);
    let ip = Ipv4Packet::new(src, dst, IpProto::Udp, udp);
    EthernetFrame::new(
        MacAddr::local(0xcc01),
        MacAddr::local(0xaa01),
        EtherType::Ipv4,
        ip.encode(),
    )
    .encode()
}

/// Dom0 + a driver domain + a guest on a fresh hypervisor.
fn domains(queues: u32) -> (Hypervisor, DomainId, DomainId) {
    let mut hv = Hypervisor::new();
    hv.create_domain("Domain-0", DomainKind::Dom0, 8192, 4);
    let dd = hv.create_domain("driver", DomainKind::Driver, 1024, queues);
    let gu = hv.create_domain("guest", DomainKind::Guest, 5120, 22);
    (hv, dd, gu)
}

/// One netfront ⇄ netback pair assembled by hand, as `tests/properties.rs`
/// does (no scenario builder, no scheduler).
struct NetRig {
    hv: Hypervisor,
    nf: Netfront,
    nb: NetbackInstance,
}

fn net_rig(gso: bool) -> NetRig {
    let (mut hv, dd, gu) = domains(1);
    let mut mgr = BackendManager::new(dd, DeviceKind::Vif);
    mgr.start(&mut hv).expect("watch");
    let paths = DevicePaths::new(gu, dd, DeviceKind::Vif, 0);
    provision_device(&mut hv, &paths).expect("provision");
    if gso {
        let key = format!("{}/{FEATURE_GSO_KEY}", paths.backend());
        hv.store
            .write(DomainId::DOM0, None, &key, "1")
            .expect("advertise gso");
    }
    mgr.scan(&mut hv).expect("scan");
    let nf = Netfront::connect(&mut hv, &paths, MacAddr::local(0xaa01)).expect("netfront");
    let ready = mgr.scan(&mut hv).expect("scan");
    let nb = NetbackInstance::connect(&mut hv, &ready[0], kite_profile()).expect("netback");
    assert_eq!(nf.gso() && nb.gso(), gso, "offload negotiation");
    NetRig { hv, nf, nb }
}

/// Guest → world: `BATCH` sends, one pusher drain, one guest IRQ to reap
/// the Tx completions. Books the sends and the drain separately.
fn net_tx_kernel(
    rng: &mut Pcg,
    gso: bool,
    payload_len: usize,
    send: MetricSpec,
    push: MetricSpec,
) -> Kernel {
    const BATCH: u64 = 16;
    let mut rig = net_rig(gso);
    let frame = udp_frame(rng, payload_len, 1200);
    let push_units = if gso {
        BATCH * frame.len() as u64
    } else {
        BATCH
    };
    kernel(&[send, push], move |acc| {
        let t = Instant::now();
        for _ in 0..BATCH {
            black_box(rig.nf.send(&mut rig.hv, black_box(&frame), None)).expect("tx ring has room");
        }
        acc[0].add(t, BATCH);
        let t = Instant::now();
        let batch = rig.nb.pusher_run(&mut rig.hv, 0, 256).expect("pusher");
        acc[1].add(t, push_units);
        assert_eq!(black_box(batch).frames.len() as u64, BATCH);
        rig.nf.on_irq(&mut rig.hv).expect("guest irq");
    })
}

/// One blkfront ⇄ blkback ⇄ NVMe triple assembled by hand.
struct BlkRig {
    hv: Hypervisor,
    bf: Blkfront,
    bb: BlkbackInstance,
    nvme: NvmeController,
    now: Nanos,
}

fn blk_rig() -> BlkRig {
    let (mut hv, dd, gu) = domains(1);
    let nvme = NvmeController::with_profile(
        16,
        NvmeProfile::default().with_random_penalty(Nanos::from_micros(2)),
    );
    let mut mgr = BackendManager::new(dd, DeviceKind::Vbd);
    mgr.start(&mut hv).expect("watch");
    let paths = DevicePaths::new(gu, dd, DeviceKind::Vbd, 0);
    provision_device(&mut hv, &paths).expect("provision");
    mgr.scan(&mut hv).expect("scan");
    let mut bf = Blkfront::connect(&mut hv, &paths).expect("blkfront");
    let ready = mgr.scan(&mut hv).expect("scan");
    let bb = BlkbackInstance::connect(
        &mut hv,
        &ready[0],
        kite_profile(),
        BlkbackTuning::default(),
        nvme.sectors,
    )
    .expect("blkback");
    bf.read_features(&mut hv, &paths).expect("features");
    BlkRig {
        hv,
        bf,
        bb,
        nvme,
        now: Nanos::from_micros(10),
    }
}

/// `BATCH` requests (write, read back, alternating) of `len` bytes:
/// frontend submit (untimed), then the backend's whole share — request
/// thread, device, completion reap — timed, then the frontend IRQ
/// (untimed).
fn blk_kernel(rng: &mut Pcg, len: usize, metric: MetricSpec) -> Kernel {
    const BATCH: u64 = 8;
    let mut rig = blk_rig();
    let mut data = vec![0u8; len];
    rng.fill_bytes(&mut data);
    let sectors = (len / 512) as u64;
    let mut cursor = 0u64;
    kernel(&[metric], move |acc| {
        for i in 0..BATCH {
            // Pairs: write a range, then read the same range back.
            let sector = (cursor + i / 2) * sectors % (1 << 20);
            if i % 2 == 0 {
                rig.bf.submit_write(&mut rig.hv, sector, &data)
            } else {
                rig.bf.submit_read(&mut rig.hv, sector, len)
            }
            .expect("ring has room");
        }
        cursor += BATCH / 2;
        let t = Instant::now();
        let batch = rig
            .bb
            .request_thread_run(&mut rig.hv, &mut rig.nvme, 0, rig.now, 64)
            .expect("request thread");
        assert!(batch.failures.is_empty());
        let mut done = 0;
        for &(ring, fire_at) in &batch.cq_irqs {
            rig.now = rig.now.max(fire_at);
            done += rig
                .bb
                .reap_completions(&mut rig.hv, &mut rig.nvme, ring, rig.now)
                .expect("reap")
                .completed;
        }
        acc[0].add(t, BATCH);
        assert_eq!(black_box(done) as u64, BATCH);
        rig.bf.on_irq(&mut rig.hv).expect("guest irq");
        let completions = rig.bf.take_completions();
        assert!(completions.iter().all(|c| c.ok));
        rig.now += Nanos::from_micros(1);
    })
}

/// Steady-state scheduler churn: pop the earliest timer, re-arm it.
fn sched_kernel(rng: &mut Pcg, kind: SchedulerKind, name: &'static str) -> Kernel {
    const PENDING: u32 = 4096;
    const BATCH: u64 = 1024;
    let mut sched: EventSched<u32> = EventSched::new(kind);
    // Delays like the workloads': mostly µs-scale costs, some ms timers.
    let delays: Vec<Nanos> = (0..8192)
        .map(|i| {
            if i % 16 == 0 {
                Nanos(rng.range_u64(1_000_000, 4_000_000))
            } else {
                Nanos(rng.range_u64(200, 60_000))
            }
        })
        .collect();
    for f in 0..PENDING {
        sched.schedule_at(delays[f as usize], f);
    }
    let mut next = 0usize;
    kernel(&[(name, "ns", 1.0)], move |acc| {
        let t = Instant::now();
        for _ in 0..BATCH {
            let (now, flow) = sched.pop().expect("timers never drain dry");
            sched.schedule_at(now + delays[next % delays.len()], black_box(flow));
            next += 1;
        }
        acc[0].add(t, BATCH);
    })
}

fn grant_copy_kernel(len: usize, name: &'static str) -> Kernel {
    const OPS: usize = 16;
    let (mut hv, dd, gu) = domains(1);
    let ops: Vec<GrantCopyOp> = (0..OPS)
        .map(|_| {
            let src = hv.alloc_page(gu).expect("guest page");
            let dst = hv.alloc_page(dd).expect("driver page");
            let gref = hv.grant_access(gu, dd, src, true).expect("grant");
            GrantCopyOp {
                src: CopySide::Grant {
                    granter: gu,
                    gref,
                    offset: 0,
                },
                dst: CopySide::Local {
                    page: dst,
                    offset: 0,
                },
                len,
            }
        })
        .collect();
    kernel(&[(name, "ns", 1.0)], move |acc| {
        let t = Instant::now();
        let res = hv.grant_copy_ops(dd, black_box(&ops), CopyMode::Batched);
        acc[0].add(t, OPS as u64);
        assert!(black_box(res).all_ok());
    })
}

/// Construction only: the system is dropped after the clock stops, as
/// `setup_s` stops before the run.
fn build_kernel<T: 'static>(name: &'static str, build: fn(u64) -> T, seed: u64) -> Kernel {
    kernel(&[(name, "ms", 1e6)], move |acc| {
        let t = Instant::now();
        let sys = build(black_box(seed));
        acc[0].add(t, 1);
        drop(black_box(sys));
    })
}

fn all(seed: u64) -> Vec<Kernel> {
    let mut rng = Pcg::new(seed, 0x6c61_7965_7273);
    let mut out = vec![
        sched_kernel(
            &mut rng,
            SchedulerKind::Wheel,
            "sim.wheel_churn_ns_per_event",
        ),
        sched_kernel(&mut rng, SchedulerKind::Heap, "sim.heap_churn_ns_per_event"),
    ];

    // Shared ring: request out, request in, response out, response in.
    {
        const BATCH: u64 = 64;
        let mut page = vec![0u8; 4096];
        let mut front: FrontRing<NetifTxRequest, NetifTxResponse> = FrontRing::init(&mut page);
        let mut back: BackRing<NetifTxRequest, NetifTxResponse> = BackRing::attach();
        let mut id = 0u16;
        out.push(kernel(
            &[("xen.ring_roundtrip_ns_per_slot", "ns", 1.0)],
            move |acc| {
                let t = Instant::now();
                for _ in 0..BATCH {
                    let req = NetifTxRequest {
                        gref: GrantRef(id as u32),
                        offset: 0,
                        flags: 0,
                        id,
                        size: 1514,
                    };
                    front
                        .push_request(&mut page, black_box(&req))
                        .expect("slot");
                    id = id.wrapping_add(1);
                }
                front.push_requests(&mut page);
                while let Some(req) = back.consume_request(&page).expect("ring") {
                    let rsp = NetifTxResponse {
                        id: req.id,
                        status: 0,
                    };
                    back.push_response(&mut page, &rsp).expect("slot");
                }
                back.push_responses(&mut page);
                let mut seen = 0;
                while let Some(rsp) = front.consume_response(&page).expect("ring") {
                    black_box(rsp);
                    seen += 1;
                }
                acc[0].add(t, BATCH);
                assert_eq!(seen, BATCH);
            },
        ));
    }

    // Event channel: send, then the receiver clears its pending bit.
    {
        const BATCH: u64 = 256;
        let (mut hv, dd, gu) = domains(1);
        let (gport, _) = hv.evtchn_alloc_unbound(gu, dd);
        let (dport, _) = hv.evtchn_bind(dd, gu, gport).expect("bind");
        out.push(kernel(&[("xen.evtchn_send_ns", "ns", 1.0)], move |acc| {
            let t = Instant::now();
            for _ in 0..BATCH {
                let (n, _) = hv.evtchn_send(dd, black_box(dport)).expect("channel");
                let n = black_box(n).expect("edge");
                hv.evtchn.clear_pending(n.domain, n.port).expect("pending");
            }
            acc[0].add(t, BATCH);
        }));
    }

    out.push(grant_copy_kernel(1514, "xen.grant_copy_1514_ns_per_op"));
    out.push(grant_copy_kernel(4096, "xen.grant_copy_4096_ns_per_op"));

    // Xenstore: what every handshake step does.
    {
        const KEYS: usize = 64;
        let (mut hv, dd, _gu) = domains(1);
        let paths: Vec<String> = (0..KEYS)
            .map(|k| format!("/local/domain/{}/bench/key-{k}", dd.0))
            .collect();
        let mut gen = 0u64;
        out.push(kernel(
            &[("xen.xenstore_write_read_ns", "ns", 1.0)],
            move |acc| {
                let value = gen.to_string();
                gen += 1;
                let t = Instant::now();
                for p in &paths {
                    hv.store
                        .write(DomainId::DOM0, None, black_box(p), &value)
                        .expect("write");
                    black_box(hv.store.read(DomainId::DOM0, None, p).expect("read"));
                }
                acc[0].add(t, KEYS as u64);
            },
        ));
    }

    // Packet codecs on a 1400 B datagram (the `bidir_mtu` unit).
    {
        const BATCH: u64 = 64;
        let mut payload = vec![0u8; 1400];
        rng.fill_bytes(&mut payload);
        let frame = udp_frame(&mut rng, 1400, 1200);
        let (src, dst) = (
            Ipv4Addr::new(192, 168, 1, 100),
            Ipv4Addr::new(192, 168, 1, 10),
        );
        out.push(kernel(
            &[
                ("net.udp_frame_encode_ns", "ns", 1.0),
                ("net.udp_frame_decode_ns", "ns", 1.0),
            ],
            move |acc| {
                let t = Instant::now();
                for _ in 0..BATCH {
                    let udp =
                        UdpDatagram::new(1200, 9999, black_box(&payload).clone()).encode(src, dst);
                    let ip = Ipv4Packet::new(src, dst, IpProto::Udp, udp).encode();
                    black_box(
                        EthernetFrame::new(
                            MacAddr::local(0xcc01),
                            MacAddr::local(0xaa01),
                            EtherType::Ipv4,
                            ip,
                        )
                        .encode(),
                    );
                }
                acc[0].add(t, BATCH);
                let t = Instant::now();
                for _ in 0..BATCH {
                    let eth = EthernetFrame::decode(black_box(&frame)).expect("ethernet");
                    let ip = Ipv4Packet::decode(&eth.payload).expect("ipv4");
                    black_box(UdpDatagram::decode(&ip.payload, ip.src, ip.dst).expect("udp"));
                }
                acc[1].add(t, BATCH);
            },
        ));
        let buf = udp_frame(&mut rng, 16 * 1024, 1200);
        out.push(kernel(
            &[("net.checksum_ns_per_kib", "ns", 1.0)],
            move |acc| {
                let t = Instant::now();
                black_box(checksum::checksum(black_box(&buf[..16 * 1024])));
                acc[0].add(t, 16);
            },
        ));
    }

    // Learning bridge and Toeplitz steering over 64 flows.
    {
        let mut bridge = Bridge::new("bridge0");
        let (p_if, p_vif) = (bridge.add_port("ixg0"), bridge.add_port("vif0"));
        let (client, guest) = (MacAddr::local(0xcc01), MacAddr::local(0xaa01));
        let mut now = Nanos::from_micros(1);
        out.push(kernel(
            &[("net.bridge_input_ns_per_frame", "ns", 1.0)],
            move |acc| {
                let t = Instant::now();
                for _ in 0..64 {
                    black_box(bridge.input(p_if, client, black_box(guest), now));
                    black_box(bridge.input(p_vif, guest, black_box(client), now));
                    now += Nanos::from_nanos(700);
                }
                acc[0].add(t, 128);
            },
        ));
        let frames: Vec<Vec<u8>> = (0..64)
            .map(|f| udp_frame(&mut rng, 1400, 1200 + f))
            .collect();
        out.push(kernel(
            &[("net.flow_steer_ns_per_frame", "ns", 1.0)],
            move |acc| {
                let t = Instant::now();
                for f in &frames {
                    black_box(flow::steer(black_box(f), 8));
                }
                acc[0].add(t, frames.len() as u64);
            },
        ));
    }

    // NIC model: Tx cost/serialisation, and Rx enqueue → moderated drain.
    {
        const BATCH: u64 = 64;
        let mut nic = Nic::ten_gbe();
        let frame = udp_frame(&mut rng, 1400, 1200);
        let mut now = Nanos::from_micros(1);
        out.push(kernel(
            &[
                ("devices.nic_tx_ns_per_frame", "ns", 1.0),
                ("devices.nic_rx_ns_per_frame", "ns", 1.0),
            ],
            move |acc| {
                let t = Instant::now();
                for _ in 0..BATCH {
                    // Spaced so the Tx queue never overflows.
                    now += Nanos::from_micros(2);
                    black_box(nic.transmit_segs(now, black_box(1538), 1));
                }
                acc[0].add(t, BATCH);
                // The frames are cloned outside the timed part: the NIC
                // takes ownership of what arrives from the wire.
                let arriving: Vec<Vec<u8>> = (0..BATCH).map(|_| frame.clone()).collect();
                let t = Instant::now();
                for f in arriving {
                    black_box(nic.rx_enqueue(now, f));
                }
                now += Nanos::from_micros(100);
                let drained = nic.drain_rx(now, usize::MAX);
                acc[1].add(t, BATCH);
                assert_eq!(black_box(drained).len() as u64, BATCH);
            },
        ));
    }

    // NVMe queue pair: post, doorbell, reap; data plane included.
    for (len, name) in [
        (4096usize, "devices.nvme_cmd_4k_ns"),
        (128 * 1024, "devices.nvme_cmd_128k_ns"),
    ] {
        const BATCH: u64 = 8;
        let mut nvme = NvmeController::with_profile(
            16,
            NvmeProfile::default().with_random_penalty(Nanos::from_micros(2)),
        );
        let qid = nvme.create_io_queues(0).expect("queue pair");
        let mut buf = vec![0u8; len];
        rng.fill_bytes(&mut buf);
        let sectors = (len / 512) as u64;
        let (mut now, mut cursor) = (Nanos::from_micros(1), 0u64);
        out.push(kernel(&[(name, "ns", 1.0)], move |acc| {
            let t = Instant::now();
            for i in 0..BATCH {
                let sector = (cursor + i / 2) * sectors % (1 << 20);
                if i % 2 == 0 {
                    nvme.write_data(sector, black_box(&buf));
                    nvme.sq_push(qid, NvmeCmd::write(sector, len));
                } else {
                    nvme.sq_push(qid, NvmeCmd::read(sector, len));
                    nvme.read_data(sector, black_box(&mut buf));
                }
            }
            let due = nvme
                .ring_doorbell(qid, now)
                .iter()
                .map(|e| e.completes_at)
                .max()
                .expect("posted");
            now = now.max(due);
            let mut reaped = 0;
            while let Some(e) = nvme.cq_pop(qid, now) {
                black_box(e);
                reaped += 1;
            }
            acc[0].add(t, BATCH);
            assert_eq!(reaped, BATCH);
            cursor += BATCH / 2;
        }));
    }

    // Standalone netfront + netback.
    out.push(net_tx_kernel(
        &mut rng,
        false,
        1472,
        ("frontends.netfront_send_1514_ns", "ns", 1.0),
        ("core.netback_pusher_ns_per_frame", "ns", 1.0),
    ));
    out.push(net_tx_kernel(
        &mut rng,
        true,
        48 * 1024,
        ("frontends.netfront_send_48k_ns", "ns", 1.0),
        ("core.netback_pusher_gso_ns_per_kib", "ns", 1.0 / 1024.0),
    ));
    {
        const BATCH: u64 = 16;
        let mut rig = net_rig(false);
        let frame = udp_frame(&mut rng, 1472, 1200);
        out.push(kernel(
            &[("core.netback_soft_start_ns_per_frame", "ns", 1.0)],
            move |acc| {
                // World → guest: the frames are cloned outside the timed
                // part (netback takes ownership), the Rx fill is timed, the
                // guest IRQ that empties the ring and reposts buffers is not.
                for _ in 0..BATCH {
                    assert!(rig.nb.enqueue_to_guest(frame.clone()));
                }
                let t = Instant::now();
                let batch = rig
                    .nb
                    .soft_start_run(&mut rig.hv, 0, 256)
                    .expect("soft_start");
                acc[0].add(t, BATCH);
                assert_eq!(black_box(batch).delivered as u64, BATCH);
                rig.nf.on_irq(&mut rig.hv).expect("guest irq");
                while let Some(f) = rig.nf.recv() {
                    black_box(f);
                }
            },
        ));
    }

    out.push(blk_kernel(
        &mut rng,
        4096,
        ("core.blkback_request_4k_ns", "ns", 1.0),
    ));
    out.push(blk_kernel(
        &mut rng,
        128 * 1024,
        ("core.blkback_request_128k_ns", "ns", 1.0),
    ));

    // The instruments themselves, off and on.
    for (on, name) in [
        (false, "trace.emit_disabled_ns"),
        (true, "trace.emit_enabled_ns"),
    ] {
        const BATCH: u64 = 1024;
        let mut tracer = if on {
            Tracer::enabled(1 << 12)
        } else {
            Tracer::disabled()
        };
        out.push(kernel(&[(name, "ns", 1.0)], move |acc| {
            let t = Instant::now();
            for i in 0..BATCH {
                tracer.emit_with(black_box(1), || EventKind::Milestone {
                    what: if i % 2 == 0 { "even" } else { "odd" },
                });
            }
            acc[0].add(t, BATCH);
            black_box(tracer.len());
        }));
    }
    for (on, name) in [
        (false, "prof.span_disabled_ns"),
        (true, "prof.span_enabled_ns"),
    ] {
        const BATCH: u64 = 1024;
        out.push(kernel(&[(name, "ns", 1.0)], move |acc| {
            // The profiler is thread-local state: switch it per slice and
            // leave it off and empty for whoever runs next.
            if on {
                kite::prof::enable();
            }
            let t = Instant::now();
            for _ in 0..BATCH {
                let outer = kite::prof::span(black_box(kite::prof::Phase::DispatchIrq));
                let inner = kite::prof::span(black_box(kite::prof::Phase::GrantCopy));
                drop(inner);
                drop(outer);
            }
            acc[0].add(t, 2 * BATCH);
            if on {
                kite::prof::disable();
                kite::prof::reset();
            }
        }));
    }

    // System construction through xenbus `Connected` (→ setup_s).
    out.push(build_kernel(
        "system.build_net_q1_ms",
        |seed| SystemConfig::new(BackendOs::Kite, seed).build_net(),
        seed,
    ));
    out.push(build_kernel(
        "system.build_net_q8_ms",
        |seed| {
            SystemConfig::new(BackendOs::Kite, seed)
                .queues(8)
                .build_net()
        },
        seed,
    ));
    out.push(build_kernel(
        "system.build_stor_q4_ms",
        |seed| {
            SystemConfig::new(BackendOs::Kite, seed)
                .queues(4)
                .build_stor()
        },
        seed,
    ));
    out
}
