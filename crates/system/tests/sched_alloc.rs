//! Allocation-free drain guarantees, measured with a counting global
//! allocator (one test so no other test thread pollutes the counter):
//!
//! 1. A warmed-up scheduler churn loop — pop, re-arm — performs
//!    **zero** allocations on both backends: event slots recycle
//!    through the slab (the wheel's slots also hold each event's key and
//!    bucket link, so a bucket is a chain through it), and the heap and
//!    the wheel's ready run stay within their high-water capacities.
//! 2. A full 4-queue netback drain allocates identically across
//!    identical traffic windows: frames the spare lists cannot hold
//!    are allowed, but nothing accumulates per drain — no bookkeeping
//!    growth, no leak-shaped drift. A warmed-up Rx drain allocates
//!    nothing, however many frames it delivers.
//! 3. Profiler spans are strictly zero-alloc: `kite_prof`
//!    instrumentation sits on the scheduler and backend hot paths, so
//!    its off-by-default cost contract (one branch, no allocation) is
//!    part of the same guarantee. Enabled, once its call tree is built,
//!    a span allocates nothing and neither does the `SIGPROF` handler
//!    that samples it.
//! 4. A disabled request tracer is strictly zero-alloc across its whole
//!    API: admit/stamp/map/lookup/take/finish ride the ring-submit,
//!    drain and completion paths, so request tracing off must cost one
//!    branch per call and nothing else.
//! 5. The copy budget (DESIGN.md §19): a payload is copied once per
//!    hop the model charges for and moved or borrowed everywhere else.
//!    Counting allocations of 32 KiB and up, a 48 KiB GSO message
//!    guest→client costs the system exactly one (the frame netback
//!    grant-copies the chain into); a 128 KiB block write costs at most
//!    one beyond the caller's own buffer, the first 128 KiB read one
//!    (its buffer), and a second read none: it is gathered into the
//!    buffer the first handed back.
//! 6. The ring path (DESIGN.md §19's per-site table), driver by driver
//!    with no `Host` around them and every count exact: a slot is
//!    encoded where it lives, per-drain lists are recycled scratch. The
//!    pinned call shapes `benchmark/` uses still allocate their result
//!    lists and payload buffers; the recycled forms the system drives
//!    allocate nothing but a Tx chain's frame. An Rx chain of any
//!    length costs the guest one allocation, or none once its frames
//!    are handed back.
//! 7. A build backs only the machine pages it writes: an 8-queue
//!    network system allocates its 16 ring pages' bytes and nothing for
//!    the 4 096 pool pages it grants.
//! 8. The whole event loop, through `Host::run_until`: once warm, a
//!    storage closed loop and a network echo, on one queue or eight,
//!    allocate an exact count per operation, each site named — the
//!    handlers' returned `Vec`s and payloads, and the NVMe media's
//!    64-block chunks and 512-block index leaves that first writes
//!    open. The simulator itself allocates nothing per echo.
//! 9. Standing a system up allocates an exact count: `build_net` on one
//!    queue and on eight, `build_stor` on four rings. Xenstore walks
//!    its paths in place and the page and grant tables grow once per
//!    pool, so what is left is what the build keeps or hands out.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use kite_core::{
    provision_device, BackendManager, BlkbackInstance, BlkbackTuning, NetbackInstance,
};
use kite_devices::NvmeController;
use kite_frontends::{Blkfront, Netfront};
use kite_net::MacAddr;
use kite_rumprun::kite_profile;
use kite_sim::{EventSched, Nanos, Scheduler, SchedulerKind, Spares};
use kite_system::{
    addrs, scenario, BackendOs, IoKind, IoOp, NetSystem, Reply, Side, StorSystem, SystemConfig,
    UdpMsg,
};
use kite_xen::netif::NET_RX_RING_SIZE;
use kite_xen::xenbus::FEATURE_GSO_KEY;
use kite_xen::{
    CopyMode, CopySide, DeviceKind, DevicePaths, DomainKind, GrantCopyOp, Hypervisor, ReqId,
    ReqStage, ReqTracer, SlotClass, PAGE_SIZE,
};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
/// Allocations big enough to hold a payload-sized copy.
static LARGE: AtomicU64 = AtomicU64::new(0);
const LARGE_BYTES: usize = 32 * 1024;
/// Byte buffers of exactly one machine page (a grant pool's
/// 256-entry table is page-sized too, but eight-aligned).
static PAGES: AtomicU64 = AtomicU64::new(0);

// `realloc` and `alloc_zeroed` keep their defaults, which go through
// `alloc`, so every heap request is counted exactly once here.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        if layout.size() >= LARGE_BYTES {
            LARGE.fetch_add(1, Ordering::Relaxed);
        }
        if layout.size() == PAGE_SIZE && layout.align() == 1 {
            PAGES.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Runs `f`; returns (large allocations, bytes allocated) it made.
fn large_allocs_and_bytes(f: impl FnOnce()) -> (u64, u64) {
    let (l0, b0) = (LARGE.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    f();
    (
        LARGE.load(Ordering::Relaxed) - l0,
        BYTES.load(Ordering::Relaxed) - b0,
    )
}

/// Deterministic steady-state churn: every iteration pops one timer and
/// re-arms it. The pending count stays constant, so a warmed-up
/// scheduler has everything it needs.
fn churn(sched: &mut EventSched<u32>, iters: u32) {
    // Two deterministic delay classes: short (level-0 buckets) and long
    // (an outer wheel level), so the cascade path is exercised too.
    let delay = |i: u32| {
        if i.is_multiple_of(7) {
            // ~2 ms sits in wheel level 1; its 64 slots rotate every
            // ~4.2 ms of virtual time, so the warmup touches every slot
            // the steady-state pattern can reach.
            Nanos::from_micros(2_000)
        } else {
            Nanos::from_micros(50 + (i % 13) as u64)
        }
    };
    for i in 0..iters {
        let (now, flow) = sched.pop().expect("fleet never drains dry");
        sched.schedule_at(now + delay(i), flow);
    }
}

fn machine() -> (Hypervisor, kite_xen::DomainId, kite_xen::DomainId) {
    let mut hv = Hypervisor::new();
    hv.create_domain("Domain-0", DomainKind::Dom0, 8192, 4);
    let dd = hv.create_domain("driver", DomainKind::Driver, 1024, 1);
    let gu = hv.create_domain("guest", DomainKind::Guest, 5120, 22);
    (hv, dd, gu)
}

/// A connected netfront/netback pair with no `Host` around it.
fn net_pair(gso: bool) -> (Hypervisor, Netfront, NetbackInstance) {
    let (mut hv, dd, gu) = machine();
    let mut mgr = BackendManager::new(dd, DeviceKind::Vif);
    mgr.start(&mut hv).expect("watch");
    let paths = DevicePaths::new(gu, dd, DeviceKind::Vif, 0);
    provision_device(&mut hv, &paths).expect("provision");
    if gso {
        let key = format!("{}/{FEATURE_GSO_KEY}", paths.backend());
        hv.store
            .write(kite_xen::DomainId::DOM0, None, &key, "1")
            .expect("advertise gso");
    }
    mgr.scan(&mut hv).expect("scan");
    let nf = Netfront::connect(&mut hv, &paths, MacAddr::local(0xaa01)).expect("netfront");
    let ready = mgr.scan(&mut hv).expect("scan");
    let nb = NetbackInstance::connect(&mut hv, &ready[0], kite_profile()).expect("netback");
    assert_eq!(nf.gso() && nb.gso(), gso, "offload negotiation");
    (hv, nf, nb)
}

/// Phase 6: what the ring path still allocates once warm, count by count.
fn ring_path_allocates_only_payload_hops() {
    // (a) + (b) Guest -> world. A send copies the frame into granted
    // pool pages and encodes its ring slots in place: nothing. The
    // pusher then allocates the frame it hands the bridge — one `Vec`
    // a frame, whether a single slot or a 13-slot chain, while nothing
    // hands its frames back — and nothing else: its frame list is the
    // caller's.
    let (mut hv, mut nf, mut nb) = net_pair(true);
    let (small, chain) = (vec![0x11u8; 1400], vec![0x22u8; 48 * 1024]);
    let mut sink: Vec<Vec<u8>> = Vec::new();
    let mut tx_round = || {
        let before = allocs();
        nf.send(&mut hv, &small, None).expect("tx ring has room");
        nf.send(&mut hv, &chain, None).expect("tx ring has room");
        nf.send(&mut hv, &small, None).expect("tx ring has room");
        let sent = allocs() - before;
        let before = allocs();
        let batch = nb
            .pusher_run_into(&mut hv, 0, 128, Nanos::ZERO, std::mem::take(&mut sink))
            .expect("pusher");
        let pushed = allocs() - before;
        assert_eq!(batch.frames.len(), 3);
        assert_eq!(batch.frames[1], chain, "the chain reassembled");
        sink = batch.frames;
        sink.clear();
        nf.on_irq(&mut hv).expect("guest irq");
        (sent, pushed)
    };
    tx_round();
    assert_eq!(
        tx_round(),
        (0, 3),
        "(allocations by three sends, by the drain that emitted their three frames)"
    );
    // The recycled form the system drives: the single-slot frames go
    // back to netback, which copies the next ones into them; the chain's
    // frame is a new one.
    let mut recycled_round = || {
        nf.send(&mut hv, &small, None).expect("tx ring has room");
        nf.send(&mut hv, &chain, None).expect("tx ring has room");
        nf.send(&mut hv, &small, None).expect("tx ring has room");
        let before = allocs();
        let mut batch = nb
            .pusher_run_into(&mut hv, 0, 128, Nanos::ZERO, std::mem::take(&mut sink))
            .expect("pusher");
        let pushed = allocs() - before;
        assert_eq!(batch.frames[0], small);
        for frame in [0, 2] {
            nb.recycle(std::mem::take(&mut batch.frames[frame]));
        }
        sink = batch.frames;
        sink.clear();
        nf.on_irq(&mut hv).expect("guest irq");
        pushed
    };
    recycled_round();
    assert_eq!(
        recycled_round(),
        1,
        "allocations by the drain, its single slots recycled"
    );

    // (b') World -> guest, an LRO chain: netback reads each fragment
    // straight out of the frame, and netfront sizes the frame it gathers
    // the chain into from the chain's first slot, so however many slots
    // the chain spans the guest allocates once for it.
    let (mut hv, mut nf, mut nb) = net_pair(true);
    for len in [9_000, 20_000, 60_000] {
        let frame = kite_net::UdpDatagram::new(1200, 9999, vec![0x44u8; len]).encode_frame(
            MacAddr::local(0xaa01),
            MacAddr::local(0xcc01),
            addrs::CLIENT,
            addrs::GUEST,
        );
        let slots = frame.len().div_ceil(PAGE_SIZE);
        let mut rx_round = || {
            assert!(nb.enqueue_to_guest(frame.clone()));
            let before = allocs();
            assert_eq!(nb.soft_start_run(&mut hv, 0, 64).expect("rx").delivered, 1);
            let filled = allocs() - before;
            let before = allocs();
            nf.on_irq(&mut hv).expect("guest irq");
            let got = nf.recv().expect("delivered");
            let gathered = allocs() - before;
            assert_eq!(got, frame);
            (filled, gathered)
        };
        // Warm-up: the guest's received-frame queue and netback's scratch
        // grow on first use, and each posted buffer is backed on its first
        // write, so cycle through every posted buffer once.
        for _ in 0..NET_RX_RING_SIZE as usize / slots + 1 {
            rx_round();
        }
        assert_eq!(
            rx_round(),
            (0, 1),
            "allocations by the Rx fill and the guest's gather of a {slots}-slot chain"
        );
        // The recycled forms: the Rx fill hands the frame it read to the
        // caller's spares, and the guest's gathered frame goes back to
        // netfront, so the next gather reuses it.
        let mut spent = Spares::default();
        let mut recycled_round = || {
            assert!(nb.enqueue_to_guest(frame.clone()));
            let before = allocs();
            let batch = nb.soft_start_run_into(&mut hv, 0, 64, |f| spent.put(f));
            assert_eq!(batch.expect("rx").delivered, 1);
            let filled = allocs() - before;
            let before = allocs();
            nf.on_irq(&mut hv).expect("guest irq");
            let got = nf.recv().expect("delivered");
            let gathered = allocs() - before;
            assert_eq!(got, frame);
            nf.recycle(got);
            (filled, gathered)
        };
        recycled_round();
        assert_eq!(
            recycled_round(),
            (0, 0),
            "allocations by the Rx fill and the guest's gather of a {slots}-slot chain, recycled"
        );
    }

    // (c) A batched grant copy of okay ops reports by value.
    let (mut hv, dd, _) = machine();
    let (a, b) = (hv.alloc_page(dd).unwrap(), hv.alloc_page(dd).unwrap());
    let ops: Vec<GrantCopyOp> = (0..16)
        .map(|i| GrantCopyOp {
            src: CopySide::Local {
                page: a,
                offset: i * 64,
            },
            dst: CopySide::Local {
                page: b,
                offset: i * 64,
            },
            len: 64,
        })
        .collect();
    hv.grant_copy_ops(dd, &ops, CopyMode::Batched);
    let before = allocs();
    let res = hv.grant_copy_ops(dd, &ops, CopyMode::Batched);
    assert_eq!(allocs() - before, 0, "an all-okay 16-op copy batch");
    assert!(res.all_ok() && res.bytes == 16 * 64);

    // (d) Block: one request through blkfront, blkback's request thread,
    // the NVMe queue pair, the completion reap and blkfront's interrupt
    // handler. Two pinned result shapes cost one allocation each — the
    // request thread's `BlkBatch::cq_irqs` and the first push onto the
    // `Vec` `take_completions` emptied (ROADMAP item 9) — and a read
    // adds the buffer its data is gathered into. Direct (4 KiB) or
    // indirect (128 KiB, 32 segments), the request itself costs nothing.
    let (mut hv, dd, gu) = machine();
    let mut nvme = NvmeController::new(16);
    let mut mgr = BackendManager::new(dd, DeviceKind::Vbd);
    mgr.start(&mut hv).expect("watch");
    let paths = DevicePaths::new(gu, dd, DeviceKind::Vbd, 0);
    provision_device(&mut hv, &paths).expect("provision");
    mgr.scan(&mut hv).expect("scan");
    let mut bf = Blkfront::connect(&mut hv, &paths).expect("blkfront");
    let ready = mgr.scan(&mut hv).expect("scan");
    let tuning = BlkbackTuning::default();
    let mut bb = BlkbackInstance::connect(&mut hv, &ready[0], kite_profile(), tuning, nvme.sectors)
        .expect("blkback");
    bf.read_features(&mut hv, &paths).expect("features");
    let mut now = Nanos::from_micros(10);
    let mut io = |len: usize, write: bool| {
        let data = vec![0x33u8; len];
        let before = allocs();
        if write {
            bf.submit_write(&mut hv, 0, &data)
        } else {
            bf.submit_read(&mut hv, 0, len)
        }
        .expect("ring has room");
        let batch = bb
            .request_thread_run(&mut hv, &mut nvme, 0, now, 32)
            .expect("request thread");
        assert!(batch.failures.is_empty());
        for &(ring, fire_at) in &batch.cq_irqs {
            now = now.max(fire_at);
            bb.reap_completions(&mut hv, &mut nvme, ring, now)
                .expect("reap");
        }
        bf.on_irq(&mut hv).expect("guest irq");
        let done = bf.take_completions();
        let made = allocs() - before;
        assert!(done.len() == 1 && done[0].ok);
        assert_eq!(done[0].data.as_ref().map(Vec::len), (!write).then_some(len));
        made
    };
    for len in [4096, 128 * 1024] {
        io(len, true); // warm-up: the device's sparse blocks exist
        io(len, false);
        assert_eq!(
            (io(len, true), io(len, false)),
            (2, 3),
            "{len}-byte (write, read) through the block ring path"
        );
    }
    // The recycled forms `storsys` drives: the request thread appends to
    // a recycled interrupt list, the completions move onto a recycled
    // list, and the read buffer goes back to blkfront, which gathers the
    // next read into it. A request then costs nothing.
    let (mut cq_irqs, mut done) = (Vec::new(), Vec::new());
    let mut io = |len: usize, write: bool| {
        let data = vec![0x33u8; len];
        let before = allocs();
        if write {
            bf.submit_write(&mut hv, 0, &data)
        } else {
            bf.submit_read(&mut hv, 0, len)
        }
        .expect("ring has room");
        let batch = bb
            .request_thread_run_into(&mut hv, &mut nvme, 0, now, 32, std::mem::take(&mut cq_irqs))
            .expect("request thread");
        cq_irqs = batch.cq_irqs;
        for (ring, fire_at) in cq_irqs.drain(..) {
            now = now.max(fire_at);
            bb.reap_completions(&mut hv, &mut nvme, ring, now)
                .expect("reap");
        }
        bf.on_irq(&mut hv).expect("guest irq");
        bf.take_completions_into(&mut done);
        assert!(done.len() == 1 && done[0].ok);
        if let Some(buf) = done.pop().expect("one").data {
            assert_eq!(buf.len(), len);
            bf.recycle(buf);
        }
        allocs() - before
    };
    for len in [4096, 128 * 1024] {
        io(len, true);
        io(len, false);
        assert_eq!(
            (io(len, true), io(len, false)),
            (0, 0),
            "{len}-byte (write, read) through the block ring path, recycled"
        );
    }
}

/// Phase 8: the whole event loop, driven through `Host::run_until`.
/// Once warm, a closed loop allocates only at the sites named below:
/// the workload's own `Vec`s and the NVMe media's chunks and index
/// leaves a first write opens.
fn event_loop_allocates_only_named_sites() {
    let us = Nanos::from_micros;
    // Storage: a depth-1 loop of `n` I/Os, `kind(i)` for I/O `i` from
    // `first` on, each next one issued by the completion handler.
    let stor_loop = |sys: &mut StorSystem, first: u64, n: u64, kind: fn(u64) -> IoKind| {
        let mut next = first + 1;
        sys.set_handler(Box::new(move |_, done| {
            assert!(done.ok);
            if next == first + n {
                return Vec::new();
            }
            let op = IoOp {
                tag: next,
                kind: kind(next),
            };
            next += 1;
            vec![op]
        }));
        let at = sys.now() + us(10);
        let kind = kind(first);
        sys.submit_at(at, IoOp { tag: first, kind });
        let ios = sys.metrics.ios;
        let before = allocs();
        sys.run_until(at + Nanos::from_millis(10 * n));
        let made = allocs() - before;
        assert_eq!((sys.metrics.ios - ios, sys.outstanding()), (n, 0));
        made
    };
    const N: u64 = 64;
    let mut sys = SystemConfig::new(BackendOs::Kite, 47).build_stor();
    let read_4k: fn(u64) -> IoKind = |_| IoKind::Read {
        sector: 0,
        len: 4096,
    };
    let read_128k: fn(u64) -> IoKind = |_| IoKind::Read {
        sector: 0,
        len: 128 * 1024,
    };
    let write_4k: fn(u64) -> IoKind = |_| IoKind::Write {
        sector: 0,
        data: vec![0x33; 4096],
    };
    // Sectors nothing wrote before, a 4 KiB device block per I/O or 32.
    let fresh_4k: fn(u64) -> IoKind = |i| IoKind::Write {
        sector: (1 << 20) + i * 8,
        data: vec![0x44; 4096],
    };
    let fresh_128k: fn(u64) -> IoKind = |i| IoKind::Write {
        sector: (1 << 21) + i * 256,
        data: vec![0x55; 128 * 1024],
    };
    // Warm-up over every shape. Its first writes (4 096 blocks, past
    // the sectors the measured ones use) also grow the media's chunk
    // list and top-level index past what the measured loops reach.
    stor_loop(&mut sys, 2 * N, 2 * N, fresh_128k);
    for kind in [read_4k, read_128k, write_4k] {
        stor_loop(&mut sys, 0, N, kind);
    }
    // Each I/O but the last: the handler's `Vec<IoOp>` for the next one
    // and, for a write, that write's data. The first writes append their
    // blocks to the media's log, one 64-block chunk per 64 blocks
    // wherever the log stands, and create one index leaf per 512-block
    // range they are first to reach: 64 blocks make one chunk and one
    // leaf, 2 048 blocks 32 chunks and four leaves. The read buffer, the
    // request's ring slots and pages, and the interrupt and completion
    // lists are all recycled.
    let rows = [
        ("4 KiB read", stor_loop(&mut sys, 0, N, read_4k), N - 1),
        ("128 KiB read", stor_loop(&mut sys, 0, N, read_128k), N - 1),
        (
            "4 KiB overwrite",
            stor_loop(&mut sys, 0, N, write_4k),
            2 * (N - 1),
        ),
        (
            "4 KiB first write",
            stor_loop(&mut sys, 0, N, fresh_4k),
            2 * (N - 1) + 1 + 1,
        ),
        (
            "128 KiB first write",
            stor_loop(&mut sys, 0, N, fresh_128k),
            2 * (N - 1) + 32 + 4,
        ),
    ];
    for (what, made, want) in rows {
        assert_eq!(made, want, "allocations by {N} I/Os of {what} each");
    }

    // Network: depth-1 echoes of 128-byte requests, one in flight on
    // each of `flows` flows (client ports 1200, 1201, ...), `n` in all,
    // the client's handler sending each next one.
    let echo = |_: Nanos, msg: &UdpMsg| Reply {
        dst_ip: msg.src_ip,
        dst_port: msg.src_port,
        src_port: msg.dst_port,
        payload: msg.payload.to_vec(),
        cost: Nanos::ZERO,
    };
    let echo_loop = |sys: &mut NetSystem, flows: u16, n: u64| {
        let mut left = n - flows as u64;
        sys.set_client_app(Box::new(move |t, msg| {
            if left == 0 {
                return Vec::new();
            }
            left -= 1;
            vec![echo(t, msg)]
        }));
        let at = sys.now() + us(10);
        for f in 0..flows {
            sys.send_udp_at(at, Side::Client, addrs::GUEST, 7, 1200 + f, vec![0x5a; 128]);
        }
        let msgs = sys.metrics.client_rx_msgs;
        let before = allocs();
        sys.run_until(at + Nanos::from_millis(n));
        let made = allocs() - before;
        assert_eq!(sys.metrics.client_rx_msgs - msgs, n, "every echo answered");
        made
    };
    // Per echo: the guest handler's `Vec<Reply>` and reply payload. Per
    // echo but each flow's first: the client handler's `Vec<Reply>` and
    // payload. Nothing else: the client's frame, the guest's gathered
    // frame and the frame netback's grant copy fills are all recycled.
    let handlers_only = |flows: u16, n: u64| 2 * n + 2 * (n - flows as u64);
    let mut sys = SystemConfig::new(BackendOs::Kite, 48).build_net();
    sys.set_guest_app(Box::new(move |t, msg| vec![echo(t, msg)]));
    // Warm-up: a machine page is backed on its first write, and the Rx
    // ring hands its posted buffers round in order, so echo once per
    // posted buffer before counting.
    echo_loop(&mut sys, 1, NET_RX_RING_SIZE as u64);
    assert_eq!(
        echo_loop(&mut sys, 1, N),
        handlers_only(1, N),
        "allocations by {N} echoes"
    );
    // A ping's round trip, request laid into a frame the client sent
    // earlier and reply written as header and payload, allocates once:
    // the guest stack's copy of the echoed payload.
    let ping_loop = |sys: &mut NetSystem, n: u16| {
        let rtts = sys.metrics.ping_rtts.count();
        let mut made = 0;
        for seq in 0..n {
            let at = sys.now() + us(10);
            let before = allocs();
            sys.ping_at(at, seq);
            sys.run_until(at + Nanos::from_millis(1));
            made += allocs() - before;
        }
        assert_eq!(
            sys.metrics.ping_rtts.count() - rtts,
            n as u64,
            "every ping answered"
        );
        made
    };
    ping_loop(&mut sys, NET_RX_RING_SIZE as u16);
    assert_eq!(ping_loop(&mut sys, N as u16), N, "allocations by {N} pings");
    // The same on eight queues, the flows Toeplitz-steered over them as
    // `bidir_mtu`'s are: one list of spare Tx frames serves them all.
    const FLOWS: u16 = 16;
    let mut sys = SystemConfig::new(BackendOs::Kite, 49).queues(8).build_net();
    sys.set_guest_app(Box::new(move |t, msg| vec![echo(t, msg)]));
    // Warm-up: every queue's posted buffers, however unevenly the flows
    // hash, several times over.
    echo_loop(&mut sys, FLOWS, 8 * FLOWS as u64 * NET_RX_RING_SIZE as u64);
    let busy = sys.driver_cpu_busy_each();
    assert!(
        busy.iter().all(|&b| b > Nanos::ZERO),
        "every queue's vCPU carried flows: {busy:?}"
    );
    assert_eq!(
        echo_loop(&mut sys, FLOWS, 8 * N),
        handlers_only(FLOWS, 8 * N),
        "allocations by {} echoes on {FLOWS} flows over 8 queues",
        8 * N
    );
}

#[test]
fn drain_paths_do_not_allocate_in_steady_state() {
    // Phase 1: strict zero-alloc scheduler churn, both backends.
    for kind in [SchedulerKind::Heap, SchedulerKind::Wheel] {
        let mut sched: EventSched<u32> = EventSched::new(kind);
        for f in 0..1024u32 {
            sched.schedule_at(Nanos::from_micros(1 + f as u64), f);
        }
        // Warmup: long enough that every capacity has hit its
        // high-water mark.
        churn(&mut sched, 1_000_000);
        let before = allocs();
        churn(&mut sched, 50_000);
        assert_eq!(
            allocs() - before,
            0,
            "scheduler churn allocated on {kind:?} backend"
        );
    }

    // Phase 2: full 4-queue netback drain — identical windows allocate
    // identically (frame payloads per window are fine; drift is not).
    let mut sys = SystemConfig::new(BackendOs::Kite, 42).queues(4).build_net();
    let window = |sys: &mut kite_system::NetSystem| {
        scenario::flow_burst(sys, Side::Guest, 256, 1400, Nanos::from_micros(20));
        let before = allocs();
        sys.run_to_quiescence();
        allocs() - before
    };
    let w: Vec<u64> = (0..8).map(|_| window(&mut sys)).collect();
    // Each window runs later in virtual time, so its events land in
    // other timer-wheel slots; the wheel's buckets own no storage, so
    // that costs nothing. Traced by backtrace, a warm window makes 44
    // allocations, every one netback's `Spares::take` of a single-slot
    // Tx frame: the four 64-frame bursts outrun the 10GbE wire, and at
    // their peak 44 more frames are in flight than the 181 of 1 442 B
    // that the client hands back and netback's list keeps (256 KiB).
    // What must hold is flatness — any per-window bookkeeping leak would
    // grow the later windows.
    let (lo, hi) = (
        *w[2..].iter().min().expect("nonempty"),
        *w[2..].iter().max().expect("nonempty"),
    );
    assert!(
        hi - lo <= lo / 50,
        "4-queue netback drain allocations drift between identical windows: {w:?}"
    );

    // Phase 2a: soft_start's per-frame chain list is recycled scratch
    // like its op list, its copy batch reports by value and its ring
    // responses are encoded in their slots (ROADMAP item 8): once warm,
    // an Rx drain allocates nothing at all.
    let (mut hv, mut nf, mut nb) = net_pair(false);
    let mut rx_drain = |frames: usize| {
        for i in 0..frames {
            assert!(nb.enqueue_to_guest(vec![i as u8; 1400]));
        }
        let before = allocs();
        let batch = nb.soft_start_run(&mut hv, 0, 64).expect("soft_start");
        let made = allocs() - before;
        assert_eq!(batch.delivered, frames);
        nf.on_irq(&mut hv).expect("guest irq");
        made
    };
    // A machine page is backed on its first write, so every posted Rx
    // buffer allocates once, when the first frame is copied into it. The
    // ring hands its posted buffers round in order: warm up over one
    // ring's worth of them before asserting.
    for _ in 0..NET_RX_RING_SIZE / 32 + 1 {
        rx_drain(32);
    }
    assert_eq!(
        (rx_drain(32), rx_drain(1)),
        (0, 0),
        "a warmed-up Rx drain allocated (32 frames, 1 frame)"
    );

    // Phase 2b: the same flatness contract holds on the GSO super-frame
    // path — descriptor-chain walks, extra-info parsing and multi-slot
    // Rx chains all run out of recycled scratch, so a 4-queue offload
    // drain must not accumulate bookkeeping either.
    let mut sys = SystemConfig::new(BackendOs::Kite, 43)
        .queues(4)
        .gso(true)
        .build_net();
    assert!(sys.gso_negotiated());
    let window = |sys: &mut kite_system::NetSystem| {
        // ~30KB messages: every send crosses the ring as a chained
        // super-frame (extra-info slot + multiple frags).
        scenario::flow_burst(sys, Side::Guest, 64, 30_000, Nanos::from_micros(20));
        let before = allocs();
        sys.run_to_quiescence();
        allocs() - before
    };
    let w: Vec<u64> = (0..8).map(|_| window(&mut sys)).collect();
    assert!(sys.netback_stats().gso_tx_frames > 0, "chains exercised");
    // From the second window on, forty windows in a row make one
    // allocation a message (64 a window, netback's Tx frame), so the
    // 2 % band is one allocation wide.
    let (lo, hi) = (
        *w[2..].iter().min().expect("nonempty"),
        *w[2..].iter().max().expect("nonempty"),
    );
    assert!(
        hi - lo <= lo / 50,
        "GSO super-frame drain allocations drift between identical windows: {w:?}"
    );

    // Phase 3: profiler spans allocate nothing, disabled or enabled, for
    // every phase in the registry.
    kite_prof::disable();
    let before = allocs();
    for _ in 0..10_000 {
        for p in kite_prof::Phase::ALL {
            let _g = kite_prof::span(p);
        }
    }
    assert_eq!(
        allocs() - before,
        0,
        "disabled kite_prof::span must not allocate"
    );
    // Enabled, once one pass has built the call tree, spans allocate
    // nothing either, and neither does the SIGPROF handler: the window
    // lasts several timer ticks and takes samples.
    kite_prof::enable();
    kite_prof::reset();
    for p in kite_prof::Phase::ALL {
        let _g = kite_prof::span(p);
    }
    let samples = || kite_prof::report().samples;
    let sampled = samples();
    let before = allocs();
    for _ in 0..600_000 {
        for p in kite_prof::Phase::ALL {
            let _g = kite_prof::span(p);
        }
    }
    let spent = allocs() - before;
    let sampled = samples() - sampled;
    kite_prof::disable();
    kite_prof::reset();
    assert_eq!(spent, 0, "enabled kite_prof::span must not allocate");
    assert!(sampled > 0, "no timer sample landed in the enabled window");

    // Phase 4: the whole request-tracing API is zero-alloc while
    // disabled — every call the datapaths make when `req_tracing` is
    // off must be a single branch.
    let mut rt = ReqTracer::disabled();
    let before = allocs();
    for i in 0..10_000u64 {
        assert!(rt.admit(0, Nanos(i)).is_none());
        rt.stamp_at(ReqId(i), ReqStage::RingSubmit, 1, None, Nanos(i));
        rt.stamp_at(ReqId(i), ReqStage::GrantCopy, 1, Some(0), Nanos(i));
        rt.map(SlotClass::NetTx, i, ReqId(i));
        assert!(rt.lookup(SlotClass::NetTx, i).is_none());
        assert!(rt.take(SlotClass::BlkReq, i).is_none());
        rt.finish_at(ReqId(i), 0, Nanos(i));
        assert_eq!(rt.completed().count(), 0);
    }
    assert_eq!(
        allocs() - before,
        0,
        "disabled ReqTracer calls must not allocate"
    );

    // Phase 5: the copy budget. Net: after a warm-up message, one
    // 48 KiB message from the guest application to the client
    // application. The payload buffer is the caller's; the guest stack
    // keeps it beside the frame's 42 header bytes, netfront lays both
    // into its granted Tx pages, and netback's grant copy lands the chain
    // in the frame it hands the bridge. Every later hop — bridge, NIC,
    // wire, the client stack — moves that buffer, and the client
    // application is lent the payload inside it.
    const MSG: usize = 48 * 1024;
    let mut sys = SystemConfig::new(BackendOs::Kite, 44).gso(true).build_net();
    assert!(sys.gso_negotiated());
    sys.set_client_app(Box::new(|_, msg| {
        assert_eq!(msg.payload.len(), MSG);
        Vec::new()
    }));
    let send = |sys: &mut kite_system::NetSystem| {
        let payload = vec![0x5au8; MSG];
        let at = sys.now() + Nanos::from_micros(10);
        large_allocs_and_bytes(|| {
            sys.send_udp_at(at, Side::Guest, addrs::CLIENT, 9999, 1200, payload);
            sys.run_to_quiescence();
        })
    };
    send(&mut sys);
    let delivered = sys.metrics.client_rx_msgs;
    let (large, bytes) = send(&mut sys);
    assert_eq!(sys.metrics.client_rx_msgs, delivered + 1, "delivered");
    assert_eq!(
        large, 1,
        "a 48 KiB guest->client message is copied into a buffer by netback's grant copy only"
    );
    assert!(
        bytes < (MSG as u64 + 42) + 16 * 1024,
        "48 KiB message allocated {bytes} bytes in the system"
    );

    // Block: one 128 KiB write, then two 128 KiB reads of it. The write's
    // buffer moves into its single ring request and is copied into the
    // granted pool pages; a read is gathered from them once, into the
    // buffer the completion handler receives, which then goes back to
    // blkfront.
    const IO: usize = 128 * 1024;
    let mut sys = SystemConfig::new(BackendOs::Kite, 45).build_stor();
    let got = std::rc::Rc::new(std::cell::Cell::new(0usize));
    let seen = got.clone();
    sys.set_handler(Box::new(move |_, done| {
        assert!(done.ok);
        seen.set(seen.get() + done.data.as_ref().map_or(0, Vec::len));
        Vec::new()
    }));
    let io = |sys: &mut kite_system::StorSystem, kind: IoKind| {
        let at = sys.now() + Nanos::from_micros(10);
        large_allocs_and_bytes(|| {
            sys.submit_at(at, IoOp { tag: 1, kind });
            sys.run_to_quiescence();
        })
    };
    // Warm-up touches the sectors, so the device's sparse blocks exist.
    io(
        &mut sys,
        IoKind::Write {
            sector: 0,
            data: vec![1u8; IO],
        },
    );
    let (large_w, _) = io(
        &mut sys,
        IoKind::Write {
            sector: 0,
            data: vec![2u8; IO],
        },
    );
    assert!(
        large_w <= 1,
        "128 KiB write made {large_w} payload-sized allocations"
    );
    let (large_r, _) = io(&mut sys, IoKind::Read { sector: 0, len: IO });
    assert_eq!(got.get(), IO, "read returned its data");
    assert_eq!(large_r, 1, "the first 128 KiB read's buffer");
    let (large_r, _) = io(&mut sys, IoKind::Read { sector: 0, len: IO });
    assert_eq!(got.get(), 2 * IO, "read returned its data");
    assert_eq!(
        large_r, 0,
        "a second 128 KiB read reuses the first's buffer"
    );

    ring_path_allocates_only_payload_hops();

    // Phase 7: building a system backs only the machine pages connecting
    // writes — each queue's Tx and Rx ring page, which the frontend
    // initialises. Its 512 granted Tx and Rx pool pages wait for their
    // first frame. A page's bytes are counted as a one-aligned
    // `PAGE_SIZE` allocation.
    const QUEUES: u32 = 8;
    let before = PAGES.load(Ordering::Relaxed);
    let sys = SystemConfig::new(BackendOs::Kite, 46)
        .queues(QUEUES)
        .build_net();
    let pages = PAGES.load(Ordering::Relaxed) - before;
    drop(sys);
    assert_eq!(
        pages,
        2 * QUEUES as u64,
        "machine pages backed building an {QUEUES}-queue system"
    );

    event_loop_allocates_only_named_sites();
    build_allocates_exactly();
}

/// Phase 9: what a whole build allocates, counted exactly. What is left,
/// per build: each xenstore node's key and value and each fired watch
/// event's path (the store keeps or hands them out); the xenbus path
/// strings `DevicePaths` and `queue_key` format; each grant pool's page
/// list, flags and free list; the page and grant tables growing once
/// per pool; the rings' first-touched pages; and the `Host` itself, its
/// scheduler, CPUs, NIC or NVMe controller and instruments.
fn build_allocates_exactly() {
    let count = |build: &dyn Fn()| {
        let before = allocs();
        build();
        allocs() - before
    };
    let net = |queues: u32| {
        count(&|| {
            drop(
                SystemConfig::new(BackendOs::Kite, 7)
                    .queues(queues)
                    .build_net(),
            )
        })
    };
    let stor = count(&|| drop(SystemConfig::new(BackendOs::Kite, 7).queues(4).build_stor()));
    assert_eq!(
        (net(1), net(8), stor),
        (222, 480, 311),
        "allocations building a 1- and an 8-queue network system and a 4-ring storage system"
    );
}
