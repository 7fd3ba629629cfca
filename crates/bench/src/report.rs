//! Reporting for the `repro` binary.
//!
//! Every scenario result funnels through [`MetricsSnapshot`], so the
//! text `repro` prints and the machine-readable JSON `repro --json`
//! writes come from the same values and cannot drift apart. Every row
//! is virtual-time derived: `repro --json` reproduces the shipped
//! `BENCH_mechanisms.json` byte for byte, and each invariant over those
//! rows is asserted here, once, by the builder of the rows it relates
//! (DESIGN.md §18). Host-clock measurement lives in `benchmark/`.

use std::io::Write as _;

use kite_net::ether::ETH_FRAME_MAX;
use kite_sim::Nanos;
use kite_system::{
    render_top, scenario, BackendOs, DetectionMode, Fault, HealthState, LineRate, NetSystem, Side,
    StorSystem, SystemConfig,
};
use kite_trace::metrics::{render_json, validate_json, MetricValue};
use kite_trace::SampleKind::{Counter, Gauge};
use kite_trace::{MetricsSnapshot, TimeSeriesSampler};
use kite_xen::CopyMode;

/// Prints snapshots in the shared text rendering.
pub fn print_snapshots(snaps: &[MetricsSnapshot]) {
    for s in snaps {
        print!("{}", s.render_text());
    }
}

/// Renders snapshots as the machine-readable results JSON, validates
/// the document, and writes it to `path`. Returns the row count.
pub fn write_json(path: &str, snaps: &[MetricsSnapshot]) -> std::io::Result<usize> {
    let doc = render_json(snaps);
    let rows =
        validate_json(&doc).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    let mut f = std::fs::File::create(path)?;
    f.write_all(doc.as_bytes())?;
    Ok(rows)
}

/// Virtual grant-copy cost of one 32-op drain, batched vs one hypercall
/// per op — the mechanisms micro-measurement behind the batching win.
pub fn grant_copy_snapshot() -> MetricsSnapshot {
    use kite_xen::{CopySide, DomainKind, GrantCopyOp, Hypervisor};
    let mut hv = Hypervisor::new();
    hv.create_domain("Domain-0", DomainKind::Dom0, 1024, 4);
    let dd = hv.create_domain("dd", DomainKind::Driver, 256, 1);
    let gu = hv.create_domain("guest", DomainKind::Guest, 256, 2);
    const NOPS: usize = 32;
    const LEN: usize = ETH_FRAME_MAX;
    let mut ops = Vec::with_capacity(NOPS);
    for _ in 0..NOPS {
        let src = hv.alloc_page(gu).expect("page");
        let dst = hv.alloc_page(dd).expect("page");
        let gref = hv.grant_access(gu, dd, src, true).expect("grant");
        ops.push(GrantCopyOp {
            src: CopySide::Grant {
                granter: gu,
                gref,
                offset: 0,
            },
            dst: CopySide::Local {
                page: dst,
                offset: 0,
            },
            len: LEN,
        });
    }
    let batched = hv.grant_copy_ops(dd, &ops, CopyMode::Batched).cost;
    let single = hv.grant_copy_ops(dd, &ops, CopyMode::SingleOp).cost;
    assert!(
        batched < single,
        "batched ({batched:?}) must undercut single-op ({single:?})"
    );
    let mut snap = MetricsSnapshot::new("mechanisms/grant_copy");
    snap.push_int("ops", "count", NOPS as u64);
    snap.push_int("op_bytes", "bytes", LEN as u64);
    snap.push_int("batched_cost", "ns", batched.as_nanos());
    snap.push_int("single_op_cost", "ns", single.as_nanos());
    snap.push_int("batched_saves", "ns", (single - batched).as_nanos());
    snap.push_int("hypercalls_saved", "count", (NOPS - 1) as u64);
    snap.push_float("bytes_per_hypercall", "bytes", (NOPS * LEN) as f64);
    snap
}

/// The recovery stream: 30 s of guest→client traffic at 4 msg/s.
fn recovery_stream(sys: &mut NetSystem) {
    scenario::steady_stream(sys, 120, 1, 1400, Nanos::from_millis(250));
}

/// One full crash/restart cycle: steady UDP stream, driver domain killed
/// at 2 s, service restored through the OS boot model. Returns the
/// system after quiescence (stats, trace and metrics still attached).
/// Watchdog runs detect the kill through the heartbeat monitor, so their
/// `detect_latency` row reports a real (positive) detection cost; oracle
/// runs report zero by construction.
pub fn recovery_cycle(os: BackendOs, mode: DetectionMode) -> NetSystem {
    let mut cfg = SystemConfig::new(os, 0);
    if mode == DetectionMode::Watchdog {
        cfg = cfg.watchdog();
    }
    let mut sys = cfg.build_net();
    recovery_stream(&mut sys);
    sys.fault_at(Nanos::from_secs(2), Fault::Kill);
    sys.run_to_quiescence();
    sys
}

/// The recovery-cycle result set of an already-run system, named
/// `mechanisms/recovery_<os>` (with a `_watchdog` suffix when the run
/// detected the fault through the heartbeat monitor).
pub fn recovery_snapshot_of(sys: &NetSystem) -> MetricsSnapshot {
    let suffix = match sys.detection_mode() {
        DetectionMode::Oracle => "",
        DetectionMode::Watchdog => "_watchdog",
    };
    sys.metrics_snapshot(format!(
        "mechanisms/recovery_{}{}",
        sys.os.name().to_lowercase(),
        suffix,
    ))
}

/// The four `mechanisms/recovery_*` rows (Kite and Linux, oracle and
/// watchdog detection). Asserts the paper's Fig 10 headline — a rumprun
/// driver domain is back strictly sooner than a Linux one — and that
/// the oracle detects for free while the heartbeat watchdog pays a
/// real detection latency on top of the same reboot.
pub fn recovery_snapshots() -> Vec<MetricsSnapshot> {
    use DetectionMode::{Oracle, Watchdog};
    let cycles = [
        (BackendOs::Kite, Oracle),
        (BackendOs::Linux, Oracle),
        (BackendOs::Kite, Watchdog),
        (BackendOs::Linux, Watchdog),
    ]
    .map(|(os, mode)| recovery_cycle(os, mode));
    let [back_kite, back_linux, ..] = cycles
        .each_ref()
        .map(|sys| sys.recovery.crash_to_first_byte().expect("service resumed"));
    assert!(
        back_kite < back_linux,
        "a rumprun driver domain must recover strictly faster than Linux"
    );
    let [kite, _, kite_wd, _] = &cycles;
    assert_eq!(kite.recovery.detect_latency(), Some(Nanos::ZERO));
    assert!(kite_wd.recovery.detect_latency().expect("detected") > Nanos::ZERO);
    cycles.iter().map(recovery_snapshot_of).collect()
}

/// The paper's three blkback optimisations (PAPER.md §1 item 2), one
/// switch at a time on 8 MiB of 128 KiB sequential writes: elapsed
/// virtual time and the counter the switch exists to move, all-on vs
/// that switch off. Every switch must move its counter; only persistent
/// grants must also move elapsed time — batching and indirect segments
/// do not slow this model when off, and the rows say so.
pub fn ablation_snapshots() -> [MetricsSnapshot; 3] {
    use kite_core::{BlkbackStats, BlkbackTuning};
    fn run(tuning: BlkbackTuning) -> (u64, BlkbackStats) {
        let mut sys = SystemConfig::new(BackendOs::Kite, 0)
            .tuning(tuning)
            .build_stor();
        scenario::sequential_writes(&mut sys, 64, 128 * 1024, Nanos::from_micros(40));
        sys.run_to_quiescence();
        (sys.now().as_nanos(), sys.blkback_stats())
    }
    type Counter = fn(&BlkbackStats) -> u64;
    let all_on = BlkbackTuning::default();
    let (on_ns, on) = run(all_on);
    // (switch, tuning with it off, its counter, whether off is slower)
    let switches: [(&str, BlkbackTuning, &str, Counter, bool); 3] = [
        (
            "batching",
            BlkbackTuning {
                batching: false,
                ..all_on
            },
            "device_ops",
            |s| s.device_ops,
            false,
        ),
        (
            "persistent",
            BlkbackTuning {
                persistent_grants: false,
                ..all_on
            },
            "grant_maps",
            |s| s.grant_maps,
            true,
        ),
        (
            "indirect",
            BlkbackTuning {
                indirect_segments: false,
                ..all_on
            },
            "requests",
            |s| s.requests,
            false,
        ),
    ];
    switches.map(|(switch, tuning, counter, read, slower)| {
        let (off_ns, off) = run(tuning);
        assert!(
            read(&off) > read(&on),
            "{switch} off must raise {counter}: {} vs {}",
            read(&off),
            read(&on)
        );
        if slower {
            assert!(off_ns > on_ns, "{switch} off must cost elapsed time");
        }
        let mut snap = MetricsSnapshot::new(format!("ablation/blkback_{switch}"));
        snap.push_int("elapsed_on", "ns", on_ns);
        snap.push_int("elapsed_off", "ns", off_ns);
        snap.push_int(format!("{counter}_on"), "count", read(&on));
        snap.push_int(format!("{counter}_off"), "count", read(&off));
        snap
    })
}

/// Runs the netback queue-scaling workload: [`scenario::flow_burst`],
/// 8 messages on each of 64 flows guest->client, through a driver domain
/// with one vCPU per queue. Returns the finished system.
pub fn netback_queue_cycle(queues: u32) -> NetSystem {
    let mut sys = SystemConfig::new(BackendOs::Kite, 0)
        .queues(queues)
        .build_net();
    scenario::flow_burst(&mut sys, Side::Guest, 512, 1400, Nanos::from_micros(20));
    sys.run_to_quiescence();
    sys
}

/// One `mechanisms/netback_queues_<n>` ablation row: virtual elapsed
/// time and throughput of [`netback_queue_cycle`].
pub fn netback_queue_snapshot(queues: u32) -> MetricsSnapshot {
    let sys = netback_queue_cycle(queues);
    let elapsed = sys.now();
    let stats = sys.netback_stats();
    let mut snap = MetricsSnapshot::new(format!("mechanisms/netback_queues_{queues}"));
    snap.push_int("queues", "count", queues as u64);
    snap.push_int("tx_packets", "count", stats.tx_packets);
    snap.push_int("tx_bytes", "bytes", stats.tx_bytes);
    snap.push_int("elapsed", "ns", elapsed.as_nanos());
    snap.push_float(
        "throughput_mbps",
        "mbps",
        stats.tx_bytes as f64 * 8.0 / elapsed.as_secs_f64() / 1e6,
    );
    snap.push_int("drops", "count", sys.metrics.drops);
    snap
}

/// One `mechanisms/blkback_rings_<n>` ablation row: four independent
/// sequential write streams (64 × 8 KiB each, distinct disk regions)
/// interleaved round-robin through `n` blkback rings on an `n`-vCPU
/// driver domain.
///
/// The interleave is the point. Blkfront's ring picker is round-robin,
/// so with four rings each stream lands on its own ring — its own
/// driver vCPU and its own NVMe queue pair, whose sequential cursor
/// sees a pure sequential stream (requests merge into big runs, no
/// random penalties). With one ring every stream funnels through one
/// cursor and one vCPU: every command looks random to the device and
/// the per-request backend CPU work serializes. Two rings split the
/// CPU work but still interleave two streams per cursor. Hence the
/// `rings_4 > rings_2 > rings_1` throughput staircase asserted in
/// [`queue_scaling_snapshots`].
///
/// Pacing (2 µs) keeps rings and the blkfront page pool from
/// saturating, so the round-robin stream→ring affinity never slips.
///
/// The row runs a datacenter-class low-penalty flash profile (2 µs
/// random penalty, via [`SystemConfig::nvme_profile`]) rather than the
/// default consumer-drive profile: with a multi-millisecond penalty the
/// device swamps every CPU effect and one ring looks as good as two.
pub fn blkback_ring_snapshot(rings: u32) -> MetricsSnapshot {
    let sys = ring_streams_run(SystemConfig::new(BackendOs::Kite, 0).queues(rings));
    let elapsed = sys.now();
    let stats = sys.blkback_stats();
    let mut snap = MetricsSnapshot::new(format!("mechanisms/blkback_rings_{rings}"));
    snap.push_int("rings", "count", rings as u64);
    snap.push_int("requests", "count", stats.requests);
    snap.push_int("write_bytes", "bytes", stats.write_bytes);
    snap.push_int("elapsed", "ns", elapsed.as_nanos());
    snap.push_float(
        "throughput_mbps",
        "mbps",
        stats.write_bytes as f64 * 8.0 / elapsed.as_secs_f64() / 1e6,
    );
    snap.push_int("nvme_seq_hits", "count", sys.nvme.seq_hits());
    snap.push_int(
        "nvme_random_penalties",
        "count",
        sys.nvme.random_penalties(),
    );
    snap
}

/// Builds `cfg` as a storage system on the low-penalty flash profile and
/// runs the four interleaved 64 × 8 KiB write streams, 2 µs apart, to
/// quiescence.
fn ring_streams_run(cfg: SystemConfig) -> StorSystem {
    let flash = kite_devices::NvmeProfile::default().with_random_penalty(Nanos::from_micros(2));
    let mut sys = cfg.nvme_profile(flash).build_stor();
    scenario::interleaved_streams(&mut sys, 4, 64, 8 * 1024, Nanos::from_micros(2));
    sys.run_to_quiescence();
    sys
}

/// Drains `repro prof` profiles: 0.4–0.6 s of host time, 80–160 timer
/// samples on a 4 ms kernel tick.
const PROF_DRAINS: usize = 250;

/// Everything `repro prof` prints and exports: the per-phase self-time
/// table and collapsed stacks from a profiled 4-queue netback drain,
/// plus the deterministic time series sampled from the same run.
pub struct ProfRun {
    /// Top-down per-phase self-time table (wall clock; nondeterministic).
    pub table: String,
    /// Collapsed stacks, `kite;outer;inner self_ns` per line (wall
    /// clock; nondeterministic values, deterministic paths).
    pub collapsed: String,
    /// Sampler time series as CSV (virtual time; deterministic).
    pub series_csv: String,
}

/// Runs the profiled 4-queue netback drain: the
/// [`netback_queue_cycle`] workload stretched over ~16 virtual ms with
/// the profiler on, sampled every 500 µs of virtual time. The spans
/// cover scheduler push/pop, per-kind event dispatch, netback drains,
/// grant-copy batches and trace emission, so the collapsed output shows
/// the full dispatch → drain → copy nesting. One drain takes about one
/// profiler sampling interval of host time, so the profile covers 250
/// of them; the series is the first one's. Asserts that the table has a
/// Tx drain row and that the stacks show that nesting.
pub fn prof_run() -> ProfRun {
    const QUEUES: u32 = 4;
    // 64 flows × 32 bursts, one burst every 500 µs: long enough to
    // sample a real series while the four queues stay busy within each
    // burst.
    let every = Nanos::from_micros(500);
    let drain = || {
        let mut sys = SystemConfig::new(BackendOs::Kite, 0)
            .queues(QUEUES)
            .profiling(true)
            .build_net();
        scenario::flow_burst(&mut sys, Side::Guest, 2048, 1400, every);
        sys
    };
    kite_prof::reset();
    let mut sys = drain();
    let mut series = TimeSeriesSampler::new();
    for (name, kind) in [
        ("client_rx_bytes", Counter),
        ("guest_rx_bytes", Counter),
        ("drops", Counter),
        ("tx_packets", Counter),
        ("rx_dropped", Counter),
        ("health", Gauge),
    ] {
        series = series.with_column(name, kind);
    }
    for q in 0..QUEUES {
        series = series.with_column(&format!("rx_qdepth_q{q}"), Gauge);
    }
    sys.run_every(every, |sys, t| {
        let (m, nb) = (&sys.metrics, sys.netback_stats());
        let health = match sys.health() {
            None | Some(HealthState::Healthy) => 0,
            Some(HealthState::Suspect { .. }) => 1,
            Some(_) => 2,
        };
        let mut raw = vec![
            m.client_rx_bytes,
            m.guest_rx_bytes,
            m.drops,
            nb.tx_packets,
            nb.rx_dropped,
            health,
        ];
        // A backend that is down has no queues: they read 0, so the
        // width stays fixed.
        let depths = sys.rx_queue_depths();
        raw.extend((0..QUEUES as usize).map(|q| depths.get(q).map_or(0, |&d| d as u64)));
        series.record(t, &raw);
    });
    // A profiled build switches profiling on as it ends; each system is
    // dropped with it off, so the profile holds the drains alone.
    kite_prof::disable();
    drop(sys);
    for _ in 1..PROF_DRAINS {
        let mut sys = drain();
        sys.run_to_quiescence();
        kite_prof::disable();
    }
    let report = kite_prof::report();
    kite_prof::reset();
    let (table, collapsed) = (report.render_table(), report.render_collapsed());
    assert!(
        table.lines().any(|l| l.starts_with("netback_tx_drain ")),
        "prof table missing netback_tx_drain row:\n{table}"
    );
    let nested = "kite;dispatch_irq;netback_tx_drain;grant_copy ";
    assert!(
        collapsed.lines().any(|l| l
            .strip_prefix(nested)
            .is_some_and(|n| n.parse::<u64>().is_ok())),
        "collapsed stacks missing the nested drain path:\n{collapsed}"
    );
    ProfRun {
        table,
        collapsed,
        series_csv: series.to_csv(),
    }
}

/// The queue-scaling ablation rows (`netback_queues_{1,2,4,8}` and
/// `blkback_rings_{1,2,4}`). Asserts the headline scaling claim: four
/// netback queues on a 4-vCPU driver domain beat the single queue.
pub fn queue_scaling_snapshots() -> Vec<MetricsSnapshot> {
    let mut snaps: Vec<MetricsSnapshot> = [1u32, 2, 4, 8]
        .iter()
        .map(|&q| netback_queue_snapshot(q))
        .collect();
    assert!(
        tput_of(&snaps[2]) > tput_of(&snaps[0]),
        "4 queues must out-drain 1 queue"
    );
    let base = snaps.len();
    snaps.extend([1u32, 2, 4].iter().map(|&r| blkback_ring_snapshot(r)));
    let (r1, r2, r4) = (
        tput_of(&snaps[base]),
        tput_of(&snaps[base + 1]),
        tput_of(&snaps[base + 2]),
    );
    assert!(
        r4 > r2 && r2 > r1,
        "blkback rings must scale monotonically: rings_1={r1:.0} rings_2={r2:.0} rings_4={r4:.0} mbps"
    );
    snaps
}

/// Runs the segmentation-offload / wire-profile ablation workload:
/// guest→client bulk streaming of 64 flows through a driver domain with
/// one vCPU per queue, on an explicit [`LineRate`] wire. `msg_len`
/// picks the regime: super-frame-sized messages expose the per-packet
/// amortization GSO buys; MTU-sized ones keep the drain CPU-bound so
/// queue scaling shows. With `bidir` every flow also carries the
/// mirror-image client→guest stream, so each queue's vCPU pays both the
/// pusher and the soft_start path — the regime where the vCPU count,
/// not the wire, sets the slope.
pub fn netback_offload_cycle(
    gso: bool,
    wire: LineRate,
    queues: u32,
    msg_len: usize,
    msgs: u64,
    bidir: bool,
) -> NetSystem {
    let mut sys = SystemConfig::new(BackendOs::Kite, 0)
        .queues(queues)
        .gso(gso)
        .wire_profile(wire)
        .build_net();
    let gap = Nanos::from_micros(20);
    scenario::flow_burst(&mut sys, Side::Guest, msgs, msg_len, gap);
    if bidir {
        scenario::flow_burst(&mut sys, Side::Client, msgs, msg_len, gap);
    }
    sys.run_to_quiescence();
    sys
}

/// One offload-ablation row: goodput plus the chain counters that prove
/// (or disprove) that super-frames carried the bytes.
pub fn offload_snapshot(name: impl Into<String>, sys: &NetSystem) -> MetricsSnapshot {
    let elapsed = sys.now();
    let stats = sys.netback_stats();
    let mut snap = MetricsSnapshot::new(name);
    snap.push_int("queues", "count", sys.queue_count() as u64);
    snap.push_int("gso_negotiated", "bool", u64::from(sys.gso_negotiated()));
    snap.push_int("wire_gbps", "gbps", sys.wire().bps() / 1_000_000_000);
    snap.push_int("tx_packets", "count", stats.tx_packets);
    snap.push_int("tx_bytes", "bytes", stats.tx_bytes);
    snap.push_int("rx_bytes", "bytes", stats.rx_bytes);
    snap.push_int("gso_tx_frames", "count", stats.gso_tx_frames);
    snap.push_int("gso_tx_segs", "count", stats.gso_tx_segs);
    snap.push_int("lro_rx_frames", "count", stats.lro_rx_frames);
    snap.push_int("elapsed", "ns", elapsed.as_nanos());
    snap.push_float(
        "throughput_mbps",
        "mbps",
        stats.tx_bytes as f64 * 8.0 / elapsed.as_secs_f64() / 1e6,
    );
    snap.push_int("drops", "count", sys.metrics.drops);
    snap
}

fn tput_of(s: &MetricsSnapshot) -> f64 {
    match s.get("throughput_mbps").map(|m| m.value) {
        Some(MetricValue::Int(v)) => v as f64,
        Some(MetricValue::Float(v)) => v,
        None => 0.0,
    }
}

/// The segmentation-offload and wire-profile ablation rows
/// (`netback_gso_{off,on}`, `netback_wire_{10,25,100}g`,
/// `netback_wire_25g_queues_{4,8}`). Asserts the three headline claims:
///
/// * GSO at a single queue at least doubles goodput (per-packet costs
///   amortize over ~42-segment super-frames);
/// * bulk goodput climbs with the line rate, 10 < 25 < 100GbE;
/// * 8 netback queues on the 25GbE profile clear the 10GbE ceiling,
///   and beat 4 queues while doing it.
pub fn offload_snapshots() -> Vec<MetricsSnapshot> {
    // GSO pair: one queue, 100GbE so the wire is never the limiter, and
    // super-frame-sized messages so the off-run pays per-MTU-frame cost.
    let off = offload_snapshot(
        "mechanisms/netback_gso_off",
        &netback_offload_cycle(false, LineRate::Gbe100, 1, 48 * 1024, 256, false),
    );
    let on = offload_snapshot(
        "mechanisms/netback_gso_on",
        &netback_offload_cycle(true, LineRate::Gbe100, 1, 48 * 1024, 256, false),
    );
    assert!(
        tput_of(&on) >= 2.0 * tput_of(&off),
        "GSO must at least double single-queue goodput: off={:.0} on={:.0} mbps",
        tput_of(&off),
        tput_of(&on),
    );
    let mut snaps = vec![off, on];

    // Wire profiles: 8 queues, offload on, bulk — goodput rises with
    // the line rate because nothing else is the bottleneck.
    let wire = [
        (LineRate::Gbe10, "10g"),
        (LineRate::Gbe25, "25g"),
        (LineRate::Gbe100, "100g"),
    ]
    .map(|(rate, label)| {
        offload_snapshot(
            format!("mechanisms/netback_wire_{label}"),
            &netback_offload_cycle(true, rate, 8, 48 * 1024, 256, false),
        )
    });
    let [w10, w25, w100] = wire.each_ref().map(tput_of);
    assert!(
        w100 > w25 && w25 > w10,
        "goodput must climb with the line rate: 10g={w10:.0} 25g={w25:.0} 100g={w100:.0} mbps"
    );
    snaps.extend(wire);

    // 25GbE queue scaling: bidirectional MTU-sized frames with offload
    // off keep every queue vCPU busy on both the pusher and soft_start
    // paths — CPU-bound, so the vCPU count, not the wire, sets the
    // slope, and 8 queues clear what used to be the 10GbE ceiling.
    // "Every queue vCPU busy" is asserted, not assumed: one vCPU carrying
    // more than its share (a single receive vector behind every queue
    // read 1.72x / 2.48x the mean here) caps a multi-queue number long
    // before the mean utilisation shows it.
    let [q4, q8] = [4u32, 8].map(|queues| {
        let sys = netback_offload_cycle(false, LineRate::Gbe25, queues, 1400, 512, true);
        let mut snap =
            offload_snapshot(format!("mechanisms/netback_wire_25g_queues_{queues}"), &sys);
        let busy = sys.driver_cpu_busy_each();
        let max = busy.iter().max().expect("one vCPU per queue").as_nanos();
        let mean = busy.iter().map(|b| b.as_nanos()).sum::<u64>() / busy.len() as u64;
        snap.push_int("vcpu_busy_max_ns", "ns", max);
        snap.push_int("vcpu_busy_mean_ns", "ns", mean);
        assert!(
            max * 4 <= mean * 5,
            "{queues} queues: the busiest driver vCPU carries more than 1.25x the mean \
             ({max} vs {mean} ns): {busy:?}"
        );
        snap
    });
    assert!(
        tput_of(&q8) > tput_of(&q4),
        "8 queues must out-drain 4 on 25GbE: q4={:.0} q8={:.0} mbps",
        tput_of(&q4),
        tput_of(&q8),
    );
    assert!(
        tput_of(&q8) > 10_000.0,
        "8 queues on 25GbE must break the 10GbE ceiling: {:.0} mbps",
        tput_of(&q8),
    );
    snaps.push(q4);
    snaps.push(q8);
    snaps
}

/// The `latency/figure7_<os>` rows: mean and p50/p99/p99.9 (ms) of the
/// three Figure 7 workloads. Everything is virtual-time derived, so
/// the rows join `repro --json`'s byte-determinism surface.
pub fn latency_snapshots() -> Vec<MetricsSnapshot> {
    [BackendOs::Kite, BackendOs::Linux]
        .iter()
        .map(|&os| {
            let r = kite_workloads::latency::figure7(os);
            let mut snap =
                MetricsSnapshot::new(format!("latency/figure7_{}", os.name().to_lowercase()));
            for (wl, w) in [
                ("ping", r.ping),
                ("netperf", r.netperf),
                ("memtier", r.memtier),
            ] {
                snap.push_float(format!("{wl}_mean_ms"), "ms", w.mean_ms);
                snap.push_float(format!("{wl}_p50_ms"), "ms", w.p50_ms);
                snap.push_float(format!("{wl}_p99_ms"), "ms", w.p99_ms);
                snap.push_float(format!("{wl}_p999_ms"), "ms", w.p999_ms);
            }
            snap
        })
        .collect()
}

/// The `repro --json` result set: mechanisms + recovery (oracle and
/// watchdog detection) + queue scaling + ablation.
pub fn standard_snapshots() -> Vec<MetricsSnapshot> {
    let mut snaps = vec![grant_copy_snapshot()];
    snaps.extend(recovery_snapshots());
    snaps.extend(queue_scaling_snapshots());
    snaps.extend(offload_snapshots());
    snaps.extend(latency_snapshots());
    snaps.extend(ablation_snapshots());
    snaps
}

/// The `repro top` report: a deterministic watchdog scenario snapshotted
/// at fixed virtual times through a driver-domain crash — healthy
/// steady state, mid-detection (the monitor is suspicious), and after
/// recovery (replacement domain up, dead incarnation still listed).
///
/// Everything is virtual-time driven, so the same build produces
/// byte-identical output on every run; `scripts/verify.sh` diffs two
/// runs to prove it.
pub fn kitetop_report() -> String {
    // Trace every echo so the P99_US column has per-domain data by the
    // first snapshot; the pings all complete before the 2 s kill.
    let mut sys = SystemConfig::new(BackendOs::Kite, 0)
        .watchdog()
        .req_tracing(1)
        .build_net();
    for i in 0..16u16 {
        sys.ping_at(Nanos::from_millis(50 * (u64::from(i) + 1)), i);
    }
    recovery_stream(&mut sys);
    sys.fault_at(Nanos::from_secs(2), Fault::Kill);
    let mut out = String::new();
    // Probes run every 500 ms and declare failure after 3 misses: 3.2 s
    // lands mid-detection, between the second and third missed probe.
    for stop in [Nanos::from_secs(1), Nanos::from_millis(3_200)] {
        sys.run_until(stop);
        out.push_str(&render_top(&sys.top_snapshot()));
        out.push('\n');
    }
    sys.run_to_quiescence();
    out.push_str(&render_top(&sys.top_snapshot()));
    out
}

/// Virtual nanoseconds as fractional microseconds for report text.
fn lat_us(n: Nanos) -> f64 {
    n.as_nanos() as f64 / 1e3
}

/// Renders one scenario's per-stage latency table and its two worst
/// request waterfalls from the run's request tracer.
///
/// Stage durations telescope (each inter-stamp gap books to the later
/// stamp's stage), so a waterfall's `+delta` column sums exactly to the
/// request's end-to-end latency, and the per-stage histograms partition
/// the END_TO_END distribution with no gaps or double counting.
fn lat_section(name: &str, req: &kite_trace::ReqTracer) -> String {
    use std::fmt::Write as _;

    use kite_trace::{ReqRecord, Stage};
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== lat: {name} — {} sampled of {} injected, {} completed ==",
        req.sampled(),
        req.seen(),
        req.completed().count(),
    );
    let _ = writeln!(
        out,
        "{:<14} {:>7} {:>10} {:>10} {:>10}",
        "STAGE", "COUNT", "P50_US", "P99_US", "P999_US"
    );
    let row = |out: &mut String, label: &str, h: &kite_sim::Histogram| {
        let qs = h.quantiles(&[0.5, 0.99, 0.999]);
        let _ = writeln!(
            out,
            "{:<14} {:>7} {:>10.3} {:>10.3} {:>10.3}",
            label,
            h.count(),
            lat_us(qs[0]),
            lat_us(qs[1]),
            lat_us(qs[2]),
        );
    };
    for &stage in &Stage::ALL {
        if let Some(h) = req.stage_hist(stage) {
            if h.count() > 0 {
                row(&mut out, stage.name(), h);
            }
        }
    }
    if let Some(h) = req.e2e_hist() {
        row(&mut out, "END_TO_END", h);
    }
    // The two slowest sampled requests, stamp by stamp. Ties break by
    // id so the pick is deterministic.
    let mut worst: Vec<&ReqRecord> = req.completed().collect();
    worst.sort_by_key(|r| (std::cmp::Reverse(r.e2e()), r.id));
    for rec in worst.iter().take(2) {
        let _ = writeln!(
            out,
            "-- waterfall: req {} e2e {:.3} us --",
            rec.id,
            lat_us(rec.e2e()),
        );
        let t0 = rec.stamps.first().map_or(Nanos::ZERO, |s| s.at);
        let mut prev = t0;
        for s in &rec.stamps {
            let q = s.qid.map_or_else(|| "-".into(), |q| q.to_string());
            let _ = writeln!(
                out,
                "  +{:>9.3} us  {:<14} dom {:<2} q {:<2} (+{:.3} us)",
                lat_us(s.at.saturating_sub(t0)),
                s.stage.name(),
                s.dom,
                q,
                lat_us(s.at.saturating_sub(prev)),
            );
            prev = s.at;
        }
    }
    out
}

/// The `repro lat` report: per-stage latency waterfalls from end-to-end
/// request tracing on the two canonical scenarios — the network echo
/// path (256 pings through a Kite driver domain) and the 4-ring
/// storage path (the `blkback_rings_4` workload). Each scenario also
/// exports its flow-annotated Chrome trace and validates it (flow
/// begin/end pairing included) before reporting. Everything is
/// virtual-time derived: two runs print identical bytes.
pub fn lat_report() -> String {
    let mut out = String::new();

    // Network echo: every 4th of 256 pings carries a ReqId.
    let mut net = SystemConfig::new(BackendOs::Kite, 0)
        .tracing(1 << 16)
        .req_tracing(4)
        .build_net();
    for i in 0..256u16 {
        net.ping_at(Nanos::from_millis(1 + 2 * u64::from(i)), i);
    }
    net.run_to_quiescence();
    out.push_str(&lat_section("net_echo", &net.hv.req));
    let doc = net.hv.export_chrome_trace();
    let events = kite_trace::chrome::validate(&doc).expect("net echo trace must validate");
    out.push_str(&format!("flow validation: OK ({events} events)\n\n"));

    // 4-ring storage: the blkback_rings_4 workload (four interleaved
    // sequential write streams on a low-penalty flash profile), every
    // 3rd I/O sampled — 3 is coprime to the 4-way ring round-robin, so
    // the samples visit every ring instead of aliasing onto one.
    let stor = ring_streams_run(
        SystemConfig::new(BackendOs::Kite, 0)
            .queues(4)
            .tracing(1 << 16)
            .req_tracing(3),
    );
    out.push_str(&lat_section("storage_rings_4", &stor.hv.req));
    let doc = stor.hv.export_chrome_trace();
    let events = kite_trace::chrome::validate(&doc).expect("storage trace must validate");
    out.push_str(&format!("flow validation: OK ({events} events)\n"));
    out
}
