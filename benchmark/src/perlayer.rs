//! Per-layer attribution from outside the program (`--trace 1`).
//!
//! Four sources, all reached through public items:
//! * traced repetitions — the same work with `profiling(true)` and
//!   `req_tracing(n)`: host self time per phase from `kite_prof::report()`
//!   and virtual stage means from `hv.req`'s completed records;
//! * the deterministic counters of the counted (untraced) repetition;
//! * the layer micro-drivers (`layers.rs`);
//! * the paper-fidelity rows, because the repo holds reference results
//!   (EXPERIMENTS.md) and a simulated number means little without its
//!   error against them.
//!
//! A layer is a crate; a metric is `<crate>.<metric>`. Rows that do not
//! apply to a workload read 0 — that is the prediction, and it is checked
//! in the README's acceptance table.

use std::time::{Duration, Instant};

use kite::prof::{Phase, ProfReport};
use kite::system::BackendOs;
use kite::workloads::{latency, nuttcp};
use kite::xen::ReqStage;

use crate::rep::{note, Rep};
use crate::workloads::Workload;
use crate::{m, Fastest, Measured, Metric};

/// What the traced repetitions measured.
pub struct Traced {
    pub reps: u64,
    pub fastest: Fastest,
    /// Untraced repetitions run alternately with the traced ones: the
    /// baseline the instruments' overhead is measured against. (The main
    /// window ended seconds earlier, possibly on another noise plateau.)
    pub untraced: Fastest,
    /// Harness `run` span summed over the traced repetitions.
    pub run_span: Duration,
    pub report: ProfReport,
    /// The last traced repetition (they are identical in virtual time).
    pub last: Rep,
}

/// Runs traced repetitions, alternating with untraced ones, for about
/// `budget` (at least two traced: the first warms the profiler's call
/// tree and is discarded).
pub fn traced(w: &Workload, seed: u64, budget: Duration, me: &mut Measured) -> Traced {
    let _warm = (w.rep)(seed, true);
    kite::prof::disable();
    kite::prof::reset();
    let start = Instant::now();
    let mut out = Traced {
        reps: 0,
        fastest: Fastest::default(),
        untraced: Fastest::default(),
        run_span: Duration::ZERO,
        report: ProfReport::default(),
        last: Rep::default(),
    };
    while out.reps == 0 || start.elapsed() < budget {
        let (r, wall) = crate::timed(|| (w.rep)(seed, false));
        me.absorb("untraced repetition", &r);
        out.untraced.absorb(&r, wall);
        // The profiler accumulates across the traced repetitions (it is
        // off during the untraced ones); one report at the end covers
        // them all.
        let (r, wall) = crate::timed(|| (w.rep)(seed, true));
        me.absorb("traced repetition", &r);
        out.reps += 1;
        out.fastest.absorb(&r, wall);
        out.run_span += r.spans.run;
        out.last = r;
    }
    out.report = kite::prof::report();
    kite::prof::disable();
    kite::prof::reset();
    if out.report.truncated > 0 {
        note(
            &mut me.errors,
            format!(
                "profiler dropped {} spans (stack overflow)",
                out.report.truncated
            ),
        );
    }
    out
}

/// |measured − paper| as a share of the paper's value, in percent.
fn err_pct(measured: f64, paper: f64) -> f64 {
    100.0 * (measured - paper).abs() / paper
}

/// The simulator's error against the paper's own figures, on the paper's
/// own scenarios (10GbE, single queue). The four benchmark workloads are
/// extrapolations beyond that hardware and have no reference.
pub fn fidelity(seed: u64) -> Vec<Metric> {
    let fig6 = nuttcp::run(BackendOs::Kite, &nuttcp::NuttcpParams::default(), seed);
    let ping = |os| latency::ping(os, 100, seed).summary_ms().mean_ms;
    let netperf = latency::netperf_rr(BackendOs::Kite, 2000, 1000, seed + 1)
        .summary_ms()
        .mean_ms;
    vec![
        m(
            "workloads.fig6_goodput_err_pct",
            err_pct(fig6.goodput_gbps, 7.0),
            "%",
        ),
        m(
            "workloads.fig7_ping_kite_err_pct",
            err_pct(ping(BackendOs::Kite), 0.31),
            "%",
        ),
        m(
            "workloads.fig7_ping_linux_err_pct",
            err_pct(ping(BackendOs::Linux), 0.51),
            "%",
        ),
        m(
            "workloads.fig7_netperf_kite_err_pct",
            err_pct(netperf, 0.10),
            "%",
        ),
    ]
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Host self time per operation of each profiled phase, with the layer
/// (crate) that owns it.
const PHASES: [(Phase, &str); 13] = [
    (Phase::SchedPush, "sim.sched_push_self_ns_per_op"),
    (Phase::SchedPop, "sim.sched_pop_self_ns_per_op"),
    (
        Phase::DispatchAppSend,
        "system.dispatch_app_send_self_ns_per_op",
    ),
    (Phase::DispatchWire, "system.dispatch_wire_self_ns_per_op"),
    (
        Phase::DispatchNicIrq,
        "system.dispatch_nic_irq_self_ns_per_op",
    ),
    (Phase::DispatchIrq, "system.dispatch_irq_self_ns_per_op"),
    (
        Phase::DispatchBlkSubmit,
        "system.dispatch_blk_submit_self_ns_per_op",
    ),
    (
        Phase::DispatchBlkComplete,
        "system.dispatch_blk_complete_self_ns_per_op",
    ),
    (Phase::BlkbackSubmit, "core.blkback_submit_self_ns_per_op"),
    (Phase::BlkbackReap, "core.blkback_reap_self_ns_per_op"),
    (
        Phase::NetbackTxDrain,
        "core.netback_tx_drain_self_ns_per_op",
    ),
    (
        Phase::NetbackRxDrain,
        "core.netback_rx_drain_self_ns_per_op",
    ),
    (Phase::GrantCopy, "xen.grant_copy_self_ns_per_op"),
];

/// Virtual stage means, with the layer each stage's time is spent in.
const STAGES: [(ReqStage, &str); 11] = [
    // Stamps are sorted by time when a record closes; where another
    // stamp carries an earlier time than `Inject`, the gap books here.
    (ReqStage::Inject, "system.stage_inject_mean_us"),
    (ReqStage::NicRx, "devices.stage_nic_rx_mean_us"),
    (ReqStage::RxDeliver, "system.stage_rx_deliver_mean_us"),
    (ReqStage::RingSubmit, "frontends.stage_ring_submit_mean_us"),
    (ReqStage::BackendFetch, "core.stage_backend_fetch_mean_us"),
    (ReqStage::GrantCopy, "xen.stage_grant_copy_mean_us"),
    (ReqStage::NvmeSubmit, "devices.stage_nvme_submit_mean_us"),
    (
        ReqStage::NvmeComplete,
        "devices.stage_nvme_complete_mean_us",
    ),
    (ReqStage::NicTx, "devices.stage_nic_tx_mean_us"),
    (ReqStage::IrqDeliver, "xen.stage_irq_deliver_mean_us"),
    (ReqStage::Complete, "system.stage_complete_mean_us"),
];

pub fn per_layer(w: &Workload, me: &Measured, tr: &Traced) -> Vec<Metric> {
    let ops = w.ops;
    let traced_ops = (tr.reps * ops) as f64;
    let mut out = Vec::new();

    // Host self time per phase → host_ops_per_s.
    let attributed: u64 = tr.report.rows.iter().map(|r| r.self_ns).sum();
    for (phase, name) in PHASES {
        let self_ns = tr
            .report
            .rows
            .iter()
            .find(|r| r.phase == phase)
            .map_or(0, |r| r.self_ns);
        out.push(m(name, self_ns as f64 / traced_ops, "ns"));
    }
    out.push(m(
        "system.run_unattributed_ns_per_op",
        (tr.run_span.as_nanos() as f64 - attributed as f64) / traced_ops,
        "ns",
    ));
    out.push(m(
        "prof.enabled_overhead_pct",
        (100.0 * (tr.fastest.total().as_secs_f64() / tr.untraced.total().as_secs_f64() - 1.0))
            .max(0.0),
        "%",
    ));

    // Virtual stage means → sim_lat_*, and sim_goodput on the closed loops.
    let stages = tr.last.stages.unwrap_or_default();
    for (stage, name) in STAGES {
        out.push(m(name, stages.us[stage as usize], "us"));
    }
    out.push(m("system.stage_e2e_mean_us", stages.e2e_us, "us"));

    // Deterministic counters of the counted repetition.
    let r = &me.counted;
    let c = |name| r.counter(name);
    let virt = r.virt_elapsed().0;
    let fastest = me.fastest.total().as_nanos() as f64;
    let median = crate::rep::quantile(&me.walls, 0.5).as_nanos() as f64;
    out.extend([
        m("system.events_per_op", ratio(r.events, ops), "count"),
        m("system.host_ns_per_event", fastest / r.events as f64, "ns"),
        m("system.sim_ns_per_host_ns", virt as f64 / fastest, "ratio"),
        m(
            "system.cold_build_ms",
            me.cold_build.as_secs_f64() * 1e3,
            "ms",
        ),
        m("system.rep_wall_p50_over_min", median / fastest, "ratio"),
        m(
            "system.drops_per_kop",
            1e3 * ratio(c("drops"), ops),
            "count",
        ),
        m(
            "sim.dd_cpu_busy_pct",
            100.0 * ratio(c("dd_busy_ns"), c("quiesced_at") * c("dd_vcpus")),
            "%",
        ),
        m("sim.dd_cpu_ns_per_op", ratio(c("dd_busy_ns"), ops), "ns"),
        m(
            "sim.guest_cpu_busy_pct",
            100.0 * ratio(c("guest_busy_ns"), c("quiesced_at") * 22),
            "%",
        ),
        m(
            "xen.evtchn_sends_per_op",
            ratio(c("evtchn_sends"), ops),
            "count",
        ),
        m(
            "xen.grant_copy_hypercalls_per_op",
            ratio(c("gnt_copy_calls"), ops),
            "count",
        ),
        m(
            "xen.grant_copy_ops_per_hypercall",
            ratio(c("gnt_copy_ops"), c("gnt_copy_calls")),
            "count",
        ),
        m(
            "xen.grant_copy_bytes_per_hypercall",
            ratio(c("gnt_copy_bytes"), c("gnt_copy_calls")),
            "bytes",
        ),
        m(
            "xen.grant_copy_virt_ns_per_op",
            ratio(c("gnt_copy_virt_ns"), ops),
            "ns",
        ),
        m("xen.grant_map_per_op", ratio(c("gnt_maps"), ops), "count"),
        m(
            "xen.hypercall_virt_ns_per_op",
            ratio(c("hypercall_virt_ns"), ops),
            "ns",
        ),
        m(
            "core.netback_rx_dropped_per_kop",
            1e3 * ratio(c("nb_rx_dropped"), ops),
            "count",
        ),
        m(
            "core.netback_tx_errors_per_kop",
            1e3 * ratio(c("nb_tx_errors"), ops),
            "count",
        ),
        m(
            "core.netback_gso_segs_per_frame",
            ratio(c("nb_gso_tx_segs"), c("nb_gso_tx_frames")),
            "count",
        ),
        m(
            "core.netback_lro_frames_per_op",
            ratio(c("nb_lro_rx_frames"), ops),
            "count",
        ),
        // Merge ratio: device operations per ring request.
        m(
            "core.blkback_device_ops_per_req",
            ratio(c("bb_device_ops"), c("bb_requests")),
            "ratio",
        ),
        // Useful outcomes over attempts: segment lookups served from the
        // persistent-grant cache rather than by a fresh map hypercall.
        m(
            "core.blkback_persistent_hit_ratio",
            ratio(
                c("bb_persistent_hits"),
                c("bb_persistent_hits") + c("bb_grant_maps"),
            ),
            "ratio",
        ),
        m(
            "core.blkback_errors_per_kop",
            1e3 * ratio(c("bb_errors"), ops),
            "count",
        ),
        m(
            "frontends.netfront_tx_ring_full_per_kop",
            1e3 * ratio(c("nf_tx_ring_full"), ops),
            "count",
        ),
        m(
            "frontends.blkfront_reqs_per_op",
            ratio(c("bb_requests"), ops),
            "count",
        ),
        m(
            "devices.nvme_seq_hit_ratio",
            ratio(
                c("nvme_seq_hits"),
                c("nvme_seq_hits") + c("nvme_random_penalties"),
            ),
            "ratio",
        ),
        m(
            "devices.nvme_cmds_per_op",
            ratio(c("nvme_cmds"), ops),
            "count",
        ),
    ]);
    out
}
