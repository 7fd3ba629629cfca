//! End-to-end request tracing: determinism, stage-model and flow-export
//! guarantees over the full simulated stack.
//!
//! Request tracing sits on every datapath (netfront rings, netback
//! drains, blkback rings, NVMe queue pairs, IRQ delivery), so these
//! tests drive whole systems — the ping echo path and the 4-ring
//! storage path — and assert the tracer's contract from the outside:
//!
//! * per-request stage durations telescope to the end-to-end latency
//!   exactly (no gaps, no double counting), with stamps in path order;
//! * same-seed runs are byte-identical, including across scheduler
//!   backends (heap vs timer wheel) and in the flow-annotated Chrome
//!   exports;
//! * the flow arrows validate (one begin, one end, monotonic steps per
//!   request id).

use kite_sim::{Nanos, SchedulerKind};
use kite_system::{scenario, BackendOs, NetSystem, StorSystem, SystemConfig};
use kite_trace::{chrome, ReqTracer, Stage};

/// Renders the tracer state as a deterministic text digest: header
/// counters, per-stage histogram counts and p50/p99 (exact bucket
/// values), and every completed record's full stamp trail.
fn digest(req: &ReqTracer) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "seen={} sampled={} completed={} live={}",
        req.seen(),
        req.sampled(),
        req.completed().count(),
        req.live_len(),
    );
    for &stage in &Stage::ALL {
        let Some(h) = req.stage_hist(stage) else {
            continue;
        };
        if h.count() == 0 {
            continue;
        }
        let qs = h.quantiles(&[0.5, 0.99]);
        let _ = writeln!(
            out,
            "{} count={} p50={} p99={}",
            stage.name(),
            h.count(),
            qs[0].as_nanos(),
            qs[1].as_nanos(),
        );
    }
    for rec in req.completed() {
        let _ = write!(out, "req {}:", rec.id);
        for s in &rec.stamps {
            let _ = write!(
                out,
                " {}@{}/d{}q{}",
                s.stage.name(),
                s.at.as_nanos(),
                s.dom,
                s.qid.map_or(-1, i64::from),
            );
        }
        let _ = writeln!(out, " e2e={}", rec.e2e().as_nanos());
    }
    out
}

/// The echo scenario: 64 pings, every other one sampled.
fn echo_run(kind: SchedulerKind) -> NetSystem {
    let mut sys = SystemConfig::new(BackendOs::Kite, 11)
        .scheduler(kind)
        .tracing(1 << 16)
        .req_tracing(2)
        .build_net();
    for i in 0..64u16 {
        sys.ping_at(Nanos::from_millis(1 + 2 * u64::from(i)), i);
    }
    sys.run_to_quiescence();
    sys
}

/// The 4-ring storage scenario: four interleaved sequential write
/// streams, every third I/O sampled (3 is coprime to the 4-way ring
/// round-robin, so the samples visit every ring).
fn storage_run(kind: SchedulerKind) -> StorSystem {
    let mut sys = SystemConfig::new(BackendOs::Kite, 7)
        .queues(4)
        .scheduler(kind)
        .tracing(1 << 16)
        .req_tracing(3)
        .build_stor();
    scenario::interleaved_streams(&mut sys, 4, 32, 8 * 1024, Nanos::from_micros(2));
    sys.run_to_quiescence();
    sys
}

/// Every completed record's stage durations must sum exactly to its
/// end-to-end latency, and the stamps must already be time-sorted.
fn assert_telescoping(req: &ReqTracer) {
    assert!(req.completed().count() > 0, "scenario completed no samples");
    for rec in req.completed() {
        assert!(rec.stamps.len() >= 2, "req {}: too few stamps", rec.id);
        let mut sum = Nanos::ZERO;
        for w in rec.stamps.windows(2) {
            assert!(
                w[0].at <= w[1].at,
                "req {}: stamps out of order: {:?}",
                rec.id,
                rec.stamps
            );
            sum += w[1].at - w[0].at;
        }
        assert_eq!(
            sum,
            rec.e2e(),
            "req {}: stage durations must telescope to e2e",
            rec.id
        );
        assert_eq!(rec.stamps.first().expect("nonempty").stage, Stage::Inject);
        assert_eq!(rec.stamps.last().expect("nonempty").stage, Stage::Complete);
    }
}

#[test]
fn echo_stages_telescope_and_follow_the_path() {
    let sys = echo_run(SchedulerKind::Wheel);
    let req = &sys.hv.req;
    assert_eq!(req.seen(), 64);
    assert_eq!(req.sampled(), 32);
    assert_eq!(req.completed().count(), 32);
    assert_telescoping(req);
    // The echo path visits the documented stage sequence.
    for rec in req.completed() {
        let stages: Vec<Stage> = rec.stamps.iter().map(|s| s.stage).collect();
        assert_eq!(
            stages,
            vec![
                Stage::Inject,
                Stage::NicRx,
                Stage::RxDeliver,
                Stage::RingSubmit,
                Stage::BackendFetch,
                Stage::GrantCopy,
                Stage::NicTx,
                Stage::Complete,
            ],
            "req {}",
            rec.id
        );
    }
    // The e2e histogram agrees with the client's RTT stats: tracing
    // measures the same round trip the workload sees.
    let h = req.e2e_hist().expect("enabled");
    assert_eq!(h.count(), 32);
    let p50 = h.quantile(0.5).as_nanos() as f64;
    let mean = sys.metrics.ping_rtts.mean();
    assert!(
        (p50 - mean).abs() / mean < 0.1,
        "traced e2e p50 {p50} vs client RTT mean {mean}"
    );
}

#[test]
fn storage_stages_telescope_and_ride_the_rings() {
    let sys = storage_run(SchedulerKind::Wheel);
    let req = &sys.hv.req;
    assert_eq!(req.seen(), 128);
    assert_eq!(req.sampled(), 43);
    assert_eq!(req.completed().count(), 43);
    assert_telescoping(req);
    for rec in req.completed() {
        for want in [
            Stage::RingSubmit,
            Stage::BackendFetch,
            Stage::NvmeSubmit,
            Stage::NvmeComplete,
            Stage::IrqDeliver,
        ] {
            assert!(
                rec.stamps.iter().any(|s| s.stage == want),
                "req {} missed {}",
                rec.id,
                want.name()
            );
        }
    }
    // With four rings, the sampled population spreads across queues.
    let queues: std::collections::BTreeSet<u16> = req
        .completed()
        .filter_map(|r| r.stamps.iter().find(|s| s.stage == Stage::BackendFetch))
        .filter_map(|s| s.qid)
        .collect();
    assert_eq!(queues.len(), 4, "samples must land on all 4 rings");
}

#[test]
fn digests_are_identical_across_runs_and_schedulers() {
    let heap = digest(&echo_run(SchedulerKind::Heap).hv.req);
    let wheel = digest(&echo_run(SchedulerKind::Wheel).hv.req);
    assert_eq!(heap, wheel, "echo: heap and wheel must agree byte for byte");
    let again = digest(&echo_run(SchedulerKind::Wheel).hv.req);
    assert_eq!(wheel, again, "echo: same seed must reproduce");

    let heap = digest(&storage_run(SchedulerKind::Heap).hv.req);
    let wheel = digest(&storage_run(SchedulerKind::Wheel).hv.req);
    assert_eq!(heap, wheel, "storage: heap and wheel must agree");
    let again = digest(&storage_run(SchedulerKind::Wheel).hv.req);
    assert_eq!(wheel, again, "storage: same seed must reproduce");
}

#[test]
fn flow_annotated_exports_validate_and_are_deterministic() {
    for (name, a, b) in [
        (
            "echo",
            echo_run(SchedulerKind::Heap).hv.export_chrome_trace(),
            echo_run(SchedulerKind::Wheel).hv.export_chrome_trace(),
        ),
        (
            "storage",
            storage_run(SchedulerKind::Heap).hv.export_chrome_trace(),
            storage_run(SchedulerKind::Wheel).hv.export_chrome_trace(),
        ),
    ] {
        assert_eq!(a, b, "{name}: flow-annotated exports must be identical");
        let events = chrome::validate(&a).expect("export must validate");
        assert!(events > 0, "{name}: empty export");
        // The flows really are in the document: one begin and one end
        // per completed sampled request.
        assert!(a.contains("\"ph\":\"s\""), "{name}: no flow begins");
        assert!(a.contains("\"bp\":\"e\""), "{name}: no flow ends");
    }
}

#[test]
fn untraced_runs_mint_nothing_and_export_without_flows() {
    let mut sys = SystemConfig::new(BackendOs::Kite, 11)
        .tracing(1 << 16)
        .build_net();
    for i in 0..8u16 {
        sys.ping_at(Nanos::from_millis(1 + 2 * u64::from(i)), i);
    }
    sys.run_to_quiescence();
    assert!(!sys.hv.req.is_enabled());
    assert_eq!(sys.hv.req.completed().count(), 0);
    let doc = sys.hv.export_chrome_trace();
    chrome::validate(&doc).expect("export must validate");
    assert!(!doc.contains("\"ph\":\"s\""), "no flows without tracing");
}
