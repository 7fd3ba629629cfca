//! End-to-end request tracing: determinism, stage-model and flow-export
//! guarantees over the full simulated stack.
//!
//! Request tracing sits on every datapath (netfront rings, netback
//! drains, blkback rings, NVMe queue pairs, IRQ delivery), so these
//! tests drive whole systems — the ping echo path and the 4-ring
//! storage path — and assert the tracer's contract from the outside:
//!
//! * per-request stage durations telescope to the end-to-end latency
//!   exactly (no gaps, no double counting), with stamps arriving in
//!   time order, on the echo path at 1 and 4 queues and the 4-ring
//!   storage path (split I/Os included), under both schedulers;
//! * a stamp is the time of the work it names: netback fetches a slot
//!   after its queue's interrupt handler and the pusher's wake, not when
//!   the interrupt lands;
//! * reruns are byte-identical, including across scheduler
//!   backends (heap vs timer wheel) and in the flow-annotated Chrome
//!   exports;
//! * the flow arrows validate (one begin, one end, monotonic steps per
//!   request id).

use std::collections::BTreeSet;

use kite_sim::{Nanos, SchedulerKind};
use kite_system::{scenario, BackendOs, NetSystem, StorSystem, SystemConfig, PUSHER_WAKE};
use kite_trace::{chrome, EventKind, ReqTracer, Stage};

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

/// The echo scenario on `queues` queues: 64 pings, every other one
/// sampled.
fn echo_run(kind: SchedulerKind, queues: u32) -> NetSystem {
    let mut sys = SystemConfig::new(BackendOs::Kite, 11)
        .queues(queues)
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
/// streams of `per_stream` `chunk`-byte I/Os, every third one sampled (3
/// is coprime to the 4-way ring round-robin, so the samples visit every
/// ring).
fn storage_run(kind: SchedulerKind, per_stream: u64, chunk: usize) -> StorSystem {
    let mut sys = SystemConfig::new(BackendOs::Kite, 7)
        .queues(4)
        .scheduler(kind)
        .tracing(1 << 16)
        .req_tracing(3)
        .build_stor();
    scenario::interleaved_streams(&mut sys, 4, per_stream, chunk, Nanos::from_micros(2));
    sys.run_to_quiescence();
    sys
}

/// Every completed record's stage durations must sum exactly to its
/// end-to-end latency, and its stamps must arrive in time order: the
/// tracer records them as they come and sorts nothing.
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

const SCHEDULERS: [SchedulerKind; 2] = [SchedulerKind::Wheel, SchedulerKind::Heap];

/// The storage runs' `(per_stream, chunk)`: 8 KiB writes, one ring
/// request each, and 384 KiB writes, each split into three 128 KiB ring
/// requests on three of the four rings. A split I/O is followed through
/// its first ring request only.
const STORAGE_INPUTS: [(u64, usize); 2] = [(32, 8 * 1024), (8, 384 * 1024)];

/// The storage stages a record carries between its ends, in order.
const STORAGE_STAGES: [Stage; 5] = [
    Stage::RingSubmit,
    Stage::BackendFetch,
    Stage::NvmeSubmit,
    Stage::NvmeComplete,
    Stage::IrqDeliver,
];

#[test]
fn echo_stages_telescope_and_follow_the_path() {
    for (kind, queues) in SCHEDULERS.into_iter().flat_map(|k| [(k, 1), (k, 4)]) {
        let sys = echo_run(kind, queues);
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
                "{kind:?} {queues}q req {}",
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
}

/// Netback stamps a slot's fetch at its drain's time, which starts when
/// the queue's interrupt handler has run and the pusher thread has woken:
/// never before the interrupt's arrival plus the handler's cost plus
/// [`PUSHER_WAKE`]. The event tracer books the drain's `RingDrain` at the
/// interrupt's arrival, then the frontend kick's `Notify`.
///
/// The wake is paid before the fetch, not after the copy: an echo's
/// drain ends when its grant copy returns, so the queue's vCPU is next
/// free, and the reply leaves for the NIC, one kick after the copy.
#[test]
fn echo_backend_fetch_follows_the_interrupt_handler() {
    let handler = BackendOs::Kite.profile().irq_overhead;
    for queues in [1, 4] {
        let sys = echo_run(SchedulerKind::Wheel, queues);
        let events: Vec<_> = sys.hv.trace.events().collect();
        // Every Tx drain: its index in the trace, interrupt arrival,
        // queue and whether it kicked the frontend.
        let drains: Vec<(usize, Nanos, u16, bool)> = events
            .iter()
            .enumerate()
            .filter_map(|(i, e)| match e.kind {
                EventKind::RingDrain {
                    queue: "netback_tx",
                    qid,
                    notify,
                    ..
                } => Some((i, e.at, qid, notify)),
                _ => None,
            })
            .collect();
        for rec in sys.hv.req.completed() {
            let stamp = |stage| rec.stamps.iter().find(|s| s.stage == stage);
            let fetch = stamp(Stage::BackendFetch).expect("echo fetches its reply");
            let qid = fetch.qid.expect("a fetch names its queue");
            // The queue's latest drain at or before the fetch fetched it.
            let &(i, irq, _, notify) = drains
                .iter()
                .filter(|&&(_, at, q, _)| q == qid && at <= fetch.at)
                .max_by_key(|&&(i, at, _, _)| (at, i))
                .expect("a drain fetched the slot");
            assert!(notify, "{queues}q req {}: the echo's drain kicked", rec.id);
            let kick = match events.get(i + 1).map(|e| &e.kind) {
                Some(&EventKind::Notify { cost, .. }) => cost,
                other => panic!(
                    "{queues}q req {}: the drain is followed by {other:?}, not its kick",
                    rec.id
                ),
            };
            assert!(
                fetch.at >= irq + handler + PUSHER_WAKE,
                "{queues}q req {}: fetched at {:?}, interrupt at {irq:?}, a {handler:?} handler \
                 and a {PUSHER_WAKE:?} wake",
                rec.id,
                fetch.at
            );
            let copy = stamp(Stage::GrantCopy).expect("echo copies its reply");
            let tx = stamp(Stage::NicTx).expect("echo transmits its reply");
            assert_eq!(
                tx.at - copy.at,
                kick,
                "{queues}q req {}: the drain booked time after its copy returned",
                rec.id
            );
        }
    }
}

#[test]
fn storage_stages_telescope_and_ride_the_rings() {
    for (kind, (per_stream, chunk)) in SCHEDULERS
        .into_iter()
        .flat_map(|k| STORAGE_INPUTS.map(|input| (k, input)))
    {
        let sys = storage_run(kind, per_stream, chunk);
        let ios = 4 * per_stream;
        assert_eq!(sys.metrics.ios, ios);
        let ring_reqs = sys.blkback_stats().requests;
        assert!(
            ring_reqs >= ios * chunk.div_ceil(128 * 1024) as u64,
            "{kind:?} {chunk} B: only {ring_reqs} ring requests"
        );
        let req = &sys.hv.req;
        assert_eq!(req.seen(), ios);
        assert_eq!(req.sampled(), ios.div_ceil(3));
        assert_eq!(req.completed().count() as u64, ios.div_ceil(3));
        assert_telescoping(req);
        // One stamp per storage stage, in path order, and every stamp
        // that names a ring names the first request's: a split I/O's
        // siblings stamp nothing.
        let mut want = vec![Stage::Inject];
        want.extend(STORAGE_STAGES);
        want.push(Stage::Complete);
        for rec in req.completed() {
            let stages: Vec<Stage> = rec.stamps.iter().map(|s| s.stage).collect();
            assert_eq!(stages, want, "{kind:?} {chunk} B req {}", rec.id);
            let rings: BTreeSet<u16> = rec.stamps.iter().filter_map(|s| s.qid).collect();
            assert_eq!(rings.len(), 1, "{kind:?} {chunk} B req {}", rec.id);
        }
        // With four rings, the sampled population spreads across queues.
        let queues: BTreeSet<u16> = req
            .completed()
            .filter_map(|r| r.stamps.iter().find(|s| s.stage == Stage::BackendFetch))
            .filter_map(|s| s.qid)
            .collect();
        assert_eq!(queues.len(), 4, "samples must land on all 4 rings");
    }
}

#[test]
fn digests_are_identical_across_runs_and_schedulers() {
    for queues in [1, 4] {
        let heap = digest(&echo_run(SchedulerKind::Heap, queues).hv.req);
        let wheel = digest(&echo_run(SchedulerKind::Wheel, queues).hv.req);
        assert_eq!(heap, wheel, "echo: heap and wheel must agree byte for byte");
        let again = digest(&echo_run(SchedulerKind::Wheel, queues).hv.req);
        assert_eq!(wheel, again, "echo: a rerun must reproduce");
    }

    for (per_stream, chunk) in STORAGE_INPUTS {
        let heap = digest(&storage_run(SchedulerKind::Heap, per_stream, chunk).hv.req);
        let wheel = digest(&storage_run(SchedulerKind::Wheel, per_stream, chunk).hv.req);
        assert_eq!(heap, wheel, "storage: heap and wheel must agree");
        let again = digest(&storage_run(SchedulerKind::Wheel, per_stream, chunk).hv.req);
        assert_eq!(wheel, again, "storage: a rerun must reproduce");
    }
}

#[test]
fn flow_annotated_exports_validate_and_are_deterministic() {
    for (name, a, b) in [
        (
            "echo",
            echo_run(SchedulerKind::Heap, 1).hv.export_chrome_trace(),
            echo_run(SchedulerKind::Wheel, 1).hv.export_chrome_trace(),
        ),
        (
            "storage",
            storage_run(SchedulerKind::Heap, 32, 8 * 1024)
                .hv
                .export_chrome_trace(),
            storage_run(SchedulerKind::Wheel, 32, 8 * 1024)
                .hv
                .export_chrome_trace(),
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
