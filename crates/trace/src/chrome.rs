//! Chrome-trace (Perfetto-compatible) JSON export.
//!
//! The exporter writes the [JSON object format]: a `traceEvents` array
//! plus a top-level `droppedEvents` count. Each simulated domain gets
//! one track (pid 0, tid = domain id, named via `"M"` thread-name
//! metadata); cost-bearing events render as complete `"X"` slices with
//! a duration, everything else as instant `"i"` events. Timestamps are
//! virtual-time microseconds with nanosecond precision, printed as
//! fixed-point decimals so output is byte-stable across runs.
//!
//! When a [`ReqTracer`] is supplied to [`export`], every
//! completed sampled request additionally draws a Perfetto *flow* — a
//! begin/step/end chain of `"s"`/`"t"`/`"f"` events keyed by the
//! request id — whose points land on the domain (or per-queue) track
//! of each stage crossing, so the viewer renders an arrow following
//! the request across the stack.
//!
//! [JSON object format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
use std::fmt::Write as _;

use kite_sim::Nanos;

use crate::metrics::json_escape;
use crate::reqtrace::ReqTracer;
use crate::tracer::{EventKind, Tracer};

/// Virtual nanoseconds as Chrome-trace microseconds: `"{us}.{ns:03}"`.
fn ts(at: Nanos) -> String {
    format!("{}.{:03}", at.as_nanos() / 1_000, at.as_nanos() % 1_000)
}

#[allow(clippy::too_many_arguments)]
fn push_event(
    out: &mut String,
    first: &mut bool,
    name: &str,
    tid: u32,
    at: Nanos,
    dur: Option<Nanos>,
    args: &[(&str, String)],
) {
    if !*first {
        out.push(',');
    }
    *first = false;
    let _ = write!(
        out,
        "\n  {{\"name\":\"{}\",\"cat\":\"kite\",\"pid\":0,\"tid\":{},\"ts\":{}",
        json_escape(name),
        tid,
        ts(at),
    );
    match dur {
        Some(d) => {
            let _ = write!(out, ",\"ph\":\"X\",\"dur\":{}", ts(d));
        }
        None => out.push_str(",\"ph\":\"i\",\"s\":\"t\""),
    }
    out.push_str(",\"args\":{");
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{}", json_escape(k), v);
    }
    out.push_str("}}");
}

fn str_arg(s: &str) -> String {
    format!("\"{}\"", json_escape(s))
}

/// Base of the synthetic tid range for per-queue tracks, far above any
/// real domain id so queue tracks never collide with domain tracks.
const QUEUE_TID_BASE: u32 = 0x10000;

/// Queues per domain the synthetic tid space reserves.
const QUEUE_TID_STRIDE: u32 = 64;

/// The synthetic track id of queue `qid` of domain `dom`.
fn queue_tid(dom: u16, qid: u16) -> u32 {
    QUEUE_TID_BASE + dom as u32 * QUEUE_TID_STRIDE + (qid as u32 % QUEUE_TID_STRIDE)
}

/// Renders the tracer's events as a Chrome-trace JSON document.
///
/// `tracks` names the per-domain tracks as `(domain id, name)` pairs —
/// callers pass every domain ever created (including dead ones) so a
/// crashed driver domain's track stays labelled in the viewer.
///
/// Ring drains ([`EventKind::RingDrain`]) of a domain seen draining more
/// than queue 0 render on a synthetic per-queue track named
/// `<domain>/q<k>`, one per `(domain, queue)` pair seen in the trace, so
/// Perfetto shows each queue's drain cadence as its own row. A domain
/// whose only seen queue is 0 keeps its drains on the domain track: one
/// queue has no cadence to compare. This is the only place that decides
/// it; emitters always pass the queue index.
///
/// With `req`, one Perfetto flow per completed sampled request follows:
/// each [`ReqRecord`](crate::reqtrace::ReqRecord) with at least two
/// stamps renders as a `"s"` event at its first stamp, `"t"` steps at
/// the intermediate stamps and a `"f"` (binding `"bp":"e"`) at the
/// last, all sharing the request id as the flow `"id"` and named
/// `"req"` — Perfetto draws the arrow across the tracks the stamps
/// land on. A tracer with no completed request adds nothing. Records
/// the request tracer evicted count in `droppedEvents` with the events
/// the event tracer dropped.
pub fn export(tracer: &Tracer, tracks: &[(u16, String)], req: Option<&ReqTracer>) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for &(tid, ref name) in tracks {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "\n  {{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{},\"args\":{{\"name\":{}}}}}",
            tid,
            str_arg(&format!("{name} (dom {tid})")),
        );
    }
    // Per-queue tracks: pre-scan for (dom, qid) pairs so the metadata
    // block is complete and deterministically ordered.
    let mut queue_tracks: std::collections::BTreeSet<(u16, u16)> = Default::default();
    for e in tracer.events() {
        if let EventKind::RingDrain { qid, .. } = e.kind {
            queue_tracks.insert((e.dom, qid));
        }
    }
    // Flow points can land on per-queue tracks no drain touched; name
    // those too so the viewer never shows a bare tid.
    if let Some(rt) = req {
        for rec in rt.completed() {
            for s in &rec.stamps {
                if let Some(q) = s.qid {
                    queue_tracks.insert((s.dom, q));
                }
            }
        }
    }
    // The label rule: a domain whose only seen queue is 0 is a
    // single-queue domain and gets no queue tracks.
    let multi: std::collections::BTreeSet<u16> = queue_tracks
        .iter()
        .filter(|&&(_, q)| q != 0)
        .map(|&(dom, _)| dom)
        .collect();
    queue_tracks.retain(|(dom, _)| multi.contains(dom));
    let track_of = |dom: u16, qid: Option<u16>| match qid {
        Some(q) if queue_tracks.contains(&(dom, q)) => queue_tid(dom, q),
        _ => dom.into(),
    };
    for &(dom, q) in &queue_tracks {
        let base = tracks
            .iter()
            .find(|&&(tid, _)| tid == dom)
            .map(|(_, name)| name.as_str())
            .unwrap_or("domain");
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "\n  {{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{},\"args\":{{\"name\":{}}}}}",
            queue_tid(dom, q),
            str_arg(&format!("{base}/q{q} (dom {dom})")),
        );
    }
    for e in tracer.events() {
        match &e.kind {
            EventKind::Hypercall { op, bytes, cost } => push_event(
                &mut out,
                &mut first,
                op,
                e.dom.into(),
                e.at,
                Some(*cost),
                &[("bytes", bytes.to_string())],
            ),
            EventKind::GrantCopyBatch {
                ops,
                ok_ops,
                bytes,
                cost,
            } => push_event(
                &mut out,
                &mut first,
                "gnttab_copy",
                e.dom.into(),
                e.at,
                Some(*cost),
                &[
                    ("ops", ops.to_string()),
                    ("ok_ops", ok_ops.to_string()),
                    ("bytes", bytes.to_string()),
                ],
            ),
            EventKind::Notify {
                to_dom,
                port,
                outcome,
                cost,
            } => push_event(
                &mut out,
                &mut first,
                "notify",
                e.dom.into(),
                e.at,
                Some(*cost),
                &[
                    ("to_dom", to_dom.to_string()),
                    ("port", port.to_string()),
                    ("outcome", str_arg(outcome.name())),
                ],
            ),
            EventKind::NotifyDelayed { extra } => push_event(
                &mut out,
                &mut first,
                "notify_delayed",
                e.dom.into(),
                e.at,
                None,
                &[("extra_ns", extra.as_nanos().to_string())],
            ),
            EventKind::XenbusState { path, state } => push_event(
                &mut out,
                &mut first,
                &format!("xenbus:{state}"),
                e.dom.into(),
                e.at,
                None,
                &[("path", str_arg(path))],
            ),
            EventKind::Lifecycle { device, transition } => push_event(
                &mut out,
                &mut first,
                &format!("lifecycle:{transition}"),
                e.dom.into(),
                e.at,
                None,
                &[("device", str_arg(device))],
            ),
            EventKind::RingDrain {
                queue,
                qid,
                consumed,
                delivered,
                notify,
            } => push_event(
                &mut out,
                &mut first,
                queue,
                track_of(e.dom, Some(*qid)),
                e.at,
                None,
                &[
                    ("consumed", consumed.to_string()),
                    ("delivered", delivered.to_string()),
                    ("notify", notify.to_string()),
                ],
            ),
            EventKind::RingReject {
                queue,
                qid,
                reason,
                id,
            } => push_event(
                &mut out,
                &mut first,
                &format!("{queue}:reject"),
                track_of(e.dom, Some(*qid)),
                e.at,
                None,
                &[("reason", str_arg(reason)), ("id", id.to_string())],
            ),
            EventKind::Milestone { what } => {
                push_event(&mut out, &mut first, what, e.dom.into(), e.at, None, &[])
            }
            EventKind::HealthTransition {
                watched,
                state,
                cause,
                missed,
            } => push_event(
                &mut out,
                &mut first,
                &format!("health:{state}"),
                e.dom.into(),
                e.at,
                None,
                &[
                    ("watched", watched.to_string()),
                    ("cause", str_arg(cause)),
                    ("missed", missed.to_string()),
                ],
            ),
        }
    }
    // Flow arrows, one per completed sampled request, appended after
    // the slice/instant events (Perfetto orders by ts, not position).
    if let Some(rt) = req {
        for rec in rt.completed() {
            if rec.stamps.len() < 2 {
                continue;
            }
            let last = rec.stamps.len() - 1;
            for (i, s) in rec.stamps.iter().enumerate() {
                let ph = if i == 0 {
                    "s"
                } else if i == last {
                    "f"
                } else {
                    "t"
                };
                let tid = track_of(s.dom, s.qid);
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(
                    out,
                    "\n  {{\"name\":\"req\",\"cat\":\"kite\",\"ph\":\"{}\",\"pid\":0,\"tid\":{},\"ts\":{},\"id\":{}{},\"args\":{{\"stage\":{}}}}}",
                    ph,
                    tid,
                    ts(s.at),
                    rec.id,
                    if ph == "f" { ",\"bp\":\"e\"" } else { "" },
                    str_arg(s.stage.name()),
                );
            }
        }
    }
    let _ = write!(
        out,
        "\n],\"displayTimeUnit\":\"ns\",\"droppedEvents\":{}}}\n",
        tracer.dropped() + req.map_or(0, ReqTracer::dropped)
    );
    out
}

/// Validates a Chrome-trace document produced by [`export`]: it must
/// parse as JSON, every event needs
/// `pid`/`tid`/`ph` (and `ts` unless metadata), timestamps must be
/// monotonic non-decreasing per track, and `droppedEvents` must be
/// zero. Flow events (`"s"`/`"t"`/`"f"`) are exempt from the per-track
/// ordering (the exporter appends them after the slice events, and a
/// flow legitimately revisits a track); instead each flow `"id"` must
/// carry exactly one begin and one end with non-decreasing timestamps
/// in between. Returns the number of non-metadata events.
pub fn validate(doc: &str) -> Result<usize, String> {
    let value = crate::json::parse(doc)?;
    let events = value
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .ok_or("missing traceEvents array")?;
    let dropped = value
        .get("droppedEvents")
        .and_then(|v| v.as_f64())
        .ok_or("missing droppedEvents count")?;
    if dropped != 0.0 {
        return Err(format!("{dropped} events were dropped from the ring"));
    }
    let mut last_ts: std::collections::HashMap<u64, f64> = std::collections::HashMap::new();
    // id -> (begin count, end count, last ts seen on the flow)
    let mut flows: std::collections::HashMap<u64, (u32, u32, f64)> =
        std::collections::HashMap::new();
    let mut counted = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        let tid = ev
            .get("tid")
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("event {i}: missing tid"))?;
        ev.get("pid")
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("event {i}: missing pid"))?;
        if ph == "M" {
            continue;
        }
        counted += 1;
        let ts = ev
            .get("ts")
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("event {i}: missing ts"))?;
        if matches!(ph, "s" | "t" | "f") {
            let id = ev
                .get("id")
                .and_then(|v| v.as_f64())
                .ok_or_else(|| format!("event {i}: flow event missing id"))?;
            let fl = flows
                .entry(id.to_bits())
                .or_insert((0, 0, f64::NEG_INFINITY));
            if ts < fl.2 {
                return Err(format!(
                    "event {i}: flow {id} ts {ts} precedes {} — not monotonic",
                    fl.2
                ));
            }
            fl.2 = ts;
            match ph {
                "s" => fl.0 += 1,
                "f" => fl.1 += 1,
                _ => {}
            }
            continue;
        }
        let prev = last_ts.entry(tid.to_bits()).or_insert(f64::NEG_INFINITY);
        if ts < *prev {
            return Err(format!(
                "event {i}: ts {ts} precedes {prev} on track {tid} — not monotonic"
            ));
        }
        *prev = ts;
    }
    for (id, (begins, ends, _)) in &flows {
        if *begins != 1 || *ends != 1 {
            return Err(format!(
                "flow {}: {begins} begin / {ends} end events — must pair exactly",
                f64::from_bits(*id)
            ));
        }
    }
    Ok(counted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::NotifyOutcome;

    fn sample_tracer() -> Tracer {
        let mut t = Tracer::enabled(64);
        t.set_now(Nanos::from_micros(3));
        t.emit_with(2, || EventKind::GrantCopyBatch {
            ops: 20,
            ok_ops: 20,
            bytes: 20 * kite_net::ether::ETH_FRAME_MAX as u64,
            cost: Nanos::from_nanos(4_500),
        });
        t.emit_with(2, || EventKind::Notify {
            to_dom: 3,
            port: 4,
            outcome: NotifyOutcome::Delivered,
            cost: Nanos::from_nanos(700),
        });
        t.set_now(Nanos::from_micros(9));
        t.emit_with(0, || EventKind::XenbusState {
            path: "/local/domain/2/backend/vif/3/0/state".into(),
            state: "closed",
        });
        t.emit_with(3, || EventKind::Milestone { what: "first_byte" });
        t
    }

    fn tracks() -> Vec<(u16, String)> {
        vec![
            (0, "Domain-0".into()),
            (2, "netbackend".into()),
            (3, "guest".into()),
        ]
    }

    #[test]
    fn export_validates_and_counts_events() {
        let t = sample_tracer();
        let doc = export(&t, &tracks(), None);
        assert_eq!(validate(&doc), Ok(4));
        // Virtual microsecond fixed-point: 3 µs → "3.000".
        assert!(doc.contains("\"ts\":3.000"), "{doc}");
        assert!(doc.contains("\"dur\":4.500"), "{doc}");
        assert!(doc.contains("netbackend (dom 2)"), "{doc}");
    }

    #[test]
    fn export_is_byte_identical_for_identical_traces() {
        let a = export(&sample_tracer(), &tracks(), None);
        let b = export(&sample_tracer(), &tracks(), None);
        assert_eq!(a, b);
    }

    #[test]
    fn multi_queue_drains_get_their_own_tracks() {
        let mut t = Tracer::enabled(64);
        t.set_now(Nanos::from_micros(2));
        for q in 0..2u16 {
            t.emit_with(2, || EventKind::RingDrain {
                queue: "netback_tx",
                qid: q,
                consumed: 8,
                delivered: 8,
                notify: true,
            });
        }
        t.emit_with(4, || EventKind::RingDrain {
            queue: "blkback_req",
            qid: 0,
            consumed: 1,
            delivered: 1,
            notify: false,
        });
        let doc = export(
            &t,
            &[(2, "netbackend".into()), (4, "blkbackend".into())],
            None,
        );
        assert_eq!(validate(&doc), Ok(3));
        // Each queue of the two-queue domain gets a named synthetic
        // track; the domain that only ever drained queue 0 keeps the
        // drain on its domain track.
        assert!(doc.contains("netbackend/q0 (dom 2)"), "{doc}");
        assert!(doc.contains("netbackend/q1 (dom 2)"), "{doc}");
        assert!(!doc.contains("blkbackend/q"), "{doc}");
        assert!(doc.contains("\"name\":\"blkback_req\",\"cat\":\"kite\",\"pid\":0,\"tid\":4,"));
        let q0 = queue_tid(2, 0);
        let q1 = queue_tid(2, 1);
        assert!(doc.contains(&format!("\"tid\":{q0},")), "{doc}");
        assert!(doc.contains(&format!("\"tid\":{q1},")), "{doc}");
        assert_ne!(q0, q1);
    }

    /// The exporter is the one place that names events: one event of
    /// every [`EventKind`] variant renders under its name, on its
    /// domain's track (a ring event of a multi-queue domain on its
    /// queue's), with its payload as args.
    #[test]
    fn every_event_kind_renders_its_name_track_and_args() {
        let mut t = Tracer::enabled(64);
        t.set_now(Nanos::from_micros(1));
        t.emit_with(0, || EventKind::Hypercall {
            op: "gnttab_map",
            bytes: 4096,
            cost: Nanos::from_nanos(1_250),
        });
        t.emit_with(2, || EventKind::GrantCopyBatch {
            ops: 2,
            ok_ops: 1,
            bytes: 1514,
            cost: Nanos::from_nanos(900),
        });
        t.emit_with(2, || EventKind::Notify {
            to_dom: 3,
            port: 5,
            outcome: NotifyOutcome::Coalesced,
            cost: Nanos::from_nanos(700),
        });
        t.emit_with(3, || EventKind::NotifyDelayed {
            extra: Nanos::from_nanos(2_000),
        });
        t.emit_with(0, || EventKind::XenbusState {
            path: "/local/domain/3/device/vif/0/state".into(),
            state: "connected",
        });
        t.emit_with(2, || EventKind::Lifecycle {
            device: "vif/3/0".into(),
            transition: "retarget",
        });
        t.emit_with(2, || EventKind::RingDrain {
            queue: "netback_tx",
            qid: 1,
            consumed: 4,
            delivered: 3,
            notify: true,
        });
        t.emit_with(2, || EventKind::RingReject {
            queue: "netback_tx",
            qid: 1,
            reason: "bad_id",
            id: 9,
        });
        t.emit_with(0, || EventKind::Milestone { what: "detect" });
        t.emit_with(0, || EventKind::HealthTransition {
            watched: 2,
            state: "suspect",
            cause: "stall",
            missed: 1,
        });
        let doc = export(&t, &tracks(), None);
        assert_eq!(validate(&doc), Ok(10));
        let q1 = queue_tid(2, 1);
        let head = |name: &str, tid: u32| {
            format!("{{\"name\":\"{name}\",\"cat\":\"kite\",\"pid\":0,\"tid\":{tid},\"ts\":1.000")
        };
        let instant = ",\"ph\":\"i\",\"s\":\"t\"";
        let want = [
            format!(
                "{},\"ph\":\"X\",\"dur\":1.250,\"args\":{{\"bytes\":4096}}}}",
                head("gnttab_map", 0)
            ),
            format!(
                "{},\"ph\":\"X\",\"dur\":0.900,\"args\":{{\"ops\":2,\"ok_ops\":1,\"bytes\":1514}}}}",
                head("gnttab_copy", 2)
            ),
            format!(
                "{},\"ph\":\"X\",\"dur\":0.700,\"args\":{{\"to_dom\":3,\"port\":5,\"outcome\":\"coalesced\"}}}}",
                head("notify", 2)
            ),
            format!(
                "{}{instant},\"args\":{{\"extra_ns\":2000}}}}",
                head("notify_delayed", 3)
            ),
            format!(
                "{}{instant},\"args\":{{\"path\":\"/local/domain/3/device/vif/0/state\"}}}}",
                head("xenbus:connected", 0)
            ),
            format!(
                "{}{instant},\"args\":{{\"device\":\"vif/3/0\"}}}}",
                head("lifecycle:retarget", 2)
            ),
            format!(
                "{}{instant},\"args\":{{\"consumed\":4,\"delivered\":3,\"notify\":true}}}}",
                head("netback_tx", q1)
            ),
            format!(
                "{}{instant},\"args\":{{\"reason\":\"bad_id\",\"id\":9}}}}",
                head("netback_tx:reject", q1)
            ),
            format!("{}{instant},\"args\":{{}}}}", head("detect", 0)),
            format!(
                "{}{instant},\"args\":{{\"watched\":2,\"cause\":\"stall\",\"missed\":1}}}}",
                head("health:suspect", 0)
            ),
        ];
        let got: Vec<&str> = doc
            .lines()
            .map(|l| l.trim().trim_end_matches(','))
            .filter(|l| l.starts_with("{\"name\"") && !l.contains("\"ph\":\"M\""))
            .collect();
        assert_eq!(got, want, "{doc}");
        assert!(doc.contains("netbackend/q1 (dom 2)"), "{doc}");
    }

    #[test]
    fn validate_flags_non_monotonic_tracks_and_drops() {
        let mut t = Tracer::enabled(64);
        t.set_now(Nanos::from_micros(5));
        t.emit_with(1, || EventKind::Milestone { what: "late" });
        t.set_now(Nanos::from_micros(1));
        t.emit_with(1, || EventKind::Milestone { what: "early" });
        let doc = export(&t, &[], None);
        assert!(validate(&doc).unwrap_err().contains("not monotonic"));

        let mut t = Tracer::enabled(1);
        t.emit_with(0, || EventKind::Milestone { what: "a" });
        t.emit_with(0, || EventKind::Milestone { what: "b" });
        let doc = export(&t, &[], None);
        assert!(validate(&doc).unwrap_err().contains("dropped"));

        // A request record evicted from a full store is a cut flow.
        let mut rt = ReqTracer::default();
        rt.enable(1, 1);
        for i in 0..2 {
            let req = rt.admit(0, Nanos::from_micros(i)).expect("sampled");
            rt.finish_at(req, 0, Nanos::from_micros(i + 1));
        }
        let doc = export(&Tracer::enabled(8), &[], Some(&rt));
        assert!(validate(&doc).unwrap_err().contains("dropped"));
    }

    fn sample_reqtracer() -> ReqTracer {
        use crate::reqtrace::Stage;
        let mut rt = ReqTracer::default();
        rt.enable(1, 16);
        let req = rt.admit(0, Nanos::from_micros(1)).expect("sampled");
        rt.stamp_at(req, Stage::RingSubmit, 3, None, Nanos::from_micros(4));
        rt.stamp_at(req, Stage::BackendFetch, 2, Some(1), Nanos::from_micros(6));
        rt.finish_at(req, 0, Nanos::from_micros(9));
        rt
    }

    #[test]
    fn flow_export_validates_and_pairs() {
        let t = sample_tracer();
        let rt = sample_reqtracer();
        let doc = export(&t, &tracks(), Some(&rt));
        // 4 tracer events + 4 flow points (s, 2×t, f).
        assert_eq!(validate(&doc), Ok(8));
        assert!(doc.contains("\"ph\":\"s\""), "{doc}");
        assert!(doc.contains("\"ph\":\"f\",\"pid\":0"), "{doc}");
        assert!(doc.contains("\"bp\":\"e\""), "{doc}");
        assert!(doc.contains("\"stage\":\"ring_submit\""), "{doc}");
        // The Some-qid stamp lands on its queue track, which gets named.
        let qt = queue_tid(2, 1);
        assert!(doc.contains(&format!("\"tid\":{qt},")), "{doc}");
        assert!(doc.contains("netbackend/q1 (dom 2)"), "{doc}");
    }

    #[test]
    fn export_without_completed_requests_draws_no_flows() {
        let t = sample_tracer();
        let plain = export(&t, &tracks(), None);
        assert!(!plain.contains("\"ph\":\"s\""), "{plain}");
        // An enabled tracer with no completed requests adds nothing.
        let mut rt = ReqTracer::default();
        rt.enable(1, 16);
        assert_eq!(plain, export(&t, &tracks(), Some(&rt)));
    }

    #[test]
    fn flow_export_is_byte_identical_for_identical_inputs() {
        let a = export(&sample_tracer(), &tracks(), Some(&sample_reqtracer()));
        let b = export(&sample_tracer(), &tracks(), Some(&sample_reqtracer()));
        assert_eq!(a, b);
    }

    #[test]
    fn validate_flags_unpaired_and_reordered_flows() {
        // A begin with no end.
        let doc = r#"{"traceEvents":[
  {"name":"req","cat":"kite","ph":"s","pid":0,"tid":1,"ts":1.000,"id":7,"args":{}}
],"displayTimeUnit":"ns","droppedEvents":0}"#;
        assert!(validate(doc).unwrap_err().contains("must pair"));
        // A flow whose steps go backwards in time.
        let doc = r#"{"traceEvents":[
  {"name":"req","cat":"kite","ph":"s","pid":0,"tid":1,"ts":5.000,"id":7,"args":{}},
  {"name":"req","cat":"kite","ph":"f","bp":"e","pid":0,"tid":1,"ts":1.000,"id":7,"args":{}}
],"displayTimeUnit":"ns","droppedEvents":0}"#;
        assert!(validate(doc).unwrap_err().contains("not monotonic"));
    }
}
