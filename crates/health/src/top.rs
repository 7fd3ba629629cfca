//! `kitetop`: the reproduction's `xentop`.
//!
//! A [`TopSnapshot`] is a frozen view of every domain at one virtual
//! instant — health verdict, heartbeat age, ring occupancy, grant and
//! event-channel footprint, and request/throughput rates. The system
//! layer assembles rows (it knows the backends); [`render`] turns them
//! into a fixed-width text table. Rendering is pure and the inputs are
//! virtual-time only, so the same config produces byte-identical output —
//! `scripts/verify.sh` diffs two `repro top` runs to prove it.

use kite_sim::Nanos;

/// One domain's line in the table.
#[derive(Clone, Debug, PartialEq)]
pub struct TopRow {
    /// Raw domain id.
    pub dom: u16,
    /// Domain name (dead incarnations keep their name).
    pub name: String,
    /// `"dom0"`, `"driver"`, or `"guest"`.
    pub kind: &'static str,
    /// Whether the domain is currently alive.
    pub alive: bool,
    /// Health verdict label (`"healthy"`, `"suspect(2)"`, `"failed"`),
    /// or `"-"` for unmonitored domains.
    pub health: String,
    /// Virtual time since the last observed heartbeat advance, for
    /// monitored domains.
    pub beat_age: Option<Nanos>,
    /// Unconsumed requests across the domain's backend rings.
    pub ring_pending: u64,
    /// Free-running request-consumer watermark across those rings.
    pub ring_consumed: u64,
    /// Grant entries this domain currently has live (granted out).
    pub grants: usize,
    /// Foreign pages this domain currently has mapped.
    pub maps: usize,
    /// Open event-channel ports.
    pub evtchns: usize,
    /// Requests (frames or IOs) served per second of virtual time.
    pub req_per_sec: f64,
    /// Payload throughput in megabytes per second of virtual time.
    pub mbytes_per_sec: f64,
    /// World->guest frames dropped on backend Rx-queue overflow (or
    /// because no Rx buffers were posted), summed across incarnations.
    pub rx_dropped: u64,
    /// Super-frames the backend moved as GSO/LRO descriptor chains
    /// (both directions), summed across incarnations; 0 for domains
    /// without a netback or when offload was never negotiated.
    pub gso_frames: u64,
    /// Per-queue Rx backlog depth on the live backend; empty for
    /// domains without a multi-queue-capable backend.
    pub rx_qdepth: Vec<u64>,
    /// 99th-percentile per-stage latency booked to this domain by
    /// request tracing, in microseconds; `None` when tracing is off or
    /// no sampled request has completed a stage here.
    pub p99_us: Option<f64>,
}

/// All rows at one virtual instant.
#[derive(Clone, Debug, PartialEq)]
pub struct TopSnapshot {
    /// The virtual time of the snapshot.
    pub at: Nanos,
    /// One row per domain ever created, sorted by domain id.
    pub rows: Vec<TopRow>,
}

fn fmt_age(age: Option<Nanos>) -> String {
    match age {
        None => "-".to_string(),
        Some(a) => format!("{:.0}ms", a.as_millis_f64()),
    }
}

fn fmt_p99(p99_us: Option<f64>) -> String {
    match p99_us {
        None => "-".to_string(),
        Some(v) => format!("{v:.1}"),
    }
}

fn fmt_qdepth(depths: &[u64]) -> String {
    if depths.is_empty() {
        return "-".to_string();
    }
    depths
        .iter()
        .map(|d| d.to_string())
        .collect::<Vec<_>>()
        .join("/")
}

/// Renders the snapshot as a deterministic fixed-width table.
pub fn render(snap: &TopSnapshot) -> String {
    let mut rows = snap.rows.clone();
    rows.sort_by_key(|r| r.dom);
    let mut out = format!(
        "kitetop — virtual time {:.6}s — {} domains\n",
        snap.at.as_secs_f64(),
        rows.len()
    );
    out.push_str(&format!(
        "{:>4} {:<14} {:<7} {:<6} {:<11} {:>8} {:>9} {:>9} {:>7} {:>5} {:>4} {:>9} {:>8} {:>7} {:>7} {:>9} {:<11}\n",
        "DOM",
        "NAME",
        "KIND",
        "STATE",
        "HEALTH",
        "BEAT_AGE",
        "RING_PEND",
        "RING_CONS",
        "GRANTS",
        "MAPS",
        "EVT",
        "REQ/S",
        "MB/S",
        "RX_DROP",
        "GSO_FRM",
        "P99_US",
        "RXQ_DEPTH",
    ));
    for r in &rows {
        out.push_str(&format!(
            "{:>4} {:<14} {:<7} {:<6} {:<11} {:>8} {:>9} {:>9} {:>7} {:>5} {:>4} {:>9.1} {:>8.2} {:>7} {:>7} {:>9} {:<11}\n",
            r.dom,
            r.name,
            r.kind,
            if r.alive { "run" } else { "dead" },
            r.health,
            fmt_age(r.beat_age),
            r.ring_pending,
            r.ring_consumed,
            r.grants,
            r.maps,
            r.evtchns,
            r.req_per_sec,
            r.mbytes_per_sec,
            r.rx_dropped,
            r.gso_frames,
            fmt_p99(r.p99_us),
            fmt_qdepth(&r.rx_qdepth),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot() -> TopSnapshot {
        TopSnapshot {
            at: Nanos::from_millis(12_500),
            rows: vec![
                TopRow {
                    dom: 2,
                    name: "netbackend".into(),
                    kind: "driver",
                    alive: true,
                    health: "suspect(2)".into(),
                    beat_age: Some(Nanos::from_millis(1_000)),
                    ring_pending: 3,
                    ring_consumed: 120,
                    grants: 0,
                    maps: 4,
                    evtchns: 3,
                    req_per_sec: 40.0,
                    mbytes_per_sec: 0.056,
                    rx_dropped: 7,
                    gso_frames: 12,
                    rx_qdepth: vec![3, 0, 1, 2],
                    p99_us: Some(184.75),
                },
                TopRow {
                    dom: 0,
                    name: "Domain-0".into(),
                    kind: "dom0",
                    alive: true,
                    health: "-".into(),
                    beat_age: None,
                    ring_pending: 0,
                    ring_consumed: 0,
                    grants: 0,
                    maps: 0,
                    evtchns: 0,
                    req_per_sec: 0.0,
                    mbytes_per_sec: 0.0,
                    rx_dropped: 0,
                    gso_frames: 0,
                    rx_qdepth: Vec::new(),
                    p99_us: None,
                },
            ],
        }
    }

    #[test]
    fn render_sorts_by_dom_and_is_deterministic() {
        let a = render(&snapshot());
        let b = render(&snapshot());
        assert_eq!(a, b, "pure function of the snapshot");
        let lines: Vec<&str> = a.lines().collect();
        assert!(lines[0].starts_with("kitetop — virtual time 12.500000s"));
        assert!(lines[1].contains("HEALTH"));
        assert!(lines[2].trim_start().starts_with('0'), "sorted: dom0 first");
        assert!(lines[3].trim_start().starts_with('2'));
        assert!(lines[3].contains("suspect(2)"));
        assert!(lines[3].contains("1000ms"));
        assert!(lines[1].contains("RX_DROP"));
        assert!(lines[1].contains("GSO_FRM"));
        assert!(lines[1].contains("P99_US"));
        assert!(lines[1].contains("RXQ_DEPTH"));
        assert!(lines[3].contains("3/0/1/2"), "per-queue Rx depths");
        assert!(lines[3].contains("184.8"), "p99 rendered in µs");
        assert!(lines[2].contains(" - "), "no backend: depth renders as -");
    }

    #[test]
    fn dead_domains_render_as_dead() {
        let mut s = snapshot();
        s.rows[0].alive = false;
        assert!(render(&s).contains(" dead "));
    }
}
