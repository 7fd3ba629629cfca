//! Lifetime counters across a driver-domain restart: the generated
//! `merge` carries every backend counter from the dead incarnation into
//! the totals, and the metrics snapshot — the one published row list —
//! exports those totals.

use kite::sim::Nanos;
use kite::system::{scenario, BackendOs, Fault, IoKind, IoOp, StorSystem, SystemConfig};
use kite::trace::MetricValue;

/// The recovery cycle `repro --json` runs for `mechanisms/recovery_kite`:
/// 120 messages at 4/s, the driver domain killed at 2 s. Eight messages
/// cross the first backend incarnation and 112 the second, so every
/// lifetime counter is a sum over the restart — and each must still
/// equal the row shipped in `BENCH_mechanisms.json`.
#[test]
fn counters_survive_a_restart_as_base_plus_live() {
    let mut sys = SystemConfig::new(BackendOs::Kite, 11).build_net();
    scenario::steady_stream(&mut sys, 120, 1, 1400, Nanos::from_millis(250));
    sys.fault_at(Nanos::from_secs(2), Fault::Kill);
    sys.run_until(Nanos::from_millis(1_999));
    let before = sys.netback_stats();
    assert!(before.tx_packets > 0 && before.copy.ops > 0);
    sys.run_to_quiescence();
    assert_eq!(sys.recovery.reconnects, 1);
    let snap = sys.metrics_snapshot("mechanisms/recovery_kite");

    let shipped = kite::trace::json::parse(include_str!("../BENCH_mechanisms.json")).unwrap();
    let mut checked = 0;
    for row in shipped.as_array().unwrap() {
        if row.get("scenario").and_then(|s| s.as_str()) != Some(&snap.scenario) {
            continue;
        }
        let name = row.get("metric").and_then(|m| m.as_str()).unwrap();
        let want = row.get("value").and_then(|v| v.as_f64()).unwrap();
        let got = match snap.get(name).map(|m| m.value) {
            Some(MetricValue::Int(v)) => v as f64,
            Some(MetricValue::Float(v)) => v,
            None => panic!("shipped row `{name}` is no longer exported"),
        };
        assert!((got - want).abs() < 1e-3, "{name}: {got} != shipped {want}");
        checked += 1;
    }
    assert_eq!(checked, snap.metrics.len(), "every exported row is shipped");
    let tx = snap.get("tx_packets").map(|m| m.value);
    assert_eq!(tx, Some(MetricValue::Int(120)), "base + live");
}

/// The same on the storage path, where no shipped row pins the numbers:
/// what the first blkback incarnation counted before the kill is still
/// in the totals afterwards, next to what its replacement served.
#[test]
fn blkback_counters_survive_a_restart() {
    let mut sys = StorSystem::new(BackendOs::Kite, 42);
    const WRITES: u64 = 20;
    for i in 0..WRITES {
        sys.submit_at(
            Nanos::from_millis(1 + 300 * i),
            IoOp {
                tag: i,
                kind: IoKind::Write {
                    sector: 128 * i,
                    data: vec![i as u8; 16 * 1024],
                },
            },
        );
    }
    let kill = Nanos::from_millis(1 + 300 * 12 + 1);
    sys.fault_at(kill, Fault::Kill);
    sys.run_until(kill - Nanos::from_micros(1));
    let (before, done_before) = (sys.blkback_stats(), sys.metrics.ios);
    assert!(before.requests >= 12 && before.write_bytes > 0);
    sys.run_to_quiescence();
    assert_eq!((sys.recovery.reconnects, sys.metrics.ios), (1, WRITES));
    let after = sys.blkback_stats();
    let served_after = WRITES - done_before;
    assert!(after.requests >= before.requests + served_after);
    assert!(after.write_bytes >= before.write_bytes + served_after * 16 * 1024);
    assert!(after.grant_maps + after.persistent_hits > before.grant_maps + before.persistent_hits);
    let snap = sys.metrics_snapshot("stor");
    let row = |name: &str| snap.get(name).map(|m| m.value);
    assert_eq!(row("requests"), Some(MetricValue::Int(after.requests)));
    assert_eq!(row("copy_ops"), Some(MetricValue::Int(after.copy.ops)));
}
