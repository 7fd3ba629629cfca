//! Time-series sampler invariants at the system level.
//!
//! The sampler is driven by *virtual* time — `SampleTick` events on the
//! ordinary scheduler — so its exports are part of the determinism
//! surface: same seed, same bytes, regardless of the scheduler backend
//! or how the host happens to schedule the run. Wall-clock profiling
//! (`kite-prof`) stays quarantined from these exports.

use kite::sim::{Nanos, SchedulerKind};
use kite::system::{addrs, scenario, BackendOs, IoKind, IoOp, Side, SystemConfig};

/// Echo traffic with sampling enabled; returns the sampler's CSV and
/// JSON exports.
fn sampled_echo(kind: SchedulerKind, capacity: usize) -> (String, String) {
    let mut sys = SystemConfig::new(BackendOs::Kite, 42)
        .scheduler(kind)
        .queues(4)
        .sampling(Nanos::from_micros(200), capacity)
        .build_net();
    sys.set_guest_app(scenario::echo_server(Nanos::from_micros(1)));
    scenario::flow_burst(&mut sys, Side::Client, 512, 1400, Nanos::from_micros(20));
    sys.run_to_quiescence();
    let sampler = sys.sampler().expect("sampling was enabled");
    (sampler.to_csv(), sampler.to_json())
}

#[test]
fn sampler_exports_are_byte_identical_across_scheduler_backends() {
    let (heap_csv, heap_json) = sampled_echo(SchedulerKind::Heap, 4096);
    let (wheel_csv, wheel_json) = sampled_echo(SchedulerKind::Wheel, 4096);
    assert!(!heap_csv.is_empty());
    assert_eq!(
        heap_csv, wheel_csv,
        "sampler CSV must not depend on the backend"
    );
    assert_eq!(
        heap_json, wheel_json,
        "sampler JSON must not depend on the backend"
    );
    // And same-seed reruns reproduce the bytes exactly.
    let (again_csv, again_json) = sampled_echo(SchedulerKind::Heap, 4096);
    assert_eq!(heap_csv, again_csv);
    assert_eq!(heap_json, again_json);
}

#[test]
fn sampler_ring_is_bounded_and_drops_oldest() {
    let mut sys = SystemConfig::new(BackendOs::Kite, 7)
        .sampling(Nanos::from_micros(50), 8)
        .build_net();
    // Spread traffic over many sampling intervals so the ring overflows.
    for i in 0..256u64 {
        sys.send_udp_at(
            Nanos::from_micros(10 + 40 * i),
            Side::Guest,
            addrs::CLIENT,
            9999,
            1200,
            vec![i as u8; 600],
        );
    }
    sys.run_to_quiescence();
    let sampler = sys.sampler().expect("sampling was enabled");
    assert_eq!(sampler.len(), 8, "ring must stay at capacity");
    assert!(sampler.evicted() > 0, "the long run must have overflowed");
    // Oldest retained sample starts where the evicted ones left off.
    let first = sampler.samples().next().expect("ring is full");
    assert_eq!(
        first.at.as_nanos(),
        (sampler.evicted() + 1) * Nanos::from_micros(50).as_nanos(),
    );
    // The eviction count is part of the JSON export.
    assert!(sampler
        .to_json()
        .contains(&format!("\"evicted\":{}", sampler.evicted())));
}

#[test]
fn storage_system_sampler_records_io_counters() {
    let mut sys = SystemConfig::new(BackendOs::Kite, 9)
        .sampling(Nanos::from_micros(100), 1024)
        .build_stor();
    for i in 0..64u64 {
        sys.submit_at(
            Nanos::from_micros(10 + 50 * i),
            IoOp {
                tag: i,
                kind: IoKind::Write {
                    sector: 8 * i,
                    data: vec![i as u8; 4096],
                },
            },
        );
    }
    sys.run_to_quiescence();
    let sampler = sys.sampler().expect("sampling was enabled");
    assert!(sampler.column_names().contains(&"ios"));
    assert!(sampler.column_names().contains(&"write_bytes"));
    assert!(!sampler.is_empty());
    // Counter columns record deltas: summing write_bytes over the whole
    // series recovers the total volume written.
    let wb = sampler
        .column_names()
        .iter()
        .position(|c| *c == "write_bytes")
        .expect("column exists");
    let total: u64 = sampler.samples().map(|s| s.values[wb]).sum();
    assert_eq!(total, 64 * 4096, "summed deltas must equal bytes written");
}
