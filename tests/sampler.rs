//! Time-series sampling at the system level.
//!
//! A series is read from outside the event loop: `Host::run_every` runs
//! the workload to quiescence and hands the system over at fixed
//! *virtual* instants, and the caller picks the columns off typed stats.
//! The exports are therefore part of the determinism surface: same
//! config, same bytes, regardless of the scheduler backend. Wall-clock profiling
//! (`kite-prof`) stays quarantined from these exports.

use kite::sim::{Nanos, SchedulerKind};
use kite::system::{
    scenario, BackendOs, HealthState, IoKind, IoOp, NetSystem, Side, StorSystem, SystemConfig,
};
use kite::trace::SampleKind::{Counter, Gauge};
use kite::trace::TimeSeriesSampler;

/// Runs a network system to quiescence, sampling every `every`: bytes
/// delivered at both ends, path drops, and each queue's Rx backlog.
fn net_series(sys: &mut NetSystem, every: Nanos) -> TimeSeriesSampler {
    let mut series = TimeSeriesSampler::new()
        .with_column("client_rx_bytes", Counter)
        .with_column("guest_rx_bytes", Counter)
        .with_column("drops", Counter);
    for q in 0..sys.queue_count() {
        series = series.with_column(&format!("rx_qdepth_q{q}"), Gauge);
    }
    sys.run_every(every, |sys, t| {
        let m = &sys.metrics;
        let mut raw = vec![m.client_rx_bytes, m.guest_rx_bytes, m.drops];
        raw.extend(sys.rx_queue_depths().into_iter().map(|d| d as u64));
        series.record(t, &raw);
    });
    series
}

/// Runs a storage system to quiescence, sampling every `every`: logical
/// I/Os and bytes, blkback requests and the watchdog verdict (0 healthy
/// or unwatched, 1 suspect, 2 failed).
fn stor_series(sys: &mut StorSystem, every: Nanos) -> TimeSeriesSampler {
    let mut series = TimeSeriesSampler::new();
    for (name, kind) in [
        ("ios", Counter),
        ("read_bytes", Counter),
        ("write_bytes", Counter),
        ("requests", Counter),
        ("health", Gauge),
    ] {
        series = series.with_column(name, kind);
    }
    sys.run_every(every, |sys, t| {
        let health = match sys.health() {
            None | Some(HealthState::Healthy) => 0,
            Some(HealthState::Suspect { .. }) => 1,
            Some(_) => 2,
        };
        let (m, bb) = (&sys.metrics, sys.blkback_stats());
        let raw = [m.ios, m.read_bytes, m.write_bytes, bb.requests, health];
        series.record(t, &raw);
    });
    series
}

/// Echo traffic, sampled; returns the series' CSV export.
fn sampled_echo(kind: SchedulerKind) -> String {
    let mut sys = SystemConfig::new(BackendOs::Kite, 42)
        .scheduler(kind)
        .queues(4)
        .build_net();
    sys.set_guest_app(scenario::echo_server(Nanos::from_micros(1)));
    scenario::flow_burst(&mut sys, Side::Client, 512, 1400, Nanos::from_micros(20));
    net_series(&mut sys, Nanos::from_micros(200)).to_csv()
}

#[test]
fn sampler_exports_are_byte_identical_across_scheduler_backends() {
    let heap_csv = sampled_echo(SchedulerKind::Heap);
    let wheel_csv = sampled_echo(SchedulerKind::Wheel);
    assert!(heap_csv.lines().count() > 1, "a header and samples");
    assert_eq!(
        heap_csv, wheel_csv,
        "sampler CSV must not depend on the backend"
    );
    // And reruns reproduce the bytes exactly.
    assert_eq!(heap_csv, sampled_echo(SchedulerKind::Heap));
}

#[test]
fn storage_system_sampler_records_io_counters() {
    let mut sys = SystemConfig::new(BackendOs::Kite, 9).build_stor();
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
    let every = Nanos::from_micros(100);
    let sampler = stor_series(&mut sys, every);
    let csv = sampler.to_csv();
    let mut lines = csv.lines();
    let header: Vec<&str> = lines.next().expect("header").split(',').collect();
    let rows: Vec<Vec<u64>> = lines
        .map(|l| {
            l.split(',')
                .map(|v| v.parse().expect("integer cell"))
                .collect()
        })
        .collect();
    assert!(!rows.is_empty());
    // Counter columns record deltas: summing write_bytes over the whole
    // series recovers the total volume written.
    let wb = header
        .iter()
        .position(|c| *c == "write_bytes")
        .expect("column exists");
    let total: u64 = rows.iter().map(|r| r[wb]).sum();
    assert_eq!(total, 64 * 4096, "summed deltas must equal bytes written");
    // One sample per interval, the last at the first multiple of the
    // interval at or after the final event.
    let every = every.as_nanos();
    let times: Vec<u64> = rows.iter().map(|r| r[0]).collect();
    let want: Vec<u64> = (1..=times.len() as u64).map(|k| k * every).collect();
    assert_eq!(times, want);
    let (last, end) = (want[want.len() - 1], sys.now().as_nanos());
    assert!(
        last >= end && last - every < end,
        "last sample {last} for a run ending at {end}"
    );
}
