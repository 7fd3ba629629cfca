//! Profiler quarantine and coverage at the system level.
//!
//! `kite-prof` measures wall-clock time, which is nondeterministic by
//! nature — so the one property the rest of the repo depends on is that
//! profiling *observes without perturbing*: a profiled run and an
//! unprofiled run of the same seed must produce byte-identical
//! virtual-time results. On top of that, the instrumentation has to
//! actually cover the hot paths the report claims to explain.

use kite::prof::{self, Phase};
use kite::sim::Nanos;
use kite::system::{addrs, BackendOs, NetSystem, Reply, Side, SystemConfig};

/// The echo scenario, built and loaded but not yet run: the client
/// fires `msgs` messages over 64 flows at the guest, which echoes each.
fn echo_sys(seed: u64, msgs: u64, profiled: bool) -> NetSystem {
    let mut sys = SystemConfig::new(BackendOs::Kite, seed)
        .queues(4)
        .profiling(profiled)
        .build_net();
    sys.set_guest_app(Box::new(|_, msg| {
        vec![Reply {
            dst_ip: msg.src_ip,
            dst_port: msg.src_port,
            src_port: msg.dst_port,
            payload: msg.payload.clone(),
            cost: Nanos::from_micros(1),
        }]
    }));
    for i in 0..msgs {
        sys.send_udp_at(
            Nanos::from_micros(10 + 20 * (i / 64)),
            Side::Client,
            addrs::GUEST,
            7777,
            1200 + (i % 64) as u16,
            vec![i as u8; 1400],
        );
    }
    sys
}

fn echo_run(profiled: bool) -> NetSystem {
    let mut sys = echo_sys(42, 256, profiled);
    sys.run_to_quiescence();
    sys
}

#[test]
fn profiled_run_covers_the_instrumented_hot_paths() {
    let sys = echo_run(true);
    let report = prof::report();
    prof::disable();
    prof::reset();
    drop(sys);
    let calls = |p: Phase| {
        report
            .rows
            .iter()
            .find(|r| r.phase == p)
            .map_or(0, |r| r.calls)
    };
    // Scheduler, dispatch, netback, grant-copy: each must have fired.
    for p in [
        Phase::SchedPush,
        Phase::SchedPop,
        Phase::DispatchWire,
        Phase::DispatchIrq,
        Phase::NetbackTxDrain,
        Phase::GrantCopy,
    ] {
        assert!(calls(p) > 0, "phase {} recorded no calls", p.name());
    }
    // Every push is eventually popped; pop() also spans the final
    // empty poll of run_to_quiescence, so pops can exceed pushes.
    assert!(calls(Phase::SchedPop) >= calls(Phase::SchedPush));
    assert_eq!(report.truncated, 0, "echo nesting fits the span stack");
}

#[test]
fn profiling_does_not_perturb_virtual_time() {
    let plain = echo_run(false);
    let profiled = echo_run(true);
    prof::disable();
    prof::reset();
    assert_eq!(plain.now(), profiled.now());
    assert_eq!(plain.events_processed(), profiled.events_processed());
    let render = |sys: &NetSystem| {
        kite::trace::metrics::render_json(&[sys.metrics_snapshot("prof/quarantine")])
    };
    assert_eq!(
        render(&plain),
        render(&profiled),
        "profiling must observe, never perturb"
    );
}

#[test]
fn collapsed_stacks_have_flamegraph_shape() {
    let sys = echo_run(true);
    let report = prof::report();
    prof::disable();
    prof::reset();
    drop(sys);
    let collapsed = report.render_collapsed();
    assert!(!collapsed.is_empty());
    for line in collapsed.lines() {
        let (path, count) = line.rsplit_once(' ').expect("`path count` shape");
        assert!(path.starts_with("kite"), "bad frame root in {line:?}");
        assert!(
            path.split(';').skip(1).all(|f| !f.is_empty()
                && f.chars()
                    .all(|c| c.is_ascii_lowercase() || c == '_' || c.is_ascii_digit())),
            "bad frame name in {line:?}"
        );
        assert!(count.parse::<u64>().is_ok(), "bad count in {line:?}");
    }
    // The signature nesting of the echo scenario: drains run inside IRQ
    // dispatch and grant copies inside the drain.
    assert!(
        collapsed
            .lines()
            .any(|l| l.starts_with("kite;dispatch_irq;netback_tx_drain;grant_copy ")),
        "expected nested path missing:\n{collapsed}"
    );
}

/// The enabled profiler must cost less than 10 % wall time on the echo
/// event loop — the sampled-duration design keeps it around 2–5 %.
/// Back-to-back disabled/enabled pairs, *median* paired overhead:
/// scheduling noise on a shared VM comes in multi-millisecond bursts
/// that can swallow several iterations, and the median discards those
/// outlier pairs without the systematic low bias a min would have.
/// Wall clock, so release only (`benchmark/` reports the number itself
/// as `prof.enabled_overhead_pct`).
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn enabled_profiler_overhead_under_budget() {
    // 4096 messages: one cycle (~15 ms) spans several OS scheduler
    // quanta, so per-cycle noise averages out instead of landing
    // entirely on one side of a pair. Construction is not timed.
    let cycle_ns = |profiled: bool| {
        let mut sys = echo_sys(7, 4096, profiled);
        let start = std::time::Instant::now();
        sys.run_to_quiescence();
        let wall = start.elapsed();
        prof::disable();
        prof::reset();
        wall.as_nanos() as f64
    };
    for warmup in [false, true] {
        cycle_ns(warmup);
    }
    let mut overhead: Vec<f64> = (0..15)
        .map(|_| {
            let (d, e) = (cycle_ns(false), cycle_ns(true));
            100.0 * (e - d) / d
        })
        .collect();
    overhead.sort_by(f64::total_cmp);
    let median = overhead[overhead.len() / 2];
    assert!(
        median < 10.0,
        "profiler overhead {median:.1}% breaches the 10% budget (pairs: {overhead:.1?})"
    );
}
