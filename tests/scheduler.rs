//! Scheduler-backend equivalence: the timer wheel must be **byte
//! identical** to the binary-heap oracle — same config, same backend API,
//! same Chrome trace export and same rendered metrics, across
//! representative full-system runs. Determinism is the repo's
//! foundational invariant, so swapping the hot-path data structure is
//! only admissible with this proof.

use kite::sim::{EventQueue, Nanos, Pcg, Scheduler, SchedulerKind, TimerWheel};
use kite::system::{addrs, scenario, BackendOs, Fault, Side, SystemConfig};

/// Full observable state of a finished net run: virtual end time, event
/// count, the Chrome trace bytes and the rendered metrics JSON.
type RunDigest = (u64, u64, String, String);

fn digest_of(sys: &kite::system::NetSystem, scenario: &str) -> RunDigest {
    let snap = sys.metrics_snapshot(scenario);
    (
        sys.now().as_nanos(),
        sys.events_processed(),
        sys.hv.export_chrome_trace(),
        kite::trace::metrics::render_json(&[snap]),
    )
}

/// The quickstart echo scenario (client → guest echo server → client)
/// produces byte-identical traces and metrics on both backends.
#[test]
fn echo_run_is_byte_identical_across_backends() {
    let run = |kind: SchedulerKind| {
        let mut sys = SystemConfig::new(BackendOs::Kite, 42)
            .scheduler(kind)
            .tracing(1 << 16)
            .build_net();
        assert_eq!(sys.scheduler_kind(), kind);
        sys.set_guest_app(scenario::echo_server(Nanos::from_micros(5)));
        for f in 0..16u16 {
            sys.send_udp_at(
                Nanos::from_millis(1 + u64::from(f)),
                Side::Client,
                addrs::GUEST,
                7,
                40000 + f,
                vec![f as u8; 400],
            );
        }
        sys.run_to_quiescence();
        digest_of(&sys, "sched_equiv/echo")
    };
    assert_eq!(
        run(SchedulerKind::Heap),
        run(SchedulerKind::Wheel),
        "echo run must not depend on the scheduler backend"
    );
}

/// A 4-queue netback drain burst (64 Toeplitz-steered flows) produces
/// byte-identical traces and metrics on both backends.
#[test]
fn four_queue_drain_is_byte_identical_across_backends() {
    let run = |kind: SchedulerKind| {
        let mut sys = SystemConfig::new(BackendOs::Kite, 7)
            .queues(4)
            .scheduler(kind)
            .tracing(1 << 16)
            .build_net();
        scenario::flow_burst(&mut sys, Side::Guest, 512, 1400, Nanos::from_micros(20));
        sys.run_to_quiescence();
        digest_of(&sys, "sched_equiv/drain4q")
    };
    assert_eq!(
        run(SchedulerKind::Heap),
        run(SchedulerKind::Wheel),
        "4-queue drain must not depend on the scheduler backend"
    );
}

/// A watchdog-detected driver-domain kill and recovery — the run with
/// the most scheduling variety (heartbeats, probes, boot model, queued
/// traffic replay) — produces byte-identical traces and metrics.
#[test]
fn kill_recovery_run_is_byte_identical_across_backends() {
    let run = |kind: SchedulerKind| {
        let mut sys = SystemConfig::new(BackendOs::Kite, 11)
            .scheduler(kind)
            .tracing(1 << 18)
            .watchdog()
            .build_net();
        scenario::steady_stream(&mut sys, 120, 1, 1400, Nanos::from_millis(250));
        sys.fault_at(Nanos::from_secs(2), Fault::Kill);
        sys.run_to_quiescence();
        digest_of(&sys, "sched_equiv/recovery")
    };
    assert_eq!(
        run(SchedulerKind::Heap),
        run(SchedulerKind::Wheel),
        "kill/recovery must not depend on the scheduler backend"
    );
}

/// Property test: a random schedule/pop/pop-until workload pops the
/// exact same (time, payload) sequence from both backends, and each
/// `pop_until(deadline)` returns what peeking at the earliest pending
/// event and popping it when due would: a sorted reference set holds
/// the pending events, so both backends are checked against a
/// separate peek + pop, and their `len()` agrees with it throughout.
///
/// Half the cases draw wide delays (1 ns – 40 ms), where events rarely
/// share an instant or a 1 024 ns wheel tick. The other half are
/// tie-heavy: delays sit on and around tick and level-0 boundaries,
/// bursts of up to 2 000 events share one instant (at `now`, inside
/// the tick being drained, or ahead of it), and deadlines fall inside a
/// tick, so the wheel's same-tick order is what decides every pop.
#[test]
fn random_ops_pop_identically_on_both_backends() {
    use std::collections::BTreeSet;
    /// Zero, one tick's edges, and one level-0 span's edges.
    const TIE_DELAYS: [u64; 7] = [0, 1, 1_023, 1_024, 1_025, 65_535, 65_536];
    let mut rng = Pcg::seeded(0x5eed);
    for case in 0..100u64 {
        let ties = case % 2 == 1;
        let mut heap: EventQueue<u64> = EventQueue::new();
        let mut wheel: TimerWheel<u64> = TimerWheel::new();
        // Payloads grow in schedule order, so `(time, payload)` sorts
        // pending events the way `(time, schedule order)` does.
        let mut pending: BTreeSet<(Nanos, u64)> = BTreeSet::new();
        let mut next_payload = case << 32;
        let mut now = Nanos::ZERO;
        let delay = |rng: &mut Pcg| {
            Nanos::from_nanos(if ties {
                TIE_DELAYS[rng.index(TIE_DELAYS.len())]
            } else {
                // Sub-tick to multi-level distances.
                rng.range_u64(1, 40_000_000)
            })
        };
        let nops = 200 + rng.index(800);
        for _ in 0..nops {
            // One op in 32 of a tie-heavy case is a burst.
            let op = if ties && rng.index(32) == 0 {
                3
            } else {
                rng.index(3)
            };
            match op {
                0 => {
                    let delay = delay(&mut rng);
                    heap.schedule_in(delay, next_payload);
                    wheel.schedule_in(delay, next_payload);
                    pending.insert((now + delay, next_payload));
                    next_payload += 1;
                }
                1 => {
                    // Deadlines from `now` to past most pending events,
                    // sometimes exactly on the earliest one and, in the
                    // tie-heavy cases, anywhere in its tick.
                    let deadline = match pending.first() {
                        Some(&(at, _)) if rng.index(4) == 0 => at,
                        Some(&(at, _)) if ties => {
                            let tick = Nanos::from_nanos(at.as_nanos() & !1_023);
                            (tick + Nanos::from_nanos(rng.range_u64(0, 1_023))).max(now)
                        }
                        _ => now + Nanos::from_nanos(rng.range_u64(0, 40_000_000)),
                    };
                    let want = match pending.first() {
                        Some(&(at, _)) if at <= deadline => pending.pop_first(),
                        _ => None,
                    };
                    assert_eq!(heap.pop_until(deadline), want, "heap pop_until");
                    assert_eq!(wheel.pop_until(deadline), want, "wheel pop_until");
                    now = want.map_or(now, |(at, _)| at);
                }
                2 => {
                    let want = pending.pop_first();
                    assert_eq!(heap.pop(), want, "heap pop");
                    assert_eq!(wheel.pop(), want, "wheel pop");
                    now = want.map_or(now, |(at, _)| at);
                }
                _ => {
                    // A burst at one instant; a zero delay puts it inside
                    // the tick being drained, behind what is already due.
                    let at = now + delay(&mut rng);
                    for _ in 0..1 + rng.index(2_000) {
                        heap.schedule_at(at, next_payload);
                        wheel.schedule_at(at, next_payload);
                        pending.insert((at, next_payload));
                        next_payload += 1;
                    }
                }
            }
            assert_eq!((heap.len(), wheel.len()), (pending.len(), pending.len()));
            assert_eq!((heap.now(), wheel.now()), (now, now));
        }
        // Drain both to the end: the tails must agree too.
        loop {
            let (h, w) = (heap.pop(), wheel.pop());
            assert_eq!(h, w, "tail pop sequences diverged");
            assert_eq!(h, pending.pop_first(), "tail differs from the reference");
            if h.is_none() {
                break;
            }
        }
    }
}

/// Wall-clock events/sec on the fleet-drain churn: 128 Ki concurrent
/// retransmit timers, each fired timer re-arming its flow — pop the
/// earliest timer, re-arm it, the load a fleet of protocol state
/// machines puts on the scheduler. Delays spread 1 µs – 1 s so the
/// wheel exercises several levels. The wheel measures several times the
/// heap; the gate only requires wheel ≥ heap so it stays robust on noisy
/// machines. Wall clock, so release only (`benchmark/` reports both
/// rates as `sim.{wheel,heap}_churn_ns_per_event`).
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn wheel_outruns_heap_on_fleet_churn() {
    use kite::sim::EventSched;
    const FLOWS: u32 = 1 << 17;
    const WARMUP: u64 = 1 << 17;
    const POPS: u64 = 1 << 18;
    // Returns (events/sec, popped-flow checksum, pending): the counts
    // are seeded and must agree across backends; only the rate is wall
    // clock.
    let run = |kind: SchedulerKind| {
        let mut sched: EventSched<u32> = EventSched::new(kind);
        let mut rng = Pcg::seeded(0xf1ee7);
        let mut jitter = move || Nanos::from_nanos(1_000 + rng.index(999_999_001) as u64);
        for f in 0..FLOWS {
            sched.schedule_at(jitter(), f);
        }
        let mut churn = |sched: &mut EventSched<u32>, pops: u64| {
            let mut checksum = 0u64;
            for _ in 0..pops {
                let (now, flow) = sched.pop().expect("fleet timers never drain dry");
                checksum = checksum.wrapping_mul(31).wrapping_add(u64::from(flow));
                sched.schedule_at(now + jitter(), flow);
            }
            checksum
        };
        // Warmup lets the slab, heap and ready-run capacities reach
        // steady state so the timed window measures scheduling, not
        // growth.
        churn(&mut sched, WARMUP);
        let start = std::time::Instant::now();
        let checksum = churn(&mut sched, POPS);
        let rate = POPS as f64 / start.elapsed().as_secs_f64();
        (rate, checksum, sched.len())
    };
    let (heap, heap_sum, heap_pending) = run(SchedulerKind::Heap);
    let (wheel, wheel_sum, wheel_pending) = run(SchedulerKind::Wheel);
    assert_eq!((heap_sum, heap_pending), (wheel_sum, wheel_pending));
    assert!(
        wheel >= heap,
        "timer wheel ({wheel:.0} ev/s) lost to heap ({heap:.0} ev/s)"
    );
}
