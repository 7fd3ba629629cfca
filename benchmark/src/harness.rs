//! The repetition driver shared by the four workloads: the harness spans,
//! the 1 ms windowing, the ICMP probe train, and reading counters and
//! trace records back out of a finished system through public accessors.

use std::time::{Duration, Instant};

use kite::sim::Nanos;
use kite::system::{NetSystem, StorSystem};
use kite::trace::ReqTracer;
use kite::xen::{HypercallKind, HypercallMeter, ReqStage};

use crate::rep::{note, Rep, Spans, StageMeans, STALL_WINDOWS, WINDOW};

/// The two scenario systems expose the same event-loop entry points.
pub trait Sim {
    fn run_until(&mut self, t: Nanos);
    fn run_to_quiescence(&mut self);
}

impl Sim for NetSystem {
    fn run_until(&mut self, t: Nanos) {
        NetSystem::run_until(self, t);
    }
    fn run_to_quiescence(&mut self) {
        NetSystem::run_to_quiescence(self);
    }
}

impl Sim for StorSystem {
    fn run_until(&mut self, t: Nanos) {
        StorSystem::run_until(self, t);
    }
    fn run_to_quiescence(&mut self) {
        StorSystem::run_to_quiescence(self);
    }
}

/// Times consecutive harness phases: each `lap` returns the time since
/// the previous one.
struct Lap(Instant);

impl Lap {
    fn lap(&mut self) -> Duration {
        let now = Instant::now();
        let d = now - self.0;
        self.0 = now;
        d
    }
}

/// Wall-clock bookkeeping of one repetition. Create it immediately before
/// `SystemConfig::new`; call `built` once handlers are installed, then
/// inject a window and `run_window`, repeatedly, and `quiesce` at the end.
pub struct Harness {
    lap: Lap,
    spans: Spans,
    /// Start of the segment being timed, and the segments closed so far
    /// (see `Rep::segments`).
    seg_start: Instant,
    segments: Vec<Duration>,
    traced: bool,
    horizon: Nanos,
}

impl Harness {
    pub fn start(traced: bool) -> Harness {
        Harness {
            lap: Lap(Instant::now()),
            spans: Spans::default(),
            seg_start: Instant::now(),
            segments: Vec::with_capacity(256),
            traced,
            horizon: Nanos::ZERO,
        }
    }

    /// The system is built and its handlers are installed. A traced build
    /// (`SystemConfig::profiling(true)`) leaves the profiler on; switch it
    /// off until the first `run_*`, so the phase table covers exactly the
    /// harness `run` span and `run − Σ self` is the unattributed rest.
    pub fn built(&mut self) {
        if self.traced {
            kite::prof::disable();
        }
        self.spans.build = self.lap.lap();
    }

    /// End of the window being injected (exclusive for the generator).
    pub fn window_end(&self) -> Nanos {
        self.horizon + WINDOW
    }

    /// The generator finished scheduling the current window: a segment
    /// ends where a run begins.
    fn injected(&mut self) {
        self.spans.inject += self.lap.lap();
        self.close_segment();
    }

    fn close_segment(&mut self) {
        let now = Instant::now();
        self.segments.push(now - self.seg_start);
        self.seg_start = now;
    }

    fn run(&mut self, f: impl FnOnce()) {
        if self.traced {
            kite::prof::enable();
        }
        f();
        if self.traced {
            kite::prof::disable();
        }
        self.spans.run += self.lap.lap();
    }

    /// Runs the window that was just injected and advances to the next.
    pub fn run_window(&mut self, sys: &mut impl Sim) {
        self.injected();
        let end = self.window_end();
        self.run(|| sys.run_until(end));
        self.horizon = end;
    }

    /// Drives a closed loop window by window until `progress()` reaches
    /// `target`, then drains. `inject` schedules what rides along (the
    /// probe pings) before each window. A loop that completes nothing for
    /// `STALL_WINDOWS` windows has lost an operation and is cut short; the
    /// workload then books the missing operations as failed.
    pub fn run_closed_loop<S: Sim>(
        &mut self,
        sys: &mut S,
        target: u64,
        progress: impl Fn() -> u64,
        mut inject: impl FnMut(&mut S, Nanos),
    ) {
        let (mut seen, mut idle) = (0, 0);
        while seen < target && idle < STALL_WINDOWS {
            inject(sys, self.window_end());
            self.run_window(sys);
            let now_seen = progress();
            idle = if now_seen == seen { idle + 1 } else { 0 };
            seen = now_seen;
        }
        self.quiesce(sys);
    }

    /// Nothing more will be injected: drain every pending event.
    pub fn quiesce(&mut self, sys: &mut impl Sim) {
        self.injected();
        self.run(|| sys.run_to_quiescence());
        self.close_segment();
    }

    /// Closes the repetition: reads the stage records of a traced one out
    /// of `req` and fills the wall-clock fields of `rep`. Call after the
    /// counters are read, so `collect` covers that work.
    pub fn finish(mut self, req: &ReqTracer, rep: &mut Rep) {
        if self.traced {
            rep.stages = Some(stage_means(req));
        }
        self.spans.collect = self.lap.lap();
        rep.segments = self.segments;
        rep.spans = self.spans;
    }
}

/// The 4 kHz ICMP echo train that rides along on the net workloads: pings
/// are the only net requests `ReqTracer` follows, so they are what the
/// virtual stage means are measured on.
pub struct PingTrain {
    next_at: Nanos,
    pub sent: u16,
}

impl PingTrain {
    const PERIOD: Nanos = Nanos::from_micros(250);

    pub fn new() -> PingTrain {
        PingTrain {
            next_at: Nanos::from_micros(125),
            sent: 0,
        }
    }

    /// Schedules the probes that fall before `end`.
    pub fn inject(&mut self, sys: &mut NetSystem, end: Nanos) {
        while self.next_at < end {
            sys.ping_at(self.next_at, self.sent);
            self.sent += 1;
            self.next_at += Self::PERIOD;
        }
    }
}

/// Busy nanoseconds behind a mean-utilisation percentage over `window`
/// on `cpus` vCPUs (the systems expose utilisation, not busy time).
pub fn busy_ns(percent: f64, window: Nanos, cpus: usize) -> u64 {
    (percent / 100.0 * window.0 as f64 * cpus as f64).round() as u64
}

/// What a network workload's applications saw, for the closing checks.
pub struct NetTally {
    /// UDP datagrams the applications sent (initial sends + replies).
    pub udp_sent: u64,
    /// Payload bytes the handlers checked byte for byte.
    pub bytes_checked: u64,
    /// Guest-sent datagrams that arrived behind a later one of their flow
    /// (`rep::Order::Counted`).
    pub guest_sent_reordered: u64,
}

/// Closes a network repetition: conservation checks against the
/// system's own counters, then counters and trace records out.
/// `rep.payload_bytes` must already hold what the system says it
/// delivered.
pub fn finish_net(h: Harness, sys: &NetSystem, pings: &PingTrain, tally: NetTally, rep: &mut Rep) {
    let m = &sys.metrics;
    let udp_seen = m.guest_rx_msgs + m.client_rx_msgs + m.drops;
    if tally.udp_sent != udp_seen {
        note(
            &mut rep.errors,
            format!(
                "conservation: sent {} != delivered + drops {udp_seen}",
                tally.udp_sent
            ),
        );
    }
    if rep.payload_bytes != tally.bytes_checked {
        note(
            &mut rep.errors,
            format!(
                "applications saw {} payload bytes, harness checked {}",
                rep.payload_bytes, tally.bytes_checked
            ),
        );
    }
    if m.ping_rtts.count() != pings.sent as u64 {
        note(
            &mut rep.errors,
            format!(
                "{} of {} probe pings answered",
                m.ping_rtts.count(),
                pings.sent
            ),
        );
    }
    rep.events = sys.events_processed();
    rep.counters = net_counters(sys, pings, tally.guest_sent_reordered);
    h.finish(&sys.hv.req, rep);
}

/// The hypercall rows both kinds of system report: what the driver
/// domain and the guest were charged.
pub fn hypercall_counters(dd: HypercallMeter, gu: HypercallMeter) -> [(&'static str, u64); 5] {
    let both = |kind| dd.count(kind) + gu.count(kind);
    [
        ("evtchn_sends", both(HypercallKind::EvtchnSend)),
        ("gnt_copy_calls", dd.count(HypercallKind::GntCopy)),
        ("gnt_copy_virt_ns", dd.time(HypercallKind::GntCopy).0),
        ("gnt_maps", both(HypercallKind::GntMap)),
        ("hypercall_virt_ns", dd.total_time().0 + gu.total_time().0),
    ]
}

/// Deterministic counters of a finished network repetition.
fn net_counters(
    sys: &NetSystem,
    pings: &PingTrain,
    guest_sent_reordered: u64,
) -> Vec<(&'static str, u64)> {
    let nb = sys.netback_stats();
    let now = sys.now();
    let mut out = vec![
        ("drops", sys.metrics.drops),
        ("guest_rx_msgs", sys.metrics.guest_rx_msgs),
        ("client_rx_msgs", sys.metrics.client_rx_msgs),
        ("guest_rx_bytes", sys.metrics.guest_rx_bytes),
        ("client_rx_bytes", sys.metrics.client_rx_bytes),
        ("pings", pings.sent as u64),
        // See `rep::Order::Counted`.
        ("guest_sent_reordered", guest_sent_reordered),
        ("quiesced_at", now.0),
        ("dd_vcpus", sys.queue_count() as u64),
        (
            "dd_busy_ns",
            busy_ns(sys.driver_cpu_percent(now), now, sys.queue_count()),
        ),
        // The guest's utilisation is a mean over its 22 vCPUs.
        (
            "guest_busy_ns",
            busy_ns(sys.guest_cpu_percent(now), now, 22),
        ),
        ("gnt_copy_ops", nb.copy.ops),
        ("gnt_copy_bytes", nb.copy.bytes),
        ("nb_tx_packets", nb.tx_packets),
        ("nb_rx_packets", nb.rx_packets),
        ("nb_rx_dropped", nb.rx_dropped),
        ("nb_tx_errors", nb.tx_errors + nb.gso_errors()),
        ("nb_gso_tx_frames", nb.gso_tx_frames),
        ("nb_gso_tx_segs", nb.gso_tx_segs),
        ("nb_lro_rx_frames", nb.lro_rx_frames),
        // Refused-and-retried sends (Tx ring full), not losses.
        ("nf_tx_ring_full", sys.guest_tx_dropped()),
    ];
    out.extend(hypercall_counters(
        sys.hv.meter(sys.driver_domain()),
        sys.hv.meter(sys.guest_domain()),
    ));
    out
}

/// Mean virtual time per stage over the completed sampled requests.
fn stage_means(req: &ReqTracer) -> StageMeans {
    let mut sums = [0u64; ReqStage::COUNT];
    let (mut e2e, mut n) = (0u64, 0u64);
    for rec in req.completed() {
        for pair in rec.stamps.windows(2) {
            sums[pair[1].stage as usize] += pair[1].at.saturating_sub(pair[0].at).0;
        }
        e2e += rec.e2e().0;
        n += 1;
    }
    let mean_us = |ns: u64| {
        if n == 0 {
            0.0
        } else {
            ns as f64 / n as f64 / 1e3
        }
    };
    StageMeans {
        us: sums.map(mean_us),
        e2e_us: mean_us(e2e),
        samples: n,
    }
}
