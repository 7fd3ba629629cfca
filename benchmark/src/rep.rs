//! What one repetition of a workload reports, and the helpers every
//! workload shares: self-checking payloads, the harness's own spans,
//! exact quantiles and the FNV-1a digest.

use std::time::Duration;

use kite::sim::{Nanos, Pcg};
use kite::xen::ReqStage;

/// The virtual window every workload is driven in: inject what falls in
/// the next millisecond, `run_until` its end, repeat — so pending events
/// and payloads stay bounded however long the repetition is.
pub const WINDOW: Nanos = Nanos::from_millis(1);

/// A closed loop that completes nothing for this many windows has lost an
/// operation; the repetition stops and books the rest as failed.
pub const STALL_WINDOWS: u32 = 50;

/// The four spans the harness records around its own calls into the
/// system (choosing-metrics §4: spans live in the benchmark's files until
/// in-program tracing exists). Kept in memory, reported at exit.
#[derive(Clone, Copy, Default, Debug)]
pub struct Spans {
    /// `SystemConfig::new` .. handlers installed.
    pub build: Duration,
    /// Generator work: scheduling sends, pings and submissions.
    pub inject: Duration,
    /// Inside `run_until` / `run_to_quiescence`.
    pub run: Duration,
    /// Reading counters and trace records back out.
    pub collect: Duration,
}

/// Mean virtual time per request-tracing stage over the completed
/// sampled records of a traced repetition. Gaps telescope, so the stage
/// means sum to `e2e_us`.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageMeans {
    /// Mean µs booked to each stage, indexed by `ReqStage as usize`.
    pub us: [f64; ReqStage::COUNT],
    pub e2e_us: f64,
    pub samples: u64,
}

/// One finished repetition.
#[derive(Debug, Default)]
pub struct Rep {
    /// Operations the workload issued.
    pub attempted: u64,
    /// Operations that completed with the right bytes, in order.
    pub completed: u64,
    /// Payload bytes delivered to applications (net) or completed (stor).
    pub payload_bytes: u64,
    /// Virtual time of the first send and of the last completion seen by
    /// the handlers (not `sys.now()` at quiescence).
    pub first_send: Nanos,
    pub last_done: Nanos,
    /// Per-operation virtual latency, ns.
    pub lat_ns: Vec<u64>,
    /// Events the simulator processed.
    pub events: u64,
    /// Wall time of consecutive segments of the repetition, cut where
    /// each run begins: `[0]` is `SystemConfig::new` to the first
    /// `run_until` (build through xenbus `Connected`, handlers, generator
    /// seeding, first window's injection — the set-up time), `[k]` is run
    /// `k` plus the injection of the window after it, the last is the
    /// drain to quiescence. Identical work in every repetition, segment by
    /// segment.
    pub segments: Vec<Duration>,
    pub spans: Spans,
    /// Raw deterministic counters read through public accessors.
    pub counters: Vec<(&'static str, u64)>,
    /// Correctness violations (empty = every check passed).
    pub errors: Vec<String>,
    /// Present on traced repetitions only.
    pub stages: Option<StageMeans>,
}

impl Rep {
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, v)| v)
    }

    pub fn virt_elapsed(&self) -> Nanos {
        self.last_done.saturating_sub(self.first_send)
    }

    pub fn failed(&self) -> u64 {
        self.attempted - self.completed
    }

    /// FNV-1a over every deterministic row: a host-only optimisation must
    /// leave this unchanged ("every simulated statistic identical").
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        for v in [
            self.attempted,
            self.completed,
            self.payload_bytes,
            self.first_send.0,
            self.last_done.0,
            self.events,
        ] {
            h.u64(v);
        }
        for &l in &self.lat_ns {
            h.u64(l);
        }
        for &(name, v) in &self.counters {
            h.bytes(name.as_bytes());
            h.u64(v);
        }
        h.0
    }
}

pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ x as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Nearest-rank quantile of an ascending slice (exact, no bucketing).
pub fn quantile<T: Copy + Default>(sorted: &[T], q: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Records a correctness violation; keeps the first few and says that
/// it dropped the rest, so a systematic failure cannot grow without bound
/// (how many operations failed is `attempted − completed`).
pub fn note(errors: &mut Vec<String>, e: String) {
    const KEEP: usize = 8;
    match errors.len() {
        n if n < KEEP => errors.push(e),
        KEEP => errors.push("(further errors not listed)".to_string()),
        _ => {}
    }
}

// ---- self-checking payloads ---------------------------------------------

/// Every payload starts with (send time, sequence); the rest is a fill
/// byte derived from the sequence, so a receiver can check all of it.
pub const HDR: usize = 16;

/// Never 0, so a payload byte cannot pass for zero-fill.
pub fn fill_of(seq: u64) -> u8 {
    (seq as u8) | 1
}

pub fn make_payload(len: usize, sent: Nanos, seq: u64) -> Vec<u8> {
    debug_assert!(len >= HDR);
    let mut p = vec![fill_of(seq); len];
    p[..8].copy_from_slice(&sent.0.to_le_bytes());
    p[8..HDR].copy_from_slice(&seq.to_le_bytes());
    p
}

/// Returns (send time, sequence) when `p` is exactly a `len`-byte payload
/// `make_payload` produced.
pub fn check_payload(p: &[u8], len: usize) -> Option<(Nanos, u64)> {
    if p.len() != len {
        return None;
    }
    let sent = u64::from_le_bytes(p[..8].try_into().ok()?);
    let seq = u64::from_le_bytes(p[8..HDR].try_into().ok()?);
    let fill = fill_of(seq);
    p[HDR..]
        .iter()
        .all(|&b| b == fill)
        .then_some((Nanos(sent), seq))
}

/// Seeded think time for the client-side applications of the two
/// closed-loop net workloads: an exponential draw per message.
///
/// With constant turnarounds the loops phase-lock into a periodic orbit,
/// and which orbit flips on a nanosecond of any cost (the ±0.4 % the
/// system derives from its seed moved `bidir_mtu` goodput by 4 % and a
/// latency percentile by 13 %): a ruler that a rounding change can move
/// by more than an optimisation is useless. Measured over 20 seeds, a
/// mean of 20 µs is where the aggregates self-average (spread across
/// seeds ≈ 1 %) while both loops stay capacity-bound (goodput within
/// 0.5 % of the zero-think-time value); 5 µs still locks, 50 µs starts to
/// starve `bidir_mtu`.
///
/// Client side only: there a reply leaves at exactly `now + cost`, so the
/// draw can be clamped to keep each flow's departures in arrival order.
/// (Guest-side replies leave when a guest vCPU frees up, which the
/// handler cannot see; they keep a constant cost.)
pub const THINK_MEAN: Nanos = Nanos::from_micros(20);

pub struct ThinkTime {
    rng: Pcg,
    last_ready: Vec<Nanos>,
}

impl ThinkTime {
    pub fn new(seed: u64, stream: u64, flows: usize) -> ThinkTime {
        ThinkTime {
            rng: Pcg::new(seed, stream),
            last_ready: vec![Nanos::ZERO; flows],
        }
    }

    /// The cost to put on the reply to a message that arrived on `flow`
    /// at `now`.
    pub fn draw(&mut self, flow: usize, now: Nanos) -> Nanos {
        let ready = (now + self.rng.exp(THINK_MEAN)).max(self.last_ready[flow]);
        self.last_ready[flow] = ready;
        ready - now
    }
}

/// Whether a ledger's per-flow order is asserted or only counted.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub enum Order {
    /// Out-of-order arrival is a correctness failure. Right for traffic
    /// the client sends: its clock is the event clock, and every hop to
    /// the guest application is a FIFO (per flow, per queue).
    #[default]
    Asserted,
    /// Out-of-order arrivals are counted, not failed. Needed for traffic
    /// the *guest* application sends: the guest model runs a handler at
    /// `now + wake`, with a wake latency that shrinks as the guest gets
    /// busier, so two IRQs a few hundred ns apart can run the application
    /// at virtual times that go backwards, and the reply produced second
    /// can leave first. That reordering happens inside the modelled
    /// endpoint, before the path under test; it is rare (0 on seeds 1-20
    /// as the workloads stand) but nothing rules it out (README,
    /// "Findings").
    Counted,
}

/// Sender-side ledger of one direction of traffic: what was sent when,
/// what has arrived, and the last sequence seen per flow. `deliver` is
/// the whole receive-side check: known sequence, matching send time, not
/// a duplicate, in order within its flow.
#[derive(Default)]
pub struct Ledger {
    order: Order,
    sent_at: Vec<u64>,
    /// When the exchange this datagram answers began (its own send time
    /// unless `send_answering` said otherwise): what latency counts from.
    began_at: Vec<u64>,
    arrived: Vec<bool>,
    last_in_flow: Vec<Option<u64>>,
    pub delivered: u64,
    /// Arrivals behind a later sequence of their flow.
    pub reordered: u64,
}

impl Ledger {
    pub fn new(order: Order, flows: usize, capacity: usize) -> Ledger {
        Ledger {
            order,
            sent_at: Vec::with_capacity(capacity),
            began_at: Vec::with_capacity(capacity),
            arrived: Vec::with_capacity(capacity),
            last_in_flow: vec![None; flows],
            delivered: 0,
            reordered: 0,
        }
    }

    /// Registers the next send; returns its sequence number.
    pub fn send(&mut self, at: Nanos) -> u64 {
        self.send_answering(at, at)
    }

    /// Registers a send that answers an exchange begun at `began`.
    pub fn send_answering(&mut self, at: Nanos, began: Nanos) -> u64 {
        self.sent_at.push(at.0);
        self.began_at.push(began.0);
        self.arrived.push(false);
        self.sent_at.len() as u64 - 1
    }

    pub fn sent(&self) -> u64 {
        self.sent_at.len() as u64
    }

    /// Checks one arrival; returns when its exchange began.
    pub fn deliver(&mut self, flow: usize, sent: Nanos, seq: u64) -> Result<Nanos, String> {
        let i = seq as usize;
        if i >= self.sent_at.len() {
            return Err(format!("seq {seq} was never sent"));
        }
        if self.sent_at[i] != sent.0 {
            return Err(format!("seq {seq} carries send time {sent:?}"));
        }
        if self.arrived[i] {
            return Err(format!("seq {seq} delivered twice"));
        }
        let Some(last) = self.last_in_flow.get_mut(flow) else {
            return Err(format!("seq {seq} arrived on unknown flow {flow}"));
        };
        if last.is_some_and(|l| l > seq) {
            if self.order == Order::Asserted {
                return Err(format!("flow {flow}: seq {seq} arrived after {last:?}"));
            }
            self.reordered += 1;
        } else {
            *last = Some(seq);
        }
        self.arrived[i] = true;
        self.delivered += 1;
        Ok(Nanos(self.began_at[i]))
    }
}
