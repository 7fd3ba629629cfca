//! Thread-local scoped-span profiler.
//!
//! The profiler is a call tree of [`Phase`] nodes plus per-phase log2
//! wall-time histograms, all stored in thread-local state with a fixed
//! shape. Spans are RAII guards: [`span`] records entry, dropping the
//! guard records the span against the innermost open node.
//!
//! # Cost contract
//!
//! The disabled path is **branch-only and zero-alloc**: [`span`] reads
//! one thread-local flag and returns an inert guard without touching
//! the clock, the tree, or the allocator. This mirrors the tracer's
//! disabled-path contract and is enforced by the counting-allocator
//! gate in `crates/system/tests/sched_alloc.rs`.
//!
//! The enabled path has **one sampling rule**: every span walks the
//! call tree and bumps its node's exact call count (a few ns), and the
//! clock — by far the dominant cost — is read for one *root* span in
//! [`SAMPLE_EVERY`] per root phase, together with every span opened
//! under it. A root span (a dispatch, a `sched_pop`) is therefore either
//! timed with all its descendants or only counted, so the timed spans
//! form a coherent set: a timed child always lies inside a timed parent,
//! and `parent ≥ Σ children` holds on the raw measurements rather than
//! between two independently scaled estimates. The first call of every
//! root phase is timed; a rare *nested* phase may never be (`sampled` 0).
//!
//! [`enable`] calibrates what one clock read costs; the report subtracts
//! it from every timed span before scaling (see [`crate::report`]).
//!
//! Wall-clock measurements are inherently nondeterministic; they are
//! for humans (`repro prof`) and for `benchmark/`, never become bench
//! rows (see DESIGN.md §14) and never feed back into virtual-time state.

use crate::phase::Phase;
use std::cell::{Cell, RefCell};
use std::time::Instant;

/// Maximum open-span nesting depth. Deeper spans are counted in
/// `truncated` and recorded nowhere else.
pub const STACK_MAX: usize = 64;

/// Number of log2 histogram buckets per phase. Bucket `b` holds spans
/// whose duration in nanoseconds is in `[2^(b-1), 2^b)` (bucket 0 holds
/// zero-length spans).
pub const HIST_BUCKETS: usize = 64;

/// Duration-sampling stride: per root phase, one root span in this many
/// is timed with real clock reads, descendants included (the first
/// always is). Counts are exact for every span; durations are scaled
/// estimates. Prime, so the sampled instances cannot alias with the
/// power-of-two periods (ring slots, queue counts, ping-pong
/// directions) that pervade the simulated workloads.
pub const SAMPLE_EVERY: u64 = 61;

/// Back-to-back clock reads [`enable`] takes to calibrate one read.
const CALIBRATION_READS: usize = 32;

/// Sentinel phase byte for the synthetic root node.
const ROOT_PHASE: u8 = u8::MAX;

#[derive(Debug, Clone, Copy)]
pub(crate) struct Node {
    pub(crate) phase: u8,
    /// Exact number of completed spans at this node.
    pub(crate) calls: u64,
    /// How many of those were clock-timed.
    pub(crate) sampled: u64,
    /// Raw exclusive wall time over the `sampled` calls: each call's
    /// elapsed time minus the elapsed time of the spans opened directly
    /// under it. Those are disjoint sub-intervals of the call, so the
    /// subtraction is exact per call and cannot underflow.
    pub(crate) self_ns: u64,
    /// Clock reads whose latency `self_ns` contains: one per sampled
    /// call (the tail of its start read plus the head of its end read)
    /// and one per span opened directly under it (the rest of that
    /// span's two reads).
    pub(crate) reads: u64,
    /// Child node per phase; 0 (the synthetic root, never a child)
    /// means none. Children are created after their parent, so a
    /// child's index is always greater than its parent's.
    pub(crate) child: [u32; Phase::COUNT],
}

impl Node {
    const fn new(phase: u8) -> Node {
        Node {
            phase,
            calls: 0,
            sampled: 0,
            self_ns: 0,
            reads: 0,
            child: [0; Phase::COUNT],
        }
    }

    /// This node's children, in phase order.
    pub(crate) fn children(&self) -> impl Iterator<Item = usize> + '_ {
        self.child.iter().filter(|&&c| c != 0).map(|&c| c as usize)
    }
}

/// Accumulated profiler state for one thread: a node arena forming the
/// call tree, the open-span stack, and per-phase histograms.
pub(crate) struct ProfilerState {
    pub(crate) nodes: Vec<Node>,
    stack: [Frame; STACK_MAX],
    depth: usize,
    /// Whether the open root span — and so every span under it — is
    /// clock-timed.
    timing: bool,
    pub(crate) hist: [[u64; HIST_BUCKETS]; Phase::COUNT],
    pub(crate) truncated: u64,
    /// Cost of one clock read, calibrated by [`enable`]; survives
    /// [`reset`].
    pub(crate) clock_ns: u64,
}

/// One open span: its node, and what the timed spans directly under it
/// have measured so far.
#[derive(Debug, Clone, Copy)]
struct Frame {
    node: u32,
    kids: u64,
    kids_ns: u64,
}

impl Frame {
    const fn new(node: u32) -> Frame {
        Frame {
            node,
            kids: 0,
            kids_ns: 0,
        }
    }
}

impl ProfilerState {
    const fn new() -> Self {
        ProfilerState {
            nodes: Vec::new(),
            stack: [Frame::new(0); STACK_MAX],
            depth: 0,
            timing: false,
            hist: [[0; HIST_BUCKETS]; Phase::COUNT],
            truncated: 0,
            clock_ns: 0,
        }
    }

    /// Open a span: find or create the child of the current top-of-stack
    /// node for `phase` and push it. A root span (nothing open) decides
    /// whether it and everything under it is clock-timed; a nested span
    /// inherits that decision. Returns whether to time this call, or
    /// `None` when the stack is full and the span is dropped entirely.
    #[inline]
    pub(crate) fn enter(&mut self, phase: Phase) -> Option<bool> {
        if self.depth == STACK_MAX {
            self.truncated += 1;
            return None;
        }
        if self.nodes.is_empty() {
            self.nodes.push(Node::new(ROOT_PHASE));
        }
        let parent = if self.depth == 0 {
            0
        } else {
            self.stack[self.depth - 1].node as usize
        };
        let mut node = self.nodes[parent].child[phase.index()];
        if node == 0 {
            node = self.nodes.len() as u32;
            self.nodes.push(Node::new(phase.index() as u8));
            self.nodes[parent].child[phase.index()] = node;
        }
        if self.depth == 0 {
            self.timing = self.nodes[node as usize].calls.is_multiple_of(SAMPLE_EVERY);
        }
        self.stack[self.depth] = Frame::new(node);
        self.depth += 1;
        Some(self.timing)
    }

    /// Close the innermost span, with its elapsed time when it was one
    /// of the sampled calls. A mismatched phase (e.g. after a `reset`
    /// with guards still open) is ignored instead of corrupting the
    /// tree.
    #[inline]
    pub(crate) fn exit(&mut self, phase: Phase, elapsed_ns: Option<u64>) {
        let Some(frame) = self.pop_matching(phase) else {
            return;
        };
        let n = &mut self.nodes[frame.node as usize];
        n.calls += 1;
        let Some(elapsed_ns) = elapsed_ns else {
            return;
        };
        n.sampled += 1;
        n.self_ns += elapsed_ns - frame.kids_ns;
        n.reads += 1 + frame.kids;
        if self.depth > 0 {
            let parent = &mut self.stack[self.depth - 1];
            parent.kids += 1;
            parent.kids_ns += elapsed_ns;
        }
        let net = elapsed_ns.saturating_sub(self.clock_ns);
        self.hist[phase.index()][bucket_of(net)] += 1;
    }

    #[inline]
    fn pop_matching(&mut self, phase: Phase) -> Option<Frame> {
        if self.depth == 0 {
            return None;
        }
        let frame = self.stack[self.depth - 1];
        if self.nodes[frame.node as usize].phase != phase.index() as u8 {
            return None;
        }
        self.depth -= 1;
        Some(frame)
    }

    pub(crate) fn reset(&mut self) {
        self.nodes.clear();
        self.depth = 0;
        self.timing = false;
        self.hist = [[0; HIST_BUCKETS]; Phase::COUNT];
        self.truncated = 0;
    }
}

/// Log2 bucket index for a duration, clamped to the last bucket.
pub(crate) fn bucket_of(ns: u64) -> usize {
    if ns == 0 {
        0
    } else {
        ((64 - ns.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }
}

/// Upper bound (in ns) of histogram bucket `b` — the value reported for
/// percentiles that land in the bucket.
pub(crate) fn bucket_upper(b: usize) -> u64 {
    if b >= 63 {
        u64::MAX
    } else {
        1u64 << b
    }
}

struct ProfTls {
    enabled: Cell<bool>,
    state: RefCell<ProfilerState>,
}

thread_local! {
    static TLS: ProfTls = const {
        ProfTls {
            enabled: Cell::new(false),
            state: RefCell::new(ProfilerState::new()),
        }
    };
}

/// What one `Instant::now()` costs here: the smallest gap between
/// back-to-back reads (the minimum rejects preemption and cache misses,
/// so the report never subtracts more than a read really takes).
fn calibrate_clock() -> u64 {
    let mut best = u64::MAX;
    let mut prev = Instant::now();
    for _ in 0..CALIBRATION_READS {
        let now = Instant::now();
        best = best.min((now - prev).as_nanos() as u64);
        prev = now;
    }
    best
}

/// Turn profiling on for this thread, calibrating the clock-read cost
/// the first time. Spans opened while disabled stay inert even if
/// profiling is enabled before they drop.
pub fn enable() {
    TLS.with(|t| {
        let mut state = t.state.borrow_mut();
        if state.clock_ns == 0 {
            state.clock_ns = calibrate_clock();
        }
        t.enabled.set(true);
    });
}

/// Turn profiling off for this thread. Accumulated state is kept (use
/// [`reset`] to clear it).
pub fn disable() {
    TLS.with(|t| t.enabled.set(false));
}

/// Clear all accumulated state (call tree, histograms, truncation
/// counter) for this thread. Open guards from before the reset are
/// discarded when they drop.
pub fn reset() {
    TLS.with(|t| t.state.borrow_mut().reset());
}

/// Open a profiling span for `phase`. The returned guard records the
/// span when dropped. When profiling is disabled this is a single
/// branch: no clock read, no allocation, no state mutation.
///
/// When enabled, every span records its call count and tree position;
/// the clock is read only under a sampled root span (one in
/// [`SAMPLE_EVERY`] per root phase).
#[must_use = "a span records nothing unless the guard is held for its duration"]
#[inline]
pub fn span(phase: Phase) -> ProfGuard {
    TLS.with(|t| {
        let mode = if !t.enabled.get() {
            GuardMode::Inert
        } else {
            match t.state.borrow_mut().enter(phase) {
                None => GuardMode::Inert,
                Some(false) => GuardMode::Untimed,
                Some(true) => GuardMode::Timed(Instant::now()),
            }
        };
        ProfGuard { phase, mode }
    })
}

/// Run `f` against this thread's profiler state (used by the report
/// builder; kept crate-private so the arena layout stays an
/// implementation detail).
pub(crate) fn with_state<R>(f: impl FnOnce(&ProfilerState) -> R) -> R {
    TLS.with(|t| f(&t.state.borrow()))
}

#[cfg(test)]
pub(crate) fn with_state_mut<R>(f: impl FnOnce(&mut ProfilerState) -> R) -> R {
    TLS.with(|t| f(&mut t.state.borrow_mut()))
}

#[derive(Debug)]
enum GuardMode {
    Inert,
    Untimed,
    Timed(Instant),
}

/// RAII guard for an open profiling span. See [`span`].
#[derive(Debug)]
pub struct ProfGuard {
    phase: Phase,
    mode: GuardMode,
}

impl Drop for ProfGuard {
    #[inline]
    fn drop(&mut self) {
        let elapsed_ns = match self.mode {
            GuardMode::Inert => return,
            GuardMode::Untimed => None,
            GuardMode::Timed(start) => Some(start.elapsed().as_nanos() as u64),
        };
        TLS.with(|t| t.state.borrow_mut().exit(self.phase, elapsed_ns));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_span_is_inert() {
        disable();
        reset();
        {
            let _g = span(Phase::SchedPush);
            let _h = span(Phase::SchedPop);
        }
        with_state(|s| {
            assert!(
                s.nodes.is_empty(),
                "disabled spans must not touch the arena"
            );
            assert_eq!(s.truncated, 0);
        });
    }

    #[test]
    fn enabled_span_builds_tree() {
        enable();
        reset();
        {
            let _outer = span(Phase::NetbackTxDrain);
            let _inner = span(Phase::GrantCopy);
        }
        {
            let _outer = span(Phase::NetbackTxDrain);
        }
        with_state(|s| {
            // root + netback_tx_drain + grant_copy
            assert_eq!(s.nodes.len(), 3);
            let drain = &s.nodes[1];
            assert_eq!(drain.phase, Phase::NetbackTxDrain.index() as u8);
            assert_eq!(drain.calls, 2);
            let copy = &s.nodes[2];
            assert_eq!(copy.phase, Phase::GrantCopy.index() as u8);
            assert_eq!(
                drain.children().collect::<Vec<_>>(),
                vec![2],
                "grant_copy nests under the drain"
            );
            assert_eq!(copy.calls, 1);
            // The first root span is clock-timed, and its child with it.
            assert_eq!(drain.sampled, 1);
            assert_eq!(copy.sampled, 1);
        });
        disable();
        reset();
    }

    #[test]
    fn one_root_in_stride_is_timed_with_its_descendants() {
        with_state_mut(|s| {
            s.reset();
            for _ in 0..(2 * SAMPLE_EVERY) {
                let timed = s
                    .enter(Phase::NetbackTxDrain)
                    .expect("stack cannot be full");
                // Two children per root: they inherit the root's decision
                // whatever their own call count is.
                for _ in 0..2 {
                    assert_eq!(s.enter(Phase::GrantCopy), Some(timed));
                    s.exit(Phase::GrantCopy, timed.then_some(10));
                }
                s.exit(Phase::NetbackTxDrain, timed.then_some(100));
            }
            let (drain, copy) = (&s.nodes[1], &s.nodes[2]);
            assert_eq!(drain.calls, 2 * SAMPLE_EVERY, "counts are exact");
            assert_eq!(copy.calls, 4 * SAMPLE_EVERY);
            assert_eq!(drain.sampled, 2);
            assert_eq!(copy.sampled, 4);
            assert_eq!(drain.self_ns, 160, "only sampled calls accumulate time");
            assert_eq!(drain.reads, 6, "own read + one per child, twice");
            assert_eq!(copy.self_ns, 40);
            assert_eq!(copy.reads, 4);
            s.reset();
        });
    }

    #[test]
    fn synthetic_enter_exit_attributes_exact_times() {
        with_state_mut(|s| {
            s.reset();
            assert_eq!(s.enter(Phase::SchedPop), Some(true));
            assert_eq!(s.enter(Phase::TraceEmit), Some(true));
            s.exit(Phase::TraceEmit, Some(300));
            s.exit(Phase::SchedPop, Some(1000));
            let pop = &s.nodes[1];
            assert_eq!(pop.self_ns, 700, "the child's 300 ns are excluded");
            let emit = &s.nodes[2];
            assert_eq!(emit.self_ns, 300);
            assert_eq!(s.hist[Phase::SchedPop.index()][bucket_of(1000)], 1);
            s.reset();
        });
    }

    #[test]
    fn stack_overflow_truncates_instead_of_corrupting() {
        with_state_mut(|s| {
            s.reset();
            for _ in 0..STACK_MAX {
                assert!(s.enter(Phase::SchedPush).is_some());
            }
            assert_eq!(s.enter(Phase::SchedPush), None);
            assert_eq!(s.truncated, 1);
            for _ in 0..STACK_MAX {
                s.exit(Phase::SchedPush, None);
            }
            s.reset();
        });
    }

    #[test]
    fn mismatched_exit_after_reset_is_dropped() {
        with_state_mut(|s| {
            s.reset();
            assert_eq!(s.enter(Phase::SchedPush), Some(true));
            s.reset();
            // Guard from before the reset drops now: depth is 0.
            s.exit(Phase::SchedPush, Some(123));
            assert!(s.nodes.is_empty());
        });
    }

    #[test]
    fn buckets_cover_the_u64_range() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
        assert!(bucket_upper(11) == 2048);
        assert_eq!(bucket_upper(63), u64::MAX);
    }
}
