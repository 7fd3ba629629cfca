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
//! the clock, the tree, or the allocator. The flag is a `Cell<bool>`
//! of its own, apart from the state: a thread-local without a
//! destructor is a plain load, while every access to the state (which
//! owns a `Vec`, so it has one) first checks that its destructor is
//! registered. [`span_of`] also defers naming the phase until the flag
//! says it is needed. This mirrors the tracer's disabled-path contract
//! and is enforced by the counting-allocator gate in
//! `crates/system/tests/sched_alloc.rs`.
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
//! [`enable`] calibrates what a timed span costs the timed span around
//! it; the report subtracts that from every timed span before scaling
//! (see [`crate::report`]).
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

/// How many of its largest sampled self times each call-tree node
/// keeps, so the report can trim outliers (see [`crate::report`]).
pub(crate) const TOP_KEPT: usize = 8;

/// Timed span pairs [`enable`] measures to calibrate a span's cost.
const CALIBRATION_PAIRS: usize = 63;

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
    /// The largest raw exclusive times of single sampled calls,
    /// ascending (0 until that many calls were sampled): one preempted
    /// or cold call lands here, where the report can trim it.
    pub(crate) top: [u64; TOP_KEPT],
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
            top: [0; TOP_KEPT],
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
    /// What the report subtracts per clock read a timed span owes,
    /// calibrated by [`enable`]; survives [`reset`].
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
    ///
    /// Out of line, like [`exit`](Self::exit): a caller's closure over
    /// the state is then small enough for the thread-local access around
    /// it to inline, instead of a call to it through a function pointer.
    #[inline(never)]
    pub(crate) fn enter(&mut self, phase: Phase) -> Option<bool> {
        self.push(phase)
    }

    /// [`enter`](Self::enter) for a span that opens no span under it: a
    /// call that is not timed is closed again at once and counted, so
    /// its guard has nothing left to do. A timed one stays open like any
    /// span, for [`exit`](Self::exit) to close.
    #[inline(never)]
    pub(crate) fn enter_leaf(&mut self, phase: Phase) -> Option<bool> {
        let timed = self.push(phase)?;
        if !timed {
            self.depth -= 1;
            self.nodes[self.stack[self.depth].node as usize].calls += 1;
        }
        Some(timed)
    }

    #[inline(always)]
    fn push(&mut self, phase: Phase) -> Option<bool> {
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
            node = self.add_child(parent, phase);
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
    #[inline(never)]
    pub(crate) fn exit(&mut self, phase: Phase, elapsed_ns: Option<u64>) {
        let Some(frame) = self.pop_matching(phase) else {
            return;
        };
        self.nodes[frame.node as usize].calls += 1;
        if let Some(elapsed_ns) = elapsed_ns {
            self.record(frame, phase, elapsed_ns);
        }
    }

    /// The first span of `phase` under `parent`: a new tree node.
    #[cold]
    fn add_child(&mut self, parent: usize, phase: Phase) -> u32 {
        let node = self.nodes.len() as u32;
        self.nodes.push(Node::new(phase.index() as u8));
        self.nodes[parent].child[phase.index()] = node;
        node
    }

    /// Books a sampled span's time: its node's exclusive time and clock
    /// reads, its parent frame's children, the phase histogram. Out of
    /// line, so the untimed exit — 60 spans in 61 — stays small.
    #[inline(never)]
    fn record(&mut self, frame: Frame, phase: Phase, elapsed_ns: u64) {
        let n = &mut self.nodes[frame.node as usize];
        let own = elapsed_ns - frame.kids_ns;
        n.sampled += 1;
        n.self_ns += own;
        n.reads += 1 + frame.kids;
        if own > n.top[0] {
            // Drop the smallest kept time and insert `own` in order.
            let at = n.top.partition_point(|&t| t < own);
            n.top.copy_within(1..at, 0);
            n.top[at - 1] = own;
        }
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

thread_local! {
    /// Whether profiling is on for this thread: the only thing a
    /// disabled span reads.
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static STATE: RefCell<ProfilerState> = const { RefCell::new(ProfilerState::new()) };
}

/// What a timed span costs per clock read it owes: the median self time
/// of a timed empty span around one timed empty span, which owes two
/// (its own and its child's). Measured on the span path itself, against
/// a fresh state, so it counts the bookkeeping of opening and closing
/// the child as well as the reads; the median rejects preemption.
fn calibrate_span() -> u64 {
    let saved = STATE.replace(ProfilerState::new());
    let enabled = ENABLED.replace(true);
    let mut pairs = [0; CALIBRATION_PAIRS];
    for pair in &mut pairs {
        {
            let _parent = span(Phase::SchedPop);
            let _child = span(Phase::SchedPush);
        }
        *pair = STATE.with_borrow_mut(|s| {
            // A root that has never been called is timed: so is the next.
            s.nodes[1].calls = 0;
            std::mem::take(&mut s.nodes[1].self_ns)
        });
    }
    ENABLED.set(enabled);
    STATE.set(saved);
    pairs.sort_unstable();
    pairs[CALIBRATION_PAIRS / 2] / 2
}

/// Turn profiling on for this thread, calibrating what a timed span
/// costs the first time. Spans opened while disabled stay inert even if
/// profiling is enabled before they drop.
pub fn enable() {
    if STATE.with_borrow(|s| s.clock_ns) == 0 {
        let clock_ns = calibrate_span();
        STATE.with_borrow_mut(|s| s.clock_ns = clock_ns);
    }
    ENABLED.set(true);
}

/// Turn profiling off for this thread. Accumulated state is kept (use
/// [`reset`] to clear it).
pub fn disable() {
    ENABLED.set(false);
}

/// Clear all accumulated state (call tree, histograms, truncation
/// counter) for this thread. Open guards from before the reset are
/// discarded when they drop.
pub fn reset() {
    STATE.with_borrow_mut(ProfilerState::reset);
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
    span_of(|| phase)
}

/// [`span`] for a phase that costs something to name: `phase` runs only
/// when profiling is enabled, so a disabled span pays the flag read and
/// nothing else. An enabled `span_of(|| p)` records exactly what
/// `span(p)` does.
#[must_use = "a span records nothing unless the guard is held for its duration"]
#[inline]
pub fn span_of(phase: impl FnOnce() -> Phase) -> ProfGuard {
    if ENABLED.get() {
        open(phase())
    } else {
        ProfGuard { open: None }
    }
}

/// [`span`] for a phase that opens no span while its guard is held (a
/// scheduler push or pop). It records exactly what `span(phase)` does,
/// but a call that is not timed — 60 roots in 61 — is counted when it
/// opens, in one access to the profiler's state instead of two, and its
/// guard is inert. A span opened under a leaf would be booked to the
/// leaf's parent.
#[must_use = "a span records nothing unless the guard is held for its duration"]
#[inline]
pub fn leaf(phase: Phase) -> ProfGuard {
    if !ENABLED.get() {
        return ProfGuard { open: None };
    }
    let open = match STATE.with_borrow_mut(|s| s.enter_leaf(phase)) {
        Some(true) => Some((phase, Some(Instant::now()))),
        _ => None,
    };
    ProfGuard { open }
}

/// The enabled half of [`span_of`].
#[inline]
fn open(phase: Phase) -> ProfGuard {
    let open = match STATE.with_borrow_mut(|s| s.enter(phase)) {
        None => None,
        Some(false) => Some((phase, None)),
        Some(true) => Some((phase, Some(Instant::now()))),
    };
    ProfGuard { open }
}

/// Run `f` against this thread's profiler state (used by the report
/// builder; kept crate-private so the arena layout stays an
/// implementation detail).
pub(crate) fn with_state<R>(f: impl FnOnce(&ProfilerState) -> R) -> R {
    STATE.with_borrow(f)
}

#[cfg(test)]
pub(crate) fn with_state_mut<R>(f: impl FnOnce(&mut ProfilerState) -> R) -> R {
    STATE.with_borrow_mut(f)
}

/// RAII guard for an open profiling span. See [`span`].
#[derive(Debug)]
pub struct ProfGuard {
    /// The span's phase and, when it is clock-timed, its start; `None`
    /// for an inert guard (profiling disabled, or the stack was full).
    open: Option<(Phase, Option<Instant>)>,
}

impl Drop for ProfGuard {
    #[inline]
    fn drop(&mut self) {
        let Some((phase, start)) = self.open else {
            return;
        };
        let elapsed_ns = start.map(|t| t.elapsed().as_nanos() as u64);
        STATE.with_borrow_mut(|s| s.exit(phase, elapsed_ns));
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
    fn a_leaf_records_what_a_span_records() {
        // The same calls through `span` and through `leaf`, as roots and
        // nested under a root: the two trees must come out identical but
        // for the times, which are wall clock.
        let tree = |leaf_span: fn(Phase) -> ProfGuard| {
            enable();
            reset();
            for _ in 0..(2 * SAMPLE_EVERY + 5) {
                {
                    let _pop = leaf_span(Phase::SchedPop);
                }
                let _dispatch = span(Phase::DispatchIrq);
                for _ in 0..3 {
                    let _push = leaf_span(Phase::SchedPush);
                }
            }
            let nodes = with_state(|s| {
                s.nodes
                    .iter()
                    .map(|n| (n.phase, n.calls, n.sampled, n.reads, n.child))
                    .collect::<Vec<_>>()
            });
            disable();
            reset();
            nodes
        };
        let leaf_tree = tree(leaf);
        assert_eq!(leaf_tree, tree(span));
        // Root, sched_pop, dispatch_irq, sched_push under it.
        assert_eq!(leaf_tree.len(), 4);
        assert_eq!(leaf_tree[3].1, 3 * (2 * SAMPLE_EVERY + 5));
        assert_eq!(leaf_tree[3].2, 3 * 3, "timed with each timed dispatch");
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
