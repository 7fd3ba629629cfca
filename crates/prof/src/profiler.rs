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
//! The enabled path keeps overhead low by **sampling durations**: every
//! span updates the call tree and its node's call count (a few ns), but
//! the clock — by far the dominant cost, ~40 ns per read on a VM — is
//! only consulted for one call in [`SAMPLE_EVERY`] per node. Reported
//! totals are scaled estimates (`sampled_total × calls / sampled`);
//! call counts are exact. The first call at every node is always timed,
//! so rare phases are never invisible.
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

/// Duration-sampling stride for non-leaf phases: per call-tree node,
/// one call in this many is timed with real clock reads (the first call
/// always is). Counts are exact for every call; durations are scaled
/// estimates.
pub const SAMPLE_EVERY: u64 = 64;

/// Sampling stride for [leaf](Phase::is_leaf) phases: one call in this
/// many does the full tree-enter + clock work; the rest only bump an
/// exact flat counter. Prime, so the sampled instances cannot alias
/// with the power-of-two batch sizes (ring slots, queue counts) that
/// pervade the simulated workloads.
pub const LEAF_EVERY: u64 = 61;

/// Sentinel phase byte for the synthetic root node.
const ROOT_PHASE: u8 = u8::MAX;

#[derive(Debug, Clone, Copy)]
pub(crate) struct Node {
    pub(crate) phase: u8,
    /// Exact number of completed spans at this node.
    pub(crate) calls: u64,
    /// How many of those were clock-timed.
    pub(crate) sampled: u64,
    /// Wall time accumulated over the `sampled` calls only.
    pub(crate) total_ns: u64,
    /// Spans opened and not yet closed (calls counts on exit).
    open: u64,
}

/// Accumulated profiler state for one thread: a node arena forming the
/// call tree, the open-span stack, and per-phase histograms.
pub(crate) struct ProfilerState {
    pub(crate) nodes: Vec<Node>,
    pub(crate) children: Vec<Vec<u32>>,
    stack: [u32; STACK_MAX],
    depth: usize,
    pub(crate) hist: [[u64; HIST_BUCKETS]; Phase::COUNT],
    /// Exact call counts for leaf phases (their tree nodes only hold
    /// the sampled subset).
    pub(crate) flat: [u64; Phase::COUNT],
    pub(crate) truncated: u64,
}

/// What [`ProfilerState::enter`] decided for a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Enter {
    /// Stack full; the span is dropped entirely.
    Refused,
    /// Span pushed; this call is not clock-timed.
    Untimed,
    /// Span pushed; time it and report via `exit_timed`.
    Timed,
}

impl ProfilerState {
    const fn new() -> Self {
        ProfilerState {
            nodes: Vec::new(),
            children: Vec::new(),
            stack: [0; STACK_MAX],
            depth: 0,
            hist: [[0; HIST_BUCKETS]; Phase::COUNT],
            flat: [0; Phase::COUNT],
            truncated: 0,
        }
    }

    fn ensure_root(&mut self) {
        if self.nodes.is_empty() {
            self.nodes.push(Node {
                phase: ROOT_PHASE,
                calls: 0,
                sampled: 0,
                total_ns: 0,
                open: 0,
            });
            self.children.push(Vec::new());
        }
    }

    /// Open a span: find or create the child of the current top-of-stack
    /// node for `phase`, push it, and decide whether this call is one of
    /// the clock-timed samples.
    pub(crate) fn enter(&mut self, phase: Phase) -> Enter {
        if self.depth == STACK_MAX {
            self.truncated += 1;
            return Enter::Refused;
        }
        self.ensure_root();
        let parent = if self.depth == 0 {
            0
        } else {
            self.stack[self.depth - 1]
        };
        let pb = phase.index() as u8;
        let found = self.children[parent as usize]
            .iter()
            .copied()
            .find(|&c| self.nodes[c as usize].phase == pb);
        let node = match found {
            Some(c) => c,
            None => {
                let id = self.nodes.len() as u32;
                self.nodes.push(Node {
                    phase: pb,
                    calls: 0,
                    sampled: 0,
                    total_ns: 0,
                    open: 0,
                });
                self.children.push(Vec::new());
                self.children[parent as usize].push(id);
                id
            }
        };
        self.stack[self.depth] = node;
        self.depth += 1;
        let n = &mut self.nodes[node as usize];
        // Leaf phases are pre-sampled by the flat counter in `span`:
        // every call that reaches the tree is one of the timed ones.
        let timed = phase.is_leaf() || (n.calls + n.open).is_multiple_of(SAMPLE_EVERY);
        n.open += 1;
        if timed {
            Enter::Timed
        } else {
            Enter::Untimed
        }
    }

    /// Close the innermost span without a duration (an untimed call).
    /// A mismatched phase (e.g. after a `reset` with guards still open)
    /// is ignored instead of corrupting the tree.
    pub(crate) fn exit_untimed(&mut self, phase: Phase) {
        if let Some(node) = self.pop_matching(phase) {
            let n = &mut self.nodes[node as usize];
            n.calls += 1;
            n.open = n.open.saturating_sub(1);
        }
    }

    /// Close the innermost span, recording `elapsed_ns` from one of the
    /// sampled calls.
    pub(crate) fn exit_timed(&mut self, phase: Phase, elapsed_ns: u64) {
        if let Some(node) = self.pop_matching(phase) {
            let n = &mut self.nodes[node as usize];
            n.calls += 1;
            n.open = n.open.saturating_sub(1);
            n.sampled += 1;
            n.total_ns = n.total_ns.saturating_add(elapsed_ns);
            self.hist[phase.index()][bucket_of(elapsed_ns)] += 1;
        }
    }

    fn pop_matching(&mut self, phase: Phase) -> Option<u32> {
        if self.depth == 0 {
            return None;
        }
        let node = self.stack[self.depth - 1];
        if self.nodes[node as usize].phase != phase.index() as u8 {
            return None;
        }
        self.depth -= 1;
        Some(node)
    }

    pub(crate) fn reset(&mut self) {
        self.nodes.clear();
        self.children.clear();
        self.depth = 0;
        self.hist = [[0; HIST_BUCKETS]; Phase::COUNT];
        self.flat = [0; Phase::COUNT];
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

/// Turn profiling on for this thread. Spans opened while disabled stay
/// inert even if profiling is enabled before they drop.
pub fn enable() {
    TLS.with(|t| t.enabled.set(true));
}

/// Turn profiling off for this thread. Accumulated state is kept (use
/// [`reset`] to clear it).
pub fn disable() {
    TLS.with(|t| t.enabled.set(false));
}

/// Whether profiling is currently enabled on this thread.
pub fn is_enabled() -> bool {
    TLS.with(|t| t.enabled.get())
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
/// When enabled, non-leaf phases record their call count and tree
/// position on every span but read the clock only one call in
/// [`SAMPLE_EVERY`] per node. [Leaf](Phase::is_leaf) phases are hotter
/// still: most calls just bump an exact flat counter, and one call in
/// [`LEAF_EVERY`] does the full tree-enter + clock work.
#[must_use = "a span records nothing unless the guard is held for its duration"]
pub fn span(phase: Phase) -> ProfGuard {
    TLS.with(|t| {
        if !t.enabled.get() {
            return ProfGuard {
                phase,
                mode: GuardMode::Inert,
            };
        }
        let mut state = t.state.borrow_mut();
        if phase.is_leaf() {
            let n = state.flat[phase.index()];
            state.flat[phase.index()] = n + 1;
            if !n.is_multiple_of(LEAF_EVERY) {
                return ProfGuard {
                    phase,
                    mode: GuardMode::Inert,
                };
            }
        }
        match state.enter(phase) {
            Enter::Refused => ProfGuard {
                phase,
                mode: GuardMode::Inert,
            },
            Enter::Untimed => ProfGuard {
                phase,
                mode: GuardMode::Untimed,
            },
            Enter::Timed => ProfGuard {
                phase,
                mode: GuardMode::Timed(Instant::now()),
            },
        }
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
    fn drop(&mut self) {
        match self.mode {
            GuardMode::Inert => {}
            GuardMode::Untimed => {
                TLS.with(|t| t.state.borrow_mut().exit_untimed(self.phase));
            }
            GuardMode::Timed(start) => {
                let elapsed = start.elapsed().as_nanos() as u64;
                TLS.with(|t| t.state.borrow_mut().exit_timed(self.phase, elapsed));
            }
        }
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
            assert_eq!(s.children[1], vec![2], "grant_copy nests under the drain");
            assert_eq!(copy.calls, 1);
            // First call at a node is always clock-timed.
            assert!(drain.sampled >= 1);
            assert!(copy.sampled >= 1);
        });
        disable();
        reset();
    }

    #[test]
    fn sampling_times_one_call_in_stride() {
        with_state_mut(|s| {
            s.reset();
            let mut timed = 0u64;
            for _ in 0..(2 * SAMPLE_EVERY) {
                match s.enter(Phase::NetbackTxDrain) {
                    Enter::Timed => {
                        timed += 1;
                        s.exit_timed(Phase::NetbackTxDrain, 100);
                    }
                    Enter::Untimed => s.exit_untimed(Phase::NetbackTxDrain),
                    Enter::Refused => panic!("stack cannot be full"),
                }
            }
            let n = &s.nodes[1];
            assert_eq!(n.calls, 2 * SAMPLE_EVERY);
            assert_eq!(n.sampled, 2);
            assert_eq!(timed, 2);
            assert_eq!(n.total_ns, 200, "only sampled calls accumulate time");
            s.reset();
        });
    }

    #[test]
    fn leaf_fast_path_counts_exactly_and_samples_tree() {
        enable();
        reset();
        let calls = 2 * LEAF_EVERY + 1;
        for _ in 0..calls {
            let _g = span(Phase::SchedPush);
        }
        with_state(|s| {
            assert_eq!(s.flat[Phase::SchedPush.index()], calls);
            // Calls 0, 61, 122 hit the tree; all of them clock-timed.
            let n = &s.nodes[1];
            assert_eq!(n.calls, 3);
            assert_eq!(n.sampled, 3);
        });
        disable();
        reset();
    }

    #[test]
    fn synthetic_enter_exit_attributes_exact_times() {
        with_state_mut(|s| {
            s.reset();
            assert_eq!(s.enter(Phase::SchedPop), Enter::Timed);
            assert_eq!(s.enter(Phase::TraceEmit), Enter::Timed);
            s.exit_timed(Phase::TraceEmit, 300);
            s.exit_timed(Phase::SchedPop, 1000);
            let pop = &s.nodes[1];
            assert_eq!(pop.total_ns, 1000);
            let emit = &s.nodes[2];
            assert_eq!(emit.total_ns, 300);
            assert_eq!(s.hist[Phase::SchedPop.index()][bucket_of(1000)], 1);
            s.reset();
        });
    }

    #[test]
    fn stack_overflow_truncates_instead_of_corrupting() {
        with_state_mut(|s| {
            s.reset();
            for _ in 0..STACK_MAX {
                assert_ne!(s.enter(Phase::SchedPush), Enter::Refused);
            }
            assert_eq!(s.enter(Phase::SchedPush), Enter::Refused);
            assert_eq!(s.truncated, 1);
            for _ in 0..STACK_MAX {
                s.exit_untimed(Phase::SchedPush);
            }
            s.reset();
        });
    }

    #[test]
    fn mismatched_exit_after_reset_is_dropped() {
        with_state_mut(|s| {
            s.reset();
            assert_eq!(s.enter(Phase::SchedPush), Enter::Timed);
            s.reset();
            // Guard from before the reset drops now: depth is 0.
            s.exit_timed(Phase::SchedPush, 123);
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
