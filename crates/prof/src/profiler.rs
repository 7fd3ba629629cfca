//! Thread-local phase stack, sampled by `SIGPROF`.
//!
//! The profiler is a call tree of [`Phase`] nodes in a fixed-size
//! thread-local arena. Spans are RAII guards: [`span`] pushes the node
//! for its phase under the innermost open one, and dropping the guard
//! pops it and bumps its exact call count. No span reads a clock. Time
//! comes from the kernel instead: while profiling is on, an
//! `ITIMER_PROF` timer interrupts the process at a fixed interval of
//! CPU time ([`crate::sigprof`]) and the handler, [`tick`], adds one to
//! the sample counter of the node on top of the interrupted thread's
//! stack, or of the root when no span is open. The report turns
//! samples into time (see [`crate::report`]).
//!
//! # Cost contract
//!
//! The disabled path is **branch-only and zero-alloc**: [`span`] reads
//! one thread-local flag and returns an inert guard without touching
//! the tree or the allocator. The flag is a `Cell<bool>` of its own: a
//! thread-local without a destructor is a plain load. [`span_of`] also
//! defers naming the phase until the flag says it is needed. This
//! mirrors the tracer's disabled-path contract and is enforced by the
//! counting-allocator gate in `crates/system/tests/sched_alloc.rs`.
//!
//! The enabled path allocates nothing either: the arena, the stack and
//! the sample counters are fixed-size and const-initialised. A span
//! that finds the stack or the arena full is counted in `truncated`
//! and recorded nowhere else; its samples go to the span it opened in.
//!
//! Samples are wall-clock measurements and so nondeterministic; they
//! are for humans (`repro prof`) and for `benchmark/`, never become
//! bench rows (see DESIGN.md §14) and never feed back into virtual-time
//! state.

use crate::phase::Phase;
use crate::sigprof;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::time::Instant;

/// Maximum open-span nesting depth. Deeper spans are counted in
/// `truncated` and recorded nowhere else.
pub const STACK_MAX: usize = 64;

/// Call-tree nodes one thread holds, the root included. The four
/// `benchmark/` workloads build 9–17 besides the root.
const NODE_MAX: usize = 256;

/// Sentinel phase byte for the root node.
const ROOT_PHASE: u8 = u8::MAX;

#[derive(Debug, Clone, Copy)]
pub(crate) struct Node {
    pub(crate) phase: u8,
    /// Exact number of completed spans at this node.
    pub(crate) calls: u64,
    /// Child node per phase; 0 (the root, never a child) means none.
    /// Children are created after their parent, so a child's index is
    /// always greater than its parent's.
    child: [u16; Phase::COUNT],
}

impl Node {
    const fn new(phase: u8) -> Node {
        Node {
            phase,
            calls: 0,
            child: [0; Phase::COUNT],
        }
    }

    /// This node's children, in phase order.
    pub(crate) fn children(&self) -> impl Iterator<Item = usize> + '_ {
        self.child.iter().filter(|&&c| c != 0).map(|&c| c as usize)
    }
}

/// One thread's call tree and open-span stack. Node 0 is the root.
pub(crate) struct Tree {
    nodes: [Node; NODE_MAX],
    len: usize,
    stack: [u16; STACK_MAX],
    depth: usize,
    pub(crate) truncated: u64,
    /// Wall time profiled before the current enabled stretch.
    wall_ns: u64,
    /// Start of the current enabled stretch.
    since: Option<Instant>,
}

impl Tree {
    const fn new() -> Tree {
        Tree {
            nodes: [Node::new(ROOT_PHASE); NODE_MAX],
            len: 1,
            stack: [0; STACK_MAX],
            depth: 0,
            truncated: 0,
            wall_ns: 0,
            since: None,
        }
    }

    /// The nodes built so far, the root first.
    pub(crate) fn nodes(&self) -> &[Node] {
        &self.nodes[..self.len]
    }

    /// Wall time this thread has profiled since the last reset.
    pub(crate) fn wall_ns(&self) -> u64 {
        self.wall_ns + self.since.map_or(0, |t| t.elapsed().as_nanos() as u64)
    }

    /// Open a span: find or create the child of the top-of-stack node
    /// for `phase`, push it and return it, or `None` when the stack or
    /// the arena is full.
    ///
    /// Out of line, like [`exit`](Self::exit): a caller's closure over
    /// the tree is then small enough for the thread-local access around
    /// it to inline, instead of a call to it through a function pointer.
    #[inline(never)]
    pub(crate) fn enter(&mut self, phase: Phase) -> Option<usize> {
        if self.depth == STACK_MAX {
            self.truncated += 1;
            return None;
        }
        let parent = self.top();
        let mut node = self.nodes[parent].child[phase.index()] as usize;
        if node == 0 {
            node = self.add_child(parent, phase)?;
        }
        self.stack[self.depth] = node as u16;
        self.depth += 1;
        Some(node)
    }

    /// The first span of `phase` under `parent`: a new tree node.
    #[cold]
    fn add_child(&mut self, parent: usize, phase: Phase) -> Option<usize> {
        if self.len == NODE_MAX {
            self.truncated += 1;
            return None;
        }
        let node = self.len;
        self.len += 1;
        self.nodes[node] = Node::new(phase.index() as u8);
        self.nodes[parent].child[phase.index()] = node as u16;
        Some(node)
    }

    /// Close the innermost span and return the new top of the stack. A
    /// mismatched phase (e.g. after a `reset` with guards still open) is
    /// ignored instead of corrupting the tree.
    #[inline(never)]
    pub(crate) fn exit(&mut self, phase: Phase) -> Option<usize> {
        let node = self.top();
        if self.depth == 0 || self.nodes[node].phase != phase.index() as u8 {
            return None;
        }
        self.nodes[node].calls += 1;
        self.depth -= 1;
        Some(self.top())
    }

    /// The innermost open node, the root when none is open.
    fn top(&self) -> usize {
        match self.depth {
            0 => 0,
            d => self.stack[d - 1] as usize,
        }
    }

    fn reset(&mut self) {
        self.nodes[0] = Node::new(ROOT_PHASE);
        self.len = 1;
        self.depth = 0;
        self.truncated = 0;
        self.wall_ns = 0;
        self.since = self.since.map(|_| Instant::now());
    }
}

/// What the `SIGPROF` handler touches: the top of this thread's stack
/// and a sample counter per node. Atomics, because the handler may run
/// between any two instructions of the thread it interrupts; relaxed,
/// because it runs on that thread.
struct Samples {
    top: AtomicUsize,
    count: [AtomicU64; NODE_MAX],
}

thread_local! {
    /// Whether profiling is on for this thread: the only thing a
    /// disabled span reads.
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static TREE: RefCell<Tree> = const { RefCell::new(Tree::new()) };
    static SAMPLES: Samples = const {
        Samples {
            top: AtomicUsize::new(0),
            count: [const { AtomicU64::new(0) }; NODE_MAX],
        }
    };
}

/// Books one timer tick to the node on top of this thread's stack. It
/// runs in the `SIGPROF` handler, so it allocates nothing, borrows no
/// `RefCell` and takes no lock; a thread with profiling off ignores it.
pub(crate) fn tick() {
    if ENABLED.get() {
        SAMPLES.with(|s| {
            let count = &s.count[s.top.load(Relaxed)];
            count.store(count.load(Relaxed) + 1, Relaxed);
        });
    }
}

/// Turn profiling on for this thread, arming the sampling timer unless
/// it is armed. Spans opened while disabled stay inert even if
/// profiling is enabled before they drop.
pub fn enable() {
    if !ENABLED.replace(true) {
        TREE.with_borrow_mut(|t| t.since = Some(Instant::now()));
        sigprof::thread_on();
    }
}

/// Turn profiling off for this thread; the sampling timer's next tick
/// disarms it if no other thread profiles. Accumulated state is kept
/// (use [`reset`] to clear it).
pub fn disable() {
    if ENABLED.replace(false) {
        TREE.with_borrow_mut(|t| {
            t.wall_ns = t.wall_ns();
            t.since = None;
        });
        sigprof::thread_off();
    }
}

/// Clear all accumulated state (call tree, samples, profiled wall time,
/// truncation counter) for this thread. Open guards from before the
/// reset are discarded when they drop.
pub fn reset() {
    TREE.with_borrow_mut(Tree::reset);
    SAMPLES.with(|s| {
        s.top.store(0, Relaxed);
        s.count.iter().for_each(|c| c.store(0, Relaxed));
    });
}

/// Open a profiling span for `phase`. The returned guard records the
/// span when dropped. When profiling is disabled this is a single
/// branch: no allocation, no state mutation.
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

/// The enabled half of [`span_of`].
#[inline]
fn open(phase: Phase) -> ProfGuard {
    let node = TREE.with_borrow_mut(|t| t.enter(phase));
    if let Some(node) = node {
        SAMPLES.with(|s| s.top.store(node, Relaxed));
    }
    ProfGuard {
        open: node.map(|_| phase),
    }
}

/// Run `f` against this thread's tree and the samples of its nodes
/// (used by the report builder; crate-private so the arena layout stays
/// an implementation detail).
pub(crate) fn with_state<R>(f: impl FnOnce(&Tree, &[u64]) -> R) -> R {
    TREE.with_borrow(|t| {
        let samples: Vec<u64> =
            SAMPLES.with(|s| s.count[..t.len].iter().map(|c| c.load(Relaxed)).collect());
        f(t, &samples)
    })
}

/// RAII guard for an open profiling span. See [`span`].
#[derive(Debug)]
pub struct ProfGuard {
    /// The span's phase; `None` for an inert guard (profiling disabled,
    /// or the stack or the arena was full).
    open: Option<Phase>,
}

impl Drop for ProfGuard {
    #[inline]
    fn drop(&mut self) {
        let Some(phase) = self.open else {
            return;
        };
        if let Some(top) = TREE.with_borrow_mut(|t| t.exit(phase)) {
            SAMPLES.with(|s| s.top.store(top, Relaxed));
        }
    }
}

#[cfg(test)]
pub(crate) fn with_tree_mut<R>(f: impl FnOnce(&mut Tree) -> R) -> R {
    TREE.with_borrow_mut(f)
}

/// Sets `node`'s sample count and this thread's profiled wall time, so
/// a report's arithmetic can be checked exactly.
#[cfg(test)]
pub(crate) fn set_samples(node: usize, samples: u64, wall_ns: u64) {
    SAMPLES.with(|s| s.count[node].store(samples, Relaxed));
    TREE.with_borrow_mut(|t| t.wall_ns = wall_ns);
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
        with_tree_mut(|t| {
            assert_eq!(
                t.nodes().len(),
                1,
                "disabled spans must not touch the arena"
            );
            assert_eq!(t.truncated, 0);
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
        with_tree_mut(|t| {
            let nodes = t.nodes();
            // root + netback_tx_drain + grant_copy
            assert_eq!(nodes.len(), 3);
            let drain = &nodes[1];
            assert_eq!(drain.phase, Phase::NetbackTxDrain.index() as u8);
            assert_eq!(drain.calls, 2);
            let copy = &nodes[2];
            assert_eq!(copy.phase, Phase::GrantCopy.index() as u8);
            assert_eq!(
                drain.children().collect::<Vec<_>>(),
                vec![2],
                "grant_copy nests under the drain"
            );
            assert_eq!(copy.calls, 1);
        });
        disable();
        reset();
    }

    #[test]
    fn a_tick_books_to_the_innermost_open_span() {
        // The flag alone, not `enable()`: the timer stays unarmed, so
        // only the calls below book samples.
        let samples = || with_state(|_, s| s.to_vec());
        ENABLED.set(true);
        reset();
        {
            let _drain = span(Phase::NetbackTxDrain);
            tick();
            {
                let _copy = span(Phase::GrantCopy);
                tick();
                tick();
            }
            tick();
        }
        tick();
        assert_eq!(samples(), vec![1, 2, 2], "root, drain, copy");
        ENABLED.set(false);
        tick();
        assert_eq!(samples(), vec![1, 2, 2], "a disabled thread ignores ticks");
        reset();
        assert_eq!(samples(), vec![0]);
    }

    #[test]
    fn stack_overflow_truncates_instead_of_corrupting() {
        with_tree_mut(|t| {
            t.reset();
            for _ in 0..STACK_MAX {
                assert!(t.enter(Phase::SchedPush).is_some());
            }
            assert_eq!(t.enter(Phase::SchedPush), None);
            assert_eq!(t.truncated, 1);
            for _ in 0..STACK_MAX {
                assert!(t.exit(Phase::SchedPush).is_some());
            }
            assert_eq!(t.exit(Phase::SchedPush), None);
            t.reset();
        });
    }

    #[test]
    fn a_full_arena_truncates_and_books_to_the_parent() {
        with_tree_mut(|t| {
            t.reset();
            // Four chains of 63 nested spans fill the 255 non-root nodes
            // but for three.
            for root in [
                Phase::SchedPush,
                Phase::SchedPop,
                Phase::GrantCopy,
                Phase::TraceEmit,
            ] {
                for _ in 0..63 {
                    assert!(t.enter(root).is_some());
                }
                for _ in 0..63 {
                    t.exit(root);
                }
            }
            let last = t.enter(Phase::DispatchIrq).expect("room for three");
            assert!(t.enter(Phase::DispatchWire).is_some());
            assert!(t.enter(Phase::DispatchNicIrq).is_some());
            assert_eq!(t.nodes().len(), NODE_MAX);
            assert_eq!(t.enter(Phase::BlkbackReap), None);
            assert_eq!(t.truncated, 1);
            t.exit(Phase::DispatchNicIrq);
            assert_eq!(t.exit(Phase::DispatchWire), Some(last));
            t.reset();
        });
    }

    #[test]
    fn mismatched_exit_after_reset_is_dropped() {
        with_tree_mut(|t| {
            t.reset();
            assert_eq!(t.enter(Phase::SchedPush), Some(1));
            t.reset();
            // Guard from before the reset drops now: depth is 0.
            assert_eq!(t.exit(Phase::SchedPush), None);
            assert_eq!(t.nodes().len(), 1);
        });
    }
}
