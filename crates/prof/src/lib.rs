//! `kite-prof` — a sampled phase stack: wall-clock self-profiling for
//! the Kite workspace.
//!
//! The simulator's foundational invariant is virtual-time determinism:
//! same config, same bytes. Wall-clock profiling is the opposite — every
//! run measures differently — so this crate keeps the two worlds
//! strictly separated:
//!
//! * Instrumented code opens spans with [`span`] using a closed static
//!   registry of [`Phase`] IDs. Spans never feed back into simulation
//!   state; they only observe.
//! * When profiling is disabled (the default), [`span`] is a single
//!   thread-local branch — no allocation — so the hot path keeps its
//!   zero-alloc contract (`sched_alloc.rs` gate); [`span_of`] does not
//!   even compute its phase.
//! * When enabled, a span pushes its phase on a thread-local call tree
//!   and counts the call, exactly; it reads no clock. A `SIGPROF` timer
//!   samples the top of the stack at a fixed interval of CPU time, and
//!   the report gives each call-tree node its samples' share of the
//!   thread's profiled wall time. The table prints the samples behind
//!   every row and the time one sample stands for: its resolution.
//! * Everything derived from samples (self-time tables, collapsed
//!   stacks, `benchmark/`'s per-phase rows) is quarantined to outputs
//!   marked as wall-clock and excluded from determinism diffs.
//!
//! The crate sits below `kite-sim` in the dependency graph and has no
//! dependencies of its own. Its one private module `sigprof` holds the
//! workspace's only `unsafe` code: the two libc calls that arm the timer
//! and install the handler (Linux only).
//!
//! # Example
//!
//! ```
//! use kite_prof::{self as prof, Phase};
//!
//! prof::enable();
//! prof::reset();
//! {
//!     let _drain = prof::span(Phase::NetbackTxDrain);
//!     let _copy = prof::span(Phase::GrantCopy);
//!     // ... work ...
//! }
//! let report = prof::report();
//! print!("{}", report.render_table());
//! print!("{}", report.render_collapsed());
//! prof::disable();
//! ```

#![deny(unsafe_code)]

mod phase;
mod profiler;
mod report;
#[allow(unsafe_code)]
mod sigprof;

pub use phase::Phase;
pub use profiler::{disable, enable, reset, span, span_of, ProfGuard, STACK_MAX};
pub use report::{report, PhaseRow, ProfReport, StackRow};
