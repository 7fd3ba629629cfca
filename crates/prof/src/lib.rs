//! `kite-prof` — scoped-span wall-clock self-profiling for the Kite
//! workspace.
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
//!   thread-local branch — no clock read, no allocation — so the hot
//!   path keeps its zero-alloc contract (`sched_alloc.rs` gate);
//!   [`span_of`] does not even compute its phase.
//! * When enabled, call counts and the call tree are exact but span
//!   durations are *sampled* by one rule: one root span in
//!   [`SAMPLE_EVERY`] per root phase reads the clock, with every span
//!   opened under it, so the timed spans nest coherently; the report
//!   subtracts the clock-read cost [`enable`] calibrated and scales each
//!   subtree by its root's ratio. This bounds enabled-path overhead (the
//!   clock is the dominant cost) the same way sampling profilers like
//!   `perf` do.
//! * Everything derived from span timings (self-time tables, collapsed
//!   stacks, `prof_*` bench rows) is quarantined to outputs marked as
//!   wall-clock and excluded from determinism diffs.
//!
//! The crate sits below `kite-sim` in the dependency graph and has no
//! dependencies of its own.
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

mod phase;
mod profiler;
mod report;

pub use phase::Phase;
pub use profiler::{
    disable, enable, reset, span, span_of, ProfGuard, HIST_BUCKETS, SAMPLE_EVERY, STACK_MAX,
};
pub use report::{report, PhaseRow, ProfReport, StackRow};
