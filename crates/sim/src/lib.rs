//! Discrete-event simulation substrate for the Kite reproduction.
//!
//! Every other crate in the workspace builds on the primitives here:
//!
//! * [`time::Nanos`] — virtual time;
//! * [`sched::Scheduler`] — the scheduling API, with two deterministic
//!   (stable-FIFO) backends: [`queue::EventQueue`] (binary heap, the
//!   oracle) and [`wheel::TimerWheel`] (hierarchical timer wheel, the
//!   default hot path);
//! * [`rng::Pcg`] — a seeded, replayable random number generator for the
//!   load generators and fault plans (the simulated system draws none);
//! * [`stats`] and [`resource`] — measurement taps and serializing
//!   resource models (one busy-until-t `Cpu`, the pools and links built on it);
//! * [`spares::Spares`] — emptied payload buffers kept for reuse by the
//!   component that allocates them.
//!
//! The design goal is replayability: given the same configs and load
//! seeds, every figure in EXPERIMENTS.md regenerates bit-for-bit. Nothing in this crate
//! reads wall-clock time or OS entropy.

pub mod queue;
pub mod resource;
pub mod rng;
pub mod sched;
pub mod spares;
pub mod stats;
pub mod time;
pub mod wheel;

pub use queue::EventQueue;
pub use resource::{Cpu, CpuPool, IdleWake, Link, TxOutcome};
pub use rng::Pcg;
pub use sched::{EventSched, Scheduler, SchedulerKind};
pub use spares::Spares;
pub use stats::Histogram;
pub use time::Nanos;
pub use wheel::TimerWheel;
