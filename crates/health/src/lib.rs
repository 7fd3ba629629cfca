//! Active health monitoring for driver domains.
//!
//! Kite's availability story (paper §4.4) rests on restarting a crashed
//! driver domain in seconds — but restart can only begin once the failure
//! is *noticed*. This crate supplies the noticing: a xenstore
//! [`heartbeat`] protocol published by driver domains, a Dom0-side
//! [`HealthMonitor`] driving a `Healthy → Suspect → Failed` state machine
//! from missed beats and stalled ring watermarks, [`slo`] latency-quantile
//! checks feeding the same verdict, and the [`top`] renderer behind the
//! `repro top` subcommand — the reproduction's `xentop`.
//!
//! The monitor is deliberately mechanism-only: it observes and renders a
//! verdict; the system layer (kite-system) owns scheduling the probes and
//! acting on `Failed` by starting recovery. Everything is virtual-time
//! deterministic — same seed, same probes, same verdicts, byte-identical
//! `kitetop` output.

pub mod heartbeat;
pub mod monitor;
pub mod slo;
pub mod top;

pub use heartbeat::HeartbeatPublisher;
pub use monitor::{
    DetectionMode, HealthMonitor, HealthState, ProgressSample, DETECT_BOUND, HEARTBEAT_INTERVAL,
    PROBE_INTERVAL,
};
pub use slo::{BreachAttribution, SloConfig};
pub use top::{render as render_top, TopRow, TopSnapshot};
