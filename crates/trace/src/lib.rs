//! **kite-trace** — deterministic observability for the simulated stack.
//!
//! Five pieces, layered:
//!
//! * [`tracer`] — a bounded ring of typed [`TraceEvent`]s stamped with
//!   virtual time, read with [`Tracer::events`] and matched by variant.
//!   Disabled by default; the disabled emit path is a single branch and
//!   runs no allocation.
//! * [`reqtrace`] — [`ReqTracer`], per-request stage stamps: a
//!   deterministic 1-in-N sample of requests carries a [`ReqId`]
//!   through ring slots and device queues, producing latency
//!   waterfalls, per-stage histograms and Perfetto flow arrows.
//! * [`metrics`] — [`MetricsSnapshot`], the one rendering (text + JSON)
//!   every bench and example reports through.
//! * [`sampler`] — [`TimeSeriesSampler`], a bounded virtual-time metrics
//!   time series (counter deltas + gauges) with deterministic CSV
//!   export.
//! * [`chrome`] — a Chrome-trace/Perfetto JSON exporter (one track per
//!   domain, virtual-time microseconds) and its validator, backed by the
//!   dependency-free parser in [`json`].
//!
//! Determinism rules: events are stamped with virtual time only (no wall
//! clock), sequence ids start at zero per tracer, and all renderings use
//! fixed-point formatting — two runs with the same seed produce
//! byte-identical trace and metrics output.

pub mod chrome;
pub mod json;
pub mod metrics;
pub mod reqtrace;
pub mod sampler;
pub mod tracer;

pub use json::JsonValue;
pub use metrics::{Metric, MetricValue, MetricsSnapshot};
pub use reqtrace::{
    ReqId, ReqRecord, ReqTracer, SlotClass, Stage, StageStamp, DEFAULT_REQ_CAPACITY,
};
pub use sampler::{SampleKind, TimeSeriesSampler};
pub use tracer::{EventKind, NotifyOutcome, TraceEvent, Tracer, DEFAULT_CAPACITY};
