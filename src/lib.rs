//! **kite** — a full reproduction of *Kite: Lightweight Critical Service
//! Domains* (EuroSys '22) in Rust, over a simulated Xen substrate.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`sim`] — deterministic discrete-event substrate;
//! * [`xen`] — grant tables, event channels, xenstore/xenbus, shared rings;
//! * [`net`] — packet codecs, learning bridge, NAT, DHCP wire format;
//! * [`devices`] — NIC and NVMe models with real (sparse) data;
//! * [`rumprun`] / [`linux`] — the unikernel runtime and the Linux baseline;
//! * [`fs`] — the extent filesystem storage workloads run on;
//! * [`frontends`] — stock netfront/blkfront;
//! * [`core`] — **the paper's contribution**: netback, blkback, backend
//!   invocation, the bridge/block apps and the DHCP daemon;
//! * [`system`] — full-system scenarios (client ⇄ driver domain ⇄ guest);
//! * [`trace`] — virtual-time tracing, metrics snapshots, Chrome-trace export;
//! * [`prof`] — scoped-span wall-clock self-profiler (tables, collapsed
//!   stacks for flamegraphs);
//! * [`security`] — gadget scanner, CVE analysis, attack-surface reports;
//! * [`workloads`] — one generator per paper figure.
//!
//! Start with `examples/quickstart.rs`, then `cargo run --release -p
//! kite-bench --bin repro -- --all` to regenerate every figure.

#![forbid(unsafe_code)]

pub use kite_core as core;
pub use kite_devices as devices;
pub use kite_frontends as frontends;
pub use kite_fs as fs;
pub use kite_linux as linux;
pub use kite_net as net;
pub use kite_prof as prof;
pub use kite_rumprun as rumprun;
pub use kite_security as security;
pub use kite_sim as sim;
pub use kite_system as system;
pub use kite_trace as trace;
pub use kite_workloads as workloads;
pub use kite_xen as xen;
