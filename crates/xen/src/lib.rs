//! Simulated Xen hypervisor substrate for the Kite reproduction.
//!
//! This crate reimplements, as ordinary testable Rust data structures, the
//! Xen mechanisms that Kite's driver domains are built on:
//!
//! * [`domain`] — domain identities and lifecycle;
//! * [`mem`] — machine pages with real bytes and ownership, each backed on
//!   its first write;
//! * [`grant`] — grant tables: share, map, and hypervisor-copy pages across
//!   domains with real permission checks;
//! * [`evtchn`] — event channels (virtual interrupts) with pending-bit
//!   coalescing semantics;
//! * [`xenstore`] — the transactional configuration database with watches;
//! * [`xenbus`] — the PV device connection state machine and path scheme;
//! * [`ring`] — the shared I/O ring protocol including notification
//!   suppression, byte-exact with `xen/include/public/io/ring.h`;
//! * [`netif`] / [`blkif`] — network and block PV ABIs;
//! * [`hypercall`] — the cost model and per-domain accounting;
//! * [`pci`] — passthrough: device assignment at domain create and restart;
//! * [`hypervisor`] — the composed machine with charged operation wrappers.
//!
//! Data movement is real (bytes flow between real pages); only *time* is
//! modeled, via [`hypercall::CostModel`].

#![forbid(unsafe_code)]

pub mod blkif;
pub mod domain;
pub mod error;
pub mod evtchn;
pub mod fault;
pub mod grant;
pub mod hypercall;
pub mod hypervisor;
pub mod mem;
pub mod netif;
pub mod pci;
pub mod ring;
pub mod xenbus;
pub mod xenstore;

pub use domain::{Domain, DomainId, DomainKind, DomainState, DomainTable};
pub use error::{Result, XenError};
pub use evtchn::{EventChannels, Notification, Port};
pub use fault::FaultPlan;
pub use grant::{CopyMode, CopySide, GrantCopyOp, GrantRef, GrantTables, MapHandle, Mapping};
pub use hypercall::{CostModel, HypercallKind, HypercallMeter};
pub use hypervisor::{BatchResult, Hypervisor};
pub use kite_trace::reqtrace::{ReqId, ReqTracer, SlotClass, Stage as ReqStage};
pub use kite_trace::EventKind;
pub use mem::{MachineMemory, PageId, PAGE_SIZE};
pub use pci::{Bdf, PciBus, PciDevice};
pub use ring::{BackRing, FrontRing, RingEntry};
pub use xenbus::{DeviceKind, DevicePaths, XenbusState};
pub use xenstore::{Perm, TxId, WatchEvent, WatchId, Xenstore};
