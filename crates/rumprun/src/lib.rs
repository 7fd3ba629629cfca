//! The rumprun unikernel runtime model.
//!
//! Kite builds its driver domains on rumprun (the rump-kernel unikernel,
//! extended for Xen HVM + SMP by LibrettOS). This crate models the parts of
//! that runtime the paper's design depends on:
//!
//! * [`syscalls`] — the linked-in syscall surface (14 network / 18 storage,
//!   Figure 4a) with set algebra for the CVE analysis;
//! * [`image`] — component-based image composition (≈21 MiB, Figure 4b);
//! * [`boot`] — the ≈7 s boot sequence (Figure 4c);
//! * [`profile`] — the OS overhead profile that parameterizes the shared
//!   backend mechanism in `kite-core`.
//!
//! The non-preemptive scheduler itself has no data structure here: a
//! handler that only wakes a dedicated thread, which then runs bounded
//! batches to completion, is modelled where interrupts are dispatched —
//! `kite_system::Host` charges the handler and the woken thread's work
//! back to back on the vCPU (`kite_sim::CpuPool`) its queue is pinned to.

#![forbid(unsafe_code)]

pub mod boot;
pub mod image;
pub mod profile;
pub mod syscalls;

pub use boot::{kite_boot, BootSequence, BootStage};
pub use image::{kite_network_image, kite_storage_image, Image};
pub use profile::{kite_profile, OsProfile};
pub use syscalls::{kite_network_syscalls, kite_storage_syscalls, SyscallSet};
