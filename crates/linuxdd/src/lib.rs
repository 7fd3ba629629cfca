//! The Linux driver-domain baseline.
//!
//! Every figure in the paper compares Kite against an Ubuntu 18.04 driver
//! domain. This crate models that baseline: its syscall surface (171 in
//! use, Figure 4a), its kernel+modules image (≈10x Kite, Figure 4b), its
//! ≈75 s boot (Figure 4c), and the [`profile::linux_profile`] OS-overhead
//! parameters that the shared backend mechanism in `kite-core` runs under
//! when the scenario selects Linux.

#![forbid(unsafe_code)]

pub mod boot;
pub mod image;
pub mod profile;
pub mod syscalls;

pub use boot::ubuntu_boot;
pub use image::ubuntu_image;
pub use profile::linux_profile;
pub use syscalls::ubuntu_driver_domain_syscalls;
