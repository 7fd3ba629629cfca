//! **kite-core**: the paper's contribution — unikernel driver domains.
//!
//! Everything Table 1 lists is here:
//!
//! | Paper component | Module |
//! |---|---|
//! | Blkback (1904 LoC) | [`blkback`] — batching, persistent grants, indirect segments |
//! | Netback (2791 LoC) | [`netback`] — Tx/Rx rings, hypervisor copy, pusher/soft_start threads |
//! | HVM extension (xenbus/xenstore use) | [`backend`] — watch-driven backend invocation |
//! | Configuration apps (450 LoC) | [`netapp`] (drives `kite_net`'s `Bridge` directly), [`blockapp`] |
//! | Daemon VM (OpenDHCP) | [`dhcpd`] |
//!
//! The drivers are written once and parameterized by an
//! [`kite_rumprun::OsProfile`], so the identical mechanism runs under the
//! Kite profile and the Linux baseline profile — mirroring the paper's
//! statement that Kite mirrors Linux's backend design and optimizations.

pub mod backend;
pub mod blkback;
pub mod blockapp;
pub mod dhcpd;
pub mod lifecycle;
pub mod netapp;
pub mod netback;
pub mod stats;

pub use backend::{provision_device, BackendManager};
pub use blkback::{
    BlkBatch, BlkComplete, BlkFailure, BlkbackConfig, BlkbackInstance, BlkbackStats, BlkbackTuning,
    MAX_INDIRECT_SEGMENTS,
};
pub use dhcpd::{DhcpServer, Lease};
pub use lifecycle::{BackendDevice, DeviceLifecycle, RecoveryStats};
pub use netapp::NetworkApp;
pub use netback::{NetbackInstance, NetbackStats, RxBatch, TxBatch};
pub use stats::CopyStats;
