//! Full-system composition: the paper's testbed as a discrete-event
//! simulation.
//!
//! One [`host::Host`] owns the machine and the driver-domain lifecycle;
//! a [`host::Datapath`] supplies the device class. [`NetSystem`]
//! (`Host<NetPath>`) wires client ⇄ wire ⇄ NIC ⇄ driver domain (bridge +
//! netback) ⇄ netfront ⇄ guest; [`StorSystem`] (`Host<BlkPath>`) wires
//! guest ⇄ blkfront ⇄ driver domain (blkback) ⇄ NVMe. Both run under
//! either the Kite or the Linux [`BackendOs`] profile, which is how
//! every Kite-vs-Linux figure is produced.

#![forbid(unsafe_code)]

pub mod config;
pub mod host;
pub mod netsys;
pub mod scenario;
pub mod storsys;

pub use config::SystemConfig;
pub use host::{BackendOs, Datapath, Fault, Host};
pub use kite_devices::LineRate;
pub use kite_sim::SchedulerKind;

pub use kite_health::{
    render_top, DetectionMode, HealthMonitor, HealthState, HeartbeatPublisher, SloConfig, TopRow,
    TopSnapshot,
};
pub use netsys::{
    addrs, NetMetrics, NetPath, NetSystem, Reply, Side, UdpHandler, UdpMsg, UdpPayload, GSO_UDP,
    PUSHER_WAKE,
};
pub use storsys::{BlkPath, IoDone, IoHandler, IoKind, IoOp, StorMetrics, StorSystem};
