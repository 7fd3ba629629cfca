//! Physical device models for the Kite reproduction.
//!
//! The paper's testbed exposes two devices to driver domains via PCI
//! passthrough: an Intel 82599ES 10GbE NIC and a Samsung 970 EVO Plus
//! NVMe SSD. [`nic::Nic`] and [`nvme::NvmeController`] model their timing
//! envelopes (link-rate serialization, interrupt moderation;
//! channel-parallel flash behind NVMe queue pairs with per-command
//! latency) while carrying *real data* — frames are real bytes, and the
//! SSD stores written sectors sparsely for read-back verification.
//!
//! Both models are configured by immutable cost profiles ([`NvmeProfile`], [`NicProfile`])
//! built with `with_*` methods — the profile is consumed at construction,
//! so runtime state derived from it can never silently desynchronize.

pub mod nic;
pub mod nvme;

pub use nic::{LineRate, Nic, NicProfile, RxIrq, RxRing};
pub use nvme::{
    Cid, CqEntry, MsixVector, NvmeCmd, NvmeController, NvmeOp, NvmeProfile, QueueId, MAX_IO_QUEUES,
    SECTOR_SIZE, SQ_DEPTH,
};
