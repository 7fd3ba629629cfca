//! One builder for both systems: [`SystemConfig`].
//!
//! A single fluent description of a scenario — queue layout, watchdog,
//! SLO, tracing, scheduler — that either
//! [`build_net`](SystemConfig::build_net) or
//! [`build_stor`](SystemConfig::build_stor) consumes. It is the only way
//! to configure a system: the host applies every knob once, inside its
//! constructor, and exposes no post-construction setters.

use kite_core::BlkbackTuning;
use kite_devices::{LineRate, NvmeProfile};
use kite_health::SloConfig;
use kite_sim::SchedulerKind;

use crate::host::{BackendOs, Datapath, Host};
use crate::netsys::NetSystem;
use crate::storsys::StorSystem;

/// Describes a full-system scenario; build it into a [`NetSystem`] or a
/// [`StorSystem`].
///
/// ```
/// use kite_system::{BackendOs, SystemConfig};
/// use kite_sim::SchedulerKind;
///
/// let sys = SystemConfig::new(BackendOs::Kite, 42)
///     .queues(4)
///     .scheduler(SchedulerKind::Heap)
///     .tracing(1 << 16)
///     .build_net();
/// assert_eq!(sys.queue_count(), 4);
/// ```
#[derive(Clone, Debug)]
pub struct SystemConfig {
    pub(crate) os: BackendOs,
    pub(crate) queues: u32,
    pub(crate) watchdog: bool,
    pub(crate) slo: Option<SloConfig>,
    pub(crate) tracing: Option<usize>,
    pub(crate) req_tracing: Option<u64>,
    pub(crate) scheduler: SchedulerKind,
    pub(crate) tuning: BlkbackTuning,
    pub(crate) nvme_profile: Option<NvmeProfile>,
    pub(crate) nvme_max_io_queues: Option<u16>,
    pub(crate) profiling: bool,
    pub(crate) gso: bool,
    pub(crate) wire: LineRate,
}

impl SystemConfig {
    /// Starts a config for a driver domain running `os`. Everything else
    /// defaults to the paper's canonical single-queue setup.
    ///
    /// The second parameter is ignored (kept for the `benchmark/` harness,
    /// ROADMAP item 9): the system draws no random numbers, only load
    /// generators and a `FaultPlan` do, so a build is its config alone.
    pub fn new(os: BackendOs, _seed: u64) -> SystemConfig {
        SystemConfig {
            os,
            queues: 1,
            watchdog: false,
            slo: None,
            tracing: None,
            req_tracing: None,
            scheduler: SchedulerKind::default(),
            tuning: BlkbackTuning::default(),
            nvme_profile: None,
            nvme_max_io_queues: None,
            profiling: false,
            gso: true,
            wire: LineRate::Gbe10,
        }
    }

    /// Number of device queues: `1` is the flat single-queue layout,
    /// `n > 1` negotiates `n` ring pairs on an `n`-vCPU driver domain.
    pub fn queues(mut self, n: u32) -> SystemConfig {
        self.queues = n.max(1);
        self
    }

    /// Enables the active watchdog (heartbeats + Dom0 probes) from time
    /// zero instead of the failure oracle.
    pub fn watchdog(mut self) -> SystemConfig {
        self.watchdog = true;
        self
    }

    /// Sets the request-latency SLO the watchdog folds into its verdict.
    pub fn slo(mut self, cfg: SloConfig) -> SystemConfig {
        self.slo = Some(cfg);
        self
    }

    /// Enables structured tracing with an event-ring capacity of `cap`.
    pub fn tracing(mut self, cap: usize) -> SystemConfig {
        self.tracing = Some(cap);
        self
    }

    /// Enables per-request stage tracing: every `sample_every`-th
    /// injected request is tagged with a `ReqId` and followed through
    /// the stack (ring submit, backend fetch, grant copy, device
    /// residency, IRQ delivery), feeding per-stage latency histograms,
    /// the `repro lat` waterfalls and Perfetto flow arrows. Off by
    /// default; the disabled path allocates nothing.
    pub fn req_tracing(mut self, sample_every: u64) -> SystemConfig {
        self.req_tracing = Some(sample_every);
        self
    }

    /// Picks the scheduler backend (timer wheel by default; the binary
    /// heap is the equivalence oracle).
    pub fn scheduler(mut self, kind: SchedulerKind) -> SystemConfig {
        self.scheduler = kind;
        self
    }

    /// Blkback optimization switches (storage systems only).
    pub fn tuning(mut self, tuning: BlkbackTuning) -> SystemConfig {
        self.tuning = tuning;
        self
    }

    /// NVMe cost profile for the storage device (storage systems only).
    pub fn nvme_profile(mut self, profile: NvmeProfile) -> SystemConfig {
        self.nvme_profile = Some(profile);
        self
    }

    /// Caps the controller's I/O queue pairs (storage systems only).
    /// Rings beyond the cap share queues round-robin, like blk-mq
    /// mapping more contexts than hardware queues.
    pub fn nvme_max_io_queues(mut self, max: u16) -> SystemConfig {
        self.nvme_max_io_queues = Some(max);
        self
    }

    /// Segmentation offload for the network path. On (the default, and
    /// what the paper's stock netfront/netback pair negotiates):
    /// `feature-gso-tcpv4` is advertised, the guest hands up to 64KB
    /// super-frames to a descriptor chain and the NIC segments to wire
    /// MTU (TSO) on transmit / coalesces on receive (LRO). Off: the guest
    /// segments to wire MTU in software, one 1514-byte frame per ring
    /// slot — the baseline the ablation compares against.
    pub fn gso(mut self, on: bool) -> SystemConfig {
        self.gso = on;
        self
    }

    /// Wire speed for the NIC and the client link (network systems
    /// only): 10/25/100GbE profiles that also scale interrupt moderation.
    /// The default is the paper's 82599 at 10GbE.
    pub fn wire_profile(mut self, rate: LineRate) -> SystemConfig {
        self.wire = rate;
        self
    }

    /// Turns on the wall-clock self-profiler (`kite-prof`) for the
    /// building thread. Spans opened by the scheduler, dispatch loop and
    /// backends start recording; `kite_prof::report()` reads the result.
    /// Wall-clock numbers are nondeterministic — keep them out of
    /// anything diffed byte-for-byte (see DESIGN.md §14).
    pub fn profiling(mut self, on: bool) -> SystemConfig {
        self.profiling = on;
        self
    }

    /// Builds the scenario for datapath `D` with this configuration
    /// applied; [`build_net`](Self::build_net) and
    /// [`build_stor`](Self::build_stor) name the two instances.
    pub fn build<D: Datapath>(self) -> Host<D> {
        Host::from_config(&self)
    }

    /// Builds the network scenario (client ⇄ NIC ⇄ driver domain ⇄
    /// guest).
    pub fn build_net(self) -> NetSystem {
        self.build()
    }

    /// Builds the storage scenario (guest ⇄ blkfront ⇄ driver domain ⇄
    /// NVMe).
    pub fn build_stor(self) -> StorSystem {
        self.build()
    }
}
