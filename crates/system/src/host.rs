//! The driver-domain host: everything a scenario does that does not
//! depend on the device class.
//!
//! [`Host`] owns the simulated machine (hypervisor, event scheduler,
//! domains and their vCPUs), the backend's lifecycle slot, the policy
//! for how a driver domain is faulted, detected, rebooted and
//! reconnected, and every instrument (watchdog, SLO, tracers, `kitetop`
//! and metrics snapshots). A [`Datapath`] supplies only what
//! differs between a network and a storage driver domain: its device,
//! its frontend, its event variants, and what to salvage and replay
//! across an outage. [`NetSystem`](crate::NetSystem) and
//! [`StorSystem`](crate::StorSystem) are `Host<NetPath>` and
//! `Host<BlkPath>`.

use std::ops::Deref;

use kite_core::{provision_device, BackendDevice, BackendManager, DeviceLifecycle, RecoveryStats};
use kite_health::{
    slo, BreachAttribution, DetectionMode, HealthMonitor, HealthState, HeartbeatPublisher,
    ProgressSample, SloConfig, TopRow, TopSnapshot, HEARTBEAT_INTERVAL, PROBE_INTERVAL,
};
use kite_linux::{linux_profile, ubuntu_boot};
use kite_prof::Phase;
use kite_rumprun::{kite_boot, kite_profile, BootSequence, OsProfile};
use kite_sim::{CpuPool, EventSched, Histogram, IdleWake, Nanos, Scheduler, SchedulerKind};
use kite_trace::{EventKind, MetricsSnapshot, DEFAULT_REQ_CAPACITY};
use kite_xen::xenbus::MQ_MAX_QUEUES_KEY;
use kite_xen::{
    Bdf, DevicePaths, DomainId, DomainKind, DomainState, FaultPlan, Hypervisor, Notification,
    PciDevice, Port, XenbusState,
};

use crate::config::SystemConfig;

/// Which OS runs the driver domain.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BackendOs {
    /// Kite (rumprun unikernel).
    Kite,
    /// Ubuntu/Linux baseline.
    Linux,
}

impl BackendOs {
    /// The OS overhead profile.
    pub fn profile(self) -> OsProfile {
        match self {
            BackendOs::Kite => kite_profile(),
            BackendOs::Linux => linux_profile(),
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            BackendOs::Kite => "Kite",
            BackendOs::Linux => "Linux",
        }
    }

    /// The boot sequence a restarted driver domain goes through
    /// (Figure 4c: ≈7 s for Kite, ≈75 s for Ubuntu).
    pub fn boot(self) -> BootSequence {
        match self {
            BackendOs::Kite => kite_boot(),
            BackendOs::Linux => ubuntu_boot(),
        }
    }

    /// Both systems, for comparison sweeps.
    pub fn both() -> [BackendOs; 2] {
        [BackendOs::Linux, BackendOs::Kite]
    }
}

/// A fault [`Host::fault_at`] schedules against the driver domain.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Fault {
    /// The driver domain dies (`xl destroy`).
    Kill,
    /// The driver domain livelocks: its data path stops making progress
    /// while the domain (and its heartbeat task) keeps running.
    Hang,
    /// This backend queue's thread wedges while the domain, its
    /// heartbeat and every other queue stay healthy. Only per-queue
    /// stall detection catches this partial failure.
    Wedge(usize),
}

/// What the host schedules: the datapath's own events plus the
/// class-independent ones (interrupt delivery, faults, recovery, ticks).
pub(crate) enum Event<P> {
    /// A datapath event.
    Path(P),
    /// Event-channel notification arrives at a domain.
    Irq { dom: DomainId, port: Port },
    /// An injected fault strikes the driver domain.
    Fault(Fault),
    /// The replacement driver domain finished booting.
    DriverRestarted,
    /// The driver domain's heartbeat task publishes its next beat.
    BeatTick,
    /// Dom0's health monitor runs its next probe.
    ProbeTick,
}

/// The part of a driver-domain scenario that depends on the device
/// class. Every hook is statically dispatched from [`Host`].
pub trait Datapath: Sized {
    /// The backend driver this datapath's driver domain runs.
    type Backend: BackendDevice;
    /// The datapath's own scheduled events.
    type Event;
    /// The Kite driver domain's name (the Linux one is `ubuntu-dd`).
    const KITE_DOMAIN: &'static str;
    /// The DomU's wake-from-halt latency: an interrupt that finds every
    /// guest vCPU idle pays it (calibrated per device class,
    /// EXPERIMENTS.md).
    const GUEST_WAKE: IdleWake;

    /// Profiling phase for one of the datapath's events.
    fn phase_of(ev: &Self::Event) -> Phase;

    /// The physical device passed through to the driver domain.
    fn pci_device() -> PciDevice;

    /// Builds the datapath state for a freshly created driver domain and
    /// the backend's connect configuration.
    fn build(
        cfg: &SystemConfig,
        hv: &mut Hypervisor,
        driver: DomainId,
    ) -> (Self, <Self::Backend as BackendDevice>::Config);

    /// A replacement driver domain booted: restart its application.
    fn driver_booted(&mut self, hv: &mut Hypervisor, driver: DomainId);

    /// Extra toolstack keys advertised under the backend path before
    /// the frontend negotiates (the host writes the queue budget).
    fn advertise(&self, _hv: &mut Hypervisor, _paths: &DevicePaths) {}

    /// Connects a fresh frontend to the provisioned device pair.
    fn connect_frontend(&mut self, hv: &mut Hypervisor, paths: &DevicePaths, nqueues: u32);

    /// The backend just connected: finish the frontend's side.
    fn backend_connected(
        &mut self,
        hv: &mut Hypervisor,
        paths: &DevicePaths,
        backend: &Self::Backend,
    );

    /// The datapath's one record of end-to-end request latencies: what
    /// its metrics report and the SLO probe judges.
    fn latency(&self) -> &Histogram;

    /// Handles one of the datapath's events.
    fn handle(host: &mut Host<Self>, now: Nanos, ev: Self::Event);

    /// Queue `q`'s event channel fired and its handler finished on vCPU
    /// `q` at `now`: runs the backend threads that interrupt wakes, to
    /// exhaustion.
    fn run_backend(host: &mut Host<Self>, now: Nanos, q: usize);

    /// The frontend's interrupt handler in the guest: the event channel
    /// bound to guest-local `port` fired.
    fn guest_irq(host: &mut Host<Self>, now: Nanos, port: Port);

    /// The backend instance was abandoned (killed, or torn down at
    /// detection): harvest its final stats and whatever died with it.
    fn backend_lost(&mut self, dead: &Self::Backend, recovery: &mut RecoveryStats);

    /// The toolstack declared the backend failed: retire the frontend
    /// and park everything it never got acknowledged for replay.
    fn salvage(&mut self, hv: &Hypervisor, recovery: &mut RecoveryStats);

    /// Both ends reconnected: replay what `salvage` parked plus
    /// everything queued during the outage.
    fn replay(host: &mut Host<Self>, now: Nanos);

    /// `kitetop`'s driver-domain cells, read off the backend's lifetime
    /// stats: requests and payload bytes served (the REQ/S and MB/S
    /// numerators), RX_DROP and GSO_FRM, in that order; then RXQ_DEPTH,
    /// one depth per queue of the live backend.
    fn top_cells(host: &Host<Self>) -> ([u64; 4], Vec<u64>);

    /// Appends every row the datapath exports: measurement taps, live
    /// gauges and lifetime backend stats. This is the one published list
    /// — the metrics snapshot and `BENCH_mechanisms.json`.
    fn export(host: &Host<Self>, rows: &mut MetricsSnapshot);
}

/// The positions of `mask`'s set bits, lowest first: the queues a
/// "who needs a kick" bitmask names.
pub(crate) fn set_bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let q = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            q
        })
    })
}

/// One `Cpu` per vCPU the domain table gives `dom`.
fn vcpus_of(hv: &Hypervisor, dom: DomainId) -> CpuPool {
    let d = hv.domains.get(dom).expect("a domain the host just created");
    CpuPool::new(d.vcpus as usize)
}

/// Held by a profiled [`Host`]: switches the thread's profiler off when
/// the host drops, so nothing after it is profiled by accident.
struct ProfilerOn;

impl Drop for ProfilerOn {
    fn drop(&mut self) {
        kite_prof::disable();
    }
}

/// One simulated machine running a driver domain for datapath `D`.
///
/// Dereferences to the datapath, so its public taps read as fields of
/// the system (`sys.metrics`, `sys.nvme`, `sys.netapp`).
pub struct Host<D: Datapath> {
    /// First, so the profiler is off before the rest of the host drops.
    _profiling: Option<ProfilerOn>,
    /// The simulated Xen machine.
    pub hv: Hypervisor,
    /// Which OS the driver domain runs.
    pub os: BackendOs,
    /// Crash/restart recovery accounting.
    pub recovery: RecoveryStats,
    pub(crate) dp: D,
    pub(crate) queue: EventSched<Event<D::Event>>,
    pub(crate) profile: OsProfile,
    pub(crate) driver: DomainId,
    pub(crate) guest: DomainId,
    /// Configured queue count: what the toolstack advertises and the
    /// frontend asks for at every (re)connect.
    pub(crate) nqueues: u32,
    /// The driver domain's vCPUs, one per queue (`create_driver`).
    pub(crate) driver_cpus: CpuPool,
    /// The DomU behind the frontend: the vCPUs `create_domain` gave it.
    guest_cpus: CpuPool,
    /// When the DomU's interrupt handler last started.
    guest_irq_at: Nanos,
    bdf: Bdf,
    pub(crate) backend: DeviceLifecycle<D::Backend>,
    events_processed: u64,
    monitor: Option<HealthMonitor>,
    heartbeat: Option<HeartbeatPublisher>,
    /// The driver domain is livelocked: alive and beating, data path dead.
    pub(crate) hung: bool,
    /// At least one backend queue is wedged (partial failure injected).
    queue_wedged: bool,
    /// A detected outage is being recovered (detect → reconnect window).
    recovering: bool,
    /// Injected fault events still scheduled; keeps the watchdog ticking.
    pending_faults: u32,
    slo_cfg: SloConfig,
    /// Stage attribution of the most recent SLO p99 breach the watchdog
    /// observed (request tracing on), for `kitetop`/health reporting.
    last_breach: Option<BreachAttribution>,
}

impl<D: Datapath> Deref for Host<D> {
    type Target = D;

    fn deref(&self) -> &D {
        &self.dp
    }
}

impl<D: Datapath> Host<D> {
    /// Builds the paper's canonical single-queue scenario: a
    /// [`SystemConfig`] with no knob turned.
    pub fn new(os: BackendOs) -> Host<D> {
        Host::from_config(&SystemConfig::new(os, 0))
    }

    /// Builds the scenario from a [`SystemConfig`]: the driver domain
    /// gets one vCPU per queue, the device is passed through to it, the
    /// pair is provisioned and both ends handshake to `Connected`; then
    /// every instrument the config asks for is switched on.
    pub(crate) fn from_config(cfg: &SystemConfig) -> Host<D> {
        let os = cfg.os;
        let nqueues = cfg.queues;
        let mut hv = Hypervisor::new();
        hv.create_domain("Domain-0", DomainKind::Dom0, 8192, 4);
        let driver = Self::create_driver(&mut hv, os, nqueues);
        let guest = hv.create_domain("guest", DomainKind::Guest, 5120, 22);

        let dev = D::pci_device();
        let bdf = dev.bdf;
        hv.pci.add_device(dev);
        hv.pci.make_assignable(bdf).expect("fresh device");
        hv.pci.assign(bdf, driver).expect("assignable");

        let (dp, backend_cfg) = D::build(cfg, &mut hv, driver);
        let paths = DevicePaths::new(guest, driver, D::Backend::KIND, 0);
        let (driver_cpus, guest_cpus) = (vcpus_of(&hv, driver), vcpus_of(&hv, guest));
        // `plug_device` re-aims the slot at whichever driver domain is
        // current; the slot keeps its config for life.
        let mut host = Host {
            _profiling: None,
            hv,
            os,
            recovery: RecoveryStats::default(),
            dp,
            queue: EventSched::new(cfg.scheduler),
            profile: os.profile(),
            driver,
            guest,
            nqueues,
            driver_cpus,
            guest_cpus,
            guest_irq_at: Nanos::ZERO,
            bdf,
            backend: DeviceLifecycle::new(paths, backend_cfg),
            events_processed: 0,
            monitor: None,
            heartbeat: None,
            hung: false,
            queue_wedged: false,
            recovering: false,
            pending_faults: 0,
            slo_cfg: cfg.slo.unwrap_or_default(),
            last_breach: None,
        };
        // Before the first handshake, so the trace shows it.
        if let Some(cap) = cfg.tracing {
            host.hv.trace.enable(cap);
        }
        host.plug_device();

        if let Some(n) = cfg.req_tracing {
            host.hv.req.enable(n, DEFAULT_REQ_CAPACITY);
        }
        if cfg.watchdog {
            host.enable_watchdog();
        }
        if cfg.profiling {
            kite_prof::enable();
            host._profiling = Some(ProfilerOn);
        }
        host
    }

    fn create_driver(hv: &mut Hypervisor, os: BackendOs, vcpus: u32) -> DomainId {
        let (name, mem) = match os {
            BackendOs::Kite => (D::KITE_DOMAIN, 1024),
            BackendOs::Linux => ("ubuntu-dd", 2048),
        };
        hv.create_domain(name, DomainKind::Driver, mem, vcpus)
    }

    /// Provisions the device pair for the current driver domain and
    /// walks both ends to `Connected` through the lifecycle slot: at
    /// construction, and again for every replacement domain.
    fn plug_device(&mut self) {
        let nqueues = self.nqueues;
        let kind = D::Backend::KIND;
        let mut mgr = BackendManager::new(self.driver, kind);
        mgr.start(&mut self.hv).expect("watch");
        let paths = DevicePaths::new(self.guest, self.driver, kind, 0);
        provision_device(&mut self.hv, &paths).expect("provision");
        if nqueues > 1 {
            // The toolstack advertises how many queues this backend
            // accepts; the frontend reads it and negotiates.
            let be = paths.backend();
            self.hv
                .store
                .write(
                    DomainId::DOM0,
                    None,
                    &format!("{be}/{MQ_MAX_QUEUES_KEY}"),
                    &nqueues.to_string(),
                )
                .expect("advertise queues");
        }
        self.dp.advertise(&mut self.hv, &paths);
        mgr.drain_events(&mut self.hv).expect("scan");
        self.dp.connect_frontend(&mut self.hv, &paths, nqueues);
        let ready = mgr.drain_events(&mut self.hv).expect("events");
        assert_eq!(ready.len(), 1, "frontend discovered via watch event");
        self.backend
            .retarget(&mut self.hv, ready[0].clone())
            .expect("slot empty");
        let be = self.backend.connect(&mut self.hv).expect("backend connect");
        self.dp.backend_connected(&mut self.hv, &paths, be);
        self.hv
            .switch_state(self.guest, &paths.frontend_state(), XenbusState::Connected)
            .expect("frontend connect");
    }

    /// Current virtual time.
    pub fn now(&self) -> Nanos {
        self.queue.now()
    }

    /// Schedules `fault` to strike the driver domain at `t`.
    pub fn fault_at(&mut self, t: Nanos, fault: Fault) {
        self.pending_faults += 1;
        self.queue.schedule_at(t, Event::Fault(fault));
    }

    /// Arms a fault plan: its per-op fault rates go live on the
    /// hypervisor.
    pub fn inject_faults(&mut self, plan: FaultPlan) {
        self.hv.faults = plan;
    }

    /// Switches failure detection from the oracle to the active
    /// watchdog: the driver domain starts publishing heartbeats and
    /// Dom0 starts probing them (plus ring progress and the SLO).
    fn enable_watchdog(&mut self) {
        let now = self.queue.now();
        self.monitor = Some(HealthMonitor::new(self.driver, now));
        self.heartbeat = Some(HeartbeatPublisher::new(self.driver));
        self.queue
            .schedule_at(now + HEARTBEAT_INTERVAL, Event::BeatTick);
        self.queue
            .schedule_at(now + PROBE_INTERVAL, Event::ProbeTick);
    }

    /// Queues on the currently connected backend (0 when down).
    pub fn queue_count(&self) -> usize {
        self.backend.device().map_or(0, |be| be.queue_count())
    }

    /// The active failure-detection mode: the watchdog when the config
    /// gave it a monitor, the oracle otherwise.
    pub fn detection_mode(&self) -> DetectionMode {
        if self.monitor.is_some() {
            DetectionMode::Watchdog
        } else {
            DetectionMode::Oracle
        }
    }

    /// The health monitor's current verdict, when the watchdog is on.
    pub fn health(&self) -> Option<HealthState> {
        self.monitor.as_ref().map(|m| m.state())
    }

    /// Whether the backend is currently up and serving.
    pub fn backend_alive(&self) -> bool {
        self.backend.is_connected() && !self.hung
    }

    /// Runs the event loop until `deadline`.
    pub fn run_until(&mut self, deadline: Nanos) {
        while let Some((now, ev)) = self.queue.pop_until(deadline) {
            self.events_processed += 1;
            self.handle(now, ev);
        }
    }

    /// Runs until no events remain.
    pub fn run_to_quiescence(&mut self) {
        self.run_until(Nanos::MAX);
    }

    /// Runs to quiescence, handing `view` the system at every `every` of
    /// virtual time from now, once every event up to that instant has
    /// run. The last call is at the first such instant after which no
    /// event remains, so a time series ends with the workload.
    pub fn run_every(&mut self, every: Nanos, mut view: impl FnMut(&Self, Nanos)) {
        let mut t = self.now();
        loop {
            t += every;
            self.run_until(t);
            view(self, t);
            if self.queue.is_empty() {
                return;
            }
        }
    }

    // ---- internals -----------------------------------------------------

    /// Schedules one of the datapath's own events.
    pub(crate) fn schedule_at(&mut self, t: Nanos, ev: D::Event) {
        self.queue.schedule_at(t, Event::Path(ev));
    }

    /// Schedules delivery of an event-channel notification raised at
    /// `done`: the one pattern every evtchn kick funnels through.
    fn sched_irq(&mut self, done: Nanos, n: Option<Notification>) {
        if let Some(n) = n {
            let delay = self.hv.irq_delay();
            self.queue.schedule_at(
                done + delay,
                Event::Irq {
                    dom: n.domain,
                    port: n.port,
                },
            );
        }
    }

    /// The backend kicks queue `q`'s frontend: sends on the queue's
    /// event channel, charges the send to driver vCPU `vcpu` once it is
    /// free after `after`, and schedules the guest's interrupt. Returns
    /// when the vCPU is done.
    pub(crate) fn kick_frontend(&mut self, vcpu: usize, q: usize, after: Nanos) -> Nanos {
        let port = self.backend.device().expect("connected").port_of(q);
        let (n, c) = self.hv.evtchn_send(self.driver, port).expect("channel");
        let done = self.driver_cpus.run_on(vcpu, after, c);
        self.sched_irq(done, n);
        done
    }

    /// The guest kicks the backend on its local `port`: charges the send
    /// to a guest vCPU after `after` and schedules the driver's
    /// interrupt. The channel dies with the backend domain, so a kick
    /// raised during an undetected-outage window is simply lost.
    pub(crate) fn kick_backend(&mut self, port: Port, after: Nanos) -> Nanos {
        let Ok((n, c)) = self.hv.evtchn_send(self.guest, port) else {
            return after;
        };
        let done = self.guest_cpu_run(after, c);
        self.sched_irq(done, n);
        done
    }

    /// Driver vCPU `vcpu` takes an interrupt at `now`: it wakes from
    /// however long it was idle, runs the handler, and returns when done.
    pub(crate) fn driver_irq(&mut self, vcpu: usize, now: Nanos, handler_cost: Nanos) -> Nanos {
        let idle = now.saturating_sub(self.driver_cpus.free_at(vcpu));
        let wake = self.profile.idle_wake.after(idle);
        self.driver_cpus.run_on(vcpu, now, wake + handler_cost)
    }

    /// The frontend's event channel fires in the DomU at `now`: the
    /// wake-from-halt latency `wake` and the handler's start `at`. A
    /// handler reaps its rings at the event, books `wake` plus its own
    /// cost from `now`, and delivers and resubmits at `at`. The wake
    /// shrinks as the guest gets busier, so a later interrupt could
    /// compute an earlier start: a vCPU already waking does not wake
    /// again earlier, and the handler's clock never runs backwards.
    pub(crate) fn guest_irq(&mut self, now: Nanos) -> (Nanos, Nanos) {
        let idle = now.saturating_sub(self.guest_cpus.drained_at());
        let wake = D::GUEST_WAKE.after(idle);
        let at = (now + wake).max(self.guest_irq_at);
        self.guest_irq_at = at;
        (wake, at)
    }

    /// Least-loaded dispatch over the DomU's vCPUs (the first of equally
    /// free vCPUs wins).
    pub(crate) fn guest_cpu_run(&mut self, now: Nanos, cost: Nanos) -> Nanos {
        self.guest_cpus.run_least_loaded(now, cost)
    }

    /// Books the first end-to-end payload after an outage, with its
    /// trace milestone.
    pub(crate) fn mark_first_byte(&mut self, now: Nanos) {
        if self.recovery.record_first_byte(now) {
            self.milestone(self.guest, "first_byte");
        }
    }

    fn milestone(&mut self, dom: DomainId, what: &'static str) {
        self.hv
            .trace
            .emit_with(dom.0, || EventKind::Milestone { what });
    }

    /// Drops the backend instance without teardown (its domain is dead
    /// or about to be destroyed) and lets the datapath harvest it.
    fn abandon_backend(&mut self) {
        if let Some(dead) = self.backend.abandon(&mut self.hv) {
            self.dp.backend_lost(&dead, &mut self.recovery);
        }
    }

    /// The driver domain dies mid-flight. No teardown code runs in it —
    /// Xen reclaims its grant mappings, ports and PCI devices, and the
    /// domain's heartbeat stops with it. Under the oracle, detection is
    /// immediate; under the watchdog, the frontend keeps talking to the
    /// dead backend until Dom0's monitor notices the silence.
    fn kill_driver(&mut self, now: Nanos) {
        if !self.backend.is_connected() || self.recovering {
            return; // already down
        }
        self.hung = false; // a dead domain no longer livelocks
        self.recovery.record_crash(now);
        self.milestone(self.driver, "kill");
        self.abandon_backend();
        self.hv
            .destroy_domain(self.driver)
            .expect("driver was alive");
        if self.detection_mode() == DetectionMode::Oracle {
            self.detect_failure(now);
        }
    }

    /// The driver domain livelocks (e.g. an interrupt storm or a spinning
    /// thread): the domain stays alive — and keeps publishing heartbeats
    /// — but the backend stops consuming requests. Only the watchdog's
    /// ring-progress detector can catch this; the oracle variant detects
    /// it immediately, for ablation.
    fn hang_driver(&mut self, now: Nanos) {
        if !self.backend.is_connected() || self.hung || self.recovering {
            return;
        }
        self.hung = true;
        self.recovery.record_hang(now);
        self.milestone(self.driver, "hang");
        if self.detection_mode() == DetectionMode::Oracle {
            self.detect_failure(now);
        }
    }

    /// One backend queue's thread wedges. The outage starts here even
    /// though nothing is counted as a crash or a hang: the watchdog's
    /// per-queue stall probe will fail the whole domain for it.
    fn wedge_queue(&mut self, now: Nanos, q: usize) {
        let Some(be) = self.backend.device_mut() else {
            return;
        };
        if q >= be.queue_count() {
            return;
        }
        be.set_queue_wedged(q, true);
        if self.recovery.outage_since.is_none() {
            self.recovery.record_wedge(now);
        }
        self.queue_wedged = true;
        self.milestone(self.driver, "wedge");
    }

    /// Dom0's toolstack learns the backend failed (oracle: at the fault;
    /// watchdog: when the monitor's verdict turns `Failed`): it destroys
    /// the domain if it still runs (livelock), walks the xenbus states so
    /// the frontend sees the device disappear, lets the datapath salvage
    /// what the dead backend never acknowledged, and schedules the
    /// replacement boot.
    fn detect_failure(&mut self, now: Nanos) {
        if self.recovering {
            return; // recovery already underway
        }
        self.recovering = true;
        self.abandon_backend();
        if self.hv.domains.alive(self.driver) {
            let _ = self.hv.destroy_domain(self.driver);
        }
        self.hung = false;
        self.queue_wedged = false;
        let d0 = DomainId::DOM0;
        let bs = self.backend.paths().backend_state();
        let _ = self.hv.switch_state(d0, &bs, XenbusState::Closing);
        let _ = self.hv.switch_state(d0, &bs, XenbusState::Closed);
        self.recovery.record_detect(now);
        self.milestone(d0, "detect");
        // The frontend observes `Closed` and retires the device;
        // `Closed` is what lets the toolstack re-provision the pair back
        // to `Initialising`.
        self.dp.salvage(&self.hv, &mut self.recovery);
        let fs = self.backend.paths().frontend_state();
        let _ = self.hv.switch_state(self.guest, &fs, XenbusState::Closing);
        let _ = self.hv.switch_state(self.guest, &fs, XenbusState::Closed);
        let boot = self.os.boot().total();
        self.queue.schedule_at(now + boot, Event::DriverRestarted);
    }

    /// The replacement driver domain finished booting: fresh domain id
    /// (Xen never reuses them), device re-assigned, application
    /// restarted, device pair re-provisioned, and both ends reconnected
    /// through the same lifecycle slot (offloads and queue counts are
    /// renegotiated from scratch, exactly as at first connect).
    /// Everything queued during the outage drains.
    fn driver_restarted(&mut self, now: Nanos) {
        let nqueues = self.nqueues;
        let driver = Self::create_driver(&mut self.hv, self.os, nqueues);
        self.driver = driver;
        self.milestone(driver, "reboot");
        self.driver_cpus = vcpus_of(&self.hv, driver);
        self.hv
            .pci
            .assign(self.bdf, driver)
            .expect("device back in pool");
        self.dp.driver_booted(&mut self.hv, driver);
        self.plug_device();
        self.recovery.record_reconnect(now);
        self.milestone(driver, "reconnect");
        self.recovering = false;
        if let Some(mon) = self.monitor.as_mut() {
            // The replacement domain's heartbeat task beats as soon as it
            // boots, and the monitor re-aims at the new domain id.
            let mut hb = HeartbeatPublisher::new(driver);
            let _ = hb.beat(&mut self.hv);
            self.heartbeat = Some(hb);
            mon.retarget(&mut self.hv, driver, now);
        }
        D::replay(self, now);
    }

    fn phase_of(ev: &Event<D::Event>) -> Phase {
        match ev {
            Event::Path(ev) => D::phase_of(ev),
            Event::Irq { .. } => Phase::DispatchIrq,
            Event::Fault(_) => Phase::DispatchFault,
            Event::DriverRestarted => Phase::DispatchRecovery,
            Event::BeatTick | Event::ProbeTick => Phase::DispatchHealthTick,
        }
    }

    fn handle(&mut self, now: Nanos, ev: Event<D::Event>) {
        let _prof = kite_prof::span_of(|| Self::phase_of(&ev));
        self.hv.trace.set_now(now);
        match ev {
            Event::Path(ev) => D::handle(self, now, ev),
            Event::Irq { dom, port } => {
                let _ = self.hv.evtchn.clear_pending(dom, port);
                if dom == self.driver {
                    if !self.backend.is_connected() || self.hung {
                        return; // stale interrupt, or a livelocked handler
                    }
                    // The backend's event channel: the handler runs on
                    // the vCPU the owning queue is pinned to, then wakes
                    // that queue's threads. A port no queue owns is as
                    // stale as one for a dead backend.
                    let be = self.backend.device().expect("checked");
                    let Some(q) = (0..be.queue_count()).find(|&q| be.port_of(q) == port) else {
                        return;
                    };
                    let cost = be.irq_handler_cost();
                    let t = self.driver_irq(q, now, cost);
                    D::run_backend(self, t, q);
                } else if dom == self.guest {
                    D::guest_irq(self, now, port);
                }
            }
            Event::Fault(fault) => {
                self.pending_faults = self.pending_faults.saturating_sub(1);
                match fault {
                    Fault::Kill => self.kill_driver(now),
                    Fault::Hang => self.hang_driver(now),
                    Fault::Wedge(q) => self.wedge_queue(now, q),
                }
            }
            Event::DriverRestarted => self.driver_restarted(now),
            Event::BeatTick => {
                // The heartbeat task runs inside the driver domain, so it
                // survives a livelock — but dies with the domain.
                if let Some(hb) = self.heartbeat.as_mut() {
                    let _ = hb.beat(&mut self.hv);
                }
                if self.watch_live() {
                    self.queue
                        .schedule_at(now + HEARTBEAT_INTERVAL, Event::BeatTick);
                }
            }
            Event::ProbeTick => {
                let Some(mut mon) = self.monitor.take() else {
                    return;
                };
                let samples: Vec<ProgressSample> = self
                    .backend
                    .device()
                    .map(|be| {
                        be.queue_progress(&self.hv)
                            .into_iter()
                            .map(|(consumed, pending)| ProgressSample { consumed, pending })
                            .collect()
                    })
                    .unwrap_or_default();
                let slo_ok = !slo::breached(self.dp.latency(), &self.slo_cfg);
                if !slo_ok {
                    // Name the stage dominating the tail while it breaches
                    // (needs request tracing; None otherwise).
                    self.last_breach = slo::attribute(&self.hv.req);
                }
                let verdict = mon.probe_queues(&mut self.hv, now, &samples, slo_ok);
                self.monitor = Some(mon);
                if verdict.is_failed() {
                    self.detect_failure(now);
                }
                if self.watch_live() {
                    self.queue
                        .schedule_at(now + PROBE_INTERVAL, Event::ProbeTick);
                }
            }
        }
    }

    /// Whether the watchdog's ticks should keep rescheduling themselves.
    ///
    /// A real watchdog polls forever; here the ticks stay armed only
    /// while a fault can still need detecting (one is scheduled, the
    /// backend is hung/down, or recovery is in flight) so that
    /// [`Host::run_to_quiescence`] terminates once the system settles
    /// into a healthy steady state.
    fn watch_live(&self) -> bool {
        self.detection_mode() == DetectionMode::Watchdog
            && (self.pending_faults > 0
                || self.hung
                || self.queue_wedged
                || self.recovering
                || !self.backend.is_connected())
    }

    // ---- measurement accessors ------------------------------------------

    /// Events processed (diagnostics).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// The scheduler backend this system's event loop runs on.
    pub fn scheduler_kind(&self) -> SchedulerKind {
        self.queue.kind()
    }

    /// Stage attribution of the most recent SLO breach the watchdog saw,
    /// when request tracing was on to supply per-stage histograms.
    pub fn last_breach(&self) -> Option<&BreachAttribution> {
        self.last_breach.as_ref()
    }

    /// Collects every row the datapath exports plus the recovery
    /// accounting into one named snapshot.
    pub fn metrics_snapshot(&self, scenario: impl Into<String>) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new(scenario);
        D::export(self, &mut snap);
        self.recovery.append_metrics(&mut snap);
        snap
    }

    /// Driver-domain mean vCPU utilization over a window.
    pub fn driver_cpu_percent(&self, window: Nanos) -> f64 {
        self.driver_cpus.utilization_percent(window)
    }

    /// Busy time of each driver-domain vCPU (one per queue), unclamped:
    /// the skew [`driver_cpu_percent`](Self::driver_cpu_percent)'s mean
    /// cannot show. Restarts with the driver domain.
    pub fn driver_cpu_busy_each(&self) -> Vec<Nanos> {
        self.driver_cpus.busy_each()
    }

    /// Guest mean vCPU utilization over a window (sysstat style).
    pub fn guest_cpu_percent(&self, window: Nanos) -> f64 {
        self.guest_cpus.utilization_percent(window)
    }

    /// The driver domain id.
    pub fn driver_domain(&self) -> DomainId {
        self.driver
    }

    /// The guest domain id.
    pub fn guest_domain(&self) -> DomainId {
        self.guest
    }

    /// Freezes a `kitetop` view of every domain (dead incarnations
    /// included) at the current virtual time.
    pub fn top_snapshot(&self) -> TopSnapshot {
        let at = self.queue.now();
        let secs = at.as_secs_f64();
        let ([requests, bytes, rx_dropped, gso_frames], qdepth) = D::top_cells(self);
        let (ring_consumed, ring_pending) = match self.backend.device() {
            Some(be) => be
                .queue_progress(&self.hv)
                .into_iter()
                .fold((0, 0), |(c, p), (qc, qp)| (c + qc, p + qp)),
            None => (0, 0),
        };
        let mut rows: Vec<TopRow> = self
            .hv
            .domains
            .iter_all()
            .map(|d| {
                let is_driver = d.id == self.driver;
                let (health, beat_age) = match &self.monitor {
                    Some(m) if m.target() == d.id => {
                        let h = match m.state() {
                            HealthState::Suspect { missed } => format!("suspect({missed})"),
                            s => s.name().to_string(),
                        };
                        (h, Some(m.heartbeat_age(at)))
                    }
                    _ => ("-".to_string(), None),
                };
                let (req_per_sec, mbytes_per_sec) = if is_driver && secs > 0.0 {
                    (requests as f64 / secs, bytes as f64 / 1e6 / secs)
                } else {
                    (0.0, 0.0)
                };
                TopRow {
                    dom: d.id.0,
                    name: d.name.clone(),
                    kind: match d.kind {
                        DomainKind::Dom0 => "dom0",
                        DomainKind::Driver => "driver",
                        DomainKind::Guest => "guest",
                    },
                    alive: d.state != DomainState::Dead,
                    health,
                    beat_age,
                    ring_pending: if is_driver { ring_pending } else { 0 },
                    ring_consumed: if is_driver { ring_consumed } else { 0 },
                    grants: self.hv.grants.live_grants(d.id),
                    maps: self.hv.grants.active_maps(d.id),
                    evtchns: self.hv.evtchn.open_ports(d.id),
                    req_per_sec,
                    mbytes_per_sec,
                    rx_dropped: if is_driver { rx_dropped } else { 0 },
                    gso_frames: if is_driver { gso_frames } else { 0 },
                    rx_qdepth: if is_driver {
                        qdepth.clone()
                    } else {
                        Vec::new()
                    },
                    p99_us: self
                        .hv
                        .req
                        .dom_hist(d.id.0)
                        .filter(|h| h.count() > 0)
                        .map(|h| h.quantile(0.99).as_nanos() as f64 / 1000.0),
                }
            })
            .collect();
        rows.sort_by_key(|r| r.dom);
        TopSnapshot { at, rows }
    }
}

#[cfg(test)]
impl<D: Datapath> Host<D> {
    /// Moves the request producer index of the guest's single-queue ring
    /// `key` (a `*ring-ref` key) more than a ring ahead, as a hostile
    /// guest could; the backend meets it at its next drain.
    pub(crate) fn corrupt_req_prod(&mut self, key: &str) {
        let path = format!("{}/{key}", self.backend.paths().frontend());
        let gref = self.hv.store.read(DomainId::DOM0, None, &path).unwrap();
        let gref = kite_xen::GrantRef(gref.parse().unwrap());
        let (m, _) = self
            .hv
            .map_grant(self.driver, self.guest, gref, false)
            .unwrap();
        let page = self.hv.mem.page_mut(m.page).unwrap();
        kite_xen::ring::sring::set_req_prod(page, 100_000);
        self.hv.unmap_grant(self.driver, m.handle).unwrap();
    }
}
