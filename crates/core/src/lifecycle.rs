//! The unified backend lifecycle API.
//!
//! Netback and blkback used to expose ad-hoc `connect`/`disconnect`
//! pairs; everything that managed them (the backend manager, the system
//! scenarios, the tests) re-implemented the same state walk by hand. This
//! module gives every backend driver one shape:
//!
//! * [`BackendDevice`] — the hooks a driver implements: `connect`,
//!   `close`, and the per-queue surface (ports, wedging, progress) the
//!   hosting system drives;
//! * `QueueState` — the per-queue state every backend keeps besides its
//!   rings: event channel, wedge flag, and the halt a corrupt request
//!   producer index triggers;
//! * [`DeviceLifecycle`] — the state driver that owns one device slot and
//!   performs the legal transitions (connect when the frontend published,
//!   orderly close, crash abandonment, connect again after a driver-domain
//!   restart — possibly to a *different* backend domain);
//! * [`RecoveryStats`] — what a system scenario reports about outages:
//!   reconnects, downtime, retried and dropped work.

use kite_sim::Nanos;
use kite_trace::EventKind;
use kite_xen::ring::{sring, RingEntry};
use kite_xen::xenbus::{read_state, BackEndpoint};
use kite_xen::{
    DeviceKind, DevicePaths, DomainId, Hypervisor, Port, Result, XenError, XenbusState,
};

/// Trace identity of a device slot: `<kind>/<frontend-domain>/<index>`.
fn device_label(kind: DeviceKind, paths: &DevicePaths) -> String {
    format!("{}/{}/{}", kind.as_str(), paths.front.0, paths.index)
}

/// Emits a [`EventKind::Lifecycle`] event for a slot transition,
/// attributed to the backend domain.
fn trace_transition(
    hv: &mut Hypervisor,
    kind: DeviceKind,
    paths: &DevicePaths,
    transition: &'static str,
) {
    let back = paths.back.0;
    hv.trace.emit_with(back, || EventKind::Lifecycle {
        device: device_label(kind, paths),
        transition,
    });
}

/// The lifecycle hooks every backend driver implements. The drivers'
/// thread bodies (netback's `pusher_run`/`soft_start_run`, blkback's
/// `request_thread_run`) are inherent methods the host calls per queue.
pub trait BackendDevice: Sized {
    /// Everything `connect` needs besides the device pair.
    type Config: Clone;
    /// The xenstore device kind this driver serves.
    const KIND: DeviceKind;

    /// Connects to a frontend that has published its details and flips
    /// the backend state to `Connected`.
    fn connect(hv: &mut Hypervisor, paths: &DevicePaths, cfg: &Self::Config) -> Result<Self>;

    /// The device pair this instance serves.
    fn device_paths(&self) -> DevicePaths;

    /// Full teardown: releases every resource, walks the backend state to
    /// `Closed`.
    fn close(self, hv: &mut Hypervisor) -> Result<()>;

    /// Number of negotiated queues (netback ring pairs, blkback rings).
    fn queue_count(&self) -> usize;

    /// Queue `q`'s backend-local event-channel port.
    fn port_of(&self, q: usize) -> Port;

    /// Cost of the event-channel interrupt handler (ack + wake the thread).
    fn irq_handler_cost(&self) -> Nanos;

    /// Wedges (or unwedges) queue `q`'s thread (fault injection).
    fn set_queue_wedged(&mut self, q: usize, wedged: bool);

    /// Per-queue `(consumed, pending)` ring-progress watermarks, the
    /// health monitor's stall-detection input.
    fn queue_progress(&self, hv: &Hypervisor) -> Vec<(u64, u64)>;
}

/// What one backend queue holds besides its rings.
pub(crate) struct QueueState {
    /// The queue's backend-local event-channel port.
    pub evtchn: Port,
    /// Fault injection: a wedged queue's threads never run (a stuck
    /// kthread) while the rest of the domain — heartbeats included —
    /// carries on. What per-queue stall detection must catch.
    pub wedged: bool,
    /// The frontend moved a ring's request producer index more than a
    /// ring ahead: the queue consumes nothing more for the rest of the
    /// instance.
    halted: bool,
}

impl QueueState {
    pub fn new(evtchn: Port) -> QueueState {
        QueueState {
            evtchn,
            wedged: false,
            halted: false,
        }
    }

    /// Whether the queue's threads may drain `ep` now: not wedged, and
    /// not halted. A frontend that moved `ep`'s `req_prod` more than a
    /// ring ahead halts the queue here, before any request is read, the
    /// way Linux's backends stop a queue ("Impossible number of
    /// requests" in xen-netback, "Frontend provided bogus ring requests"
    /// in xen-blkback): counted in `*halts` and traced as a
    /// `ring_corrupt` [`EventKind::RingReject`] on ring `queue`/`qid`.
    pub fn may_drain<Req: RingEntry, Rsp: RingEntry>(
        &mut self,
        hv: &mut Hypervisor,
        back: DomainId,
        ep: &BackEndpoint<Req, Rsp>,
        queue: &'static str,
        qid: usize,
        halts: &mut u64,
    ) -> Result<bool> {
        if self.wedged || self.halted {
            return Ok(false);
        }
        let page = hv.mem.page(ep.page)?;
        if ep.ring.unconsumed_requests(page) > ep.ring.size() {
            let id = sring::req_prod(page);
            self.halted = true;
            *halts += 1;
            let reason = "ring_corrupt";
            let qid = qid as u16;
            hv.trace.emit_with(back.0, || EventKind::RingReject {
                queue,
                qid,
                reason,
                id,
            });
        }
        Ok(!self.halted)
    }

    /// Closes the event channel.
    pub fn release(self, hv: &mut Hypervisor, back: DomainId) {
        // The port may already be closed from the guest's end.
        let _ = hv.evtchn.close(back, self.evtchn);
    }
}

/// Drives one [`BackendDevice`] slot through its lifecycle.
pub struct DeviceLifecycle<D: BackendDevice> {
    paths: DevicePaths,
    cfg: D::Config,
    device: Option<D>,
}

impl<D: BackendDevice> DeviceLifecycle<D> {
    /// Creates an empty (disconnected) slot for the device pair.
    pub fn new(paths: DevicePaths, cfg: D::Config) -> DeviceLifecycle<D> {
        DeviceLifecycle {
            paths,
            cfg,
            device: None,
        }
    }

    /// Points the slot at a new device pair — the driver-domain restart
    /// case, where the replacement backend has a fresh domain id. Only
    /// legal while disconnected.
    pub fn retarget(&mut self, hv: &mut Hypervisor, paths: DevicePaths) -> Result<()> {
        if self.device.is_some() {
            return Err(XenError::Inval);
        }
        self.paths = paths;
        trace_transition(hv, D::KIND, &self.paths, "retarget");
        Ok(())
    }

    /// The device pair the slot serves (or last served).
    pub fn paths(&self) -> &DevicePaths {
        &self.paths
    }

    /// The connected device, if any.
    pub fn device(&self) -> Option<&D> {
        self.device.as_ref()
    }

    /// The connected device, if any.
    pub fn device_mut(&mut self) -> Option<&mut D> {
        self.device.as_mut()
    }

    /// Whether a device is currently connected.
    pub fn is_connected(&self) -> bool {
        self.device.is_some()
    }

    /// The frontend's current xenbus state.
    pub fn frontend_state(&self, hv: &mut Hypervisor) -> XenbusState {
        read_state(&mut hv.store, self.paths.back, &self.paths.frontend_state())
    }

    /// Connects the slot. The frontend must have published its details
    /// (state `Initialised`); connecting an occupied slot is an error.
    pub fn connect(&mut self, hv: &mut Hypervisor) -> Result<&mut D> {
        if self.device.is_some() {
            return Err(XenError::Inval);
        }
        if self.frontend_state(hv) != XenbusState::Initialised {
            return Err(XenError::Again);
        }
        let d = D::connect(hv, &self.paths, &self.cfg)?;
        self.device = Some(d);
        trace_transition(hv, D::KIND, &self.paths, "connect");
        Ok(self.device.as_mut().expect("just set"))
    }

    /// Orderly teardown of the connected device (no-op when empty).
    pub fn close(&mut self, hv: &mut Hypervisor) -> Result<()> {
        match self.device.take() {
            Some(d) => {
                d.close(hv)?;
                trace_transition(hv, D::KIND, &self.paths, "close");
                Ok(())
            }
            None => Ok(()),
        }
    }

    /// Crash path: the backend domain died, so no teardown hypercalls can
    /// be issued on its behalf — the slot just abandons the instance
    /// (Xen reclaims a dead domain's grants, maps and ports). Returns the
    /// abandoned instance so the caller can harvest final stats.
    pub fn abandon(&mut self, hv: &mut Hypervisor) -> Option<D> {
        let d = self.device.take();
        if d.is_some() {
            trace_transition(hv, D::KIND, &self.paths, "abandon");
        }
        d
    }
}

/// What a system scenario reports about backend outages and recovery.
#[derive(Clone, Copy, Debug, Default)]
pub struct RecoveryStats {
    /// Driver-domain crashes observed.
    pub crashes: u64,
    /// Driver-domain livelocks (hang faults) observed.
    pub hangs: u64,
    /// Successful frontend reconnects after a crash.
    pub reconnects: u64,
    /// Total time the backend was down (crash to reconnect).
    pub downtime: Nanos,
    /// Acknowledged-but-unfinished operations replayed after reconnect
    /// (unacked Tx frames, in-flight block requests).
    pub retried_ops: u64,
    /// Frames dropped while the backend was away (world -> guest traffic
    /// has nowhere to go during the outage).
    pub dropped_frames: u64,
    /// Virtual time the most recent outage began (kill, hang or wedge).
    pub last_crash_at: Option<Nanos>,
    /// Start of the outage still in progress; cleared by
    /// [`RecoveryStats::record_reconnect`], so a later recovery can never
    /// bill the healthy interval since an older fault as downtime.
    pub outage_since: Option<Nanos>,
    /// Virtual time the most recent fault was *detected* — when the
    /// toolstack learned the backend was gone and started recovery. The
    /// oracle detector sets this at the fault timestamp; the watchdog
    /// sets it when the health monitor's verdict turns `Failed`.
    pub detect_at: Option<Nanos>,
    /// Virtual time the first payload moved end-to-end after the most
    /// recent crash.
    pub first_byte_at: Option<Nanos>,
}

impl RecoveryStats {
    /// Crash-to-first-byte recovery time of the most recent crash — the
    /// reproduction's analog of the paper's reboot-time table.
    pub fn crash_to_first_byte(&self) -> Option<Nanos> {
        Some(self.first_byte_at? - self.last_crash_at?)
    }

    /// Fault-to-detection latency of the most recent outage: zero for
    /// the oracle, up to `kite_health::DETECT_BOUND` for the watchdog.
    pub fn detect_latency(&self) -> Option<Nanos> {
        Some(self.detect_at? - self.last_crash_at?)
    }

    fn start_outage(&mut self, now: Nanos) {
        self.last_crash_at = Some(now);
        self.outage_since = Some(now);
        self.detect_at = None;
        self.first_byte_at = None;
    }

    /// Marks a crash at `now`, resetting the detection and first-byte
    /// markers.
    pub fn record_crash(&mut self, now: Nanos) {
        self.crashes += 1;
        self.start_outage(now);
    }

    /// Marks a livelock at `now`. The hung domain still runs (and beats),
    /// so this is not a crash — but it starts an outage, so the detection
    /// and first-byte markers reset just like [`RecoveryStats::record_crash`].
    pub fn record_hang(&mut self, now: Nanos) {
        self.hangs += 1;
        self.start_outage(now);
    }

    /// Marks a single-queue wedge at `now`. The domain neither died nor
    /// livelocked, so no counter moves — but the outage the watchdog will
    /// end by failing the domain starts here.
    pub fn record_wedge(&mut self, now: Nanos) {
        self.start_outage(now);
    }

    /// Marks the frontend's reconnect at `now`, closing the outage in
    /// progress and booking its extent as downtime.
    pub fn record_reconnect(&mut self, now: Nanos) {
        self.reconnects += 1;
        if let Some(t0) = self.outage_since.take() {
            self.downtime += now - t0;
        }
    }

    /// Marks the moment the most recent fault was detected.
    pub fn record_detect(&mut self, now: Nanos) {
        if self.last_crash_at.is_some() && self.detect_at.is_none() {
            self.detect_at = Some(now);
        }
    }

    /// Marks the first end-to-end payload after the most recent outage
    /// ended. Payloads that still move while it is in progress — frames
    /// already on the wire, or the healthy queues of a partial wedge —
    /// do not count.
    ///
    /// Returns whether this call set the marker — the system layer emits
    /// its `first_byte` trace milestone exactly when it did.
    pub fn record_first_byte(&mut self, now: Nanos) -> bool {
        let recovered = self.last_crash_at.is_some() && self.outage_since.is_none();
        if recovered && self.first_byte_at.is_none() {
            self.first_byte_at = Some(now);
            return true;
        }
        false
    }

    /// Appends the recovery counters and timings to a snapshot.
    pub fn append_metrics(&self, snap: &mut kite_trace::MetricsSnapshot) {
        snap.push_int("crashes", "count", self.crashes);
        snap.push_int("hangs", "count", self.hangs);
        snap.push_int("reconnects", "count", self.reconnects);
        snap.push_int("downtime", "ns", self.downtime.as_nanos());
        snap.push_int("retried_ops", "count", self.retried_ops);
        snap.push_int("dropped_frames", "count", self.dropped_frames);
        if let Some(lat) = self.detect_latency() {
            snap.push_int("detect_latency", "ns", lat.as_nanos());
        }
        if let Some(cfb) = self.crash_to_first_byte() {
            snap.push_int("crash_to_first_byte", "ns", cfb.as_nanos());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{provision_device, BackendManager};
    use crate::netback::NetbackInstance;
    use kite_frontends::Netfront;
    use kite_net::MacAddr;
    use kite_rumprun::kite_profile;
    use kite_xen::{DomainId, DomainKind};

    fn machine() -> (Hypervisor, DomainId, DomainId) {
        let mut hv = Hypervisor::new();
        hv.create_domain("Domain-0", DomainKind::Dom0, 8192, 4);
        let dd = hv.create_domain("netbackend", DomainKind::Driver, 1024, 1);
        let gu = hv.create_domain("guest", DomainKind::Guest, 5120, 22);
        (hv, dd, gu)
    }

    #[test]
    fn lifecycle_connect_close_reconnect() {
        let (mut hv, dd, gu) = machine();
        let mut mgr = BackendManager::new(dd, DeviceKind::Vif);
        mgr.start(&mut hv).unwrap();
        let paths = DevicePaths::new(gu, dd, DeviceKind::Vif, 0);
        provision_device(&mut hv, &paths).unwrap();
        mgr.drain_events(&mut hv).unwrap();

        let mut lc: DeviceLifecycle<NetbackInstance> =
            DeviceLifecycle::new(paths.clone(), kite_profile());
        // Frontend has not published yet: connect must refuse, not panic.
        assert_eq!(lc.connect(&mut hv).err(), Some(XenError::Again));

        let _nf = Netfront::connect(&mut hv, &paths, MacAddr::local(1)).unwrap();
        assert_eq!(mgr.drain_events(&mut hv).unwrap(), vec![paths.clone()]);
        lc.connect(&mut hv).unwrap();
        assert!(lc.is_connected());
        assert_eq!(lc.device().unwrap().device_paths(), paths);
        // Double connect is rejected.
        assert_eq!(lc.connect(&mut hv).err(), Some(XenError::Inval));

        // Close walks Closing -> Closed and frees everything the backend
        // mapped.
        lc.close(&mut hv).unwrap();
        assert!(!lc.is_connected());
        assert_eq!(hv.grants.active_maps(dd), 0);
        assert_eq!(
            read_state(&mut hv.store, dd, &paths.backend_state()),
            XenbusState::Closed
        );

        // Reconnect: the toolstack clears and re-provisions the pair, the
        // frontend republishes, and the same slot connects again.
        mgr.forget(&mut hv, gu, 0).unwrap();
        provision_device(&mut hv, &paths).unwrap();
        let _nf2 = Netfront::connect(&mut hv, &paths, MacAddr::local(1)).unwrap();
        mgr.drain_events(&mut hv).unwrap();
        lc.connect(&mut hv).unwrap();
        assert!(lc.is_connected());
    }

    #[test]
    fn abandon_gives_back_the_instance_without_teardown() {
        let (mut hv, dd, gu) = machine();
        let paths = DevicePaths::new(gu, dd, DeviceKind::Vif, 0);
        provision_device(&mut hv, &paths).unwrap();
        let mut mgr = BackendManager::new(dd, DeviceKind::Vif);
        mgr.start(&mut hv).unwrap();
        mgr.drain_events(&mut hv).unwrap();
        let _nf = Netfront::connect(&mut hv, &paths, MacAddr::local(1)).unwrap();
        let mut lc: DeviceLifecycle<NetbackInstance> =
            DeviceLifecycle::new(paths.clone(), kite_profile());
        lc.connect(&mut hv).unwrap();
        let maps = hv.grants.active_maps(dd);
        assert!(maps >= 2);
        let inst = lc.abandon(&mut hv).expect("was connected");
        // No hypercalls ran: mappings are still accounted to the (dead)
        // domain until Xen reclaims it.
        assert_eq!(hv.grants.active_maps(dd), maps);
        assert_eq!(inst.stats().tx_packets, 0);
        assert!(!lc.is_connected());
        // Retarget is now legal.
        let p2 = DevicePaths::new(gu, DomainId(9), DeviceKind::Vif, 0);
        lc.retarget(&mut hv, p2.clone()).unwrap();
        assert_eq!(lc.paths, p2);
    }

    #[test]
    fn recovery_stats_first_byte_arithmetic() {
        let mut rs = RecoveryStats::default();
        assert_eq!(rs.crash_to_first_byte(), None);
        assert!(!rs.record_first_byte(Nanos::from_millis(1)));
        assert_eq!(rs.first_byte_at, None, "no crash yet: nothing to mark");
        rs.record_crash(Nanos::from_millis(10));
        assert!(!rs.record_first_byte(Nanos::from_millis(11)));
        assert_eq!(rs.first_byte_at, None, "outage still in progress");
        rs.record_reconnect(Nanos::from_millis(15));
        assert!(rs.record_first_byte(Nanos::from_millis(17)));
        assert!(!rs.record_first_byte(Nanos::from_millis(25)));
        assert_eq!(rs.crash_to_first_byte(), Some(Nanos::from_millis(7)));
        assert_eq!(rs.downtime, Nanos::from_millis(5));
        // A second crash resets the marker.
        rs.record_crash(Nanos::from_millis(40));
        assert_eq!(rs.crash_to_first_byte(), None);
        assert_eq!(rs.crashes, 2);
    }

    #[test]
    fn recovery_stats_wedge_is_an_outage_without_a_counter() {
        let mut rs = RecoveryStats::default();
        rs.record_crash(Nanos::from_millis(10));
        rs.record_reconnect(Nanos::from_millis(30));
        // A later wedge restarts the clock: the healthy 30..100 ms
        // interval is not downtime.
        rs.record_wedge(Nanos::from_millis(100));
        rs.record_detect(Nanos::from_millis(102));
        rs.record_reconnect(Nanos::from_millis(110));
        assert_eq!((rs.crashes, rs.hangs, rs.reconnects), (1, 0, 2));
        assert_eq!(rs.detect_latency(), Some(Nanos::from_millis(2)));
        assert_eq!(rs.downtime, Nanos::from_millis(20 + 10));
        // A reconnect with no outage open books nothing.
        rs.record_reconnect(Nanos::from_millis(500));
        assert_eq!(rs.downtime, Nanos::from_millis(30));
    }

    #[test]
    fn recovery_stats_detect_latency_arithmetic() {
        let mut rs = RecoveryStats::default();
        assert_eq!(rs.detect_latency(), None);
        rs.record_detect(Nanos::from_millis(1));
        assert_eq!(rs.detect_at, None, "no fault yet: nothing to detect");
        rs.record_crash(Nanos::from_millis(10));
        rs.record_detect(Nanos::from_millis(12));
        // Only the first detection after a fault counts.
        rs.record_detect(Nanos::from_millis(99));
        assert_eq!(rs.detect_latency(), Some(Nanos::from_millis(2)));
        // A new fault resets the marker; a hang counts separately.
        rs.record_hang(Nanos::from_millis(40));
        assert_eq!(rs.detect_latency(), None);
        assert_eq!(rs.crash_to_first_byte(), None);
        assert_eq!((rs.crashes, rs.hangs), (1, 1));
        rs.record_detect(Nanos::from_millis(41));
        assert_eq!(rs.detect_latency(), Some(Nanos::from_millis(1)));
    }
}
