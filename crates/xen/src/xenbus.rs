//! Xenbus: the PV device connection state machine over xenstore.
//!
//! Each PV device has a *frontend area* under the guest's xenstore home and
//! a *backend area* under the driver domain's home. Both sides publish a
//! `state` node and watch the other side's; connection is a lock-step walk
//! through [`XenbusState`].
//!
//! This module also owns the PV queue endpoint every split driver shares:
//! queue-count negotiation ([`negotiate_front`], [`attach_back`]), and
//! publishing ([`FrontEndpoint`], [`publish_queue`]) or attaching
//! ([`BackAttach`], [`BackEndpoint`]) a queue's granted rings and event
//! channel. No other code formats or parses those xenstore keys.

use std::str::FromStr;

use crate::domain::DomainId;
use crate::error::{Result, XenError};
use crate::evtchn::Port;
use crate::grant::{GrantRef, MapHandle};
use crate::hypervisor::Hypervisor;
use crate::mem::PageId;
use crate::ring::{BackRing, FrontRing, RingEntry};
use crate::xenstore::Xenstore;

/// PV device connection states (`xenbus_state` ABI values).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum XenbusState {
    /// Initial/unknown.
    Unknown = 0,
    /// Device being set up by its toolstack.
    Initialising = 1,
    /// Backend waits for frontend details.
    InitWait = 2,
    /// Frontend published its details; waiting for backend connect.
    Initialised = 3,
    /// Both ends operational.
    Connected = 4,
    /// Shutdown requested.
    Closing = 5,
    /// Device closed.
    Closed = 6,
}

impl XenbusState {
    /// Parses an ABI value.
    pub fn from_value(v: u8) -> XenbusState {
        match v {
            1 => XenbusState::Initialising,
            2 => XenbusState::InitWait,
            3 => XenbusState::Initialised,
            4 => XenbusState::Connected,
            5 => XenbusState::Closing,
            6 => XenbusState::Closed,
            _ => XenbusState::Unknown,
        }
    }

    /// The ABI value, as xenstore holds it.
    pub fn value(self) -> &'static str {
        ["0", "1", "2", "3", "4", "5", "6"][self as usize]
    }

    /// Lower-case state name, as used in trace events and renderings.
    pub fn name(self) -> &'static str {
        match self {
            XenbusState::Unknown => "unknown",
            XenbusState::Initialising => "initialising",
            XenbusState::InitWait => "initwait",
            XenbusState::Initialised => "initialised",
            XenbusState::Connected => "connected",
            XenbusState::Closing => "closing",
            XenbusState::Closed => "closed",
        }
    }

    /// Whether `self -> next` is a legal transition.
    ///
    /// `Closing` may be entered from any live state (crash/unplug); a
    /// `Closed` device may be re-provisioned back to `Initialising`
    /// (driver-domain restart); all other transitions follow the connect
    /// handshake.
    pub fn can_transition_to(self, next: XenbusState) -> bool {
        use XenbusState::*;
        if next == Closing {
            return !matches!(self, Closed | Unknown);
        }
        matches!(
            (self, next),
            (Unknown, Initialising)
                | (Closed, Initialising)
                | (Initialising, InitWait)
                | (Initialising, Initialised)
                | (InitWait, Initialised)
                | (InitWait, Connected)
                | (Initialised, Connected)
                | (Closing, Closed)
        )
    }
}

/// Kind of a PV device, as named in xenstore paths.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DeviceKind {
    /// Virtual network interface (`vif`).
    Vif,
    /// Virtual block device (`vbd`).
    Vbd,
}

impl DeviceKind {
    /// The path component used in xenstore.
    pub fn as_str(self) -> &'static str {
        match self {
            DeviceKind::Vif => "vif",
            DeviceKind::Vbd => "vbd",
        }
    }
}

/// Backend advertisement key, written by the toolstack under the
/// backend path: the most queues the backend accepts.
pub const MQ_MAX_QUEUES_KEY: &str = "multi-queue-max-queues";

/// Negotiated queue-count key, written by the frontend once it has
/// clamped its own capacity to the backend's advertisement.
const MQ_NUM_QUEUES_KEY: &str = "multi-queue-num-queues";

/// Per-queue key holding the frontend's unbound event-channel port.
const EVENT_CHANNEL_KEY: &str = "event-channel";

/// Queues a backend accepts when the toolstack wrote no
/// `multi-queue-max-queues` advertisement for it.
const DEFAULT_MAX_QUEUES: u32 = 8;

/// Segmentation-offload advertisement key (`feature-gso-tcpv4`). The
/// toolstack writes `1` under the backend path when the backend can
/// segment super-frames; a willing frontend echoes `1` under its own
/// path. GSO descriptor chains are legal on the rings only when both
/// writes happened — either side staying silent falls back to
/// single-slot frames.
pub const FEATURE_GSO_KEY: &str = "feature-gso-tcpv4";

/// Path helpers for one frontend/backend device pair.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DevicePaths {
    /// Guest domain running the frontend.
    pub front: DomainId,
    /// Driver domain running the backend.
    pub back: DomainId,
    /// Device kind.
    pub kind: DeviceKind,
    /// Device index within the guest (0 for the first vif/vbd).
    pub index: u32,
}

impl DevicePaths {
    /// Creates path helpers for device `index` of `kind` between domains.
    pub fn new(front: DomainId, back: DomainId, kind: DeviceKind, index: u32) -> DevicePaths {
        DevicePaths {
            front,
            back,
            kind,
            index,
        }
    }

    /// The frontend area: `/local/domain/<front>/device/<kind>/<index>`.
    pub fn frontend(&self) -> String {
        self.frontend_and("")
    }

    /// The backend area:
    /// `/local/domain/<back>/backend/<kind>/<front>/<index>`.
    pub fn backend(&self) -> String {
        self.backend_and("")
    }

    /// The frontend area followed by `suffix`, formatted once.
    fn frontend_and(&self, suffix: &str) -> String {
        let (front, kind, index) = (self.front.0, self.kind.as_str(), self.index);
        format!("/local/domain/{front}/device/{kind}/{index}{suffix}")
    }

    /// The backend area followed by `suffix`, formatted once.
    fn backend_and(&self, suffix: &str) -> String {
        let (back, kind, front, index) =
            (self.back.0, self.kind.as_str(), self.front.0, self.index);
        format!("/local/domain/{back}/backend/{kind}/{front}/{index}{suffix}")
    }

    /// The backend watch root for discovering new frontends:
    /// `/local/domain/<back>/backend/<kind>`.
    pub fn backend_root(back: DomainId, kind: DeviceKind) -> String {
        format!("/local/domain/{}/backend/{}", back.0, kind.as_str())
    }

    /// Frontend `state` node path.
    pub fn frontend_state(&self) -> String {
        self.frontend_and("/state")
    }

    /// Backend `state` node path.
    pub fn backend_state(&self) -> String {
        self.backend_and("/state")
    }

    /// Parses a backend-area path back into its device coordinates.
    ///
    /// Accepts any path at or below a backend device directory; returns
    /// `None` for paths that do not identify a complete device.
    pub fn parse_backend_path(path: &str) -> Option<DevicePaths> {
        // local domain <back> backend <kind> <front> <index> ...
        let mut segs = [""; 7];
        let mut split = path.strip_prefix('/')?.split('/');
        for seg in &mut segs {
            *seg = split.next()?;
        }
        if segs[0] != "local" || segs[1] != "domain" || segs[3] != "backend" {
            return None;
        }
        let back = DomainId(segs[2].parse().ok()?);
        let kind = match segs[4] {
            "vif" => DeviceKind::Vif,
            "vbd" => DeviceKind::Vbd,
            _ => return None,
        };
        let front = DomainId(segs[5].parse().ok()?);
        let index = segs[6].parse().ok()?;
        Some(DevicePaths::new(front, back, kind, index))
    }
}

/// Reads a numeric key the peer wrote. A key that is absent or does not
/// parse as a `T` is a malformed publication: [`XenError::Inval`], never
/// a panic and never a silent default.
pub fn read_key<T: FromStr>(hv: &mut Hypervisor, caller: DomainId, path: &str) -> Result<T> {
    read_optional_key(hv, caller, path)?.ok_or(XenError::Inval)
}

/// [`read_key`] for keys with a documented default: absence is `None`.
fn read_optional_key<T: FromStr>(
    hv: &mut Hypervisor,
    caller: DomainId,
    path: &str,
) -> Result<Option<T>> {
    match hv.store.read(caller, None, path) {
        Ok(v) => v.parse().map(Some).map_err(|_| XenError::Inval),
        Err(XenError::NoEnt) => Ok(None),
        Err(e) => Err(e),
    }
}

/// Path of queue `k`'s `key` under frontend area `fe` in an
/// `nqueues`-queue layout: `<fe>/<key>` when the negotiated count is 1,
/// `<fe>/queue-<k>/<key>` otherwise. The one place the fallback-to-flat
/// rule lives: a count of one never writes or reads a multi-queue key.
fn queue_key(fe: &str, nqueues: u32, k: u32, key: &str) -> String {
    if nqueues <= 1 {
        format!("{fe}/{key}")
    } else {
        format!("{fe}/queue-{k}/{key}")
    }
}

/// Which shared ring of a queue a `*ring-ref` key names.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RingKey {
    /// Netif guest → world ring (`tx-ring-ref`).
    Tx,
    /// Netif world → guest ring (`rx-ring-ref`).
    Rx,
    /// The blkif request ring (`ring-ref`).
    Blk,
}

impl RingKey {
    fn as_str(self) -> &'static str {
        match self {
            RingKey::Tx => "tx-ring-ref",
            RingKey::Rx => "rx-ring-ref",
            RingKey::Blk => "ring-ref",
        }
    }
}

/// Frontend half of queue negotiation: reads the backend's
/// `multi-queue-max-queues` advertisement (absent means 1), clamps
/// `max_queues` against it (never below 1) and publishes the result —
/// `multi-queue-max-queues` when the frontend can drive more than one
/// queue, `multi-queue-num-queues` when more than one was negotiated.
/// A count of 1 writes neither key and keeps the flat layout.
pub fn negotiate_front(hv: &mut Hypervisor, paths: &DevicePaths, max_queues: u32) -> Result<u32> {
    let guest = paths.front;
    let advertised = format!("{}/{MQ_MAX_QUEUES_KEY}", paths.backend());
    let back_max: u32 = read_optional_key(hv, guest, &advertised)?.unwrap_or(1);
    let nqueues = max_queues.max(1).min(back_max.max(1));
    if max_queues > 1 {
        let key = format!("{}/{MQ_MAX_QUEUES_KEY}", paths.frontend());
        hv.store.write(guest, None, &key, &max_queues.to_string())?;
    }
    if nqueues > 1 {
        let key = format!("{}/{MQ_NUM_QUEUES_KEY}", paths.frontend());
        hv.store.write(guest, None, &key, &nqueues.to_string())?;
    }
    Ok(nqueues)
}

/// Frontend side of one shared ring: the guest-owned page, the producer
/// state over it, and the grant the backend maps it through.
pub struct FrontEndpoint<Req, Rsp> {
    /// Request-producer / response-consumer state.
    pub ring: FrontRing<Req, Rsp>,
    /// The shared ring page.
    pub page: PageId,
    key: RingKey,
    gref: GrantRef,
}

impl<Req: RingEntry, Rsp: RingEntry> FrontEndpoint<Req, Rsp> {
    /// Allocates the ring page in the guest, initialises the shared ring
    /// in it and grants it (read-write) to the backend domain.
    pub fn alloc(hv: &mut Hypervisor, paths: &DevicePaths, key: RingKey) -> Result<Self> {
        let page = hv.alloc_page(paths.front)?;
        let ring = FrontRing::init(hv.mem.page_mut(page)?);
        let gref = hv.grant_access(paths.front, paths.back, page, false)?;
        Ok(FrontEndpoint {
            ring,
            page,
            key,
            gref,
        })
    }

    /// The key/grant pair [`publish_queue`] writes for this ring.
    pub fn ring_ref(&self) -> (RingKey, GrantRef) {
        (self.key, self.gref)
    }
}

/// Publishes queue `k` of an `nqueues`-queue frontend: allocates the
/// queue's unbound event channel, then writes each ring's `*ring-ref`
/// (in the order given) followed by `event-channel` under the queue's
/// key directory. Returns the guest-local port.
pub fn publish_queue(
    hv: &mut Hypervisor,
    paths: &DevicePaths,
    nqueues: u32,
    k: u32,
    rings: &[(RingKey, GrantRef)],
) -> Result<Port> {
    let guest = paths.front;
    let fe = paths.frontend();
    let (port, _) = hv.evtchn_alloc_unbound(guest, paths.back);
    for (key, gref) in rings {
        let path = queue_key(&fe, nqueues, k, key.as_str());
        hv.store.write(guest, None, &path, &gref.0.to_string())?;
    }
    let path = queue_key(&fe, nqueues, k, EVENT_CHANNEL_KEY);
    hv.store.write(guest, None, &path, &port.0.to_string())?;
    Ok(port)
}

/// Backend side of one shared ring: the mapped page, the consumer state
/// over it, and the mapping to release at teardown.
pub struct BackEndpoint<Req, Rsp> {
    /// Request-consumer / response-producer state.
    pub ring: BackRing<Req, Rsp>,
    /// The shared ring page, mapped from the frontend.
    pub page: PageId,
    handle: MapHandle,
}

impl<Req: RingEntry, Rsp: RingEntry> BackEndpoint<Req, Rsp> {
    /// Ring-progress watermarks `(consumed, pending)`: the lifetime
    /// request-consumer index, which moves only when the queue's thread
    /// runs, and the published requests it has not picked up yet.
    pub fn progress(&self, hv: &Hypervisor) -> (u64, u64) {
        let pending = match hv.mem.page(self.page) {
            Ok(page) => self.ring.unconsumed_requests(page) as u64,
            Err(_) => 0,
        };
        (self.ring.req_cons() as u64, pending)
    }

    /// Unmaps the ring page (orderly `close`).
    pub fn detach(self, hv: &mut Hypervisor, back: DomainId) -> Result<()> {
        hv.unmap_grant(back, self.handle).map(|_| ())
    }
}

/// The backend half of one device's `connect`: the negotiated queue count
/// plus a log of every ring mapped and port bound so far, so that a later
/// failing step can leave the driver domain exactly as it found it.
pub struct BackAttach {
    back: DomainId,
    front: DomainId,
    fe: String,
    nqueues: u32,
    log: Vec<Attached>,
}

/// One thing a [`BackAttach`] acquired, in acquisition order.
enum Attached {
    Map(MapHandle),
    Port(Port),
}

impl BackAttach {
    /// Number of queues the frontend negotiated.
    pub fn queues(&self) -> u32 {
        self.nqueues
    }

    /// Reads queue `k`'s `*ring-ref`, maps the granted page writable (the
    /// backend writes its responses there) and attaches a consumer to it.
    pub fn ring<Req: RingEntry, Rsp: RingEntry>(
        &mut self,
        hv: &mut Hypervisor,
        k: u32,
        key: RingKey,
    ) -> Result<BackEndpoint<Req, Rsp>> {
        let path = queue_key(&self.fe, self.nqueues, k, key.as_str());
        let gref = GrantRef(read_key(hv, self.back, &path)?);
        let (mapping, _) = hv.map_grant(self.back, self.front, gref, false)?;
        self.log.push(Attached::Map(mapping.handle));
        Ok(BackEndpoint {
            ring: BackRing::attach(),
            page: mapping.page,
            handle: mapping.handle,
        })
    }

    /// Reads queue `k`'s `event-channel` and binds to the frontend's
    /// unbound port. Returns the backend-local port.
    pub fn event_channel(&mut self, hv: &mut Hypervisor, k: u32) -> Result<Port> {
        let path = queue_key(&self.fe, self.nqueues, k, EVENT_CHANNEL_KEY);
        let remote = Port(read_key(hv, self.back, &path)?);
        let (port, _) = hv.evtchn_bind(self.back, self.front, remote)?;
        self.log.push(Attached::Port(port));
        Ok(port)
    }

    fn undo(self, hv: &mut Hypervisor) {
        // Best effort: each handle and port was created by this attach, so
        // a release can only fail if the driver domain itself is gone.
        for attached in self.log.into_iter().rev() {
            let _ = match attached {
                Attached::Map(handle) => hv.unmap_grant(self.back, handle).map(drop),
                Attached::Port(port) => hv.evtchn.close(self.back, port),
            };
        }
    }
}

/// Runs the backend half of a device `connect`.
///
/// Negotiation first: the queue count is whatever the frontend wrote to
/// `multi-queue-num-queues` (absent or `0` means 1 — the flat layout),
/// validated against the backend's own `multi-queue-max-queues`
/// advertisement (absent means `DEFAULT_MAX_QUEUES`); a frontend asking
/// for more than was advertised is refused with [`XenError::Inval`].
/// `build` then attaches rings and binds event channels through the
/// [`BackAttach`] it is handed. If `build` fails at any step — a bad key
/// on a later queue, a failed feature write, a refused state switch —
/// everything attached so far is unmapped and closed before the error
/// returns.
pub fn attach_back<T>(
    hv: &mut Hypervisor,
    paths: &DevicePaths,
    build: impl FnOnce(&mut Hypervisor, &mut BackAttach) -> Result<T>,
) -> Result<T> {
    let back = paths.back;
    let fe = paths.frontend();
    let requested = format!("{fe}/{MQ_NUM_QUEUES_KEY}");
    let nqueues: u32 = read_optional_key(hv, back, &requested)?.unwrap_or(1).max(1);
    let advertised = format!("{}/{MQ_MAX_QUEUES_KEY}", paths.backend());
    let max = read_optional_key(hv, back, &advertised)?.unwrap_or(DEFAULT_MAX_QUEUES);
    if nqueues > max {
        return Err(XenError::Inval);
    }
    let mut attach = BackAttach {
        back,
        front: paths.front,
        fe,
        nqueues,
        log: Vec::new(),
    };
    let built = build(hv, &mut attach);
    if built.is_err() {
        attach.undo(hv);
    }
    built
}

/// Reads a device `state` node, treating absence as `Unknown`.
pub fn read_state(xs: &mut Xenstore, caller: DomainId, state_path: &str) -> XenbusState {
    match xs.read(caller, None, state_path) {
        Ok(v) => XenbusState::from_value(v.parse().unwrap_or(0)),
        Err(_) => XenbusState::Unknown,
    }
}

/// Writes a device `state` node, validating the transition.
pub fn switch_state(
    xs: &mut Xenstore,
    caller: DomainId,
    state_path: &str,
    next: XenbusState,
) -> Result<()> {
    let cur = read_state(xs, caller, state_path);
    if cur == next {
        return Ok(());
    }
    if !cur.can_transition_to(next) {
        return Err(XenError::Inval);
    }
    xs.write(caller, None, state_path, next.value())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_values_match_abi() {
        assert_eq!(XenbusState::Initialising.value(), "1");
        assert_eq!(XenbusState::Connected.value(), "4");
        assert_eq!(XenbusState::from_value(6), XenbusState::Closed);
        assert_eq!(XenbusState::from_value(99), XenbusState::Unknown);
    }

    #[test]
    fn handshake_transitions_legal() {
        use XenbusState::*;
        assert!(Unknown.can_transition_to(Initialising));
        assert!(Initialising.can_transition_to(InitWait));
        assert!(InitWait.can_transition_to(Initialised));
        assert!(Initialised.can_transition_to(Connected));
        assert!(Connected.can_transition_to(Closing));
        assert!(Closing.can_transition_to(Closed));
        // Re-provision after teardown (driver-domain restart).
        assert!(Closed.can_transition_to(Initialising));
        // Illegal jumps.
        assert!(!Unknown.can_transition_to(Connected));
        assert!(!Connected.can_transition_to(Initialising));
        assert!(!Closed.can_transition_to(Closing));
        assert!(!Closed.can_transition_to(Connected));
    }

    #[test]
    fn paths_follow_convention() {
        let p = DevicePaths::new(DomainId(2), DomainId(1), DeviceKind::Vif, 0);
        assert_eq!(p.frontend(), "/local/domain/2/device/vif/0");
        assert_eq!(p.backend(), "/local/domain/1/backend/vif/2/0");
        assert_eq!(p.backend_state(), "/local/domain/1/backend/vif/2/0/state");
        assert_eq!(
            DevicePaths::backend_root(DomainId(1), DeviceKind::Vbd),
            "/local/domain/1/backend/vbd"
        );
    }

    #[test]
    fn queue_paths_fall_back_to_flat() {
        let p = DevicePaths::new(DomainId(2), DomainId(1), DeviceKind::Vif, 0);
        // Negotiated count of 1 keeps the flat layout.
        let fe = p.frontend();
        assert_eq!(queue_key(&fe, 1, 0, "ring-ref"), format!("{fe}/ring-ref"));
        assert_eq!(
            queue_key(&fe, 4, 2, "ring-ref"),
            format!("{fe}/queue-2/ring-ref")
        );
    }

    #[test]
    fn front_negotiation_clamps_and_publishes() {
        use crate::domain::DomainKind;
        // (backend advertises, frontend offers) -> negotiated.
        for (back, front, want) in [
            (Some(4), 8, 4),
            (Some(8), 2, 2),
            (Some(4), 0, 1),
            (None, 8, 1),
        ] {
            let mut hv = Hypervisor::new();
            let d0 = hv.create_domain("Domain-0", DomainKind::Dom0, 1024, 1);
            let dd = hv.create_domain("dd", DomainKind::Driver, 256, 1);
            let gu = hv.create_domain("guest", DomainKind::Guest, 256, 1);
            let p = DevicePaths::new(gu, dd, DeviceKind::Vif, 0);
            // The toolstack provisions the backend area guest-readable.
            let be = p.backend();
            hv.store
                .write(d0, None, &format!("{be}/frontend"), &p.frontend())
                .unwrap();
            hv.store
                .set_perm(d0, &be, gu, crate::xenstore::Perm::Read)
                .unwrap();
            if let Some(n) = back {
                let key = format!("{be}/{MQ_MAX_QUEUES_KEY}");
                hv.store.write(d0, None, &key, &n.to_string()).unwrap();
            }
            assert_eq!(negotiate_front(&mut hv, &p, front), Ok(want));
            // A count of one publishes no negotiated-count key.
            let num: Option<u32> = read_optional_key(
                &mut hv,
                d0,
                &format!("{}/{MQ_NUM_QUEUES_KEY}", p.frontend()),
            )
            .unwrap();
            assert_eq!(num, (want > 1).then_some(want));
        }
    }

    #[test]
    fn parse_backend_path_roundtrip() {
        let p = DevicePaths::new(DomainId(3), DomainId(1), DeviceKind::Vbd, 2);
        assert_eq!(
            DevicePaths::parse_backend_path(&p.backend_state()),
            Some(p.clone())
        );
        assert_eq!(DevicePaths::parse_backend_path(&p.backend()), Some(p));
        assert_eq!(
            DevicePaths::parse_backend_path("/local/domain/1/backend/vif"),
            None
        );
        assert_eq!(DevicePaths::parse_backend_path("/foo/bar"), None);
    }

    #[test]
    fn switch_state_enforces_machine() {
        let mut xs = Xenstore::new();
        let d0 = DomainId::DOM0;
        let path = "/local/domain/1/backend/vif/2/0/state";
        switch_state(&mut xs, d0, path, XenbusState::Initialising).unwrap();
        assert_eq!(read_state(&mut xs, d0, path), XenbusState::Initialising);
        switch_state(&mut xs, d0, path, XenbusState::InitWait).unwrap();
        // Cannot jump back.
        assert_eq!(
            switch_state(&mut xs, d0, path, XenbusState::Initialising),
            Err(XenError::Inval)
        );
        // Idempotent writes are fine.
        switch_state(&mut xs, d0, path, XenbusState::InitWait).unwrap();
        // Crash path: anything live may close.
        switch_state(&mut xs, d0, path, XenbusState::Closing).unwrap();
        switch_state(&mut xs, d0, path, XenbusState::Closed).unwrap();
    }
}
