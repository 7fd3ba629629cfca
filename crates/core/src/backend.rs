//! Backend invocation: discovering frontends via xenstore watches.
//!
//! §4.1 of the paper: the backend driver sets a watch on its backend root
//! in xenstore; the dedicated watch-handler thread wakes on any path change,
//! queries xenbus for unpaired frontends, and creates a backend instance
//! for each. This module implements that flow plus the toolstack-side
//! provisioning (what `xl` does in Dom0 when a guest config lists a device).

use std::collections::{HashMap, HashSet};

use kite_xen::xenbus::read_state;
use kite_xen::{
    DeviceKind, DevicePaths, DomainId, Hypervisor, Perm, Result, WatchEvent, XenError, XenbusState,
};

/// Provisions the xenstore areas for one device pair, as the toolstack in
/// Dom0 does: creates both directories, grants each side access to the
/// other's area, and sets both states to `Initialising`.
///
/// The state writes go through [`Hypervisor::switch_state`], so re-provisioning a
/// device whose previous incarnation is still mid-handshake is rejected;
/// a torn-down (`Closed`) or cleared (`Unknown`) pair re-enters
/// `Initialising` legally.
pub fn provision_device(hv: &mut Hypervisor, paths: &DevicePaths) -> Result<()> {
    let d0 = DomainId::DOM0;
    let fe = paths.frontend();
    let be = paths.backend();
    hv.store.write(d0, None, &format!("{fe}/backend"), &be)?;
    hv.store.write(d0, None, &format!("{be}/frontend"), &fe)?;
    hv.switch_state(d0, &paths.frontend_state(), XenbusState::Initialising)?;
    hv.switch_state(d0, &paths.backend_state(), XenbusState::Initialising)?;
    // The frontend's area is writable by the guest, readable by the driver
    // domain — and vice versa.
    hv.store.set_perm(d0, &fe, paths.front, Perm::ReadWrite)?;
    hv.store.set_perm(d0, &fe, paths.back, Perm::Read)?;
    hv.store.set_perm(d0, &be, paths.back, Perm::ReadWrite)?;
    hv.store.set_perm(d0, &be, paths.front, Perm::Read)?;
    Ok(())
}

/// The per-driver-domain backend manager: one watch on the backend root
/// plus one watch per discovered device on the peer frontend's `state`
/// node (as real netback does), one handler thread, instances spawned on
/// demand.
pub struct BackendManager {
    /// The driver domain this manager runs in.
    pub domain: DomainId,
    /// The device kind it serves.
    pub kind: DeviceKind,
    watch: Option<kite_xen::WatchId>,
    /// Per-device frontend-state watches: how the handler learns the
    /// frontend went `Initialised` without rescanning the root.
    front_watches: HashMap<kite_xen::WatchId, (DomainId, u32)>,
    known: HashSet<(DomainId, u32)>,
}

impl BackendManager {
    /// Creates a manager; call [`BackendManager::start`] to arm the watch.
    pub fn new(domain: DomainId, kind: DeviceKind) -> BackendManager {
        BackendManager {
            domain,
            kind,
            watch: None,
            front_watches: HashMap::new(),
            known: HashSet::new(),
        }
    }

    /// Registers the xenstore watch on the backend root. The registration
    /// itself fires once (Xen semantics), which triggers the initial scan.
    pub fn start(&mut self, hv: &mut Hypervisor) -> Result<()> {
        let root = DevicePaths::backend_root(self.domain, self.kind);
        // Ensure the root exists so the directory scan works even before
        // the first device is provisioned.
        let _ = hv.store.write(DomainId::DOM0, None, &root, "");
        hv.store
            .set_perm(DomainId::DOM0, &root, self.domain, Perm::ReadWrite)?;
        let w = hv.store.watch(self.domain, &root, "backend-root")?;
        self.watch = Some(w);
        Ok(())
    }

    /// True when the event is for this manager's root watch or one of its
    /// per-device frontend watches.
    pub fn owns_event(&self, ev: &WatchEvent) -> bool {
        ev.domain == self.domain
            && (Some(ev.watch) == self.watch || self.front_watches.contains_key(&ev.watch))
    }

    /// The watch-handler thread body: scans the backend root for frontends
    /// that published their details (state `Initialised`) and are not yet
    /// paired. Returns the device coordinates to instantiate.
    ///
    /// Also advertises `InitWait` on freshly provisioned devices so the
    /// frontend knows the backend exists.
    ///
    /// A missing root means "no devices yet"; every other xenstore error
    /// (permission, quota…) is real and propagates.
    pub fn scan(&mut self, hv: &mut Hypervisor) -> Result<Vec<DevicePaths>> {
        let root = DevicePaths::backend_root(self.domain, self.kind);
        let mut ready = Vec::new();
        let fronts = match hv.xs_directory(self.domain, &root).0 {
            Ok(v) => v,
            Err(XenError::NoEnt) => return Ok(ready),
            Err(e) => return Err(e),
        };
        for f in fronts {
            let front: DomainId = match f.parse::<u16>() {
                Ok(n) => DomainId(n),
                Err(_) => continue,
            };
            let indices = match hv.xs_directory(self.domain, &format!("{root}/{f}")).0 {
                Ok(v) => v,
                Err(XenError::NoEnt) => continue,
                Err(e) => return Err(e),
            };
            for idx in indices {
                let index: u32 = match idx.parse() {
                    Ok(n) => n,
                    Err(_) => continue,
                };
                let paths = DevicePaths::new(front, self.domain, self.kind, index);
                if let Some(p) = self.examine(hv, paths)? {
                    ready.push(p);
                }
            }
        }
        Ok(ready)
    }

    /// Inspects one device pair: advertises `InitWait` on a freshly
    /// provisioned backend, arms a watch on the peer frontend's `state`
    /// node, and returns the paths when the frontend has published its
    /// details and the pair is not yet instantiated.
    fn examine(&mut self, hv: &mut Hypervisor, paths: DevicePaths) -> Result<Option<DevicePaths>> {
        let bstate = read_state(&mut hv.store, self.domain, &paths.backend_state());
        if bstate == XenbusState::Unknown {
            // The backend area is gone (removal event): nothing to serve.
            return Ok(None);
        }
        if bstate == XenbusState::Initialising {
            // Announce ourselves; frontend proceeds on seeing this.
            hv.switch_state(self.domain, &paths.backend_state(), XenbusState::InitWait)?;
        }
        let key = (paths.front, paths.index);
        if !self.known.contains(&key) && !self.front_watches.values().any(|&k| k == key) {
            // Watch the frontend's state so its `Initialised` (and later
            // `Closing`) writes reach this handler directly. The
            // registration fire re-examines the device, which also covers
            // a frontend that published before the watch was armed.
            let w = hv
                .store
                .watch(self.domain, &paths.frontend_state(), "frontend-state")?;
            self.front_watches.insert(w, key);
        }
        if self.known.contains(&key) {
            return Ok(None);
        }
        let fstate = read_state(&mut hv.store, self.domain, &paths.frontend_state());
        if fstate == XenbusState::Initialised {
            self.known.insert(key);
            return Ok(Some(paths));
        }
        Ok(None)
    }

    /// Handles one watch event. Frontend-state events map straight to
    /// their device; backend-area events naming a specific device are
    /// examined via [`DevicePaths::parse_backend_path`] — no whole-root
    /// rescan; only events at the watch root itself (the registration
    /// fire, subtree removals) fall back to a full scan.
    pub fn process_event(
        &mut self,
        hv: &mut Hypervisor,
        ev: &WatchEvent,
    ) -> Result<Vec<DevicePaths>> {
        if !self.owns_event(ev) {
            return Ok(Vec::new());
        }
        if let Some(&(front, index)) = self.front_watches.get(&ev.watch) {
            let paths = DevicePaths::new(front, self.domain, self.kind, index);
            return Ok(self.examine(hv, paths)?.into_iter().collect());
        }
        match DevicePaths::parse_backend_path(&ev.path) {
            Some(paths) if paths.back == self.domain && paths.kind == self.kind => {
                Ok(self.examine(hv, paths)?.into_iter().collect())
            }
            _ => self.scan(hv),
        }
    }

    /// Drains pending watch events through
    /// [`BackendManager::process_event`] until the queue is quiet,
    /// returning every device pair that became ready. Events belonging to
    /// other watchers are discarded (this manager's thread is the only
    /// watch consumer in a Kite driver domain).
    pub fn drain_events(&mut self, hv: &mut Hypervisor) -> Result<Vec<DevicePaths>> {
        let mut ready: Vec<DevicePaths> = Vec::new();
        // Processing may arm new watches, whose registration fires queue
        // further events; loop until quiescent (bounded: one registration
        // per device).
        loop {
            let events = hv.store.take_events();
            if events.is_empty() {
                break;
            }
            for ev in events {
                for p in self.process_event(hv, &ev)? {
                    if !ready.contains(&p) {
                        ready.push(p);
                    }
                }
            }
        }
        Ok(ready)
    }

    /// Forgets a device after teardown: drops it from the paired set,
    /// disarms its frontend watch, and clears the pair's xenstore areas
    /// (as the toolstack does when the device is deprovisioned), so a
    /// later provision starts from clean state and re-pairing is a real
    /// reconnect.
    pub fn forget(&mut self, hv: &mut Hypervisor, front: DomainId, index: u32) -> Result<()> {
        let key = (front, index);
        self.known.remove(&key);
        if let Some(w) = self
            .front_watches
            .iter()
            .find(|&(_, &k)| k == key)
            .map(|(&w, _)| w)
        {
            self.front_watches.remove(&w);
            let _ = hv.store.unwatch(w);
        }
        let paths = DevicePaths::new(front, self.domain, self.kind, index);
        // Deprovisioning is a toolstack (Dom0) action: the driver domain
        // has no write access to the frontend's area.
        for area in [paths.frontend(), paths.backend()] {
            match hv.store.rm(DomainId::DOM0, None, &area) {
                Ok(()) | Err(XenError::NoEnt) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

/// The machine the backends' unit tests share: Dom0, a driver domain and
/// a guest, with one `kind` device provisioned and the backend manager's
/// watch events drained.
#[cfg(test)]
pub(crate) fn test_machine(kind: DeviceKind) -> (Hypervisor, DevicePaths) {
    use kite_xen::DomainKind;
    let mut hv = Hypervisor::new();
    hv.create_domain("Domain-0", DomainKind::Dom0, 8192, 4);
    let dd = hv.create_domain("backend", DomainKind::Driver, 1024, 1);
    let gu = hv.create_domain("guest", DomainKind::Guest, 5120, 22);
    let paths = DevicePaths::new(gu, dd, kind, 0);
    provision_device(&mut hv, &paths).unwrap();
    let mut mgr = BackendManager::new(dd, kind);
    mgr.start(&mut hv).unwrap();
    mgr.drain_events(&mut hv).unwrap();
    (hv, paths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kite_xen::xenbus::switch_state;
    use kite_xen::DomainKind;

    fn machine() -> (Hypervisor, DomainId, DomainId) {
        let mut hv = Hypervisor::new();
        hv.create_domain("Domain-0", DomainKind::Dom0, 8192, 4);
        let dd = hv.create_domain("netbackend", DomainKind::Driver, 1024, 1);
        let gu = hv.create_domain("guest", DomainKind::Guest, 5120, 22);
        (hv, dd, gu)
    }

    #[test]
    fn provisioning_sets_states_and_links() {
        let (mut hv, dd, gu) = machine();
        let paths = DevicePaths::new(gu, dd, DeviceKind::Vif, 0);
        provision_device(&mut hv, &paths).unwrap();
        assert_eq!(
            read_state(&mut hv.store, DomainId::DOM0, &paths.frontend_state()),
            XenbusState::Initialising
        );
        let (backlink, _) = hv.xs_read(gu, &format!("{}/backend", paths.frontend()));
        assert_eq!(backlink.unwrap(), paths.backend());
    }

    #[test]
    fn watch_fires_and_scan_finds_initialised_frontend() {
        let (mut hv, dd, gu) = machine();
        let mut mgr = BackendManager::new(dd, DeviceKind::Vif);
        mgr.start(&mut hv).unwrap();
        // Registration fire.
        let evs = hv.store.take_events();
        assert!(evs.iter().any(|e| mgr.owns_event(e)));
        // Nothing yet.
        assert!(mgr.scan(&mut hv).unwrap().is_empty());

        let paths = DevicePaths::new(gu, dd, DeviceKind::Vif, 0);
        provision_device(&mut hv, &paths).unwrap();
        // Provisioning changed paths under the watch root.
        let evs = hv.store.take_events();
        assert!(evs.iter().any(|e| mgr.owns_event(e)));
        // Backend sees Initialising, advertises InitWait, no pairing yet.
        assert!(mgr.scan(&mut hv).unwrap().is_empty());
        assert_eq!(
            read_state(&mut hv.store, dd, &paths.backend_state()),
            XenbusState::InitWait
        );

        // Frontend publishes its details.
        switch_state(
            &mut hv.store,
            gu,
            &paths.frontend_state(),
            XenbusState::Initialised,
        )
        .unwrap();
        let found = mgr.scan(&mut hv).unwrap();
        assert_eq!(found, vec![paths]);
        // Idempotent: a second scan does not re-create the instance.
        assert!(mgr.scan(&mut hv).unwrap().is_empty());
    }

    #[test]
    fn multiple_frontends_discovered_independently() {
        let (mut hv, dd, gu) = machine();
        let gu2 = hv.create_domain("guest2", DomainKind::Guest, 1024, 2);
        let mut mgr = BackendManager::new(dd, DeviceKind::Vif);
        mgr.start(&mut hv).unwrap();
        let mut found = 0;
        for (g, i) in [(gu, 0u32), (gu2, 0u32), (gu, 1u32)] {
            let p = DevicePaths::new(g, dd, DeviceKind::Vif, i);
            provision_device(&mut hv, &p).unwrap();
            found += mgr.scan(&mut hv).unwrap().len();
            switch_state(
                &mut hv.store,
                g,
                &p.frontend_state(),
                XenbusState::Initialised,
            )
            .unwrap();
        }
        found += mgr.scan(&mut hv).unwrap().len();
        assert_eq!(found, 3);
    }

    #[test]
    fn forget_allows_reconnect() {
        let (mut hv, dd, gu) = machine();
        let mut mgr = BackendManager::new(dd, DeviceKind::Vif);
        mgr.start(&mut hv).unwrap();
        let p = DevicePaths::new(gu, dd, DeviceKind::Vif, 0);
        provision_device(&mut hv, &p).unwrap();
        mgr.scan(&mut hv).unwrap();
        switch_state(
            &mut hv.store,
            gu,
            &p.frontend_state(),
            XenbusState::Initialised,
        )
        .unwrap();
        assert_eq!(mgr.scan(&mut hv).unwrap().len(), 1);

        // Teardown: forget clears the pair's xenstore areas entirely.
        mgr.forget(&mut hv, gu, 0).unwrap();
        assert_eq!(
            read_state(&mut hv.store, DomainId::DOM0, &p.frontend_state()),
            XenbusState::Unknown,
            "frontend area cleared"
        );
        assert_eq!(
            read_state(&mut hv.store, DomainId::DOM0, &p.backend_state()),
            XenbusState::Unknown,
            "backend area cleared"
        );
        assert!(
            mgr.scan(&mut hv).unwrap().is_empty(),
            "no stale pair resurrected from leftover state"
        );

        // A real reconnect: provision again, walk the handshake again.
        provision_device(&mut hv, &p).unwrap();
        assert!(mgr.scan(&mut hv).unwrap().is_empty(), "InitWait advertised");
        assert_eq!(
            read_state(&mut hv.store, dd, &p.backend_state()),
            XenbusState::InitWait
        );
        switch_state(
            &mut hv.store,
            gu,
            &p.frontend_state(),
            XenbusState::Initialised,
        )
        .unwrap();
        assert_eq!(
            mgr.scan(&mut hv).unwrap().len(),
            1,
            "re-paired after full re-handshake"
        );
    }

    #[test]
    fn scan_propagates_real_directory_errors() {
        let (mut hv, dd, _gu) = machine();
        let mut mgr = BackendManager::new(dd, DeviceKind::Vif);
        mgr.start(&mut hv).unwrap();
        assert!(mgr.scan(&mut hv).unwrap().is_empty());
        // A failing xenstore op (here injected) must surface from the
        // scan, not be swallowed as "no devices".
        hv.faults = kite_xen::FaultPlan::seeded(7).with_xs_failures(1.0);
        assert_eq!(mgr.scan(&mut hv), Err(XenError::Again));
        hv.faults = kite_xen::FaultPlan::none();
        assert!(mgr.scan(&mut hv).unwrap().is_empty());
    }

    #[test]
    fn scan_on_missing_root_is_empty_not_an_error() {
        let (mut hv, dd, _gu) = machine();
        // No start(): the backend root was never created.
        let mut mgr = BackendManager::new(dd, DeviceKind::Vif);
        assert!(mgr.scan(&mut hv).unwrap().is_empty());
    }

    #[test]
    fn events_pair_devices_without_rescans() {
        let (mut hv, dd, gu) = machine();
        let gu2 = hv.create_domain("guest2", DomainKind::Guest, 1024, 2);
        let mut mgr = BackendManager::new(dd, DeviceKind::Vif);
        mgr.start(&mut hv).unwrap();
        // Registration fire resolves to the root path -> full-scan path.
        assert!(mgr.drain_events(&mut hv).unwrap().is_empty());

        let p1 = DevicePaths::new(gu, dd, DeviceKind::Vif, 0);
        let p2 = DevicePaths::new(gu2, dd, DeviceKind::Vif, 0);
        provision_device(&mut hv, &p1).unwrap();
        provision_device(&mut hv, &p2).unwrap();
        assert!(
            mgr.drain_events(&mut hv).unwrap().is_empty(),
            "nothing ready before frontends publish"
        );
        assert_eq!(
            read_state(&mut hv.store, dd, &p1.backend_state()),
            XenbusState::InitWait,
            "event-driven path still advertises InitWait"
        );

        // Only guest 1 publishes. Its frontend-state watch (armed when the
        // backend event was examined) delivers the transition; no event
        // under the backend root is involved.
        switch_state(
            &mut hv.store,
            gu,
            &p1.frontend_state(),
            XenbusState::Initialised,
        )
        .unwrap();
        let ready = mgr.drain_events(&mut hv).unwrap();
        assert_eq!(ready, vec![p1.clone()]);
        // Re-draining discovers nothing new.
        assert!(mgr.drain_events(&mut hv).unwrap().is_empty());

        // Guest 2 publishes later and pairs independently.
        switch_state(
            &mut hv.store,
            gu2,
            &p2.frontend_state(),
            XenbusState::Initialised,
        )
        .unwrap();
        assert_eq!(mgr.drain_events(&mut hv).unwrap(), vec![p2]);

        // A foreign watcher's event is ignored.
        let foreign = hv.store.watch(gu, "/local", "other").unwrap();
        let ev = WatchEvent {
            domain: gu,
            watch: foreign,
            token: "other".into(),
            path: p1.backend_state(),
        };
        assert!(mgr.process_event(&mut hv, &ev).unwrap().is_empty());
    }
}
