//! The composed hypervisor: all subsystems plus per-domain cost accounting.
//!
//! Drivers and frontends should use the charged wrappers here for hot-path
//! operations (grant copies, maps, event sends, xenstore traffic) so every
//! hypercall both *does its work* on the real data structures and *bills
//! its cost* to the calling domain's meter. Raw subsystem access stays
//! public for setup code and tests.

use kite_sim::Nanos;
use kite_trace::{EventKind, NotifyOutcome, ReqTracer, Tracer};

use crate::domain::{DomainId, DomainKind, DomainTable};
use crate::error::{Result, XenError};
use crate::evtchn::{EventChannels, Notification, Port};
use crate::fault::FaultPlan;
use crate::grant::{CopyMode, GrantCopyOp, GrantRef, GrantTables, MapHandle, Mapping};
use crate::hypercall::{CostModel, HypercallKind, HypercallMeter};
use crate::mem::{MachineMemory, PageId};
use crate::pci::PciBus;
use crate::xenstore::Xenstore;

/// Outcome of one batched `GNTTABOP_copy` hypercall.
#[derive(Clone, Debug, Default)]
pub struct BatchResult {
    /// Ops the batch carried (empty batches issue no hypercall).
    pub ops: usize,
    /// The ops that failed, as `(op index, error)` in op order. Only
    /// failures are stored, so an all-okay batch — every batch of a
    /// healthy run — holds no heap.
    pub failed: Vec<(usize, XenError)>,
    /// Bytes actually moved by the ops that succeeded.
    pub bytes: usize,
    /// Modeled cost of the hypercall, charged to the caller.
    pub cost: Nanos,
}

impl BatchResult {
    /// Number of ops that completed successfully.
    pub fn ok_ops(&self) -> usize {
        self.ops - self.failed.len()
    }

    /// True when every op in the batch succeeded.
    pub fn all_ok(&self) -> bool {
        self.failed.is_empty()
    }

    /// True when every op in `[start, end)` succeeded.
    pub fn range_ok(&self, start: usize, end: usize) -> bool {
        !self.failed.iter().any(|&(k, _)| (start..end).contains(&k))
    }
}

/// The whole simulated Xen machine.
pub struct Hypervisor {
    /// Domain registry.
    pub domains: DomainTable,
    /// Machine memory.
    pub mem: MachineMemory,
    /// Grant tables.
    pub grants: GrantTables,
    /// Event channels.
    pub evtchn: EventChannels,
    /// Xenstore (served by xenstored in Dom0).
    pub store: Xenstore,
    /// PCI passthrough state.
    pub pci: PciBus,
    /// Hypercall cost model.
    pub costs: CostModel,
    /// Fault-injection plan (inert by default).
    pub faults: FaultPlan,
    /// Structured event recorder (disabled by default; a disabled
    /// tracer's emit path is one branch and no allocation).
    pub trace: Tracer,
    /// Per-request stage recorder (disabled by default; same one-branch
    /// zero-allocation contract as `trace`).
    pub req: ReqTracer,
    /// One meter per domain `create_domain` made, indexed by `DomainId.0`
    /// (ids are dense and never reused; a dead domain keeps its meter).
    meters: Vec<HypercallMeter>,
}

impl Default for Hypervisor {
    fn default() -> Self {
        Hypervisor::new()
    }
}

impl Hypervisor {
    /// Creates a machine with an empty domain table.
    pub fn new() -> Hypervisor {
        Hypervisor {
            domains: DomainTable::new(),
            mem: MachineMemory::new(),
            grants: GrantTables::new(),
            evtchn: EventChannels::new(),
            store: Xenstore::new(),
            pci: PciBus::new(),
            costs: CostModel::default(),
            faults: FaultPlan::none(),
            trace: Tracer::disabled(),
            req: ReqTracer::disabled(),
            meters: Vec::new(),
        }
    }

    /// Creates a domain (first call must create Dom0).
    pub fn create_domain(
        &mut self,
        name: impl Into<String>,
        kind: DomainKind,
        mem_mib: u64,
        vcpus: u32,
    ) -> DomainId {
        let name = name.into();
        let id = self.domains.create(name.clone(), kind, mem_mib, vcpus);
        self.meters.push(HypercallMeter::new());
        // xenstored provisions the domain's home directory at creation and
        // delegates it to the domain.
        let home = format!("/local/domain/{}", id.0);
        self.store
            .write(DomainId::DOM0, None, &format!("{home}/name"), &name)
            .expect("home provisioning");
        self.store
            .set_perm(DomainId::DOM0, &home, id, crate::xenstore::Perm::ReadWrite)
            .expect("home perm");
        id
    }

    /// Destroys a domain the way a crash (or `xl destroy`) does: marks it
    /// dead, reclaims every foreign mapping it held (so peers' grants are
    /// no longer busy), drops its grant table, closes all its event
    /// channels (killing the peer ends), force-detaches its PCI devices
    /// back to the assignable pool, and closes its xenstore connection:
    /// its watches, open transactions and queued watch events go. Its
    /// xenstore subtree is left in place — xenstored outlives domains;
    /// the toolstack cleans up.
    pub fn destroy_domain(&mut self, dom: DomainId) -> Result<()> {
        self.domains.destroy(dom)?;
        self.grants.reclaim_domain(dom);
        self.evtchn.close_domain(dom);
        self.store.release_domain(dom);
        let held: Vec<crate::Bdf> = self.pci.devices_of(dom).iter().map(|d| d.bdf).collect();
        for bdf in held {
            let _ = self.pci.detach(bdf, dom);
        }
        Ok(())
    }

    /// The hypercall meter of a domain (a zeroed one for an unknown id).
    pub fn meter(&self, dom: DomainId) -> HypercallMeter {
        self.meters.get(dom.0 as usize).cloned().unwrap_or_default()
    }

    /// Bills `cost` for one hypercall of `kind` to `dom`'s meter. Every
    /// caller is a domain `create_domain` made; an unknown id bills none.
    fn bill(&mut self, dom: DomainId, kind: HypercallKind, cost: Nanos) {
        if let Some(m) = self.meters.get_mut(dom.0 as usize) {
            m.charge_costed(kind, cost);
        }
    }

    /// Charges a hypercall to `dom` and returns its modeled cost.
    pub fn charge(&mut self, dom: DomainId, kind: HypercallKind, bytes: usize) -> Nanos {
        let c = self.costs.cost(kind, bytes);
        self.bill(dom, kind, c);
        c
    }

    /// Allocates a page for `dom` (no hypercall charge; guest-local).
    pub fn alloc_page(&mut self, dom: DomainId) -> Result<PageId> {
        self.mem.alloc(&mut self.domains, dom)
    }

    /// Allocates `n` pages for `granter` and grants each to `peer`, in
    /// page order: [`alloc_page`](Self::alloc_page) then
    /// [`grant_access`](Self::grant_access), page by page. The page table
    /// and the granter's grant table are grown once for all `n`.
    pub fn alloc_granted(
        &mut self,
        granter: DomainId,
        peer: DomainId,
        n: usize,
        readonly: bool,
    ) -> Result<Vec<(PageId, GrantRef)>> {
        self.mem.reserve(n);
        self.grants.reserve(granter, n);
        let mut granted = Vec::with_capacity(n);
        for _ in 0..n {
            let page = self.alloc_page(granter)?;
            granted.push((page, self.grant_access(granter, peer, page, readonly)?));
        }
        Ok(granted)
    }

    /// Grants `peer` access to `page` (table write, no hypercall).
    pub fn grant_access(
        &mut self,
        granter: DomainId,
        peer: DomainId,
        page: PageId,
        readonly: bool,
    ) -> Result<GrantRef> {
        self.grants
            .grant_access(&self.mem, granter, peer, page, readonly)
    }

    /// Charged `GNTTABOP_map_grant_ref`, read-only or writable
    /// ([`GrantTables::map`](crate::grant::GrantTables::map)).
    pub fn map_grant(
        &mut self,
        mapper: DomainId,
        granter: DomainId,
        gref: GrantRef,
        readonly: bool,
    ) -> Result<(Mapping, Nanos)> {
        let m = self.grants.map(mapper, granter, gref, readonly)?;
        let c = self.charge(mapper, HypercallKind::GntMap, 0);
        self.trace.emit_with(mapper.0, || EventKind::Hypercall {
            op: HypercallKind::GntMap.name(),
            bytes: 0,
            cost: c,
        });
        Ok((m, c))
    }

    /// Charged `GNTTABOP_unmap_grant_ref`.
    pub fn unmap_grant(&mut self, mapper: DomainId, handle: MapHandle) -> Result<Nanos> {
        self.grants.unmap(mapper, handle)?;
        let c = self.charge(mapper, HypercallKind::GntUnmap, 0);
        self.trace.emit_with(mapper.0, || EventKind::Hypercall {
            op: HypercallKind::GntUnmap.name(),
            bytes: 0,
            cost: c,
        });
        Ok(c)
    }

    /// Charged `GNTTABOP_copy` of an op array with per-op statuses, the
    /// ops' [`CopySide::Buffer`](crate::grant::CopySide::Buffer) sides
    /// naming the caller's own `bufs` by index.
    ///
    /// Under [`CopyMode::Batched`] one hypercall executes the whole array:
    /// the caller is billed one hypercall base cost per **batch** plus a
    /// fixed descriptor cost per op and a per-byte copy cost — the shape
    /// drivers amortize per-packet hypervisor work against. Under
    /// [`CopyMode::SingleOp`] each op is its own hypercall, billed and
    /// traced alone. The two modes move the same bytes and produce the
    /// same statuses; only the hypercall count and modeled cost differ,
    /// which is what the drivers' ablation benches and equivalence tests
    /// measure. Failed ops report in their status and do not abort the
    /// batch; a hypercall is charged regardless (the domain still crossed
    /// into the hypervisor). An empty op array issues no hypercall and is
    /// free.
    pub fn grant_copy_with(
        &mut self,
        caller: DomainId,
        ops: &[GrantCopyOp],
        bufs: &mut [Vec<u8>],
        mode: CopyMode,
    ) -> BatchResult {
        let _prof = kite_prof::span(kite_prof::Phase::GrantCopy);
        let mut out = BatchResult {
            ops: ops.len(),
            ..BatchResult::default()
        };
        if ops.is_empty() {
            return out;
        }
        // Ops are independent: a failed op reports its error and the
        // batch continues, exactly like real Xen's per-op `status` field.
        for (i, op) in ops.iter().enumerate() {
            let ok = match self.grants.copy(&mut self.mem, caller, op, bufs) {
                // Injected per-op failures surface exactly like real
                // ones: in the status, with the batch continuing past
                // them. The bytes have already moved; drivers must treat
                // errored ops as not transferred, which is what the
                // status contract says.
                Ok(()) if self.faults.fail_copy_op() => {
                    out.failed.push((i, XenError::BadGrant));
                    false
                }
                Ok(()) => true,
                Err(e) => {
                    out.failed.push((i, e));
                    false
                }
            };
            let bytes = if ok { op.len } else { 0 };
            out.bytes += bytes;
            if mode == CopyMode::SingleOp {
                out.cost += self.bill_gnt_copy(caller, 1, usize::from(ok), bytes);
            }
        }
        if mode == CopyMode::Batched {
            out.cost = self.bill_gnt_copy(caller, ops.len(), out.ok_ops(), out.bytes);
        }
        out
    }

    /// [`grant_copy_with`](Self::grant_copy_with) for ops whose sides are
    /// all pages: local ones and grants.
    pub fn grant_copy_ops(
        &mut self,
        caller: DomainId,
        ops: &[GrantCopyOp],
        mode: CopyMode,
    ) -> BatchResult {
        self.grant_copy_with(caller, ops, &mut [], mode)
    }

    /// Bills and traces one `GNTTABOP_copy` hypercall that carried `ops`
    /// descriptors, `ok_ops` of them successful, moving `bytes`.
    fn bill_gnt_copy(
        &mut self,
        caller: DomainId,
        ops: usize,
        ok_ops: usize,
        bytes: usize,
    ) -> Nanos {
        let cost = self.costs.gnt_copy_batch(ops, bytes);
        self.bill(caller, HypercallKind::GntCopy, cost);
        self.trace
            .emit_with(caller.0, || EventKind::GrantCopyBatch {
                ops: ops as u32,
                ok_ops: ok_ops as u32,
                bytes: bytes as u64,
                cost,
            });
        cost
    }

    /// Charged `EVTCHNOP_send`.
    ///
    /// Returns the notification (if the peer transitioned to pending) plus
    /// the caller-side cost. The system layer delivers the notification
    /// after [`CostModel::irq_delivery`].
    pub fn evtchn_send(
        &mut self,
        caller: DomainId,
        port: Port,
    ) -> Result<(Option<Notification>, Nanos)> {
        let mut n = self.evtchn.send(caller, port)?;
        let mut outcome = if n.is_some() {
            NotifyOutcome::Delivered
        } else {
            NotifyOutcome::Coalesced
        };
        if let Some(note) = &n {
            if self.faults.drop_notify() {
                // The edge is lost entirely: clear the peer's pending bit
                // so a later kick can raise a fresh notification instead
                // of coalescing into the one that never arrived.
                let _ = self.evtchn.clear_pending(note.domain, note.port);
                n = None;
                outcome = NotifyOutcome::Dropped;
            }
        }
        let c = self.charge(caller, HypercallKind::EvtchnSend, 0);
        if self.trace.is_enabled() {
            // A coalesced send returns no notification; resolve the peer
            // from the channel so the trace still names the receiver.
            let (to_dom, to_port) = self
                .evtchn
                .peer(caller, port)
                .map(|(d, p)| (d.0, p.0))
                .unwrap_or((u16::MAX, u32::MAX));
            self.trace.emit_with(caller.0, || EventKind::Notify {
                to_dom,
                port: to_port,
                outcome,
                cost: c,
            });
        }
        Ok((n, c))
    }

    /// IRQ delivery latency for the next notification: the cost model's
    /// base plus any fault-injected delay. System layers should schedule
    /// interrupt events this far after the send completes.
    pub fn irq_delay(&mut self) -> Nanos {
        let extra = self.faults.notify_delay();
        if extra > Nanos::ZERO {
            // Attributed to Dom0: the delay models contention in the
            // delivery path, not work done by either channel end.
            self.trace
                .emit_with(DomainId::DOM0.0, || EventKind::NotifyDelayed { extra });
        }
        self.costs.irq_delivery + extra
    }

    /// Charged event-channel allocation.
    pub fn evtchn_alloc_unbound(
        &mut self,
        owner: DomainId,
        remote_allowed: DomainId,
    ) -> (Port, Nanos) {
        let p = self.evtchn.alloc_unbound(owner, remote_allowed);
        let c = self.charge(owner, HypercallKind::EvtchnOp, 0);
        self.trace.emit_with(owner.0, || EventKind::Hypercall {
            op: HypercallKind::EvtchnOp.name(),
            bytes: 0,
            cost: c,
        });
        (p, c)
    }

    /// Charged interdomain bind.
    pub fn evtchn_bind(
        &mut self,
        binder: DomainId,
        remote: DomainId,
        remote_port: Port,
    ) -> Result<(Port, Nanos)> {
        let p = self.evtchn.bind_interdomain(binder, remote, remote_port)?;
        let c = self.charge(binder, HypercallKind::EvtchnOp, 0);
        self.trace.emit_with(binder.0, || EventKind::Hypercall {
            op: HypercallKind::EvtchnOp.name(),
            bytes: 0,
            cost: c,
        });
        Ok((p, c))
    }

    fn charge_xs(&mut self, caller: DomainId) -> Nanos {
        let c = self.charge(caller, HypercallKind::XsOp, 0);
        self.trace.emit_with(caller.0, || EventKind::Hypercall {
            op: HypercallKind::XsOp.name(),
            bytes: 0,
            cost: c,
        });
        c
    }

    /// Charged xenstore read.
    pub fn xs_read(&mut self, caller: DomainId, path: &str) -> (Result<String>, Nanos) {
        let c = self.charge_xs(caller);
        if let Some(e) = self.faults.fail_xs() {
            return (Err(e), c);
        }
        let r = self.store.read(caller, None, path).map(str::to_owned);
        (r, c)
    }

    /// Charged xenstore directory listing.
    pub fn xs_directory(&mut self, caller: DomainId, path: &str) -> (Result<Vec<String>>, Nanos) {
        let c = self.charge_xs(caller);
        if let Some(e) = self.faults.fail_xs() {
            return (Err(e), c);
        }
        let r = self.store.directory(caller, path);
        (r, c)
    }

    /// Charged xenstore write.
    pub fn xs_write(&mut self, caller: DomainId, path: &str, value: &str) -> (Result<()>, Nanos) {
        let c = self.charge_xs(caller);
        if let Some(e) = self.faults.fail_xs() {
            return (Err(e), c);
        }
        let r = self.store.write(caller, None, path, value);
        (r, c)
    }

    /// Switches a device `state` node (validated transition, see
    /// [`crate::xenbus::switch_state`]) and records it as a trace event.
    ///
    /// Drivers and toolstack paths go through this wrapper so every
    /// handshake step and teardown walk lands in the trace; the free
    /// function remains for setup code that has only a [`Xenstore`].
    pub fn switch_state(
        &mut self,
        caller: DomainId,
        state_path: &str,
        next: crate::xenbus::XenbusState,
    ) -> Result<()> {
        crate::xenbus::switch_state(&mut self.store, caller, state_path, next)?;
        self.trace.emit_with(caller.0, || EventKind::XenbusState {
            path: state_path.to_string(),
            state: next.name(),
        });
        Ok(())
    }

    /// Renders the recorded trace as a Chrome-trace/Perfetto JSON
    /// document with one named track per domain ever created. When
    /// request tracing is on, every completed sampled request draws a
    /// Perfetto flow arrow across the tracks it crossed.
    pub fn export_chrome_trace(&self) -> String {
        let tracks: Vec<(u16, String)> = self
            .domains
            .iter_all()
            .map(|d| (d.id.0, d.name.clone()))
            .collect();
        let req = self.req.is_enabled().then_some(&self.req);
        kite_trace::chrome::export(&self.trace, &tracks, req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grant::CopySide;

    impl Hypervisor {
        /// One batched hypercall over page-to-page ops.
        fn grant_copy_batch(&mut self, caller: DomainId, ops: &[GrantCopyOp]) -> BatchResult {
            self.grant_copy_ops(caller, ops, CopyMode::Batched)
        }
    }

    /// Dom0, a driver domain and a guest.
    fn machine() -> (Hypervisor, DomainId, DomainId) {
        let mut hv = Hypervisor::new();
        hv.create_domain("Domain-0", DomainKind::Dom0, 1024, 4);
        let dd = hv.create_domain("dd", DomainKind::Driver, 256, 1);
        let gu = hv.create_domain("guest", DomainKind::Guest, 256, 2);
        (hv, dd, gu)
    }

    /// A guest page holding `fill`, granted to the driver.
    fn granted(
        hv: &mut Hypervisor,
        (dd, gu): (DomainId, DomainId),
        fill: &[u8],
        readonly: bool,
    ) -> (PageId, GrantRef) {
        let page = hv.alloc_page(gu).unwrap();
        hv.mem.page_mut(page).unwrap()[..fill.len()].copy_from_slice(fill);
        (page, hv.grant_access(gu, dd, page, readonly).unwrap())
    }

    fn op(src: CopySide, dst: CopySide, len: usize) -> GrantCopyOp {
        GrantCopyOp { src, dst, len }
    }

    /// Buffer `buf` at `offset`, bounded by the buffer alone.
    fn buf(buf: usize, offset: usize) -> CopySide {
        CopySide::Buffer {
            buf,
            offset,
            limit: usize::MAX,
        }
    }

    #[test]
    fn destroying_a_domain_closes_its_xenstore_connection() {
        let (mut hv, dd, gu) = machine();
        let home = "/local/domain/2";
        let w = hv.store.watch(dd, home).unwrap();
        hv.store.watch(gu, home).unwrap();
        let tx = hv.store.tx_start(dd);
        hv.store.write(gu, None, "/local/domain/2/x", "1").unwrap();
        hv.destroy_domain(dd).unwrap();
        assert_eq!(hv.store.watch_owners().collect::<Vec<_>>(), [gu]);
        let events = hv.store.take_events();
        assert_eq!(events.len(), 2, "the guest's registration and write");
        assert!(events.iter().all(|e| e.domain == gu), "{events:?}");
        assert_eq!(hv.store.unwatch(w), Err(XenError::NoEnt));
        assert_eq!(hv.store.tx_end(dd, tx, true), Err(XenError::BadTransaction));
    }

    #[test]
    fn buffer_ops_append_write_inside_and_feed_a_grant() {
        let (mut hv, dd, gu) = machine();
        let (_, src) = granted(&mut hv, (dd, gu), b"abcdefgh", true);
        let (dst_page, dst) = granted(&mut hv, (dd, gu), b"", false);
        let g = |gref, offset| CopySide::Grant {
            granter: gu,
            gref,
            offset,
        };
        let mut xyz = Vec::with_capacity(5);
        xyz.extend_from_slice(b"xyz");
        let mut bufs = vec![Vec::with_capacity(8), xyz, Vec::with_capacity(5)];
        let ops = [
            op(g(src, 0), buf(0, 0), 4), // append to an empty buffer
            op(g(src, 4), buf(0, 4), 4), // append at its end
            op(g(src, 0), buf(1, 1), 4), // two bytes inside, two appended
            op(g(src, 6), buf(1, 0), 2), // inside only
            op(buf(1, 1), g(dst, 10), 3),
            op(g(src, 0), buf(2, 3), 2), // past the length: a zeroed gap
        ];
        let r = hv.grant_copy_with(dd, &ops, &mut bufs, CopyMode::Batched);
        assert!(r.all_ok(), "{:?}", r.failed);
        assert_eq!((r.ops, r.bytes), (6, 19));
        assert_eq!(bufs[0], b"abcdefgh");
        assert_eq!(bufs[1], b"ghbcd");
        assert_eq!(bufs[2], b"\0\0\0ab");
        let caps: Vec<usize> = bufs.iter().map(Vec::capacity).collect();
        assert_eq!(caps, [8, 5, 5], "filled in place, never regrown");
        assert_eq!(&hv.mem.page(dst_page).unwrap()[9..14], b"\0hbc\0");
        assert_eq!(hv.meter(dd).count(HypercallKind::GntCopy), 1);
    }

    #[test]
    fn buffer_ranges_past_the_end_are_out_of_bounds_and_move_nothing() {
        let (mut hv, dd, gu) = machine();
        let (_, src) = granted(&mut hv, (dd, gu), b"abcdefgh", true);
        let (_, dst) = granted(&mut hv, (dd, gu), b"", false);
        let g = |gref| CopySide::Grant {
            granter: gu,
            gref,
            offset: 0,
        };
        let before = hv.mem.backed_pages();
        let mut bufs = vec![b"abc".to_vec()];
        assert_eq!(bufs[0].capacity(), 3);
        let ops = [
            op(g(src), buf(0, 2), 2), // writes past the capacity
            op(buf(0, 2), g(dst), 2), // reads past the length
            op(g(src), buf(1, 0), 1), // no such buffer
            op(buf(0, 0), buf(0, 1), 1),
        ];
        let r = hv.grant_copy_with(dd, &ops, &mut bufs, CopyMode::Batched);
        use XenError::{Inval, OutOfBounds};
        assert_eq!(
            r.failed,
            [
                (0, OutOfBounds),
                (1, OutOfBounds),
                (2, OutOfBounds),
                (3, Inval)
            ]
        );
        assert_eq!(r.bytes, 0);
        assert_eq!(bufs, [b"abc"]);
        assert_eq!(hv.mem.backed_pages(), before, "no guest page written");
    }

    #[test]
    fn refused_grants_move_nothing_to_or_from_a_buffer() {
        let (mut hv, dd, gu) = machine();
        let (ro_page, ro) = granted(&mut hv, (dd, gu), b"guest", true);
        let (_, revoked) = granted(&mut hv, (dd, gu), b"gone", false);
        hv.grants.end_access(gu, revoked).unwrap();
        let g = |gref| CopySide::Grant {
            granter: gu,
            gref,
            offset: 0,
        };
        let mut bufs = vec![b"drv".to_vec()];
        let ops = [op(buf(0, 0), g(ro), 3), op(g(revoked), buf(0, 3), 4)];
        let r = hv.grant_copy_with(dd, &ops, &mut bufs, CopyMode::Batched);
        assert_eq!(
            r.failed,
            [(0, XenError::ReadOnlyGrant), (1, XenError::BadGrant)]
        );
        assert_eq!(r.bytes, 0);
        assert_eq!(bufs, [b"drv"]);
        assert_eq!(&hv.mem.page(ro_page).unwrap()[..5], b"guest");
    }

    #[test]
    fn injected_faults_surface_in_buffer_op_statuses() {
        let (mut hv, dd, gu) = machine();
        let (_, src) = granted(&mut hv, (dd, gu), b"abcd", true);
        hv.faults = FaultPlan::seeded(3).with_copy_failures(1.0);
        let g = CopySide::Grant {
            granter: gu,
            gref: src,
            offset: 0,
        };
        let mut bufs = vec![Vec::with_capacity(4)];
        let ops = [op(g, buf(0, 0), 2), op(g, buf(0, 2), 2)];
        let r = hv.grant_copy_with(dd, &ops, &mut bufs, CopyMode::Batched);
        let failed = [(0, XenError::BadGrant), (1, XenError::BadGrant)];
        assert_eq!((r.failed.as_slice(), r.bytes), (&failed[..], 0));
        assert_eq!(hv.meter(dd).count(HypercallKind::GntCopy), 1);
    }

    /// One mixed buffer batch — appends, an in-place write, a refused
    /// grant, a zeroed gap, a write past the capacity, a buffer feeding a
    /// grant — run on a fresh machine.
    fn mixed_buffer_batch(mode: CopyMode) -> (Hypervisor, BatchResult, Vec<Vec<u8>>, PageId) {
        let (mut hv, dd, gu) = machine();
        let fill: Vec<u8> = (0..=255).collect();
        let (_, src) = granted(&mut hv, (dd, gu), &fill, true);
        let (_, ro) = granted(&mut hv, (dd, gu), b"", true);
        let (dst_page, dst) = granted(&mut hv, (dd, gu), b"", false);
        let g = |gref, offset| CopySide::Grant {
            granter: gu,
            gref,
            offset,
        };
        let mut bufs = vec![Vec::with_capacity(320), b"0123456789".to_vec()];
        let ops = [
            op(g(src, 0), buf(0, 0), 100),
            op(g(src, 100), buf(0, 100), 156),
            op(g(src, 7), buf(1, 3), 4),
            op(buf(1, 0), g(ro, 0), 4),
            op(g(src, 5), buf(0, 300), 1),
            op(g(src, 0), buf(0, 320), 1),
            op(buf(0, 50), g(dst, 4000), 96),
        ];
        let r = hv.grant_copy_with(dd, &ops, &mut bufs, mode);
        (hv, r, bufs, dst_page)
    }

    #[test]
    fn single_op_and_batched_buffer_copies_agree() {
        let (hv_b, batched, bufs_b, page_b) = mixed_buffer_batch(CopyMode::Batched);
        let (hv_s, single, bufs_s, page_s) = mixed_buffer_batch(CopyMode::SingleOp);
        assert_eq!(batched.failed, single.failed);
        assert_eq!(batched.failed.len(), 2, "{:?}", batched.failed);
        assert_eq!((batched.ops, batched.bytes), (single.ops, single.bytes));
        assert_eq!(bufs_b, bufs_s);
        assert_eq!(bufs_b[0][..256], (0..=255).collect::<Vec<u8>>());
        assert_eq!(bufs_b[0][256..], [[0; 44].as_slice(), &[5]].concat());
        assert_eq!(hv_b.mem.page(page_b), hv_s.mem.page(page_s));
        let dd = DomainId(1);
        assert_eq!(hv_b.meter(dd).count(HypercallKind::GntCopy), 1);
        assert_eq!(hv_s.meter(dd).count(HypercallKind::GntCopy), 7);
        assert!(batched.cost < single.cost);
    }

    #[test]
    fn a_buffer_batch_costs_what_the_page_batch_of_its_shape_costs() {
        let (mut hv, dd, gu) = machine();
        let (_, src) = granted(&mut hv, (dd, gu), &[7; 64], true);
        let g = |offset| CopySide::Grant {
            granter: gu,
            gref: src,
            offset,
        };
        let lens = [1400usize, 4096, 2048, 1];
        let to_buffers: Vec<GrantCopyOp> = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| op(g(0), buf(i, 0), len))
            .collect();
        let to_pages: Vec<GrantCopyOp> = lens
            .iter()
            .map(|&len| {
                let page = hv.alloc_page(dd).unwrap();
                op(g(0), CopySide::Local { page, offset: 0 }, len)
            })
            .collect();
        let mut bufs: Vec<Vec<u8>> = lens.iter().map(|&len| Vec::with_capacity(len)).collect();
        let a = hv.grant_copy_with(dd, &to_buffers, &mut bufs, CopyMode::Batched);
        let b = hv.grant_copy_ops(dd, &to_pages, CopyMode::Batched);
        assert!(a.all_ok() && b.all_ok());
        assert_eq!((a.ops, a.bytes, a.cost), (b.ops, b.bytes, b.cost));
        assert_eq!(a.cost, hv.costs.gnt_copy_batch(4, lens.iter().sum()));
    }

    #[test]
    fn charged_ops_bill_the_caller() {
        let mut hv = Hypervisor::new();
        hv.create_domain("Domain-0", DomainKind::Dom0, 1024, 4);
        let dd = hv.create_domain("dd", DomainKind::Driver, 256, 1);
        let gu = hv.create_domain("guest", DomainKind::Guest, 256, 2);

        let gpage = hv.alloc_page(gu).unwrap();
        let dpage = hv.alloc_page(dd).unwrap();
        hv.mem.page_mut(gpage).unwrap()[0..4].copy_from_slice(b"ping");
        let gref = hv.grant_access(gu, dd, gpage, true).unwrap();
        let batch = hv.grant_copy_batch(
            dd,
            &[GrantCopyOp {
                src: CopySide::Grant {
                    granter: gu,
                    gref,
                    offset: 0,
                },
                dst: CopySide::Local {
                    page: dpage,
                    offset: 0,
                },
                len: 4,
            }],
        );
        assert!(batch.all_ok() && batch.ops == 1);
        assert!(batch.cost > Nanos::ZERO);
        assert_eq!(&hv.mem.page(dpage).unwrap()[0..4], b"ping");
        assert_eq!(hv.meter(dd).count(HypercallKind::GntCopy), 1);
        assert_eq!(hv.meter(gu).total_count(), 0, "guest issued no hypercall");
    }

    #[test]
    fn batched_copy_is_one_hypercall_and_cheaper_than_single_ops() {
        let mut hv = Hypervisor::new();
        hv.create_domain("Domain-0", DomainKind::Dom0, 1024, 4);
        let dd = hv.create_domain("dd", DomainKind::Driver, 256, 1);
        let gu = hv.create_domain("guest", DomainKind::Guest, 256, 2);
        let mut ops = Vec::new();
        for i in 0..8u8 {
            let src = hv.alloc_page(gu).unwrap();
            let dst = hv.alloc_page(dd).unwrap();
            hv.mem.page_mut(src).unwrap()[0] = i;
            let gref = hv.grant_access(gu, dd, src, true).unwrap();
            ops.push(GrantCopyOp {
                src: CopySide::Grant {
                    granter: gu,
                    gref,
                    offset: 0,
                },
                dst: CopySide::Local {
                    page: dst,
                    offset: 0,
                },
                len: 64,
            });
        }
        let batch = hv.grant_copy_batch(dd, &ops);
        assert!(batch.all_ok());
        assert_eq!(batch.bytes, 8 * 64);
        assert_eq!(hv.meter(dd).count(HypercallKind::GntCopy), 1);
        // The same ops issued one at a time cost strictly more: seven
        // extra hypercall base crossings.
        let single: Nanos = ops
            .iter()
            .map(|op| hv.costs.gnt_copy_batch(1, op.len))
            .sum();
        assert!(batch.cost < single);
        // Saved exactly seven hypercall base crossings, modulo the ±1ns
        // integer rounding of the per-byte term.
        let delta = single.as_nanos() - batch.cost.as_nanos();
        let base7 = 7 * hv.costs.hypercall_base.as_nanos();
        assert!(delta.abs_diff(base7) <= ops.len() as u64, "delta={delta}");
    }

    #[test]
    fn batch_continues_past_failed_op() {
        let mut hv = Hypervisor::new();
        hv.create_domain("Domain-0", DomainKind::Dom0, 1024, 4);
        let dd = hv.create_domain("dd", DomainKind::Driver, 256, 1);
        let gu = hv.create_domain("guest", DomainKind::Guest, 256, 2);
        let src = hv.alloc_page(gu).unwrap();
        let dst = hv.alloc_page(dd).unwrap();
        hv.mem.page_mut(src).unwrap()[..2].copy_from_slice(b"ok");
        let ro = hv.grant_access(gu, dd, src, true).unwrap();
        let ops = [
            // Writing through a read-only grant fails...
            GrantCopyOp {
                src: CopySide::Local {
                    page: dst,
                    offset: 0,
                },
                dst: CopySide::Grant {
                    granter: gu,
                    gref: ro,
                    offset: 0,
                },
                len: 4,
            },
            // ...but the next op still executes.
            GrantCopyOp {
                src: CopySide::Grant {
                    granter: gu,
                    gref: ro,
                    offset: 0,
                },
                dst: CopySide::Local {
                    page: dst,
                    offset: 0,
                },
                len: 2,
            },
        ];
        let batch = hv.grant_copy_batch(dd, &ops);
        assert_eq!(batch.failed, [(0, XenError::ReadOnlyGrant)]);
        assert!(!batch.range_ok(0, 2) && batch.range_ok(1, 2));
        assert_eq!(batch.ok_ops(), 1);
        assert_eq!(batch.bytes, 2);
        assert_eq!(&hv.mem.page(dst).unwrap()[..2], b"ok");
        assert_eq!(hv.meter(dd).count(HypercallKind::GntCopy), 1);
    }

    #[test]
    fn empty_batch_issues_no_hypercall() {
        let mut hv = Hypervisor::new();
        hv.create_domain("Domain-0", DomainKind::Dom0, 1024, 4);
        let dd = hv.create_domain("dd", DomainKind::Driver, 256, 1);
        let batch = hv.grant_copy_batch(dd, &[]);
        assert_eq!((batch.ops, batch.failed.len()), (0, 0));
        assert_eq!(batch.cost, Nanos::ZERO);
        assert_eq!(hv.meter(dd).total_count(), 0);
    }

    #[test]
    fn one_op_batch_costs_exactly_a_single_copy_hypercall() {
        let mut hv = Hypervisor::new();
        hv.create_domain("Domain-0", DomainKind::Dom0, 1024, 4);
        let dd = hv.create_domain("dd", DomainKind::Driver, 256, 1);
        let a = hv.alloc_page(dd).unwrap();
        let b = hv.alloc_page(dd).unwrap();
        let cost = hv
            .grant_copy_batch(
                dd,
                &[GrantCopyOp {
                    src: CopySide::Local { page: a, offset: 0 },
                    dst: CopySide::Local { page: b, offset: 0 },
                    len: 512,
                }],
            )
            .cost;
        assert_eq!(cost, hv.costs.gnt_copy_batch(1, 512));
        assert_eq!(cost, hv.costs.cost(HypercallKind::GntCopy, 512));
    }

    #[test]
    fn evtchn_send_charges_and_notifies() {
        let mut hv = Hypervisor::new();
        hv.create_domain("Domain-0", DomainKind::Dom0, 1024, 4);
        let dd = hv.create_domain("dd", DomainKind::Driver, 256, 1);
        let gu = hv.create_domain("guest", DomainKind::Guest, 256, 2);
        let (p_gu, _) = hv.evtchn_alloc_unbound(gu, dd);
        let (p_dd, _) = hv.evtchn_bind(dd, gu, p_gu).unwrap();
        let (n, c) = hv.evtchn_send(dd, p_dd).unwrap();
        assert!(c > Nanos::ZERO);
        let n = n.unwrap();
        assert_eq!(n.domain, gu);
        assert_eq!(n.port, p_gu);
        assert_eq!(hv.meter(dd).count(HypercallKind::EvtchnSend), 1);
    }

    #[test]
    fn injected_copy_faults_surface_in_statuses() {
        let mut hv = Hypervisor::new();
        hv.create_domain("Domain-0", DomainKind::Dom0, 1024, 4);
        let dd = hv.create_domain("dd", DomainKind::Driver, 256, 1);
        hv.faults = FaultPlan::seeded(11).with_copy_failures(0.5);
        let a = hv.alloc_page(dd).unwrap();
        let b = hv.alloc_page(dd).unwrap();
        let ops: Vec<GrantCopyOp> = (0..64)
            .map(|i| GrantCopyOp {
                src: CopySide::Local {
                    page: a,
                    offset: i * 8,
                },
                dst: CopySide::Local {
                    page: b,
                    offset: i * 8,
                },
                len: 8,
            })
            .collect();
        let batch = hv.grant_copy_batch(dd, &ops);
        let failed = batch.failed.len();
        assert!(failed > 10, "half the ops should fault: {failed}");
        assert!(batch.ok_ops() > 10, "batch continues past faults");
        assert_eq!(batch.bytes, batch.ok_ops() * 8, "faulted ops move nothing");
        // Still one hypercall, still charged.
        assert_eq!(hv.meter(dd).count(HypercallKind::GntCopy), 1);
    }

    #[test]
    fn dropped_notify_loses_edge_but_next_send_reraises() {
        let mut hv = Hypervisor::new();
        hv.create_domain("Domain-0", DomainKind::Dom0, 1024, 4);
        let dd = hv.create_domain("dd", DomainKind::Driver, 256, 1);
        let gu = hv.create_domain("guest", DomainKind::Guest, 256, 2);
        let (p_gu, _) = hv.evtchn_alloc_unbound(gu, dd);
        let (p_dd, _) = hv.evtchn_bind(dd, gu, p_gu).unwrap();
        hv.faults = FaultPlan::seeded(1).with_notify_drops(1.0);
        let (n, _) = hv.evtchn_send(dd, p_dd).unwrap();
        assert!(n.is_none(), "notification swallowed");
        // The pending bit was cleared with the lost edge, so a later kick
        // (faults disarmed) raises a fresh notification.
        hv.faults = FaultPlan::none();
        let (n, _) = hv.evtchn_send(dd, p_dd).unwrap();
        assert!(n.is_some(), "edge re-raised after loss");
    }

    #[test]
    fn xs_faults_and_irq_delay_inject() {
        let mut hv = Hypervisor::new();
        let d0 = hv.create_domain("Domain-0", DomainKind::Dom0, 1024, 4);
        let base = hv.irq_delay();
        assert_eq!(base, hv.costs.irq_delivery, "no delay when unarmed");
        hv.faults = FaultPlan::seeded(2)
            .with_xs_failures(1.0)
            .with_notify_delays(1.0, Nanos::from_micros(50));
        let (r, _) = hv.xs_write(d0, "/k", "v");
        assert_eq!(r, Err(crate::XenError::Again));
        let (r, _) = hv.xs_read(d0, "/k");
        assert_eq!(r, Err(crate::XenError::Again));
        assert_eq!(hv.irq_delay(), base + Nanos::from_micros(50));
    }

    #[test]
    fn trace_records_hypercalls_notifies_and_xenbus_transitions() {
        let mut hv = Hypervisor::new();
        hv.create_domain("Domain-0", DomainKind::Dom0, 1024, 4);
        let dd = hv.create_domain("dd", DomainKind::Driver, 256, 1);
        let gu = hv.create_domain("guest", DomainKind::Guest, 256, 2);
        hv.trace.enable(1024);
        hv.trace.set_now(Nanos::from_micros(7));

        let a = hv.alloc_page(dd).unwrap();
        let b = hv.alloc_page(dd).unwrap();
        let ops = [crate::grant::GrantCopyOp {
            src: CopySide::Local { page: a, offset: 0 },
            dst: CopySide::Local { page: b, offset: 0 },
            len: 64,
        }];
        let batch = hv.grant_copy_batch(dd, &ops);
        let (p_gu, _) = hv.evtchn_alloc_unbound(gu, dd);
        let (p_dd, _) = hv.evtchn_bind(dd, gu, p_gu).unwrap();
        hv.evtchn_send(dd, p_dd).unwrap(); // delivered
        hv.evtchn_send(dd, p_dd).unwrap(); // pending bit set: coalesced

        let copies: Vec<_> = hv
            .trace
            .events()
            .filter_map(|e| match e.kind {
                EventKind::GrantCopyBatch {
                    ops,
                    ok_ops,
                    bytes,
                    cost,
                } => Some((e.at, e.dom, (ops, ok_ops, bytes), cost)),
                _ => None,
            })
            .collect();
        assert_eq!(
            copies,
            [(Nanos::from_micros(7), dd.0, (1, 1, 64), batch.cost)]
        );
        let outcomes: Vec<NotifyOutcome> = hv
            .trace
            .events()
            .filter_map(|e| match e.kind {
                EventKind::Notify { outcome, .. } => Some(outcome),
                _ => None,
            })
            .collect();
        assert_eq!(
            outcomes,
            vec![NotifyOutcome::Delivered, NotifyOutcome::Coalesced]
        );

        // A traced state switch lands with path and state name.
        let state_path = "/local/domain/1/device/vif/0/state";
        hv.switch_state(
            DomainId::DOM0,
            state_path,
            crate::xenbus::XenbusState::Initialising,
        )
        .unwrap();
        let last_state = hv
            .trace
            .events()
            .filter_map(|e| match &e.kind {
                EventKind::XenbusState { path, state } => Some((path.as_str(), *state)),
                _ => None,
            })
            .last();
        assert_eq!(last_state, Some((state_path, "initialising")));
        // Every emission got a distinct, increasing seq.
        let seqs: Vec<u64> = hv.trace.events().map(|e| e.seq).collect();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn unknown_domain_reads_a_zero_meter_and_grows_nothing() {
        let mut hv = Hypervisor::new();
        hv.create_domain("Domain-0", DomainKind::Dom0, 1024, 4);
        let ghost = DomainId(u16::MAX);
        assert_eq!(hv.meter(ghost).total_count(), 0);
        assert!(hv.charge(ghost, HypercallKind::EvtchnOp, 0) > Nanos::ZERO);
        assert_eq!(hv.meter(ghost).total_count(), 0, "bills no meter");
        assert_eq!(hv.evtchn_send(ghost, Port(0)), Err(XenError::BadPort));
        assert_eq!(
            hv.map_grant(DomainId::DOM0, ghost, GrantRef(0), true).err(),
            Some(XenError::BadGrant)
        );
        assert_eq!(hv.meters.len(), 1);
    }

    #[test]
    fn xs_ops_charge() {
        let mut hv = Hypervisor::new();
        let d0 = hv.create_domain("Domain-0", DomainKind::Dom0, 1024, 4);
        let (r, _) = hv.xs_write(d0, "/k", "v");
        r.unwrap();
        let (r, _) = hv.xs_read(d0, "/k");
        assert_eq!(r.unwrap(), "v");
        assert_eq!(hv.meter(d0).count(HypercallKind::XsOp), 2);
    }
}
