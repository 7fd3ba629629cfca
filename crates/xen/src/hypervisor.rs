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
use crate::grant::{GrantCopyOp, GrantRef, GrantTables, MapHandle, Mapping};
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
    /// channels (killing the peer ends), and force-detaches its PCI
    /// devices back to the assignable pool. Its xenstore subtree is left
    /// in place — xenstored outlives domains; the toolstack cleans up.
    pub fn destroy_domain(&mut self, dom: DomainId) -> Result<()> {
        self.domains.destroy(dom)?;
        self.grants.reclaim_domain(dom);
        self.evtchn.close_domain(dom);
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

    /// Frees a page.
    pub fn free_page(&mut self, dom: DomainId, page: PageId) -> Result<()> {
        self.mem.free(&mut self.domains, dom, page)
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

    /// Charged `GNTTABOP_map_grant_ref`.
    pub fn map_grant(
        &mut self,
        mapper: DomainId,
        granter: DomainId,
        gref: GrantRef,
    ) -> Result<(Mapping, Nanos)> {
        let m = self.grants.map(mapper, granter, gref)?;
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

    /// Charged batched `GNTTABOP_copy`: one hypercall executes the whole
    /// op array, with per-op statuses.
    ///
    /// The caller is billed one hypercall base cost per **batch** plus a
    /// fixed descriptor cost per op and a per-byte copy cost — the shape
    /// drivers amortize per-packet hypervisor work against. Failed ops
    /// report in their status and do not abort the batch; the hypercall
    /// is charged regardless (the domain still crossed into the
    /// hypervisor). An empty op array issues no hypercall and is free.
    pub fn grant_copy_batch(&mut self, caller: DomainId, ops: &[GrantCopyOp]) -> BatchResult {
        if ops.is_empty() {
            return BatchResult::default();
        }
        // Ops are independent: a failed op reports its error and the
        // batch continues, exactly like real Xen's per-op `status` field.
        let mut failed = Vec::new();
        let mut bytes = 0;
        for (i, op) in ops.iter().enumerate() {
            let done = self
                .grants
                .copy(&mut self.mem, caller, op.src, op.dst, op.len);
            match done {
                // Injected per-op failures surface exactly like real
                // ones: in the status, with the batch continuing past
                // them. The bytes have already moved; drivers must treat
                // errored ops as not transferred, which is what the
                // status contract says.
                Ok(()) if self.faults.fail_copy_op() => failed.push((i, XenError::BadGrant)),
                Ok(()) => bytes += op.len,
                Err(e) => failed.push((i, e)),
            }
        }
        let cost = self.costs.gnt_copy_batch(ops.len(), bytes);
        self.bill(caller, HypercallKind::GntCopy, cost);
        let result = BatchResult {
            ops: ops.len(),
            failed,
            bytes,
            cost,
        };
        self.trace
            .emit_with(caller.0, || EventKind::GrantCopyBatch {
                ops: ops.len() as u32,
                ok_ops: result.ok_ops() as u32,
                bytes: result.bytes as u64,
                cost,
            });
        result
    }

    /// Issues `ops` under the given [`CopyMode`](crate::grant::CopyMode): one batched hypercall,
    /// or the legacy one-hypercall-per-op shape. The two modes move the
    /// same bytes and produce the same statuses; only the hypercall count
    /// and modeled cost differ — which is what the drivers' ablation
    /// benches and equivalence tests measure.
    pub fn grant_copy_ops(
        &mut self,
        caller: DomainId,
        ops: &[GrantCopyOp],
        mode: crate::grant::CopyMode,
    ) -> BatchResult {
        let _prof = kite_prof::span(kite_prof::Phase::GrantCopy);
        match mode {
            crate::grant::CopyMode::Batched => self.grant_copy_batch(caller, ops),
            crate::grant::CopyMode::SingleOp => {
                let mut out = BatchResult::default();
                for op in ops {
                    let b = self.grant_copy_batch(caller, core::slice::from_ref(op));
                    out.failed
                        .extend(b.failed.iter().map(|&(_, e)| (out.ops, e)));
                    out.ops += 1;
                    out.bytes += b.bytes;
                    out.cost += b.cost;
                }
                out
            }
        }
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
        let r = self.store.read(caller, None, path);
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
        assert_eq!(hv.faults.stats.copy_faults, failed as u64);
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
        assert_eq!(hv.faults.stats.notifies_dropped, 1);
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
        assert_eq!(hv.faults.stats.xs_faults, 2);
        assert_eq!(hv.irq_delay(), base + Nanos::from_micros(50));
        assert_eq!(hv.faults.stats.notifies_delayed, 1);
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

        assert_eq!(hv.trace.query().kind("gnttab_copy").count(), 1);
        let copy = hv
            .trace
            .query()
            .kind("gnttab_copy")
            .first()
            .unwrap()
            .clone();
        assert_eq!(copy.at, Nanos::from_micros(7));
        assert_eq!(copy.dom, dd.0);
        match copy.kind {
            EventKind::GrantCopyBatch {
                ops: n,
                ok_ops,
                bytes,
                cost,
            } => {
                assert_eq!((n, ok_ops, bytes), (1, 1, 64));
                assert_eq!(cost, batch.cost);
            }
            other => panic!("wrong kind: {other:?}"),
        }
        let outcomes: Vec<NotifyOutcome> = hv
            .trace
            .query()
            .kind("notify")
            .iter()
            .map(|e| match e.kind {
                EventKind::Notify { outcome, .. } => outcome,
                _ => unreachable!(),
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
        let ev = hv
            .trace
            .query()
            .kind("xenbus_state")
            .last()
            .unwrap()
            .clone();
        match &ev.kind {
            EventKind::XenbusState { path, state } => {
                assert_eq!(path, state_path);
                assert_eq!(*state, "initialising");
            }
            other => panic!("wrong kind: {other:?}"),
        }
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
        assert!(hv.charge(ghost, HypercallKind::Sched, 0) > Nanos::ZERO);
        assert_eq!(hv.meter(ghost).total_count(), 0, "bills no meter");
        assert_eq!(hv.evtchn_send(ghost, Port(0)), Err(XenError::BadPort));
        assert_eq!(
            hv.map_grant(DomainId::DOM0, ghost, GrantRef(0)).err(),
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
