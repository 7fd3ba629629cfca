//! The Kite blkback driver (§3.3, §4.4 of the paper).
//!
//! One instance serves one blkfront. The paper's three storage
//! optimizations are all implemented and individually switchable (for
//! the ablation benches):
//!
//! * **request batching** — consecutive-sector segments from one or more
//!   requests merge into fewer, larger device operations;
//! * **persistent grant references** — mappings of frequently reused guest
//!   pages are cached, avoiding the map/unmap hypercalls (and their TLB
//!   shootdowns) per request;
//! * **indirect segments** — requests carrying up to 32 segments (the
//!   Linux-compatible cap) via descriptor pages, lifting the 11-segment /
//!   44 KiB direct-request limit that starves NVMe devices.
//!
//! Threading follows the paper: the event handler wakes one request
//! thread; responses are pushed asynchronously from device-completion
//! callbacks so later requests are never blocked behind earlier ones.
//!
//! The device side is submit-then-reap over NVMe queue pairs: each ring
//! lazily creates one I/O SQ/CQ pair whose completion vector is steered
//! to the ring's own vCPU, posts its whole merged batch, rings the
//! doorbell once, and later reaps CQ entries in
//! [`BlkbackInstance::reap_completions`] when the system layer delivers
//! the completion interrupt. Each queue pair keeps its own sequential
//! cursor inside the controller, so rings never poison each other's
//! sequential detection.
//!
//! When the frontend negotiated `multi-queue-num-queues = n`, the
//! instance runs `n` independent rings, each with its own event channel,
//! request thread and persistent-grant cache (per-ring, as in Linux
//! `xen-blkback` — caches are never shared across rings, so no
//! cross-ring locking). Responses always return on the ring the request
//! arrived on.

use std::collections::HashMap;

use kite_devices::{NvmeCmd, NvmeController, NvmeOp, QueueId};
use kite_rumprun::OsProfile;
use kite_sim::Nanos;
use kite_trace::EventKind;
use kite_xen::blkif::{
    unpack_indirect_segments, BlkifRequest, BlkifResponse, BlkifSegment,
    BLKIF_MAX_SEGMENTS_PER_REQUEST, BLKIF_OP_FLUSH_DISKCACHE, BLKIF_OP_READ, BLKIF_OP_WRITE,
    BLKIF_RSP_ERROR, BLKIF_RSP_OKAY, SECTOR_SIZE,
};
use kite_xen::xenbus::{attach_back, BackEndpoint, RingKey};
use kite_xen::{
    DevicePaths, DomainId, GrantRef, Hypervisor, MapHandle, PageId, Port, ReqId, ReqStage, Result,
    SlotClass, XenError, XenbusState,
};

use crate::lifecycle::QueueState;
use crate::stats::{counters, CopyStats};

/// The indirect-segment cap Kite advertises (Linux-compatible, §3.3).
pub const MAX_INDIRECT_SEGMENTS: usize = 32;
// `segments_of` reads a capped list out of one descriptor page.
const _: () = assert!(MAX_INDIRECT_SEGMENTS <= kite_xen::blkif::SEGS_PER_INDIRECT_FRAME);

/// Optimization switches (all on by default; benches ablate them).
#[derive(Clone, Copy, Debug)]
pub struct BlkbackTuning {
    /// Merge consecutive-sector segments into larger device ops.
    pub batching: bool,
    /// Cache grant mappings across requests.
    pub persistent_grants: bool,
    /// Accept indirect-segment requests.
    pub indirect_segments: bool,
}

impl Default for BlkbackTuning {
    fn default() -> Self {
        BlkbackTuning {
            batching: true,
            persistent_grants: true,
            indirect_segments: true,
        }
    }
}

counters! {
    /// Statistics of one blkback instance (summed across its rings).
    pub struct BlkbackStats {
        /// Requests processed.
        requests: "count",
        /// Device operations issued (affected by batching).
        device_ops: "count",
        /// Bytes read from the device for the guest.
        read_bytes: "bytes",
        /// Bytes written to the device for the guest.
        write_bytes: "bytes",
        /// Persistent-grant cache hits.
        persistent_hits: "count",
        /// Grant map hypercalls issued.
        grant_maps: "count",
        /// Malformed or out-of-range requests rejected.
        errors: "count",
        /// Rings halted because the frontend moved the request producer
        /// index more than a ring ahead.
        ring_corrupt: "count",
    }
    nested {
        /// Always zero: blkback maps, it never grant-copies (DESIGN.md
        /// §7). Kept because `benchmark/` reads `.copy.{ops,bytes}`
        /// (ROADMAP item 9's pinned shapes).
        copy: CopyStats = "copy_",
    }
}

/// A request that failed validation and never reached the device; the
/// system layer schedules its error response at `respond_at`.
#[derive(Clone, Copy, Debug)]
pub struct BlkFailure {
    /// The frontend's request id.
    pub req_id: u64,
    /// When the error response becomes deliverable.
    pub respond_at: Nanos,
}

/// Result of one request-thread batch.
#[derive(Debug, Default)]
pub struct BlkBatch {
    /// Requests rejected during validation — they bypass the device and
    /// complete through [`BlkbackInstance::complete`].
    pub failures: Vec<BlkFailure>,
    /// Completion interrupts to schedule: `(ring, fire_at)` per CQ entry
    /// the doorbell posted. The system layer delivers each by calling
    /// [`BlkbackInstance::reap_completions`] on the vCPU of the queue
    /// pair's MSI-X vector. Appended after whatever the list passed to
    /// `request_thread_run_into` already held.
    pub cq_irqs: Vec<(usize, Nanos)>,
    /// vCPU cost of parsing, mapping and memcpy.
    pub cost: Nanos,
    /// More ring requests remain after the budget.
    pub more: bool,
}

/// Result of a completion callback or CQ reap.
#[derive(Debug, Default)]
pub struct BlkComplete {
    /// Bitmask of rings whose frontend must be notified (bit `q` →
    /// notify on `port_of(q)`). A reap normally touches only its own
    /// ring; rings sharing a queue pair (controller cap exhausted) can
    /// fan out.
    pub notify_rings: u64,
    /// Requests completed by this call.
    pub completed: u32,
    /// vCPU cost of the callback (response pushes, unmaps).
    pub cost: Nanos,
}

struct InFlight {
    op: u8,
    /// Ring the request arrived on — its response returns there.
    ring: usize,
    unmap: Vec<MapHandle>,
    status: i16,
}

/// Persistent-grant cache capacity (mappings), per ring: Linux
/// blkback's default `max_persistent_grants`, 32 requests of 32 indirect
/// segments plus their descriptor page.
const PERSISTENT_CAP: usize = 1056;

/// Mappings a full cache purges in one pass, least recently used first:
/// xen-blkback's `LRU_PERCENT_CLEAN`, 5 % of the cap. A frontend cycling
/// more grants than the cap so pays one pass over the cache per purge,
/// not one per new grant.
const PERSISTENT_PURGE: usize = PERSISTENT_CAP * 5 / 100;

/// A cached mapping: its handle, its page, whether it is read-only, and
/// the tick it was last used at.
type CachedMap = (MapHandle, PageId, bool, u64);

#[derive(Default)]
struct PersistentCache {
    map: HashMap<GrantRef, CachedMap>,
    tick: u64,
    // Purge scratch, recycled: every mapping's (last use, grant), then
    // the handles a purge evicted.
    by_age: Vec<(u64, GrantRef)>,
    evicted: Vec<MapHandle>,
}

impl PersistentCache {
    /// The cached page of `gref`, and whether it is mapped read-only.
    fn get(&mut self, gref: GrantRef) -> Option<(PageId, bool)> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(&gref).map(|e| {
            e.3 = tick;
            (e.1, e.2)
        })
    }

    /// Inserts, purging the [`PERSISTENT_PURGE`] least recently used
    /// mappings first if the cache is full; returns the purged mapping
    /// handles, oldest first, which the caller must unmap.
    fn insert(
        &mut self,
        gref: GrantRef,
        handle: MapHandle,
        page: PageId,
        readonly: bool,
    ) -> &[MapHandle] {
        self.tick += 1;
        self.evicted.clear();
        if self.map.len() >= PERSISTENT_CAP {
            self.by_age.clear();
            self.by_age
                .extend(self.map.iter().map(|(&gref, e)| (e.3, gref)));
            // Ticks are unique, so the oldest are one set in one order.
            self.by_age.select_nth_unstable(PERSISTENT_PURGE - 1);
            let oldest = &mut self.by_age[..PERSISTENT_PURGE];
            oldest.sort_unstable();
            for (_, old) in oldest {
                self.evicted.extend(self.map.remove(old).map(|e| e.0));
            }
        }
        self.map.insert(gref, (handle, page, readonly, self.tick));
        &self.evicted
    }
}

/// One ring of a blkback instance: the shared ring mapped from the
/// frontend, its event channel, and the ring-private persistent-grant
/// cache its request thread works through.
struct BbRing {
    state: QueueState,
    shared: BackEndpoint<BlkifRequest, BlkifResponse>,
    persistent: PersistentCache,
    /// The NVMe I/O queue pair this ring submits through, created on the
    /// first drain (connect has no device access). The completion vector
    /// is steered to this ring's vCPU.
    qid: Option<QueueId>,
}

/// One blkback instance.
pub struct BlkbackInstance {
    /// Driver domain running this backend.
    pub back: DomainId,
    /// Guest domain of the paired frontend.
    pub front: DomainId,
    /// Device index.
    pub index: u32,
    rings: Vec<BbRing>,
    tuning: BlkbackTuning,
    in_flight: HashMap<u64, InFlight>,
    /// NVMe command id → the frontend request ids a merged run carries.
    cids: HashMap<u64, Vec<u64>>,
    profile: OsProfile,
    stats: BlkbackStats,
    device_sectors: u64,
    // Drain-path scratch, recycled across calls so a warmed-up request
    // thread performs no bookkeeping allocations.
    scratch_runs: Vec<Run>,
    scratch_run_reqs: Vec<u64>,
    scratch_flushes: Vec<u64>,
    spare_cid_reqs: Vec<Vec<u64>>,
    /// Traced requests consumed in the current batch — `(frontend id,
    /// req)` pairs kept so merged-run submission can hand each sample to
    /// its NVMe command id. Empty whenever request tracing is off.
    scratch_req: Vec<(u64, ReqId)>,
}

/// A mergeable device run pending submission: contiguous same-op
/// requests batched into one NVMe operation. The owning request ids
/// live in a shared scratch buffer (`scratch_run_reqs`) starting at
/// `reqs_start` — runs are built append-only, so each run's ids are a
/// contiguous slice ending where the next run's begin.
struct Run {
    sector: u64,
    bytes: usize,
    op: u8,
    reqs_start: usize,
}

impl BlkbackInstance {
    /// Connects to a frontend: advertises device properties and features
    /// in xenstore, attaches every negotiated ring and its event channel
    /// ([`attach_back`] owns the negotiation and the undo-on-error
    /// contract), switches the backend state to `Connected`.
    pub fn connect(
        hv: &mut Hypervisor,
        paths: &DevicePaths,
        profile: OsProfile,
        tuning: BlkbackTuning,
        device_sectors: u64,
    ) -> Result<Self> {
        let back = paths.back;
        let be = paths.backend();
        // Advertise properties first (§4.4 initialization order).
        hv.store.write(
            back,
            None,
            &format!("{be}/sectors"),
            &device_sectors.to_string(),
        )?;
        hv.store.write(
            back,
            None,
            &format!("{be}/sector-size"),
            &SECTOR_SIZE.to_string(),
        )?;
        hv.store
            .write(back, None, &format!("{be}/feature-flush-cache"), "1")?;
        hv.store.write(
            back,
            None,
            &format!("{be}/feature-persistent"),
            if tuning.persistent_grants { "1" } else { "0" },
        )?;
        hv.store.write(
            back,
            None,
            &format!("{be}/feature-max-indirect-segments"),
            &if tuning.indirect_segments {
                MAX_INDIRECT_SEGMENTS.to_string()
            } else {
                "0".to_string()
            },
        )?;
        let rings = attach_back(hv, paths, |hv, at| {
            let mut rings = Vec::with_capacity(at.queues() as usize);
            for k in 0..at.queues() {
                let shared = at.ring(hv, k, RingKey::Blk)?;
                rings.push(BbRing {
                    state: QueueState::new(at.event_channel(hv, k)?),
                    shared,
                    persistent: PersistentCache::default(),
                    qid: None,
                });
            }
            hv.switch_state(back, &paths.backend_state(), XenbusState::Connected)?;
            Ok(rings)
        })?;
        Ok(BlkbackInstance {
            back,
            front: paths.front,
            index: paths.index,
            rings,
            tuning,
            in_flight: HashMap::new(),
            cids: HashMap::new(),
            profile,
            stats: BlkbackStats::default(),
            device_sectors,
            scratch_runs: Vec::new(),
            scratch_run_reqs: Vec::new(),
            scratch_flushes: Vec::new(),
            spare_cid_reqs: Vec::new(),
            scratch_req: Vec::new(),
        })
    }

    /// Instance statistics.
    pub fn stats(&self) -> BlkbackStats {
        self.stats
    }

    /// The NVMe queue pair ring `q` submits through, once its first
    /// drain has created it.
    pub fn nvme_queue_of(&self, q: usize) -> Option<QueueId> {
        self.rings[q].qid
    }

    /// Ensures ring `q` has an I/O queue pair, creating one with its
    /// completion vector steered to vCPU `q` (one ring ↔ one vCPU in the
    /// driver domain's `CpuPool`). If the controller's queue cap is
    /// already exhausted, the ring shares an existing pair round-robin —
    /// the same degradation blk-mq applies when a device offers fewer
    /// hardware queues than there are contexts.
    fn ensure_queue(&mut self, device: &mut NvmeController, q: usize) -> QueueId {
        if let Some(qid) = self.rings[q].qid {
            return qid;
        }
        let qid = device.create_io_queues(q).unwrap_or_else(|| {
            let shared: Vec<QueueId> = self.rings.iter().filter_map(|r| r.qid).collect();
            assert!(
                !shared.is_empty(),
                "NVMe controller has no I/O queue pair available for blkback"
            );
            shared[q % shared.len()]
        });
        self.rings[q].qid = Some(qid);
        qid
    }

    /// Resolves a guest page through ring `q`'s cache: persistent hit or
    /// a fresh map, `readonly` or writable. A cached read-only mapping
    /// asked for writable access is refused like a failed map.
    ///
    /// Returns the page plus the handle to unmap at completion when the
    /// mapping is *not* persistent.
    fn resolve_page(
        &mut self,
        hv: &mut Hypervisor,
        q: usize,
        gref: GrantRef,
        readonly: bool,
        cost: &mut Nanos,
    ) -> Result<(PageId, Option<MapHandle>)> {
        if self.tuning.persistent_grants {
            if let Some((page, cached_readonly)) = self.rings[q].persistent.get(gref) {
                if cached_readonly && !readonly {
                    return Err(XenError::ReadOnlyGrant);
                }
                self.stats.persistent_hits += 1;
                return Ok((page, None));
            }
        }
        let (mapping, c) = hv.map_grant(self.back, self.front, gref, readonly)?;
        self.stats.grant_maps += 1;
        *cost += c;
        if self.tuning.persistent_grants {
            let cache = &mut self.rings[q].persistent;
            for &evicted in cache.insert(gref, mapping.handle, mapping.page, readonly) {
                *cost += hv.unmap_grant(self.back, evicted)?;
            }
            Ok((mapping.page, None))
        } else {
            Ok((mapping.page, Some(mapping.handle)))
        }
    }

    /// Lends the effective segment list of a request: a direct request's
    /// own inline segments, or an indirect one's unpacked into `buf`
    /// (mapping its descriptor pages as needed).
    fn segments_of<'a>(
        &mut self,
        hv: &mut Hypervisor,
        q: usize,
        req: &'a BlkifRequest,
        cost: &mut Nanos,
        buf: &'a mut [BlkifSegment; MAX_INDIRECT_SEGMENTS],
    ) -> Result<&'a [BlkifSegment]> {
        match req {
            BlkifRequest::Direct {
                nr_segments,
                segments,
                ..
            } => {
                let n = (*nr_segments as usize).min(BLKIF_MAX_SEGMENTS_PER_REQUEST);
                Ok(&segments[..n])
            }
            BlkifRequest::Indirect {
                nr_segments,
                indirect_grefs,
                ..
            } => {
                if !self.tuning.indirect_segments {
                    return Err(XenError::Inval);
                }
                let n = *nr_segments as usize;
                if n > MAX_INDIRECT_SEGMENTS {
                    return Err(XenError::Inval);
                }
                // One descriptor page holds 512 segments, so the capped
                // list always sits in the request's first page, which the
                // backend only reads.
                let segs = &mut buf[..n];
                if n > 0 {
                    let (page, unmap) = self.resolve_page(hv, q, indirect_grefs[0], true, cost)?;
                    unpack_indirect_segments(hv.mem.page(page)?, segs);
                    if let Some(h) = unmap {
                        *cost += hv.unmap_grant(self.back, h)?;
                    }
                }
                Ok(segs)
            }
        }
    }

    /// The request thread body for ring `q`: drains up to `budget` ring
    /// requests, validates them, moves data and submits device
    /// operations. The batch's completion interrupts are appended to
    /// `cq_irqs`, which comes back as [`BlkBatch::cq_irqs`] — a caller
    /// that recycles the list pays for no list.
    pub fn request_thread_run_into(
        &mut self,
        hv: &mut Hypervisor,
        device: &mut NvmeController,
        q: usize,
        now: Nanos,
        budget: usize,
        cq_irqs: Vec<(usize, Nanos)>,
    ) -> Result<BlkBatch> {
        let _prof = kite_prof::span(kite_prof::Phase::BlkbackSubmit);
        let mut batch = BlkBatch {
            cq_irqs,
            ..BlkBatch::default()
        };
        let (rq, halts) = (&mut self.rings[q], &mut self.stats.ring_corrupt);
        if !rq
            .state
            .may_drain(hv, self.back, &rq.shared, "blkback_req", q, halts)?
        {
            return Ok(batch);
        }
        let mut runs = std::mem::take(&mut self.scratch_runs);
        let mut run_reqs = std::mem::take(&mut self.scratch_run_reqs);
        let mut flushes = std::mem::take(&mut self.scratch_flushes);

        for _ in 0..budget {
            let req = {
                let rq = &mut self.rings[q];
                let page = hv.mem.page(rq.shared.page)?;
                match rq.shared.ring.consume_request(page)? {
                    Some(r) => r,
                    None => break,
                }
            };
            batch.cost += self.profile.per_block_request;
            self.stats.requests += 1;
            let id = req.id();
            let op = req.io_op();
            if let Some(r) = hv.req.take(SlotClass::BlkReq, id) {
                hv.req.stamp_at(
                    r,
                    ReqStage::BackendFetch,
                    self.back.0,
                    Some(q as u16),
                    now + batch.cost,
                );
                self.scratch_req.push((id, r));
            }
            if op == BLKIF_OP_FLUSH_DISKCACHE {
                self.in_flight.insert(
                    id,
                    InFlight {
                        op,
                        ring: q,
                        unmap: Vec::new(),
                        status: BLKIF_RSP_OKAY,
                    },
                );
                flushes.push(id);
                continue;
            }
            if op != BLKIF_OP_READ && op != BLKIF_OP_WRITE {
                self.reject(&mut batch, now, id, op, q, Vec::new());
                continue;
            }
            let mut seg_buf = [BlkifSegment::ZERO; MAX_INDIRECT_SEGMENTS];
            let segs = match self.segments_of(hv, q, &req, &mut batch.cost, &mut seg_buf) {
                Ok(s) => s,
                Err(_) => {
                    self.reject(&mut batch, now, id, op, q, Vec::new());
                    continue;
                }
            };
            // The start sector is the guest's: a sum that wraps is out of
            // range, not small.
            let total_sectors: u64 = segs.iter().map(|s| s.sectors()).sum();
            let in_range = req
                .sector()
                .checked_add(total_sectors)
                .is_some_and(|end| end <= self.device_sectors);
            if segs.iter().any(|s| s.is_empty() || s.last_sect > 7) || !in_range {
                self.reject(&mut batch, now, id, op, q, Vec::new());
                continue;
            }
            // Move data between guest pages and the (real) device bytes.
            let mut unmap = Vec::new();
            let ok = self.map_request_data(
                hv,
                device,
                q,
                segs,
                req.sector(),
                op,
                &mut batch.cost,
                &mut unmap,
            )?;
            if !ok {
                // Whatever did map is unmapped with the error response.
                self.reject(&mut batch, now, id, op, q, unmap);
                continue;
            }
            self.in_flight.insert(
                id,
                InFlight {
                    op,
                    ring: q,
                    unmap,
                    status: BLKIF_RSP_OKAY,
                },
            );
            // Merge into device runs (batching): a request whose start
            // sector continues the previous run of the same op joins it.
            let bytes = total_sectors as usize * SECTOR_SIZE;
            let start = req.sector();
            match runs.last_mut() {
                Some(r)
                    if self.tuning.batching
                        && r.op == op
                        && r.sector + (r.bytes / SECTOR_SIZE) as u64 == start =>
                {
                    r.bytes += bytes;
                }
                _ => runs.push(Run {
                    sector: start,
                    bytes,
                    op,
                    reqs_start: run_reqs.len(),
                }),
            }
            run_reqs.push(id);
        }

        // Post merged runs to this ring's NVMe queue pair, then ring the
        // doorbell once for the whole batch. The doorbell returns the CQ
        // entries it posted; the system layer turns them into completion
        // interrupts on the queue's MSI-X vCPU (submit-then-reap). A
        // traced request's command enters the queue at the doorbell.
        let submit_at = now + batch.cost;
        let (back, ring) = (self.back.0, Some(q as u16));
        let traced = |hv: &mut Hypervisor, cid: u64, tr| {
            hv.req.map(SlotClass::NvmeCid, cid, tr);
            hv.req
                .stamp_at(tr, ReqStage::NvmeSubmit, back, ring, submit_at);
        };
        if !runs.is_empty() || !flushes.is_empty() {
            let qid = self.ensure_queue(device, q);
            for (k, r) in runs.iter().enumerate() {
                let kind = if r.op == BLKIF_OP_READ {
                    NvmeOp::Read
                } else {
                    NvmeOp::Write
                };
                let cid = device.sq_push(
                    qid,
                    NvmeCmd {
                        op: kind,
                        sector: r.sector,
                        len_bytes: r.bytes,
                    },
                );
                self.stats.device_ops += 1;
                let reqs_end = runs.get(k + 1).map_or(run_reqs.len(), |n| n.reqs_start);
                let merged = &run_reqs[r.reqs_start..reqs_end];
                if let Some(&(_, tr)) = self.scratch_req.iter().find(|(id, _)| merged.contains(id))
                {
                    traced(hv, cid.0, tr);
                }
                let mut ids = self.spare_cid_reqs.pop().unwrap_or_default();
                ids.extend_from_slice(merged);
                self.cids.insert(cid.0, ids);
            }
            for &id in &flushes {
                let cid = device.sq_push(qid, NvmeCmd::flush());
                self.stats.device_ops += 1;
                if let Some(&(_, tr)) = self.scratch_req.iter().find(|(fid, _)| *fid == id) {
                    traced(hv, cid.0, tr);
                }
                let mut ids = self.spare_cid_reqs.pop().unwrap_or_default();
                ids.push(id);
                self.cids.insert(cid.0, ids);
            }
            for e in device.ring_doorbell(qid, submit_at) {
                batch.cq_irqs.push((q, e.completes_at));
            }
        }
        let consumed = (batch.failures.len() + run_reqs.len() + flushes.len()) as u32;
        let rq = &mut self.rings[q];
        let page = hv.mem.page_mut(rq.shared.page)?;
        batch.more = rq.shared.ring.final_check_for_requests(page);
        if consumed > 0 {
            let delivered = runs.len() as u32;
            hv.trace.emit_with(self.back.0, || EventKind::RingDrain {
                queue: "blkback_req",
                qid: q as u16,
                consumed,
                delivered,
                notify: false,
            });
        }
        runs.clear();
        run_reqs.clear();
        flushes.clear();
        self.scratch_req.clear();
        self.scratch_runs = runs;
        self.scratch_run_reqs = run_reqs;
        self.scratch_flushes = flushes;
        Ok(batch)
    }

    /// [`request_thread_run_into`](Self::request_thread_run_into) a fresh
    /// list.
    pub fn request_thread_run(
        &mut self,
        hv: &mut Hypervisor,
        device: &mut NvmeController,
        q: usize,
        now: Nanos,
        budget: usize,
    ) -> Result<BlkBatch> {
        self.request_thread_run_into(hv, device, q, now, budget, Vec::new())
    }

    /// Mapped data path: resolves every segment's page (a fresh map or a
    /// hit in ring `q`'s persistent cache), then memcpys between the
    /// pages and the device. All or nothing: `Ok(false)` at the first
    /// grant that does not resolve, with no byte moved and the handles
    /// mapped so far in `unmap` for the caller's reject path.
    #[allow(clippy::too_many_arguments)]
    fn map_request_data(
        &mut self,
        hv: &mut Hypervisor,
        device: &mut NvmeController,
        q: usize,
        segs: &[BlkifSegment],
        start_sector: u64,
        op: u8,
        cost: &mut Nanos,
        unmap: &mut Vec<MapHandle>,
    ) -> Result<bool> {
        // The device reads a write's pages and writes a read's. A
        // persistent mapping outlives its request, so data grants are
        // cached writable, as Linux's blkback maps them.
        let readonly = op == BLKIF_OP_WRITE && !self.tuning.persistent_grants;
        // Staged on the stack: a request never carries more segments
        // than the indirect cap (a longer list would simply not resolve).
        let mut pages = [PageId(0); MAX_INDIRECT_SEGMENTS];
        let mut mapped = 0;
        for (seg, slot) in segs.iter().zip(&mut pages) {
            let Ok((page, h)) = self.resolve_page(hv, q, seg.gref, readonly, cost) else {
                break;
            };
            *slot = page;
            mapped += 1;
            unmap.extend(h);
        }
        let resolved = mapped == segs.len();
        if resolved {
            let mut dev_sector = start_sector;
            for (seg, &page) in segs.iter().zip(&pages) {
                let off = seg.first_sect as usize * SECTOR_SIZE;
                let len = seg.len();
                if op == BLKIF_OP_WRITE {
                    device.write_data(dev_sector, &hv.mem.page(page)?[off..off + len]);
                    self.stats.write_bytes += len as u64;
                } else {
                    device.read_data(dev_sector, &mut hv.mem.page_mut(page)?[off..off + len]);
                    self.stats.read_bytes += len as u64;
                }
                dev_sector += seg.sectors();
            }
        }
        Ok(resolved)
    }

    /// Books a request that failed validation and queues its error
    /// response, which [`complete`](Self::complete) pushes after
    /// unmapping `unmap`.
    fn reject(
        &mut self,
        batch: &mut BlkBatch,
        now: Nanos,
        id: u64,
        op: u8,
        q: usize,
        unmap: Vec<MapHandle>,
    ) {
        batch.failures.push(BlkFailure {
            req_id: id,
            respond_at: now + batch.cost,
        });
        self.stats.errors += 1;
        self.in_flight.insert(
            id,
            InFlight {
                op,
                ring: q,
                unmap,
                status: BLKIF_RSP_ERROR,
            },
        );
    }

    /// Completion callback for one request that never reached the device
    /// (validation failure): pushes the error response on the ring the
    /// request arrived on and reports which rings to notify.
    pub fn complete(&mut self, hv: &mut Hypervisor, req_id: u64) -> Result<BlkComplete> {
        let mut out = BlkComplete::default();
        self.complete_one(hv, req_id, &mut out)?;
        self.check_notify(hv, &mut out)?;
        Ok(out)
    }

    /// Pushes one request's response (completion bookkeeping shared by
    /// the reap and failure paths); notify checks are batched separately.
    fn complete_one(
        &mut self,
        hv: &mut Hypervisor,
        req_id: u64,
        out: &mut BlkComplete,
    ) -> Result<()> {
        let fl = self.in_flight.remove(&req_id).ok_or(XenError::Inval)?;
        for h in fl.unmap {
            out.cost += hv.unmap_grant(self.back, h)?;
        }
        let rq = &mut self.rings[fl.ring];
        let page = hv.mem.page_mut(rq.shared.page)?;
        rq.shared.ring.push_response(
            page,
            &BlkifResponse {
                id: req_id,
                operation: fl.op,
                status: fl.status,
            },
        )?;
        out.notify_rings |= 1u64 << fl.ring;
        out.completed += 1;
        out.cost += self.profile.per_block_request / 2;
        Ok(())
    }

    /// Runs the ring notification protocol once per ring that received
    /// responses, replacing the touched bits with the rings whose
    /// frontend actually needs an event.
    fn check_notify(&mut self, hv: &mut Hypervisor, out: &mut BlkComplete) -> Result<()> {
        let touched = out.notify_rings;
        out.notify_rings = 0;
        for q in 0..self.rings.len() {
            if touched & (1u64 << q) == 0 {
                continue;
            }
            let rq = &mut self.rings[q];
            let page = hv.mem.page_mut(rq.shared.page)?;
            if rq.shared.ring.push_responses(page) {
                out.notify_rings |= 1u64 << q;
            }
        }
        Ok(())
    }

    /// The completion-interrupt handler for ring `q`: reaps every CQ
    /// entry due at `now` from the ring's queue pair, unmaps
    /// non-persistent grants, pushes responses on the rings the requests
    /// arrived on, and reports which frontends to notify. Runs on the
    /// vCPU the queue pair's MSI-X vector is steered to.
    pub fn reap_completions(
        &mut self,
        hv: &mut Hypervisor,
        device: &mut NvmeController,
        q: usize,
        now: Nanos,
    ) -> Result<BlkComplete> {
        let _prof = kite_prof::span(kite_prof::Phase::BlkbackReap);
        let mut out = BlkComplete::default();
        let Some(qid) = self.rings[q].qid else {
            return Ok(out);
        };
        while let Some(entry) = device.cq_pop(qid, now) {
            if let Some(r) = hv.req.take(SlotClass::NvmeCid, entry.cid.0) {
                hv.req
                    .stamp_at(r, ReqStage::NvmeComplete, self.back.0, Some(q as u16), now);
            }
            let mut ids = self.cids.remove(&entry.cid.0).ok_or(XenError::Inval)?;
            for &id in &ids {
                self.complete_one(hv, id, &mut out)?;
            }
            ids.clear();
            self.spare_cid_reqs.push(ids);
        }
        if out.completed > 0 {
            self.check_notify(hv, &mut out)?;
        }
        Ok(out)
    }
}

/// Everything a blkback needs besides its device pair: the OS profile,
/// the optimization switches and the backing device's size.
#[derive(Clone, Debug)]
pub struct BlkbackConfig {
    /// Driver-domain OS cost profile.
    pub profile: OsProfile,
    /// Optimization switches.
    pub tuning: BlkbackTuning,
    /// Size of the backing device in sectors.
    pub device_sectors: u64,
}

impl crate::lifecycle::BackendDevice for BlkbackInstance {
    type Config = BlkbackConfig;
    const KIND: kite_xen::DeviceKind = kite_xen::DeviceKind::Vbd;

    fn connect(hv: &mut Hypervisor, paths: &DevicePaths, cfg: &BlkbackConfig) -> Result<Self> {
        BlkbackInstance::connect(
            hv,
            paths,
            cfg.profile.clone(),
            cfg.tuning,
            cfg.device_sectors,
        )
    }

    fn device_paths(&self) -> DevicePaths {
        DevicePaths::new(self.front, self.back, kite_xen::DeviceKind::Vbd, self.index)
    }

    /// Closes every ring's channel, releases every grant mapping (rings,
    /// persistent caches, any in-flight request pages), and walks the
    /// backend state to `Closed`.
    fn close(self, hv: &mut Hypervisor) -> Result<()> {
        let state = self.device_paths().backend_state();
        for (_, fl) in self.in_flight {
            for h in fl.unmap {
                hv.unmap_grant(self.back, h)?;
            }
        }
        for rq in self.rings {
            rq.state.release(hv, self.back);
            for (_, (h, ..)) in rq.persistent.map {
                hv.unmap_grant(self.back, h)?;
            }
            rq.shared.detach(hv, self.back)?;
        }
        hv.switch_state(self.back, &state, XenbusState::Closing)?;
        hv.switch_state(self.back, &state, XenbusState::Closed)
    }

    fn queue_count(&self) -> usize {
        self.rings.len()
    }

    fn port_of(&self, q: usize) -> Port {
        self.rings[q].state.evtchn
    }

    /// Ack the port and wake the request thread.
    fn irq_handler_cost(&self) -> Nanos {
        self.profile.irq_overhead
    }

    fn set_queue_wedged(&mut self, q: usize, wedged: bool) {
        self.rings[q].state.wedged = wedged;
    }

    fn queue_progress(&self, hv: &Hypervisor) -> Vec<(u64, u64)> {
        self.rings.iter().map(|rq| rq.shared.progress(hv)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::test_machine;
    use crate::lifecycle::BackendDevice;
    use kite_rumprun::kite_profile;
    use kite_xen::ring::{sring, FrontRing};
    use kite_xen::DeviceKind;

    /// A bare blkif ring published like a blkfront's — hand-built ring
    /// page, grants and xenstore keys, no `Blkfront` — so tests can
    /// publish requests no real frontend would.
    struct RawBlkFront {
        ring: FrontRing<BlkifRequest, BlkifResponse>,
        ring_page: PageId,
        /// Grants of eight data pages, each filled with `0xab`.
        grefs: Vec<GrantRef>,
        /// Grant of one page for indirect segment descriptors.
        indirect: GrantRef,
        indirect_page: PageId,
    }

    impl RawBlkFront {
        fn submit(&mut self, hv: &mut Hypervisor, req: &BlkifRequest) {
            let page = hv.mem.page_mut(self.ring_page).unwrap();
            self.ring.push_request(page, req).unwrap();
            self.ring.push_requests(page);
        }

        fn responses(&mut self, hv: &Hypervisor) -> Vec<BlkifResponse> {
            let mut out = Vec::new();
            let page = hv.mem.page(self.ring_page).unwrap();
            while let Some(rsp) = self.ring.consume_response(page).unwrap() {
                out.push(rsp);
            }
            out
        }

        fn write(&self, id: u64, sector_number: u64, segments: Vec<BlkifSegment>) -> BlkifRequest {
            BlkifRequest::direct(BLKIF_OP_WRITE, 0, id, sector_number, &segments)
        }

        fn whole_page(&self, k: usize) -> BlkifSegment {
            BlkifSegment {
                gref: self.grefs[k],
                first_sect: 0,
                last_sect: 7,
            }
        }
    }

    type RawPair = (Hypervisor, RawBlkFront, BlkbackInstance, NvmeController);

    fn raw_pair(persistent_grants: bool) -> RawPair {
        let (mut hv, paths) = test_machine(DeviceKind::Vbd);
        let (gu, dd) = (paths.front, paths.back);
        let ring_page = hv.alloc_page(gu).unwrap();
        let ring = FrontRing::init(hv.mem.page_mut(ring_page).unwrap());
        let ring_ref = hv.grant_access(gu, dd, ring_page, false).unwrap();
        let (port, _) = hv.evtchn_alloc_unbound(gu, dd);
        let root = paths.frontend();
        for (key, val) in [("ring-ref", ring_ref.0), ("event-channel", port.0)] {
            hv.store
                .write(gu, None, &format!("{root}/{key}"), &val.to_string())
                .unwrap();
        }
        let mut grefs = Vec::new();
        for _ in 0..8 {
            let p = hv.alloc_page(gu).unwrap();
            hv.mem.page_mut(p).unwrap().fill(0xab);
            grefs.push(hv.grant_access(gu, dd, p, false).unwrap());
        }
        let indirect_page = hv.alloc_page(gu).unwrap();
        let indirect = hv.grant_access(gu, dd, indirect_page, true).unwrap();

        let nvme = NvmeController::new(16);
        let tuning = BlkbackTuning {
            persistent_grants,
            ..BlkbackTuning::default()
        };
        let bb = BlkbackInstance::connect(&mut hv, &paths, kite_profile(), tuning, nvme.sectors)
            .unwrap();
        let rf = RawBlkFront {
            ring,
            ring_page,
            grefs,
            indirect,
            indirect_page,
        };
        (hv, rf, bb, nvme)
    }

    /// Runs the request thread over one hostile request and delivers its
    /// error response: the request must be rejected before the device
    /// sees it, booked once, and answered `BLKIF_RSP_ERROR`.
    fn assert_rejected(pair: &mut RawPair, req: &BlkifRequest) {
        let (hv, rf, bb, nvme) = pair;
        rf.submit(hv, req);
        let batch = bb.request_thread_run(hv, nvme, 0, Nanos::ZERO, 32).unwrap();
        assert_eq!(batch.failures.len(), 1, "rejected, not submitted");
        assert!(batch.cq_irqs.is_empty(), "nothing reached the device");
        bb.complete(hv, batch.failures[0].req_id).unwrap();
        let rsps = rf.responses(hv);
        assert_eq!(rsps.len(), 1);
        assert_eq!((rsps[0].id, rsps[0].status), (req.id(), BLKIF_RSP_ERROR));
        let st = bb.stats();
        assert_eq!((st.requests, st.errors), (1, 1));
        assert_eq!((st.write_bytes, st.read_bytes, st.device_ops), (0, 0, 0));
    }

    /// A start sector so large that `sector + len` wraps must be refused
    /// like any other out-of-range request — in every build profile —
    /// and must not reach the device's sparse store.
    #[test]
    fn sector_range_that_wraps_is_rejected() {
        let mut pair = raw_pair(true);
        let start = u64::MAX - 3;
        let req = pair.1.write(7, start, vec![pair.1.whole_page(0)]);
        assert_rejected(&mut pair, &req);
        let (_, _, _, nvme) = &pair;
        let mut sector = [0xffu8; SECTOR_SIZE];
        for s in [start, 0] {
            nvme.read_data(s, &mut sector);
            assert_eq!(sector, [0u8; SECTOR_SIZE], "sector {s} was written");
        }
    }

    /// A write whose third grant does not resolve is rejected whole: no
    /// byte reaches the device, and the two pages that did map are
    /// unmapped with the error response (persistent grants off) or stay
    /// in the ring's cache until `close` (on). Nothing outlives `close`.
    #[test]
    fn half_mappable_write_moves_no_byte_and_leaks_no_mapping() {
        for persistent in [false, true] {
            let mut pair = raw_pair(persistent);
            let dd = pair.2.back;
            let ring_maps = pair.0.grants.active_maps(dd);
            assert_eq!(ring_maps, 1, "the ring page");
            let bogus = BlkifSegment {
                gref: GrantRef(9_999),
                first_sect: 0,
                last_sect: 7,
            };
            let segs = vec![pair.1.whole_page(0), pair.1.whole_page(1), bogus];
            let req = pair.1.write(3, 64, segs);
            assert_rejected(&mut pair, &req);
            let (mut hv, _, bb, nvme) = pair;
            let cached = if persistent { 2 } else { 0 };
            assert_eq!(
                hv.grants.active_maps(dd),
                ring_maps + cached,
                "persistent={persistent}: maps after the error response"
            );
            let mut sector = [0xffu8; SECTOR_SIZE];
            nvme.read_data(64, &mut sector);
            assert_eq!(sector, [0u8; SECTOR_SIZE], "a rejected write landed");
            bb.close(&mut hv).unwrap();
            assert_eq!(hv.grants.active_maps(dd), 0, "persistent={persistent}");
        }
    }

    /// A read whose data page the frontend granted read-only is refused
    /// like a request whose grant does not resolve: mapping it writable
    /// fails, so the device's bytes never land in a page the guest did
    /// not let the backend write. No map or port outlives the error.
    #[test]
    fn read_into_a_read_only_grant_is_refused() {
        for persistent in [false, true] {
            let mut pair = raw_pair(persistent);
            let (hv, _, bb, nvme) = &mut pair;
            let (gu, dd) = (bb.front, bb.back);
            nvme.write_data(0, &[0x5a; 4096]);
            let page = hv.alloc_page(gu).unwrap();
            hv.mem.page_mut(page).unwrap().fill(0xab);
            let gref = hv.grant_access(gu, dd, page, true).unwrap();
            let ports = hv.evtchn.open_ports(dd);
            let seg = BlkifSegment {
                gref,
                first_sect: 0,
                last_sect: 7,
            };
            let req = BlkifRequest::direct(BLKIF_OP_READ, 0, 4, 0, &[seg]);
            assert_rejected(&mut pair, &req);
            let (mut hv, _, bb, _) = pair;
            let bytes = hv.mem.page(page).unwrap();
            assert!(bytes.iter().all(|&b| b == 0xab), "persistent={persistent}");
            assert_eq!(hv.grants.active_maps(dd), 1, "the ring page");
            assert_eq!(hv.evtchn.open_ports(dd), ports);
            bb.close(&mut hv).unwrap();
            assert_eq!(hv.grants.active_maps(dd), 0, "persistent={persistent}");
        }
    }

    #[test]
    fn segment_past_the_end_of_its_page_is_rejected() {
        let mut pair = raw_pair(true);
        let seg = BlkifSegment {
            last_sect: 8,
            ..pair.1.whole_page(0)
        };
        let req = pair.1.write(1, 0, vec![seg]);
        assert_rejected(&mut pair, &req);
    }

    #[test]
    fn indirect_request_over_the_segment_cap_is_rejected() {
        let mut pair = raw_pair(true);
        let (hv, rf, ..) = &mut pair;
        let segs: Vec<BlkifSegment> = (0..=MAX_INDIRECT_SEGMENTS)
            .map(|k| rf.whole_page(k % 8))
            .collect();
        kite_xen::blkif::pack_indirect_segments(hv.mem.page_mut(rf.indirect_page).unwrap(), &segs);
        let req =
            BlkifRequest::indirect(BLKIF_OP_WRITE, 0, 2, 0, segs.len() as u16, &[rf.indirect]);
        assert_rejected(&mut pair, &req);
        assert_eq!(pair.2.stats().grant_maps, 0, "refused before any map");
    }

    /// A frontend that moves `req_prod` more than a ring ahead halts the
    /// ring, as Linux's blkback does: counted and traced once, nothing
    /// reaches the device, the thread reports no more work, and a
    /// well-formed request published after the halt is not consumed.
    #[test]
    fn a_request_producer_jump_halts_the_ring() {
        let (mut hv, mut rf, mut bb, mut nvme) = raw_pair(true);
        hv.trace.enable(64);
        let first = rf.write(1, 0, vec![rf.whole_page(0)]);
        rf.submit(&mut hv, &first);
        sring::set_req_prod(hv.mem.page_mut(rf.ring_page).unwrap(), 100_000);
        for round in 0..2 {
            if round == 1 {
                let second = rf.write(2, 8, vec![rf.whole_page(1)]);
                rf.submit(&mut hv, &second);
            }
            let batch = bb
                .request_thread_run(&mut hv, &mut nvme, 0, Nanos::ZERO, 32)
                .unwrap();
            assert!(batch.failures.is_empty() && batch.cq_irqs.is_empty() && !batch.more);
        }
        let st = bb.stats();
        assert_eq!((st.ring_corrupt, st.requests, st.device_ops), (1, 0, 0));
        let rejects: Vec<_> = hv
            .trace
            .events()
            .filter_map(|e| match e.kind {
                EventKind::RingReject { queue, reason, .. } => Some((queue, reason)),
                _ => None,
            })
            .collect();
        assert_eq!(rejects, [("blkback_req", "ring_corrupt")]);
        assert!(rf.responses(&hv).is_empty());
        let mut sector = [0xffu8; SECTOR_SIZE];
        nvme.read_data(0, &mut sector);
        assert_eq!(sector, [0u8; SECTOR_SIZE], "a request reached the device");
    }

    /// A frontend that cycles twice as many distinct grants as the
    /// persistent cache holds through one ring: the cache fills to its
    /// cap and never past it, purging its least recently used mappings
    /// in bulk, and each mapping it purges is unmapped on the spot, so
    /// the ring and the cache are all the driver domain has mapped, and
    /// after `close` nothing is, and the guest can revoke every grant.
    /// Every page written through one mapping reads back through the
    /// next.
    #[test]
    fn cycling_more_grants_than_the_cache_holds_unmaps_what_it_purges() {
        let (mut hv, mut rf, mut bb, mut nvme) = raw_pair(true);
        let (gu, dd) = (bb.front, bb.back);
        let fill = |k: usize| (k % 251) as u8 ^ (k / 251) as u8;
        let grefs: Vec<(PageId, GrantRef)> = (0..2 * PERSISTENT_CAP)
            .map(|k| {
                let page = hv.alloc_page(gu).unwrap();
                hv.mem.page_mut(page).unwrap().fill(fill(k));
                (page, hv.grant_access(gu, dd, page, false).unwrap())
            })
            .collect();
        // The largest the cache grew, and the smallest it held once full.
        let (mut largest, mut purged_to) = (0, PERSISTENT_CAP);
        for op in [BLKIF_OP_WRITE, BLKIF_OP_READ] {
            if op == BLKIF_OP_READ {
                for &(page, _) in &grefs {
                    hv.mem.page_mut(page).unwrap().fill(0);
                }
            }
            for (r, run) in grefs.chunks(BLKIF_MAX_SEGMENTS_PER_REQUEST).enumerate() {
                let segs: Vec<BlkifSegment> = run
                    .iter()
                    .map(|&(_, gref)| BlkifSegment {
                        gref,
                        first_sect: 0,
                        last_sect: 7,
                    })
                    .collect();
                let sector = (r * BLKIF_MAX_SEGMENTS_PER_REQUEST * 8) as u64;
                let req = BlkifRequest::direct(op, 0, r as u64, sector, &segs);
                rf.submit(&mut hv, &req);
                let batch = bb
                    .request_thread_run(&mut hv, &mut nvme, 0, Nanos::ZERO, 32)
                    .unwrap();
                assert!(batch.failures.is_empty());
                for &(q, at) in &batch.cq_irqs {
                    bb.reap_completions(&mut hv, &mut nvme, q, at).unwrap();
                }
                let rsps = rf.responses(&hv);
                assert_eq!(
                    rsps.iter().map(|r| (r.id, r.status)).collect::<Vec<_>>(),
                    [(r as u64, BLKIF_RSP_OKAY)]
                );
                let cached = bb.rings[0].persistent.map.len();
                assert!(cached <= PERSISTENT_CAP, "{cached} cached");
                assert_eq!(
                    hv.grants.active_maps(dd),
                    1 + cached,
                    "the ring and the cache"
                );
                if largest == PERSISTENT_CAP {
                    purged_to = purged_to.min(cached);
                }
                largest = largest.max(cached);
            }
        }
        assert_eq!(largest, PERSISTENT_CAP);
        // A purge frees the oldest 5 % at once: some request ends on the
        // grant that purged them.
        assert_eq!(purged_to, PERSISTENT_CAP - PERSISTENT_PURGE + 1);
        let st = bb.stats();
        assert_eq!(
            (st.persistent_hits, st.grant_maps),
            (0, 4 * PERSISTENT_CAP as u64)
        );
        for (k, &(page, _)) in grefs.iter().enumerate() {
            let bytes = hv.mem.page(page).unwrap();
            assert!(bytes.iter().all(|&b| b == fill(k)), "page {k}");
        }
        bb.close(&mut hv).unwrap();
        assert_eq!(hv.grants.active_maps(dd), 0);
        for &(_, gref) in &grefs {
            hv.grants.end_access(gu, gref).unwrap();
        }
    }

    #[test]
    fn unknown_opcode_is_rejected() {
        let mut pair = raw_pair(true);
        // 5 is `BLKIF_OP_DISCARD`, which this backend does not offer.
        let req = BlkifRequest::direct(5, 0, 5, 0, &[]);
        assert_rejected(&mut pair, &req);
    }

    /// A flush moves no data: it reaches the device as one NVMe flush,
    /// and is answered `BLKIF_RSP_OKAY` with its own operation.
    #[test]
    fn a_flush_reaches_the_device_and_is_answered() {
        let (mut hv, mut rf, mut bb, mut nvme) = raw_pair(true);
        let req = BlkifRequest::direct(BLKIF_OP_FLUSH_DISKCACHE, 0, 9, 0, &[]);
        rf.submit(&mut hv, &req);
        let batch = bb
            .request_thread_run(&mut hv, &mut nvme, 0, Nanos::ZERO, 32)
            .unwrap();
        assert!(batch.failures.is_empty());
        let &[(q, at)] = &batch.cq_irqs[..] else {
            panic!("one completion interrupt: {:?}", batch.cq_irqs);
        };
        bb.reap_completions(&mut hv, &mut nvme, q, at).unwrap();
        let rsps = rf.responses(&hv);
        assert_eq!(
            rsps.iter()
                .map(|r| (r.id, r.operation, r.status))
                .collect::<Vec<_>>(),
            [(9, BLKIF_OP_FLUSH_DISKCACHE, BLKIF_RSP_OKAY)]
        );
        let st = bb.stats();
        assert_eq!((st.requests, st.errors, st.device_ops), (1, 0, 1));
    }
}
