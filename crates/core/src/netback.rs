//! The Kite netback driver (§3.2, §4.2 of the paper).
//!
//! One instance serves one netfront. The structure follows the paper:
//!
//! * **split layers** — the bottom layer speaks Xen (rings, grants, event
//!   channel), the upper layer speaks the network stack (VIF frames);
//! * **hypervisor copy** — packet payloads move between domains with
//!   `GNTTABOP_copy`, the fast path modern netfronts use;
//! * **threads, not work queues** — the event handler only *wakes* the
//!   [`pusher`](NetbackInstance::pusher_run) thread (Tx drain: guest →
//!   VIF) and the VIF callback only wakes the
//!   [`soft_start`](NetbackInstance::soft_start_run) thread (Rx fill:
//!   VIF → guest). Both process bounded batches and report whether more
//!   work remains, so they never monopolize the non-preemptive vCPU;
//! * **notification suppression** — responses are pushed with the
//!   `RING_PUSH_*_AND_CHECK_NOTIFY` discipline, so a busy ring costs a
//!   fraction of a hypercall per packet;
//! * **multi-queue** — when the frontend negotiated
//!   `multi-queue-num-queues = n`, the instance runs `n` independent
//!   queues, each with its own ring pair, event channel and
//!   pusher/soft_start pair (one per-queue thread set, Linux
//!   `xen-netback` style). Incoming bridge frames steer to a queue by
//!   flow hash ([`kite_net::flow`]), preserving per-flow ordering;
//! * **one copy per byte** — the grant copy's local side is the frame
//!   itself ([`CopySide::Buffer`]): a Tx fragment lands in the frame the
//!   bridge receives, an Rx fragment is read out of the queued frame, and
//!   the instance owns no machine page.

use std::collections::VecDeque;

use kite_rumprun::OsProfile;
use kite_sim::{Nanos, Spares};
use kite_trace::EventKind;
use kite_xen::netif::{
    NetifExtraInfo, NetifRxRequest, NetifRxResponse, NetifTxRequest, NetifTxResponse,
    NETIF_MAX_GSO_FRAME, NETIF_MAX_TX_CHAIN, NETIF_RSP_ERROR, NETIF_RSP_NULL, NETIF_RSP_OKAY,
    NETRXF_DATA_VALIDATED, NETRXF_MORE_DATA, NETTXF_EXTRA_INFO, NETTXF_MORE_DATA,
    XEN_NETIF_EXTRA_TYPE_GSO,
};
use kite_xen::xenbus::{attach_back, BackEndpoint, RingKey, FEATURE_GSO_KEY};
use kite_xen::{
    CopyMode, CopySide, DevicePaths, DomainId, GrantCopyOp, Hypervisor, Port, ReqId, ReqStage,
    Result, SlotClass, XenbusState, PAGE_SIZE,
};

use crate::lifecycle::QueueState;
use crate::stats::{counters, CopyStats};

/// Result of one pusher (Tx-drain) batch.
#[derive(Debug, Default)]
pub struct TxBatch {
    /// Frames copied out of the guest, ready for the VIF/bridge (after
    /// whatever the list passed to `pusher_run_into` already held).
    pub frames: Vec<Vec<u8>>,
    /// vCPU cost of the batch (copies, ring work, per-packet OS cost).
    pub cost: Nanos,
    /// Frames taken off the ring and not passed on: rejected as
    /// malformed, or lost to a failed grant copy.
    pub dropped: usize,
    /// The frontend must be notified (responses pushed past its event).
    pub notify: bool,
    /// More requests remain (thread should re-queue instead of sleeping).
    pub more: bool,
}

/// Result of one soft_start (Rx-fill) batch.
#[derive(Debug, Default)]
pub struct RxBatch {
    /// Frames delivered into guest buffers.
    pub delivered: usize,
    /// vCPU cost of the batch.
    pub cost: Nanos,
    /// Frames taken off the queue and not delivered: too long for one
    /// slot without GSO, or lost to a failed grant copy.
    pub dropped: usize,
    /// The frontend must be notified.
    pub notify: bool,
    /// Frames still queued (no Rx requests available or budget hit).
    pub more: bool,
}

counters! {
    /// Statistics of one netback instance (summed across its queues).
    pub struct NetbackStats {
        /// Packets guest → world.
        tx_packets: "count",
        /// Bytes guest → world.
        tx_bytes: "bytes",
        /// Packets world → guest.
        rx_packets: "count",
        /// Bytes world → guest.
        rx_bytes: "bytes",
        /// Frames dropped because the guest posted no Rx buffers in time, or
        /// because the hypervisor copy into the guest buffer failed.
        rx_dropped: "count",
        /// Malformed Tx requests rejected.
        tx_errors: "count",
        /// GSO super-frames assembled from Tx descriptor chains.
        gso_tx_frames: "count",
        /// Wire segments those super-frames resolve to (what the NIC's TSO
        /// engine actually emits).
        gso_tx_segs: "count",
        /// World → guest super-frames delivered across multi-slot Rx chains
        /// (the LRO path).
        lro_rx_frames: "count",
        /// Chains rejected for a malformed GSO descriptor: zero MSS, zero
        /// or > 64 KiB total length, or an unknown extra-info type.
        gso_bad_size: "count",
        /// Chains rejected because the ring ended mid-chain: an extra-info
        /// or continuation slot was claimed but never published.
        gso_truncated: "count",
        /// Chains rejected because the claimed segment count, the fragment
        /// byte sum, or the slot count disagree with the descriptor.
        gso_seg_mismatch: "count",
        /// Chain flags seen on a ring whose pair never negotiated
        /// `feature-gso-tcpv4`.
        gso_unnegotiated: "count",
        /// Queues halted because the frontend moved a ring's request
        /// producer index more than a ring ahead.
        ring_corrupt: "count",
    }
    nested {
        /// Grant-copy hypercall accounting for the Tx/Rx drains.
        copy: CopyStats = "copy_",
    }
}

impl NetbackStats {
    /// Malformed-chain rejections, all causes.
    pub fn gso_errors(&self) -> u64 {
        self.gso_bad_size + self.gso_truncated + self.gso_seg_mismatch + self.gso_unnegotiated
    }
}

/// One queue of a netback instance: a Tx/Rx ring pair mapped from the
/// frontend, its event channel, and the world → guest frame queue
/// awaiting Rx slots.
struct NbQueue {
    state: QueueState,
    tx: BackEndpoint<NetifTxRequest, NetifTxResponse>,
    rx: BackEndpoint<NetifRxRequest, NetifRxResponse>,
    to_guest: VecDeque<Vec<u8>>,
}

/// What became of one consumed Tx ring slot (drives its response).
#[derive(Clone, Copy, Debug)]
enum TxDisp {
    /// A single-slot frame: op `op` copies its payload into the drain's
    /// frame `frame`.
    Single { op: usize, frame: usize },
    /// A fragment of the descriptor chain at this chain index.
    Frag(usize),
    /// Rejected by validation; answered `NETIF_RSP_ERROR`.
    Reject,
    /// An extra-info carrier slot; answered `NETIF_RSP_NULL`.
    Null,
}

/// One GSO descriptor chain walked out of the Tx ring.
#[derive(Clone, Copy, Debug)]
struct TxChain {
    /// Ops `[op_start, op_end)` hold the chain's fragments in order.
    op_start: usize,
    op_end: usize,
    /// The drain's frame the fragments land in (valid chains only).
    frame: usize,
    /// Super-frame length claimed by the descriptor.
    total: usize,
    /// Wire segments the NIC's TSO engine will cut it into.
    segs: u32,
    /// Whether validation accepted the chain.
    valid: bool,
    /// Filled after the copy batch: valid and every fragment copied.
    ok: bool,
}

/// Per-queue cap for world → guest frames awaiting Rx slots.
const RX_QUEUE_CAP: usize = 512;

/// One netback instance (one per connected netfront).
pub struct NetbackInstance {
    /// Driver domain running this backend.
    pub back: DomainId,
    /// Guest domain of the paired frontend.
    pub front: DomainId,
    /// Device index within the guest.
    pub index: u32,
    /// The VIF name exposed to the bridge, e.g. `vif2.0`.
    pub vif: String,
    queues: Vec<NbQueue>,
    copy_mode: CopyMode,
    profile: OsProfile,
    gso: bool,
    stats: NetbackStats,
    /// Single-slot Tx frames the client's stack is done with
    /// ([`recycle`](Self::recycle)): the pusher copies later single-slot
    /// frames into them.
    tx_frames: Spares,
    // Drain-path scratch, recycled across calls so a warmed-up drain
    // performs no bookkeeping allocations (a chain's frame still
    // allocates). `scratch_frames` holds a drain's frames while its copy
    // batch runs: the Tx frames being filled, or the Rx frames being
    // read.
    scratch_tx: Vec<(u16, TxDisp)>,
    scratch_chains: Vec<TxChain>,
    scratch_rx: Vec<(u16, usize, u16)>,
    scratch_rxchain: Vec<(usize, usize, usize)>,
    scratch_ops: Vec<GrantCopyOp>,
    scratch_frames: Vec<Vec<u8>>,
    scratch_req: Vec<ReqId>,
}

impl NetbackInstance {
    /// Connects to a frontend that has published its details: attaches
    /// every negotiated queue's ring pair and event channel
    /// ([`attach_back`] owns the negotiation and the undo-on-error
    /// contract), writes `feature-rx-copy` and flips the backend state to
    /// `Connected`.
    pub fn connect(hv: &mut Hypervisor, paths: &DevicePaths, profile: OsProfile) -> Result<Self> {
        let back = paths.back;
        let front = paths.front;
        let fe = paths.frontend();
        let be = paths.backend();
        // Offload negotiation: chains are legal only when the toolstack
        // advertised GSO under the backend path AND the frontend echoed
        // it; checksum offload rides along. Either side staying silent
        // is a graceful fallback, never an error.
        let key_is_1 = |hv: &mut Hypervisor, path: &str| {
            hv.store
                .read(back, None, path)
                .map(|v| v == "1")
                .unwrap_or(false)
        };
        let gso = key_is_1(hv, &format!("{be}/{FEATURE_GSO_KEY}"))
            && key_is_1(hv, &format!("{fe}/{FEATURE_GSO_KEY}"));
        let queues = attach_back(hv, paths, |hv, at| {
            let mut queues = Vec::with_capacity(at.queues() as usize);
            for k in 0..at.queues() {
                let tx = at.ring(hv, k, RingKey::Tx)?;
                let rx = at.ring(hv, k, RingKey::Rx)?;
                queues.push(NbQueue {
                    state: QueueState::new(at.event_channel(hv, k)?),
                    tx,
                    rx,
                    to_guest: VecDeque::new(),
                });
            }
            hv.store
                .write(back, None, &format!("{be}/feature-rx-copy"), "1")?;
            hv.switch_state(back, &paths.backend_state(), XenbusState::Connected)?;
            Ok(queues)
        })?;
        Ok(NetbackInstance {
            back,
            front,
            index: paths.index,
            vif: format!("vif{}.{}", front.0, paths.index),
            queues,
            copy_mode: CopyMode::Batched,
            profile,
            gso,
            stats: NetbackStats::default(),
            tx_frames: Spares::default(),
            scratch_tx: Vec::new(),
            scratch_chains: Vec::new(),
            scratch_rx: Vec::new(),
            scratch_rxchain: Vec::new(),
            scratch_ops: Vec::new(),
            scratch_frames: Vec::new(),
            scratch_req: Vec::new(),
        })
    }

    /// Whether the pair negotiated GSO descriptor chains.
    pub fn gso(&self) -> bool {
        self.gso
    }

    /// Instance statistics.
    pub fn stats(&self) -> NetbackStats {
        self.stats
    }

    /// How this instance issues its grant copies (batched by default).
    pub fn copy_mode(&self) -> CopyMode {
        self.copy_mode
    }

    /// Switches to single-op grant copies: the reference the batched
    /// drain is property-tested against.
    pub fn set_copy_mode(&mut self, mode: CopyMode) {
        self.copy_mode = mode;
    }

    /// Pops the next published Tx request of queue `q`, if any.
    fn consume_tx(&mut self, hv: &Hypervisor, q: usize) -> Result<Option<NetifTxRequest>> {
        let qu = &mut self.queues[q];
        let page = hv.mem.page(qu.tx.page)?;
        qu.tx.ring.consume_request(page)
    }

    /// Validates one data slot and, if sound, appends its grant-copy op,
    /// which lands the slot's bytes at offset `at` of the drain's frame
    /// `frame`, no byte at or past `limit`. Returns whether the slot was
    /// accepted.
    fn push_tx_op(
        &self,
        req: &NetifTxRequest,
        frame: usize,
        at: usize,
        limit: usize,
        ops: &mut Vec<GrantCopyOp>,
    ) -> bool {
        let size = req.size as usize;
        let offset = req.offset as usize;
        // Validate offset before any subtraction: a malicious frontend
        // may send offset > PAGE_SIZE, which would underflow
        // `PAGE_SIZE - offset`.
        if size == 0 || offset >= PAGE_SIZE || size > PAGE_SIZE - offset {
            return false;
        }
        ops.push(GrantCopyOp {
            src: CopySide::Grant {
                granter: self.front,
                gref: req.gref,
                offset,
            },
            dst: CopySide::Buffer {
                buf: frame,
                offset: at,
                limit,
            },
            len: size,
        });
        true
    }

    /// The **pusher** thread body for queue `q`: drains up to `budget`
    /// Tx ring slots and hypervisor-copies every payload out of the
    /// guest with **one** batched `GNTTABOP_copy` for the whole drain.
    /// A payload makes one hop (DESIGN.md §19): the hypercall appends
    /// every fragment to its frame in place, each op bounded by the
    /// frame's validated length. A single slot's frame is a buffer handed
    /// back through [`recycle`](Self::recycle), or a new one; a chain's
    /// is allocated at its validated length.
    /// A frame any of whose fragments failed is dropped whole. The
    /// frames are appended to `frames`, which comes back as
    /// [`TxBatch::frames`] — a caller that recycles the list pays for
    /// the frames, not for the list.
    ///
    /// With GSO negotiated, a slot flagged `NETTXF_EXTRA_INFO` /
    /// `NETTXF_MORE_DATA` heads a descriptor chain: the extra-info slot
    /// carries the GSO descriptor and the fragments that follow are
    /// reassembled into one super-frame, charged **one** per-packet OS
    /// cost for the whole chain — the amortisation GSO exists for.
    /// Every consumed slot still gets exactly one response (extra-info
    /// slots get [`NETIF_RSP_NULL`]); malformed chains are answered
    /// with `NETIF_RSP_ERROR` on their data slots and land in a named
    /// error counter, never a panic and never a leaked grant.
    ///
    /// The drain is three phases: walk the ring building the op list
    /// (validating each request), issue the batch, then push responses in
    /// ring order from the per-op statuses.
    ///
    /// The drain runs from `start`, its vCPU's time: a traced request's
    /// backend-fetch and grant-copy stamps are `start` plus the cost the
    /// drain has accrued when it fetches the slot and when the copy
    /// returns.
    pub fn pusher_run_into(
        &mut self,
        hv: &mut Hypervisor,
        q: usize,
        budget: usize,
        start: Nanos,
        frames: Vec<Vec<u8>>,
    ) -> Result<TxBatch> {
        let _prof = kite_prof::span(kite_prof::Phase::NetbackTxDrain);
        let already = frames.len();
        let mut batch = TxBatch {
            frames,
            ..TxBatch::default()
        };
        let (qu, halts) = (&mut self.queues[q], &mut self.stats.ring_corrupt);
        if !qu
            .state
            .may_drain(hv, self.back, &qu.tx, "netback_tx", q, halts)?
        {
            return Ok(batch);
        }
        // Consumed slots in ring order (each owes one response) and the
        // descriptor chains they form.
        let mut pending = std::mem::take(&mut self.scratch_tx);
        let mut chains = std::mem::take(&mut self.scratch_chains);
        let mut ops = std::mem::take(&mut self.scratch_ops);
        let mut frames = std::mem::take(&mut self.scratch_frames);
        // Each head slot starts one frame, passed on or dropped.
        let mut heads = 0;
        'drain: while pending.len() < budget {
            let head = match self.consume_tx(hv, q)? {
                Some(r) => r,
                None => break,
            };
            heads += 1;
            // A traced request rides its (head) ring slot into the drain.
            let key = (q as u64) << 32 | head.id as u64;
            if let Some(r) = hv.req.take(SlotClass::NetTx, key) {
                let at = start + batch.cost;
                hv.req
                    .stamp_at(r, ReqStage::BackendFetch, self.back.0, Some(q as u16), at);
                self.scratch_req.push(r);
            }
            let chained = head.flags & (NETTXF_EXTRA_INFO | NETTXF_MORE_DATA) != 0;
            if !chained {
                // Single-slot frame: the legacy path, byte-identical to
                // the pre-GSO drain.
                let (frame, size) = (frames.len(), head.size as usize);
                if self.push_tx_op(&head, frame, 0, size, &mut ops) {
                    frames.push(self.tx_frames.take(size));
                    let op = ops.len() - 1;
                    pending.push((head.id, TxDisp::Single { op, frame }));
                } else {
                    self.stats.tx_errors += 1;
                    pending.push((head.id, TxDisp::Reject));
                }
                batch.cost += self.profile.per_packet;
                continue;
            }
            if !self.gso {
                // Chain flags on a pair that never negotiated GSO:
                // reject every slot of the chain (resyncing framing so
                // one bad guest cannot desynchronise the ring).
                self.stats.gso_unnegotiated += 1;
                let mut cur = head;
                loop {
                    pending.push((cur.id, TxDisp::Reject));
                    if cur.flags & NETTXF_EXTRA_INFO != 0 {
                        match self.consume_tx(hv, q)? {
                            Some(extra) => pending.push((extra.id, TxDisp::Reject)),
                            None => break,
                        }
                    }
                    if cur.flags & NETTXF_MORE_DATA == 0 {
                        break;
                    }
                    match self.consume_tx(hv, q)? {
                        Some(next) => cur = next,
                        None => break,
                    }
                }
                batch.cost += self.profile.per_packet;
                continue;
            }
            // GSO chain walk. Ring order: head data slot, extra-info
            // slot, then continuation fragments.
            let chain_idx = chains.len();
            let op_start = ops.len();
            let frame = frames.len();
            let mut valid = true;
            pending.push((head.id, TxDisp::Frag(chain_idx)));
            let mut extra = None;
            if head.flags & NETTXF_EXTRA_INFO != 0 {
                match self.consume_tx(hv, q)? {
                    Some(slot) => {
                        pending.push((slot.id, TxDisp::Null));
                        extra = Some(NetifExtraInfo::from_tx_slot(&slot));
                    }
                    None => {
                        // Extra-info claimed but the ring ended: the
                        // guest published a torn chain.
                        self.stats.gso_truncated += 1;
                        let last = pending.len() - 1;
                        pending[last].1 = TxDisp::Reject;
                        batch.cost += self.profile.per_packet;
                        break 'drain;
                    }
                }
            }
            // The descriptor's claimed length bounds every fragment's
            // copy; a chain that carries any other length is rejected
            // below, its copies dropped.
            let limit = extra.map_or(0, |e| e.total_len as usize);
            let mut total = 0usize;
            let mut nfrags = 0usize;
            let mut cur = head;
            loop {
                nfrags += 1;
                if nfrags <= NETIF_MAX_TX_CHAIN && valid {
                    if self.push_tx_op(&cur, frame, total, limit, &mut ops) {
                        total += cur.size as usize;
                    } else {
                        valid = false;
                    }
                } else {
                    valid = false;
                }
                if cur.flags & NETTXF_MORE_DATA == 0 {
                    break;
                }
                match self.consume_tx(hv, q)? {
                    Some(next) => {
                        pending.push((next.id, TxDisp::Frag(chain_idx)));
                        cur = next;
                    }
                    None => {
                        // Continuation claimed but the ring ended.
                        valid = false;
                        self.stats.gso_truncated += 1;
                        break;
                    }
                }
            }
            // Cross-check the descriptor against what the chain
            // actually carried (the SoK rule: every guest-parsed field
            // is validated with bounded failure accounting).
            let mut segs = 0u32;
            if valid {
                match extra {
                    None => {
                        // MORE_DATA without a GSO descriptor.
                        valid = false;
                        self.stats.gso_seg_mismatch += 1;
                    }
                    Some(e) => {
                        let tl = e.total_len as usize;
                        if e.kind != XEN_NETIF_EXTRA_TYPE_GSO
                            || e.gso_size == 0
                            || tl == 0
                            || tl > NETIF_MAX_GSO_FRAME
                        {
                            valid = false;
                            self.stats.gso_bad_size += 1;
                        } else if tl != total
                            || (e.total_len as u64).div_ceil(e.gso_size as u64) != e.gso_segs as u64
                        {
                            valid = false;
                            self.stats.gso_seg_mismatch += 1;
                        } else {
                            segs = e.gso_segs as u32;
                        }
                    }
                }
            } else if nfrags > NETIF_MAX_TX_CHAIN {
                self.stats.gso_seg_mismatch += 1;
            } else if extra.is_some() || cur.flags & NETTXF_MORE_DATA != 0 {
                // A fragment failed slot validation (frag rejections on
                // truncated chains were already counted above).
                self.stats.tx_errors += 1;
            }
            if valid {
                frames.push(Vec::with_capacity(total));
            } else {
                // Drop the chain's staged copies: rejected descriptors
                // must not cost the backend grant-copy work.
                ops.truncate(op_start);
            }
            chains.push(TxChain {
                op_start,
                op_end: ops.len(),
                frame,
                total,
                segs,
                valid,
                ok: false,
            });
            batch.cost += self.profile.per_packet;
        }

        // One hypercall for the whole drain (or per-op in legacy mode).
        let result = hv.grant_copy_with(self.back, &ops, &mut frames, self.copy_mode);
        self.stats.copy.record(self.copy_mode, &result);
        batch.cost += result.cost;
        if !self.scratch_req.is_empty() {
            let done = start + batch.cost;
            for &r in &self.scratch_req {
                hv.req
                    .stamp_at(r, ReqStage::GrantCopy, self.back.0, Some(q as u16), done);
            }
            self.scratch_req.clear();
        }

        for c in chains.iter_mut() {
            if !c.valid {
                continue;
            }
            c.ok = result.range_ok(c.op_start, c.op_end);
            if !c.ok {
                self.stats.tx_errors += 1;
            }
        }

        let mut emitted = 0usize; // chains whose super-frame was pushed
        for &(id, disp) in &pending {
            let status = match disp {
                TxDisp::Single { op, frame } if result.range_ok(op, op + 1) => {
                    self.stats.tx_packets += 1;
                    self.stats.tx_bytes += ops[op].len as u64;
                    batch.frames.push(std::mem::take(&mut frames[frame]));
                    NETIF_RSP_OKAY
                }
                TxDisp::Single { .. } => {
                    self.stats.tx_errors += 1;
                    NETIF_RSP_ERROR
                }
                TxDisp::Frag(ci) if chains[ci].ok => {
                    // The chain's head slot hands its super-frame on;
                    // later fragments just acknowledge.
                    if ci >= emitted {
                        let c = chains[ci];
                        self.stats.tx_packets += 1;
                        self.stats.tx_bytes += c.total as u64;
                        self.stats.gso_tx_frames += 1;
                        self.stats.gso_tx_segs += c.segs as u64;
                        batch.frames.push(std::mem::take(&mut frames[c.frame]));
                        emitted = ci + 1;
                    }
                    NETIF_RSP_OKAY
                }
                TxDisp::Frag(_) => NETIF_RSP_ERROR,
                TxDisp::Reject => NETIF_RSP_ERROR,
                TxDisp::Null => NETIF_RSP_NULL,
            };
            let qu = &mut self.queues[q];
            let page = hv.mem.page_mut(qu.tx.page)?;
            qu.tx
                .ring
                .push_response(page, &NetifTxResponse { id, status })?;
        }
        let qu = &mut self.queues[q];
        let page = hv.mem.page_mut(qu.tx.page)?;
        batch.notify = qu.tx.ring.push_responses(page);
        batch.more = qu.tx.ring.final_check_for_requests(page);
        let delivered = batch.frames.len() - already;
        batch.dropped = heads - delivered;
        if !pending.is_empty() {
            let (consumed, delivered, notify) =
                (pending.len() as u32, delivered as u32, batch.notify);
            hv.trace.emit_with(self.back.0, || EventKind::RingDrain {
                queue: "netback_tx",
                qid: q as u16,
                consumed,
                delivered,
                notify,
            });
        }
        pending.clear();
        chains.clear();
        ops.clear();
        // What is left are the frames of failed copies, dropped whole.
        frames.clear();
        self.scratch_tx = pending;
        self.scratch_chains = chains;
        self.scratch_ops = ops;
        self.scratch_frames = frames;
        Ok(batch)
    }

    /// Hands back a single-slot Tx frame once its last reader is done
    /// with it: a later single-slot frame is copied into it.
    pub fn recycle(&mut self, frame: Vec<u8>) {
        self.tx_frames.put(frame);
    }

    /// [`pusher_run_into`](Self::pusher_run_into) a fresh list from time
    /// zero. Request tracing must be off: without the drain's time there
    /// is nothing to stamp a traced request with.
    pub fn pusher_run(&mut self, hv: &mut Hypervisor, q: usize, budget: usize) -> Result<TxBatch> {
        assert!(!hv.req.is_enabled(), "pusher_run stamps no request");
        self.pusher_run_into(hv, q, budget, Nanos::ZERO, Vec::new())
    }

    /// The upper layer received a frame from the VIF (bridge) destined for
    /// this instance's guest: the Rx steering point. The frame's flow
    /// hash picks the queue (RSS), so one flow's frames stay ordered on
    /// one queue. Returns the queue whose `soft_start` thread the VIF
    /// callback wakes, or `None` (and counts a drop) when that queue is
    /// full — backpressure toward the bridge.
    pub fn steer_to_guest(&mut self, frame: Vec<u8>) -> Option<usize> {
        let q = kite_net::flow::steer(&frame, self.queues.len() as u32) as usize;
        let qu = &mut self.queues[q];
        if qu.to_guest.len() >= RX_QUEUE_CAP {
            self.stats.rx_dropped += 1;
            return None;
        }
        qu.to_guest.push_back(frame);
        Some(q)
    }

    /// [`steer_to_guest`](Self::steer_to_guest) for callers that drive
    /// every queue themselves: whether the frame was accepted.
    pub fn enqueue_to_guest(&mut self, frame: Vec<u8>) -> bool {
        self.steer_to_guest(frame).is_some()
    }

    /// Frames waiting for Rx ring slots, all queues.
    pub fn rx_backlog(&self) -> usize {
        self.queues.iter().map(|qu| qu.to_guest.len()).sum()
    }

    /// Per-queue Rx backlog depths (world → guest frames awaiting slots).
    pub fn rx_backlogs(&self) -> Vec<usize> {
        self.queues.iter().map(|qu| qu.to_guest.len()).collect()
    }

    /// The **soft_start** thread body for queue `q`: pairs the queue's
    /// waiting frames with posted Rx requests and hypervisor-copies the
    /// whole fill into guest buffers with one batched `GNTTABOP_copy`,
    /// each op reading its fragment straight out of the frame, which the
    /// drain holds until the batch returns.
    ///
    /// A frame whose copy fails (bad or revoked Rx grant) is dropped
    /// explicitly: counted in `rx_dropped` and answered with an error
    /// response so the frontend reclaims the buffer.
    ///
    /// Once the batch returns, every frame it read is passed to `spent`:
    /// the caller hands it back to whoever allocates such frames.
    pub fn soft_start_run_into(
        &mut self,
        hv: &mut Hypervisor,
        q: usize,
        budget: usize,
        spent: impl FnMut(Vec<u8>),
    ) -> Result<RxBatch> {
        let _prof = kite_prof::span(kite_prof::Phase::NetbackRxDrain);
        let mut batch = RxBatch::default();
        let (qu, halts) = (&mut self.queues[q], &mut self.stats.ring_corrupt);
        if !qu
            .state
            .may_drain(hv, self.back, &qu.rx, "netback_rx", q, halts)?
        {
            // A wedged queue's frames wait; a halted one's never go.
            batch.more = qu.state.wedged && !qu.to_guest.is_empty();
            return Ok(batch);
        }
        // (response id, fragment length, response flags) per op, in
        // ring order, and the chain span each delivered frame occupies.
        let mut posted = std::mem::take(&mut self.scratch_rx);
        let mut rxchains = std::mem::take(&mut self.scratch_rxchain);
        let mut ops = std::mem::take(&mut self.scratch_ops);
        let mut held = std::mem::take(&mut self.scratch_frames);
        for _ in 0..budget {
            let Some(front_len) = self.queues[q].to_guest.front().map(Vec::len) else {
                break;
            };
            // With GSO negotiated a super-frame spans several posted
            // buffers; without it a frame must fit one slot, and a longer
            // one is dropped whole (Tx twin: `Oversize` in `pusher_run`).
            if !self.gso && front_len > PAGE_SIZE {
                self.queues[q].to_guest.pop_front();
                self.stats.rx_dropped += 1;
                batch.dropped += 1;
                continue;
            }
            let nfrags = front_len.div_ceil(PAGE_SIZE).max(1);
            let avail = {
                let qu = &self.queues[q];
                let page = hv.mem.page(qu.rx.page)?;
                qu.rx.ring.unconsumed_requests(page) as usize
            };
            if avail < nfrags {
                break; // never start a chain we cannot finish
            }
            let frame = self.queues[q]
                .to_guest
                .pop_front()
                .expect("checked non-empty");
            let total = frame.len();
            let buf = held.len();
            held.push(frame);
            let op_start = ops.len();
            let mut off = 0usize;
            for f in 0..nfrags {
                let req = {
                    let qu = &mut self.queues[q];
                    let page = hv.mem.page(qu.rx.page)?;
                    match qu.rx.ring.consume_request(page)? {
                        Some(r) => r,
                        None => break, // unreachable: avail checked
                    }
                };
                let len = (total - off).min(PAGE_SIZE);
                ops.push(GrantCopyOp {
                    src: CopySide::Buffer {
                        buf,
                        offset: off,
                        limit: total,
                    },
                    dst: CopySide::Grant {
                        granter: self.front,
                        gref: req.gref,
                        offset: 0,
                    },
                    len,
                });
                let mut flags = 0u16;
                if f + 1 < nfrags {
                    flags |= NETRXF_MORE_DATA;
                }
                if self.gso {
                    flags |= NETRXF_DATA_VALIDATED;
                }
                posted.push((req.id, len, flags));
                off += len;
            }
            rxchains.push((op_start, ops.len(), total));
            // One per-packet OS cost per frame, however many slots it
            // spans — the receive-side (LRO) half of the amortisation.
            batch.cost += self.profile.per_packet;
        }

        let result = hv.grant_copy_with(self.back, &ops, &mut held, self.copy_mode);
        self.stats.copy.record(self.copy_mode, &result);
        batch.cost += result.cost;
        held.drain(..).for_each(spent);

        // A frame delivers only if every fragment copied; a failed
        // fragment drops the whole frame (the frontend discards the
        // poisoned chain when it sees the error response).
        for &(op_start, op_end, total) in &rxchains {
            if result.range_ok(op_start, op_end) {
                self.stats.rx_packets += 1;
                self.stats.rx_bytes += total as u64;
                if op_end - op_start > 1 {
                    self.stats.lro_rx_frames += 1;
                }
                batch.delivered += 1;
            } else {
                self.stats.rx_dropped += 1;
                batch.dropped += 1;
            }
        }

        for (i, &(id, len, flags)) in posted.iter().enumerate() {
            let status = if result.range_ok(i, i + 1) {
                len as i16
            } else {
                NETIF_RSP_ERROR
            };
            let qu = &mut self.queues[q];
            let page = hv.mem.page_mut(qu.rx.page)?;
            qu.rx.ring.push_response(
                page,
                &NetifRxResponse {
                    id,
                    offset: 0,
                    flags,
                    status,
                },
            )?;
        }
        let qu = &mut self.queues[q];
        let page = hv.mem.page_mut(qu.rx.page)?;
        batch.notify = qu.rx.ring.push_responses(page);
        batch.more = !qu.to_guest.is_empty();
        if !posted.is_empty() {
            let (consumed, delivered, notify) =
                (posted.len() as u32, batch.delivered as u32, batch.notify);
            hv.trace.emit_with(self.back.0, || EventKind::RingDrain {
                queue: "netback_rx",
                qid: q as u16,
                consumed,
                delivered,
                notify,
            });
        }
        posted.clear();
        rxchains.clear();
        ops.clear();
        self.scratch_rx = posted;
        self.scratch_rxchain = rxchains;
        self.scratch_ops = ops;
        self.scratch_frames = held;
        Ok(batch)
    }

    /// [`soft_start_run_into`](Self::soft_start_run_into), dropping the
    /// spent frames.
    pub fn soft_start_run(
        &mut self,
        hv: &mut Hypervisor,
        q: usize,
        budget: usize,
    ) -> Result<RxBatch> {
        self.soft_start_run_into(hv, q, budget, drop)
    }
}

impl crate::lifecycle::BackendDevice for NetbackInstance {
    type Config = OsProfile;
    const KIND: kite_xen::DeviceKind = kite_xen::DeviceKind::Vif;

    fn connect(hv: &mut Hypervisor, paths: &DevicePaths, cfg: &OsProfile) -> Result<Self> {
        NetbackInstance::connect(hv, paths, cfg.clone())
    }

    fn device_paths(&self) -> DevicePaths {
        DevicePaths::new(self.front, self.back, kite_xen::DeviceKind::Vif, self.index)
    }

    /// Closes every queue's channel, unmaps its rings, marks the backend
    /// `Closed`.
    fn close(self, hv: &mut Hypervisor) -> Result<()> {
        let state = self.device_paths().backend_state();
        for qu in self.queues {
            qu.state.release(hv, self.back);
            qu.tx.detach(hv, self.back)?;
            qu.rx.detach(hv, self.back)?;
        }
        hv.switch_state(self.back, &state, XenbusState::Closing)?;
        hv.switch_state(self.back, &state, XenbusState::Closed)
    }

    fn queue_count(&self) -> usize {
        self.queues.len()
    }

    fn port_of(&self, q: usize) -> Port {
        self.queues[q].state.evtchn
    }

    /// Ack the port and wake the pusher. Nothing else happens in IRQ
    /// context — the paper's central latency argument.
    fn irq_handler_cost(&self) -> Nanos {
        self.profile.irq_overhead
    }

    fn set_queue_wedged(&mut self, q: usize, wedged: bool) {
        self.queues[q].state.wedged = wedged;
    }

    /// `consumed` sums both rings' consumer watermarks; `pending` counts
    /// unconsumed Tx requests plus queued world → guest frames.
    fn queue_progress(&self, hv: &Hypervisor) -> Vec<(u64, u64)> {
        self.queues
            .iter()
            .map(|qu| {
                let (tx_consumed, tx_pending) = qu.tx.progress(hv);
                (
                    tx_consumed + qu.rx.ring.req_cons() as u64,
                    tx_pending + qu.to_guest.len() as u64,
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::test_machine;
    use crate::lifecycle::BackendDevice;
    use kite_frontends::Netfront;
    use kite_net::MacAddr;
    use kite_rumprun::kite_profile;
    use kite_xen::ring::{sring, FrontRing};
    use kite_xen::{DeviceKind, GrantRef, PageId, XenError};

    fn machine() -> (Hypervisor, DevicePaths) {
        test_machine(DeviceKind::Vif)
    }

    fn advertise_gso(hv: &mut Hypervisor, paths: &DevicePaths) {
        hv.store
            .write(
                DomainId::DOM0,
                None,
                &format!("{}/{FEATURE_GSO_KEY}", paths.backend()),
                "1",
            )
            .unwrap();
    }

    /// Full pair with a real netfront, the backend advertising GSO or not.
    fn pair(be_gso: bool) -> (Hypervisor, DevicePaths, Netfront, NetbackInstance) {
        let (mut hv, paths) = machine();
        if be_gso {
            advertise_gso(&mut hv, &paths);
        }
        let nf = Netfront::connect(&mut hv, &paths, MacAddr::local(1)).unwrap();
        let nb = NetbackInstance::connect(&mut hv, &paths, kite_profile()).unwrap();
        (hv, paths, nf, nb)
    }

    #[test]
    fn offload_negotiation_requires_both_sides() {
        let (_, _, _, nb) = raw_pair(false);
        assert!(!nb.gso(), "frontend never echoed the key");
        let (_, _, nf, nb) = pair(false);
        assert!(!nb.gso(), "backend never advertised");
        assert!(!nf.gso());
        let (_, _, nf, nb) = pair(true);
        assert!(nb.gso() && nf.gso());
    }

    #[test]
    fn tx_chain_reassembles_a_super_frame() {
        let (mut hv, _, mut nf, mut nb) = pair(true);
        let payload: Vec<u8> = (0..10_000u32).map(|i| (i * 7) as u8).collect();
        let (q, _) = nf.send(&mut hv, &payload, None).unwrap();
        let batch = nb.pusher_run(&mut hv, q, 128).unwrap();
        assert_eq!(batch.frames.len(), 1);
        assert_eq!(batch.frames[0], payload, "super-frame is byte-identical");
        let s = nb.stats();
        assert_eq!((s.tx_packets, s.gso_tx_frames), (1, 1));
        assert_eq!(s.gso_tx_segs, 10_000u64.div_ceil(1472), "MSS segments");
        assert_eq!(s.gso_errors(), 0);
        // Every slot (head + extra + 2 frags) was answered; the frontend
        // reaps them all and holds nothing in flight.
        nf.on_irq(&mut hv).unwrap();
        assert!(nf.take_unacked(&hv).is_empty());
    }

    #[test]
    fn rx_chain_spans_posted_buffers() {
        let (mut hv, _, mut nf, mut nb) = pair(true);
        let frame: Vec<u8> = (0..9_500u32).map(|i| (i ^ 0x5a) as u8).collect();
        assert!(nb.enqueue_to_guest(frame.clone()));
        let batch = nb.soft_start_run(&mut hv, 0, 64).unwrap();
        assert_eq!(batch.delivered, 1);
        assert_eq!(nb.stats().lro_rx_frames, 1);
        assert_eq!(nb.stats().rx_bytes, 9_500);
        nf.on_irq(&mut hv).unwrap();
        assert_eq!(nf.recv().unwrap(), frame, "reassembled across 3 buffers");
        assert!(nf.recv().is_none());
    }

    /// A multi-queue netfront takes one interrupt per queue: queue `q`'s
    /// handler reaps and re-arms queue `q`'s rings, and the other queues'
    /// responses wait — unnotified again — for their own interrupts.
    #[test]
    fn a_queue_interrupt_reaps_and_rearms_only_its_own_rings() {
        use std::net::Ipv4Addr;
        const QUEUES: usize = 4;
        let (mut hv, paths) = machine();
        let max = format!("{}/multi-queue-max-queues", paths.backend());
        hv.store.write(DomainId::DOM0, None, &max, "4").unwrap();
        let mut nf =
            Netfront::connect_with_queues(&mut hv, &paths, MacAddr::local(1), QUEUES as u32)
                .unwrap();
        let mut nb = NetbackInstance::connect(&mut hv, &paths, kite_profile()).unwrap();
        assert_eq!(nb.queue_count(), QUEUES);
        for q in 0..QUEUES {
            assert_eq!(nf.queue_of(nf.port_of(q)), Some(q));
        }
        assert_eq!(nf.queue_of(Port(9_999)), None, "no queue owns the port");

        // One frame per queue, found by sweeping the source port.
        let frame = |port: u16| {
            kite_net::UdpDatagram::new(port, 9999, [port as u8; 64]).encode_frame(
                MacAddr::local(1),
                MacAddr::local(2),
                Ipv4Addr::new(10, 0, 0, 2),
                Ipv4Addr::new(10, 0, 0, 9),
            )
        };
        let mut on_queue: [Option<u16>; QUEUES] = [None; QUEUES];
        let mut port = 5_000;
        while on_queue.iter().any(Option::is_none) {
            let q = kite_net::flow::steer(&frame(port), QUEUES as u32) as usize;
            on_queue[q].get_or_insert(port);
            port += 1;
        }
        let mut deliver = |hv: &mut Hypervisor, q: usize| {
            assert_eq!(nb.steer_to_guest(frame(on_queue[q].unwrap())), Some(q));
            let batch = nb.soft_start_run(hv, q, 64).unwrap();
            assert_eq!(batch.delivered, 1);
            batch.notify
        };
        for q in 0..QUEUES {
            assert!(deliver(&mut hv, q), "queue {q}: first response notifies");
        }

        nf.on_queue_irq(&mut hv, 2).unwrap();
        assert_eq!(nf.recv().unwrap(), frame(on_queue[2].unwrap()));
        assert!(nf.recv().is_none(), "queues 0, 1 and 3 were not reaped");
        // Queue 2's ring is re-armed; queue 1's still has its interrupt
        // outstanding, so a further response there rides along with it.
        assert!(deliver(&mut hv, 2));
        assert!(!deliver(&mut hv, 1));

        for (q, want) in [(0, 1), (1, 2), (2, 1), (3, 1)] {
            nf.on_queue_irq(&mut hv, q).unwrap();
            let got = std::iter::from_fn(|| nf.recv()).count();
            assert_eq!(got, want, "queue {q}");
        }
    }

    #[test]
    fn oversized_sends_fail_without_gso() {
        let (mut hv, _, mut nf, _) = pair(false);
        let big = vec![0u8; PAGE_SIZE + 1];
        assert_eq!(
            nf.send(&mut hv, &big, None).err(),
            Some(XenError::OutOfBounds)
        );
        assert_eq!(nf.max_tx_frame(), PAGE_SIZE);
    }

    /// The Rx-side twin: a world → guest frame longer than one slot is
    /// dropped whole, never truncated and booked as delivered, and it
    /// consumes no posted Rx buffer.
    #[test]
    fn oversized_rx_frames_drop_without_gso() {
        let (mut hv, _, mut nf, mut nb) = pair(false);
        let fits = vec![7u8; PAGE_SIZE];
        assert!(nb.enqueue_to_guest(vec![0u8; PAGE_SIZE + 1]));
        assert!(nb.enqueue_to_guest(fits.clone()));
        let batch = nb.soft_start_run(&mut hv, 0, 64).unwrap();
        assert_eq!(batch.delivered, 1);
        let s = nb.stats();
        assert_eq!((s.rx_packets, s.rx_dropped), (1, 1));
        assert_eq!(s.rx_bytes, PAGE_SIZE as u64);
        assert_eq!(s.copy.ops, 1, "the dropped frame took no Rx slot");
        nf.on_irq(&mut hv).unwrap();
        assert_eq!(nf.recv().unwrap(), fits);
        assert!(nf.recv().is_none());
    }

    // ---- adversarial chains: a hand-driven frontend ---------------------

    /// A bare Tx/Rx ring pair published like a netfront's, but driven by
    /// hand so tests can publish malformed descriptor chains, or corrupt
    /// either ring's producer index, as no real frontend would.
    struct RawFront {
        tx: FrontRing<NetifTxRequest, NetifTxResponse>,
        rx: FrontRing<NetifRxRequest, NetifRxResponse>,
        tx_page: PageId,
        rx_page: PageId,
        /// Eight guest pages granted read-only, as Tx buffers are; page
        /// `i` holds the byte `i + 1` throughout.
        grefs: Vec<GrantRef>,
    }

    impl RawFront {
        fn push(&mut self, hv: &mut Hypervisor, req: &NetifTxRequest) {
            let page = hv.mem.page_mut(self.tx_page).unwrap();
            self.tx.push_request(page, req).unwrap();
        }

        fn publish(&mut self, hv: &mut Hypervisor) {
            let page = hv.mem.page_mut(self.tx_page).unwrap();
            self.tx.push_requests(page);
        }

        fn responses(&mut self, hv: &Hypervisor) -> Vec<NetifTxResponse> {
            let mut out = Vec::new();
            let page = hv.mem.page(self.tx_page).unwrap();
            while let Some(rsp) = self.tx.consume_response(page).unwrap() {
                out.push(rsp);
            }
            out
        }

        /// Posts one Rx buffer per `(id, gref)` and publishes them.
        fn post_rx(&mut self, hv: &mut Hypervisor, bufs: &[(u16, GrantRef)]) {
            let page = hv.mem.page_mut(self.rx_page).unwrap();
            for &(id, gref) in bufs {
                self.rx
                    .push_request(page, &NetifRxRequest { id, gref })
                    .unwrap();
            }
            self.rx.push_requests(page);
        }

        fn rx_responses(&mut self, hv: &Hypervisor) -> Vec<NetifRxResponse> {
            let mut out = Vec::new();
            let page = hv.mem.page(self.rx_page).unwrap();
            while let Some(rsp) = self.rx.consume_response(page).unwrap() {
                out.push(rsp);
            }
            out
        }
    }

    /// The backend always advertises GSO; `fe_gso` is whether the
    /// hand-built frontend echoes the key.
    fn raw_pair(fe_gso: bool) -> (Hypervisor, DevicePaths, RawFront, NetbackInstance) {
        let (mut hv, paths) = machine();
        let (gu, dd) = (paths.front, paths.back);
        advertise_gso(&mut hv, &paths);
        if fe_gso {
            hv.store
                .write(
                    gu,
                    None,
                    &format!("{}/{FEATURE_GSO_KEY}", paths.frontend()),
                    "1",
                )
                .unwrap();
        }
        let tx_page = hv.alloc_page(gu).unwrap();
        let rx_page = hv.alloc_page(gu).unwrap();
        let tx = FrontRing::init(hv.mem.page_mut(tx_page).unwrap());
        let rx = FrontRing::init(hv.mem.page_mut(rx_page).unwrap());
        let tx_ref = hv.grant_access(gu, dd, tx_page, false).unwrap();
        let rx_ref = hv.grant_access(gu, dd, rx_page, false).unwrap();
        let (port, _) = hv.evtchn_alloc_unbound(gu, dd);
        let root = paths.frontend();
        for (key, val) in [
            ("tx-ring-ref", tx_ref.0.to_string()),
            ("rx-ring-ref", rx_ref.0.to_string()),
            ("event-channel", port.0.to_string()),
        ] {
            hv.store
                .write(gu, None, &format!("{root}/{key}"), &val)
                .unwrap();
        }
        let mut grefs = Vec::new();
        for i in 0..8u8 {
            let p = hv.alloc_page(gu).unwrap();
            hv.mem.page_mut(p).unwrap().fill(i + 1);
            grefs.push(hv.grant_access(gu, dd, p, true).unwrap());
        }
        let nb = NetbackInstance::connect(&mut hv, &paths, kite_profile()).unwrap();
        let rf = RawFront {
            tx,
            rx,
            tx_page,
            rx_page,
            grefs,
        };
        (hv, paths, rf, nb)
    }

    fn data_slot(rf: &RawFront, id: u16, size: u16, flags: u16) -> NetifTxRequest {
        NetifTxRequest {
            gref: rf.grefs[id as usize],
            offset: 0,
            flags,
            id,
            size,
        }
    }

    #[test]
    fn chain_with_extra_claimed_but_ring_empty_errors_cleanly() {
        let (mut hv, _, mut rf, mut nb) = raw_pair(true);
        let maps_before = hv.grants.active_maps(nb.back);
        let head = data_slot(&rf, 0, 100, NETTXF_EXTRA_INFO | NETTXF_MORE_DATA);
        rf.push(&mut hv, &head);
        rf.publish(&mut hv);
        let batch = nb.pusher_run(&mut hv, 0, 128).unwrap();
        assert!(batch.frames.is_empty());
        assert_eq!(nb.stats().gso_truncated, 1);
        let rsps = rf.responses(&hv);
        assert_eq!(rsps.len(), 1, "the torn head still gets its response");
        assert_eq!(rsps[0].status, NETIF_RSP_ERROR);
        assert_eq!(hv.grants.active_maps(nb.back), maps_before, "no leaked map");
    }

    #[test]
    fn descriptor_size_bounds_are_enforced() {
        let (mut hv, _, mut rf, mut nb) = raw_pair(true);
        // total_len = 0.
        rf.push(&mut hv, &data_slot(&rf, 0, 100, NETTXF_EXTRA_INFO));
        let zero = NetifExtraInfo {
            kind: XEN_NETIF_EXTRA_TYPE_GSO,
            gso_size: 1472,
            gso_segs: 1,
            total_len: 0,
        };
        rf.push(&mut hv, &zero.to_tx_slot());
        // total_len > 64 KiB.
        rf.push(&mut hv, &data_slot(&rf, 1, 100, NETTXF_EXTRA_INFO));
        let huge = NetifExtraInfo {
            kind: XEN_NETIF_EXTRA_TYPE_GSO,
            gso_size: 1472,
            gso_segs: 48,
            total_len: (NETIF_MAX_GSO_FRAME + 1) as u32,
        };
        rf.push(&mut hv, &huge.to_tx_slot());
        rf.publish(&mut hv);
        let batch = nb.pusher_run(&mut hv, 0, 128).unwrap();
        assert!(batch.frames.is_empty());
        assert_eq!(nb.stats().gso_bad_size, 2);
        let rsps = rf.responses(&hv);
        assert_eq!(rsps.len(), 4, "one response per consumed slot");
        assert_eq!(rsps[0].status, NETIF_RSP_ERROR);
        assert_eq!(rsps[1].status, NETIF_RSP_NULL, "extra slot acked NULL");
        assert_eq!(rsps[2].status, NETIF_RSP_ERROR);
        assert_eq!(rsps[3].status, NETIF_RSP_NULL);
    }

    #[test]
    fn seg_and_slot_count_disagreements_are_rejected() {
        let (mut hv, _, mut rf, mut nb) = raw_pair(true);
        // Claimed gso_segs disagrees with ceil(total/mss).
        rf.push(&mut hv, &data_slot(&rf, 0, 100, NETTXF_EXTRA_INFO));
        let wrong_segs = NetifExtraInfo {
            kind: XEN_NETIF_EXTRA_TYPE_GSO,
            gso_size: 50,
            gso_segs: 7,
            total_len: 100,
        };
        rf.push(&mut hv, &wrong_segs.to_tx_slot());
        // Fragment byte sum disagrees with total_len.
        rf.push(
            &mut hv,
            &data_slot(&rf, 1, 100, NETTXF_EXTRA_INFO | NETTXF_MORE_DATA),
        );
        let wrong_total = NetifExtraInfo {
            kind: XEN_NETIF_EXTRA_TYPE_GSO,
            gso_size: 100,
            gso_segs: 2,
            total_len: 200,
        };
        rf.push(&mut hv, &wrong_total.to_tx_slot());
        rf.push(&mut hv, &data_slot(&rf, 2, 50, 0));
        rf.publish(&mut hv);
        let batch = nb.pusher_run(&mut hv, 0, 128).unwrap();
        assert!(batch.frames.is_empty());
        assert_eq!(nb.stats().gso_seg_mismatch, 2);
        let rsps = rf.responses(&hv);
        assert_eq!(rsps.len(), 5);
        let errors = rsps.iter().filter(|r| r.status == NETIF_RSP_ERROR).count();
        let nulls = rsps.iter().filter(|r| r.status == NETIF_RSP_NULL).count();
        assert_eq!((errors, nulls), (3, 2));
    }

    #[test]
    fn chains_on_an_unnegotiated_pair_are_rejected_and_resynced() {
        let (mut hv, _, mut rf, mut nb) = raw_pair(false);
        assert!(!nb.gso());
        rf.push(
            &mut hv,
            &data_slot(&rf, 0, 100, NETTXF_EXTRA_INFO | NETTXF_MORE_DATA),
        );
        let extra = NetifExtraInfo {
            kind: XEN_NETIF_EXTRA_TYPE_GSO,
            gso_size: 100,
            gso_segs: 2,
            total_len: 150,
        };
        rf.push(&mut hv, &extra.to_tx_slot());
        rf.push(&mut hv, &data_slot(&rf, 1, 50, 0));
        // A well-formed single frame after the chain: framing resynced.
        rf.push(&mut hv, &data_slot(&rf, 2, 60, 0));
        rf.publish(&mut hv);
        let batch = nb.pusher_run(&mut hv, 0, 128).unwrap();
        assert_eq!(nb.stats().gso_unnegotiated, 1);
        assert_eq!(batch.frames.len(), 1, "the single frame still flows");
        assert_eq!(batch.frames[0].len(), 60);
        let rsps = rf.responses(&hv);
        assert_eq!(rsps.len(), 4);
        assert_eq!(
            rsps.iter().filter(|r| r.status == NETIF_RSP_ERROR).count(),
            3,
            "every chain slot rejected"
        );
        assert_eq!(rsps[3].status, NETIF_RSP_OKAY);
    }

    /// A frontend that moves either ring's `req_prod` more than a ring
    /// ahead halts the queue, as Linux's netback does: counted and traced
    /// once, both threads report no more work, and the queue consumes
    /// nothing then or later — a well-formed request published after the
    /// halt included.
    #[test]
    fn a_request_producer_jump_halts_the_queue() {
        for (ring, rx) in [("netback_tx", false), ("netback_rx", true)] {
            let (mut hv, _, mut rf, mut nb) = raw_pair(true);
            hv.trace.enable(64);
            let page = if rx { rf.rx_page } else { rf.tx_page };
            sring::set_req_prod(hv.mem.page_mut(page).unwrap(), 100_000);
            assert!(nb.enqueue_to_guest(vec![7u8; 60]));
            for round in 0..2 {
                if round == 1 {
                    rf.push(&mut hv, &data_slot(&rf, 0, 100, 0));
                    rf.publish(&mut hv);
                }
                let tx = nb.pusher_run(&mut hv, 0, 128).unwrap();
                assert!(tx.frames.is_empty() && !tx.more && !tx.notify, "{ring}");
                let to_guest = nb.soft_start_run(&mut hv, 0, 64).unwrap();
                let got = (to_guest.delivered, to_guest.more, to_guest.notify);
                assert_eq!(got, (0, false, false), "{ring}");
            }
            let s = nb.stats();
            assert_eq!((s.ring_corrupt, s.tx_packets, s.rx_packets), (1, 0, 0));
            let rejects: Vec<_> = hv
                .trace
                .events()
                .filter_map(|e| match e.kind {
                    EventKind::RingReject {
                        queue,
                        qid,
                        reason,
                        id,
                    } => Some((queue, qid, reason, id)),
                    _ => None,
                })
                .collect();
            assert_eq!(rejects, [(ring, 0, "ring_corrupt", 100_000)]);
            assert!(
                rf.responses(&hv).is_empty(),
                "{ring}: a request was answered"
            );
            assert_eq!(
                nb.queue_progress(&hv)[0].0,
                0,
                "{ring}: a request was consumed"
            );
        }
    }

    /// A chain one of whose fragment grants the guest revoked emits no
    /// frame, not a short one; its neighbours still flow whole, and every
    /// slot is answered. The same under both copy modes.
    #[test]
    fn a_chain_with_a_revoked_fragment_grant_emits_no_frame() {
        for mode in [CopyMode::Batched, CopyMode::SingleOp] {
            let (mut hv, paths, mut rf, mut nb) = raw_pair(true);
            nb.set_copy_mode(mode);
            rf.push(&mut hv, &data_slot(&rf, 3, 60, 0));
            rf.push(
                &mut hv,
                &data_slot(&rf, 0, 4000, NETTXF_EXTRA_INFO | NETTXF_MORE_DATA),
            );
            let extra = NetifExtraInfo {
                kind: XEN_NETIF_EXTRA_TYPE_GSO,
                gso_size: 1000,
                gso_segs: 9,
                total_len: 9000,
            };
            rf.push(&mut hv, &extra.to_tx_slot());
            rf.push(&mut hv, &data_slot(&rf, 1, 4000, NETTXF_MORE_DATA));
            rf.push(&mut hv, &data_slot(&rf, 2, 1000, 0));
            rf.push(&mut hv, &data_slot(&rf, 4, 70, 0));
            rf.publish(&mut hv);
            hv.grants.end_access(paths.front, rf.grefs[1]).unwrap();
            let batch = nb.pusher_run(&mut hv, 0, 128).unwrap();
            assert_eq!(batch.frames, [vec![4u8; 60], vec![5u8; 70]], "{mode:?}");
            let s = nb.stats();
            assert_eq!((s.tx_packets, s.gso_tx_frames, s.tx_errors), (2, 0, 1));
            // Only the revoked op fails: the fragment after it still lands
            // at its offset, so the batch moves and costs what it would
            // have into pages.
            assert_eq!(s.copy.bytes, 60 + 4000 + 1000 + 70, "{mode:?}");
            let statuses: Vec<(u16, i16)> =
                rf.responses(&hv).iter().map(|r| (r.id, r.status)).collect();
            let (ok, err, null) = (NETIF_RSP_OKAY, NETIF_RSP_ERROR, NETIF_RSP_NULL);
            let extra_id = XEN_NETIF_EXTRA_TYPE_GSO as u16;
            assert_eq!(
                statuses,
                [
                    (3, ok),
                    (0, err),
                    (extra_id, null),
                    (1, err),
                    (2, err),
                    (4, ok)
                ],
                "{mode:?}"
            );
        }
    }

    /// A guest that posts a read-only page as an Rx buffer loses the whole
    /// frame that chain carried, never part of it, and gets every posted
    /// buffer back. The same under both copy modes.
    #[test]
    fn a_read_only_rx_buffer_drops_the_whole_frame_and_returns_every_buffer() {
        for mode in [CopyMode::Batched, CopyMode::SingleOp] {
            let (mut hv, paths, mut rf, mut nb) = raw_pair(true);
            nb.set_copy_mode(mode);
            let (gu, dd) = (paths.front, paths.back);
            let mut buffer = |readonly| {
                let page = hv.alloc_page(gu).unwrap();
                (page, hv.grant_access(gu, dd, page, readonly).unwrap())
            };
            let bufs = [buffer(false), buffer(true), buffer(false), buffer(false)];
            let posted: Vec<(u16, GrantRef)> = (10..).zip(bufs.iter().map(|b| b.1)).collect();
            rf.post_rx(&mut hv, &posted);
            let frame: Vec<u8> = (0..9_000u32).map(|i| i as u8 | 1).collect();
            assert!(nb.enqueue_to_guest(frame));
            assert!(nb.enqueue_to_guest(vec![9u8; 100]));
            let batch = nb.soft_start_run(&mut hv, 0, 64).unwrap();
            assert_eq!(batch.delivered, 1, "{mode:?}");
            let s = nb.stats();
            assert_eq!((s.rx_packets, s.rx_dropped, s.rx_bytes), (1, 1, 100));
            let rsps: Vec<(u16, i16, u16)> = rf
                .rx_responses(&hv)
                .iter()
                .map(|r| (r.id, r.status, r.flags & NETRXF_MORE_DATA))
                .collect();
            let more = NETRXF_MORE_DATA;
            assert_eq!(
                rsps,
                [
                    (10, 4096, more),
                    (11, NETIF_RSP_ERROR, more),
                    (12, 808, 0),
                    (13, 100, 0)
                ],
                "{mode:?}"
            );
            let guest_bytes =
                |(page, _): (PageId, GrantRef)| hv.mem.page(page).unwrap()[..100].to_vec();
            assert_eq!(guest_bytes(bufs[1]), [0u8; 100], "read-only page untouched");
            assert_eq!(guest_bytes(bufs[3]), [9u8; 100]);
        }
    }

    #[test]
    fn guest_teardown_after_chain_errors_reclaims_every_grant() {
        let (mut hv, paths, mut rf, mut nb) = raw_pair(true);
        rf.push(
            &mut hv,
            &data_slot(&rf, 0, 100, NETTXF_EXTRA_INFO | NETTXF_MORE_DATA),
        );
        rf.publish(&mut hv);
        nb.pusher_run(&mut hv, 0, 128).unwrap();
        assert_eq!(nb.stats().gso_truncated, 1);
        // Backend closes cleanly, then the guest dies: Xen must be able
        // to reclaim every grant — nothing pinned by the failed chain.
        nb.close(&mut hv).unwrap();
        assert_eq!(hv.grants.active_maps(paths.back), 0);
        hv.destroy_domain(paths.front).unwrap();
        assert_eq!(hv.grants.live_grants(paths.front), 0);
    }

    // ---- hostile negotiation keys: one attach path, both backends ------

    /// One hostile-frontend case: `(front_queues, key, value, want)`. A
    /// well-formed `front_queues`-queue frontend connects against a
    /// backend advertising 4 queues, then `key` (relative to the
    /// frontend's xenstore area) is overwritten with `value` (`None`
    /// removes it). The backend's connect must end as `want`: a queue
    /// count, or an error that leaves the driver domain holding nothing
    /// it did not hold before.
    type Case = (u32, &'static str, Option<&'static str>, Result<usize>);

    const NUM_QUEUES: &str = "multi-queue-num-queues";

    /// Guest-written `multi-queue-num-queues` values, shared by both
    /// backends (the count is parsed once, in `xenbus::attach_back`).
    const NUM_QUEUES_CASES: [Case; 9] = [
        (1, NUM_QUEUES, None, Ok(1)), // absent: the flat layout
        (1, NUM_QUEUES, Some("0"), Ok(1)),
        (4, NUM_QUEUES, Some(""), Err(XenError::Inval)),
        (4, NUM_QUEUES, Some("abc"), Err(XenError::Inval)),
        (4, NUM_QUEUES, Some("-1"), Err(XenError::Inval)),
        (4, NUM_QUEUES, Some("5"), Err(XenError::Inval)), // advertised + 1
        (4, NUM_QUEUES, Some("4294967295"), Err(XenError::Inval)),
        (4, NUM_QUEUES, Some("4294967296"), Err(XenError::Inval)),
        (4, NUM_QUEUES, Some("4"), Ok(4)),
    ];

    fn run_case<D: BackendDevice>(
        cfg: &D::Config,
        connect_front: fn(&mut Hypervisor, &DevicePaths, u32),
        &(front_queues, key, value, want): &Case,
    ) {
        let (mut hv, paths) = test_machine(D::KIND);
        let what = format!("{:?} {key} = {value:?}", D::KIND);
        let max = format!("{}/multi-queue-max-queues", paths.backend());
        hv.store.write(DomainId::DOM0, None, &max, "4").unwrap();
        connect_front(&mut hv, &paths, front_queues);
        let path = format!("{}/{key}", paths.frontend());
        match value {
            Some(v) => hv.store.write(paths.front, None, &path, v).unwrap(),
            None => match hv.store.rm(paths.front, None, &path) {
                Ok(()) | Err(XenError::NoEnt) => {}
                Err(e) => panic!("{what}: {e}"),
            },
        }
        let held = |hv: &Hypervisor| {
            (
                hv.grants.active_maps(paths.back),
                hv.evtchn.open_ports(paths.back),
            )
        };
        let before = held(&hv);
        match (D::connect(&mut hv, &paths, cfg), want) {
            (Ok(dev), Ok(n)) => {
                assert_eq!(dev.queue_count(), n, "{what}");
                dev.close(&mut hv).unwrap();
            }
            (Err(e), Err(want)) => assert_eq!(e, want, "{what}"),
            (got, want) => panic!("{what}: got {:?}, want {want:?}", got.map(|_| ())),
        }
        assert_eq!(held(&hv), before, "{what}: driver domain leaked");
        if want.is_err() {
            // A corrected frontend connects on the same machine.
            connect_front(&mut hv, &paths, front_queues);
            let dev = D::connect(&mut hv, &paths, cfg).expect("corrected frontend");
            assert_eq!(dev.queue_count(), front_queues as usize, "{what}");
        }
    }

    fn netfront(hv: &mut Hypervisor, paths: &DevicePaths, queues: u32) {
        Netfront::connect_with_queues(hv, paths, MacAddr::local(1), queues).unwrap();
    }

    fn blkfront(hv: &mut Hypervisor, paths: &DevicePaths, queues: u32) {
        kite_frontends::Blkfront::connect_with_queues(hv, paths, queues).unwrap();
    }

    fn blk_cfg() -> crate::blkback::BlkbackConfig {
        crate::blkback::BlkbackConfig {
            profile: kite_profile(),
            tuning: Default::default(),
            device_sectors: 1 << 20,
        }
    }

    #[test]
    fn netback_refuses_garbage_negotiation_keys_without_leaking() {
        let ring_cases = [
            (4, "queue-1/tx-ring-ref", None, Err(XenError::Inval)),
            (4, "queue-3/rx-ring-ref", Some("abc"), Err(XenError::Inval)),
            (
                4,
                "queue-0/rx-ring-ref",
                Some("999999"),
                Err(XenError::BadGrant),
            ),
            (4, "queue-2/event-channel", None, Err(XenError::Inval)),
            (4, "queue-1/event-channel", Some("-7"), Err(XenError::Inval)),
            (
                4,
                "queue-3/event-channel",
                Some("999999"),
                Err(XenError::BadPort),
            ),
        ];
        for c in NUM_QUEUES_CASES.iter().chain(&ring_cases) {
            run_case::<NetbackInstance>(&kite_profile(), netfront, c);
        }
    }

    #[test]
    fn blkback_refuses_garbage_negotiation_keys_without_leaking() {
        let ring_cases = [
            (4, "queue-1/ring-ref", None, Err(XenError::Inval)),
            (4, "queue-3/ring-ref", Some("abc"), Err(XenError::Inval)),
            (
                4,
                "queue-0/ring-ref",
                Some("999999"),
                Err(XenError::BadGrant),
            ),
            (4, "queue-2/event-channel", None, Err(XenError::Inval)),
            (4, "queue-1/event-channel", Some("-7"), Err(XenError::Inval)),
            (
                4,
                "queue-3/event-channel",
                Some("999999"),
                Err(XenError::BadPort),
            ),
        ];
        for c in NUM_QUEUES_CASES.iter().chain(&ring_cases) {
            run_case::<crate::blkback::BlkbackInstance>(&blk_cfg(), blkfront, c);
        }
    }

    /// A frontend that grants queue 2's `key` ring page read-only. The
    /// backend writes its responses into every ring it attaches, so it
    /// maps them writable and `connect` fails with `ReadOnlyGrant`; the
    /// undo leaves the driver domain holding no map and no port it did
    /// not hold before, though queues 0 and 1 had attached.
    fn read_only_ring_is_refused<D: BackendDevice>(
        cfg: &D::Config,
        connect_front: fn(&mut Hypervisor, &DevicePaths, u32),
        key: &str,
    ) {
        let (mut hv, paths) = test_machine(D::KIND);
        let max = format!("{}/multi-queue-max-queues", paths.backend());
        hv.store.write(DomainId::DOM0, None, &max, "4").unwrap();
        connect_front(&mut hv, &paths, 4);
        let page = hv.alloc_page(paths.front).unwrap();
        let gref = hv
            .grant_access(paths.front, paths.back, page, true)
            .unwrap();
        let path = format!("{}/{key}", paths.frontend());
        hv.store
            .write(paths.front, None, &path, &gref.0.to_string())
            .unwrap();
        let held = |hv: &Hypervisor| {
            (
                hv.grants.active_maps(paths.back),
                hv.evtchn.open_ports(paths.back),
            )
        };
        let before = held(&hv);
        assert_eq!(before.0, 0);
        let got = D::connect(&mut hv, &paths, cfg).err();
        assert_eq!(got, Some(XenError::ReadOnlyGrant), "{key}");
        assert_eq!(held(&hv), before, "{key}: driver domain leaked");
    }

    #[test]
    fn netback_refuses_a_read_only_ring_page() {
        read_only_ring_is_refused::<NetbackInstance>(
            &kite_profile(),
            netfront,
            "queue-2/tx-ring-ref",
        );
    }

    #[test]
    fn blkback_refuses_a_read_only_ring_page() {
        read_only_ring_is_refused::<crate::blkback::BlkbackInstance>(
            &blk_cfg(),
            blkfront,
            "queue-2/ring-ref",
        );
    }

    // Partial-connect regressions: each used to return `Err` with the
    // earlier rings still mapped and the earlier queues' ports still bound.

    #[test]
    fn netback_bad_rx_ring_ref_unmaps_the_tx_ring() {
        let c = (1, "rx-ring-ref", Some("999999"), Err(XenError::BadGrant));
        run_case::<NetbackInstance>(&kite_profile(), netfront, &c);
    }

    #[test]
    fn netback_bad_event_channel_on_queue_2_of_4_releases_queues_0_and_1() {
        let c = (
            4,
            "queue-2/event-channel",
            Some("999999"),
            Err(XenError::BadPort),
        );
        run_case::<NetbackInstance>(&kite_profile(), netfront, &c);
    }

    #[test]
    fn blkback_bad_ring_ref_on_ring_2_of_4_releases_rings_0_and_1() {
        let c = (
            4,
            "queue-2/ring-ref",
            Some("999999"),
            Err(XenError::BadGrant),
        );
        run_case::<crate::blkback::BlkbackInstance>(&blk_cfg(), blkfront, &c);
    }
}
