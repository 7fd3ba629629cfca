//! Netfront: the guest-side PV network driver.
//!
//! Allocates the Tx/Rx shared rings and packet buffer pools, grants them to
//! the driver domain, publishes its details in xenstore and exchanges
//! frames with netback through the rings — the standard, unmodified guest
//! driver the paper's DomU runs (its whole point is that frontends need no
//! changes to talk to a Kite backend).
//!
//! Multi-queue works the way Linux `xen-netfront` does it: the backend
//! advertises `multi-queue-max-queues`, the frontend clamps its own
//! capacity against it, writes the negotiated `multi-queue-num-queues`,
//! and publishes one ring pair + event channel per queue under
//! `queue-<k>/` subpaths. A negotiated count of 1 keeps the legacy flat
//! key layout, so single-queue behavior is bit-for-bit unchanged. Tx
//! steering hashes the flow tuple ([`kite_net::flow`]), so one flow's
//! frames always ride one queue and per-flow ordering survives.

use std::collections::VecDeque;

use kite_net::MacAddr;
use kite_sim::Nanos;
use kite_xen::netif::{
    NetifExtraInfo, NetifRxRequest, NetifRxResponse, NetifTxRequest, NetifTxResponse,
    NETIF_MAX_GSO_FRAME, NETIF_RSP_NULL, NETRXF_DATA_VALIDATED, NETRXF_MORE_DATA,
    NETTXF_EXTRA_INFO, NETTXF_MORE_DATA, XEN_NETIF_EXTRA_TYPE_GSO,
};
use kite_xen::xenbus::{negotiate_front, publish_queue, FrontEndpoint, RingKey, FEATURE_GSO_KEY};
use kite_xen::{
    DevicePaths, DomainId, GrantRef, Hypervisor, PageId, Port, ReqId, ReqStage, Result, SlotClass,
    XenError, XenbusState,
};

/// Number of packet buffer pages in each direction's pool, per queue.
const POOL: usize = 256;

struct BufPool {
    pages: Vec<PageId>,
    grefs: Vec<GrantRef>,
    free: Vec<u16>,
}

impl BufPool {
    fn alloc_id(&mut self) -> Option<u16> {
        self.free.pop()
    }
    fn release_id(&mut self, id: u16) {
        debug_assert!(!self.free.contains(&id));
        self.free.push(id);
    }
}

/// Outcome of a frontend operation that may require notifying the backend.
#[derive(Debug, Default)]
pub struct FrontOp {
    /// The backend must be notified via the event channel.
    pub notify: bool,
    /// Guest-side CPU cost of the operation.
    pub cost: Nanos,
}

/// One queue's worth of frontend state: a Tx/Rx ring pair, its event
/// channel, and the buffer pools feeding it.
struct NfQueue {
    evtchn: Port,
    tx: FrontEndpoint<NetifTxRequest, NetifTxResponse>,
    rx: FrontEndpoint<NetifRxRequest, NetifRxResponse>,
    tx_pool: BufPool,
    rx_pool: BufPool,
    // Tx requests pushed but not yet acknowledged: (buffer id, length,
    // first-slot-of-frame), oldest first. What a crashed backend leaves
    // unacknowledged; the first-markers let recovery reassemble GSO
    // chains back into whole frames.
    in_flight_tx: VecDeque<(u16, u16, bool)>,
    // Rx super-frame reassembly: fragments flagged `NETRXF_MORE_DATA`
    // accumulate here until the closing fragment arrives. A mid-chain
    // error poisons the chain and the whole partial frame is dropped.
    rx_partial: Vec<u8>,
    rx_poisoned: bool,
}

impl NfQueue {
    /// Reaps this queue's Tx completions (freeing buffers) and Rx
    /// deliveries (appending whole frames to `received`); returns the
    /// guest-side cost.
    fn reap(&mut self, hv: &mut Hypervisor, received: &mut VecDeque<Vec<u8>>) -> Result<Nanos> {
        let mut cost = Nanos::ZERO;
        // Tx completions.
        loop {
            let rsp = {
                let page = hv.mem.page(self.tx.page)?;
                self.tx.ring.consume_response(page)?
            };
            let Some(rsp) = rsp else { break };
            if rsp.status == NETIF_RSP_NULL {
                // Extra-info slot acknowledgment: its id field held
                // the descriptor kind, not a pool id — nothing to
                // release.
                continue;
            }
            self.tx_pool.release_id(rsp.id);
            self.in_flight_tx.retain(|&(i, _, _)| i != rsp.id);
            cost += Nanos::from_nanos(80);
        }
        {
            let page = hv.mem.page_mut(self.tx.page)?;
            self.tx.ring.final_check_for_responses(page);
        }
        // Rx deliveries.
        loop {
            let rsp = {
                let page = hv.mem.page(self.rx.page)?;
                self.rx.ring.consume_response(page)?
            };
            let Some(rsp) = rsp else { break };
            let more = rsp.flags & NETRXF_MORE_DATA != 0;
            if rsp.status > 0 {
                let len = rsp.status as usize;
                let buf = self.rx_pool.pages[rsp.id as usize];
                let data = &hv.mem.page(buf)?[rsp.offset as usize..rsp.offset as usize + len];
                self.rx_partial.extend_from_slice(data);
                // The backend validated the checksum for us when it
                // set `NETRXF_DATA_VALIDATED`; the guest's software
                // pass is skipped and the per-byte cost halves.
                let per_byte = if rsp.flags & NETRXF_DATA_VALIDATED != 0 {
                    32
                } else {
                    16
                };
                cost += Nanos::from_nanos(120 + len as u64 / per_byte);
            } else {
                // A failed fragment poisons the chain it belongs
                // to: nothing already accumulated may be delivered.
                self.rx_poisoned = true;
            }
            if !more {
                if !self.rx_poisoned && !self.rx_partial.is_empty() {
                    received.push_back(std::mem::take(&mut self.rx_partial));
                } else {
                    self.rx_partial.clear();
                }
                self.rx_poisoned = false;
            }
            self.rx_pool.release_id(rsp.id);
        }
        {
            let page = hv.mem.page_mut(self.rx.page)?;
            self.rx.ring.final_check_for_responses(page);
        }
        Ok(cost)
    }

    /// Posts every free Rx buffer; true when the backend end should be
    /// notified.
    fn post_rx_buffers(&mut self, hv: &mut Hypervisor) -> Result<bool> {
        let mut posted = false;
        while !self.rx.ring.full() {
            let id = match self.rx_pool.alloc_id() {
                Some(i) => i,
                None => break,
            };
            let gref = self.rx_pool.grefs[id as usize];
            let page = hv.mem.page_mut(self.rx.page)?;
            self.rx
                .ring
                .push_request(page, &NetifRxRequest { id, gref })?;
            posted = true;
        }
        if !posted {
            return Ok(false);
        }
        let page = hv.mem.page_mut(self.rx.page)?;
        Ok(self.rx.ring.push_requests(page))
    }
}

/// The netfront driver instance.
pub struct Netfront {
    /// Guest domain.
    pub guest: DomainId,
    /// Driver domain on the other end.
    pub backend: DomainId,
    /// Device index.
    pub index: u32,
    /// The interface MAC.
    pub mac: MacAddr,
    queues: Vec<NfQueue>,
    received: VecDeque<Vec<u8>>,
    tx_ring_full: u64,
    gso: bool,
}

fn make_pool(
    hv: &mut Hypervisor,
    owner: DomainId,
    peer: DomainId,
    readonly: bool,
) -> Result<BufPool> {
    let mut pages = Vec::with_capacity(POOL);
    let mut grefs = Vec::with_capacity(POOL);
    for _ in 0..POOL {
        let p = hv.alloc_page(owner)?;
        pages.push(p);
        grefs.push(hv.grant_access(owner, peer, p, readonly)?);
    }
    Ok(BufPool {
        pages,
        grefs,
        free: (0..POOL as u16).rev().collect(),
    })
}

fn make_queue(hv: &mut Hypervisor, paths: &DevicePaths, nqueues: u32, k: u32) -> Result<NfQueue> {
    let tx = FrontEndpoint::alloc(hv, paths, RingKey::Tx)?;
    let rx = FrontEndpoint::alloc(hv, paths, RingKey::Rx)?;
    // Tx payload pages are read-only to the backend; Rx pages must be
    // writable (the backend copies into them).
    let tx_pool = make_pool(hv, paths.front, paths.back, true)?;
    let rx_pool = make_pool(hv, paths.front, paths.back, false)?;
    let evtchn = publish_queue(hv, paths, nqueues, k, &[tx.ring_ref(), rx.ring_ref()])?;
    Ok(NfQueue {
        evtchn,
        tx,
        rx,
        tx_pool,
        rx_pool,
        in_flight_tx: VecDeque::new(),
        rx_partial: Vec::new(),
        rx_poisoned: false,
    })
}

impl Netfront {
    /// Creates a single-queue device: allocates rings and pools, grants
    /// them, binds the event channel, publishes frontend details and
    /// flips the state to `Initialised`. Also pre-posts the entire Rx
    /// buffer pool.
    pub fn connect(hv: &mut Hypervisor, paths: &DevicePaths, mac: MacAddr) -> Result<Netfront> {
        Netfront::connect_with_queues(hv, paths, mac, 1)
    }

    /// [`Netfront::connect`] with multi-queue negotiation.
    ///
    /// The frontend offers up to `max_queues`, clamps against the
    /// backend's advertisement ([`negotiate_front`]) and builds one ring
    /// set per negotiated queue; a result of 1 (either side offering 1)
    /// keeps the flat single-ring layout.
    pub fn connect_with_queues(
        hv: &mut Hypervisor,
        paths: &DevicePaths,
        mac: MacAddr,
        max_queues: u32,
    ) -> Result<Netfront> {
        let guest = paths.front;
        let fe = paths.frontend();
        let nqueues = negotiate_front(hv, paths, max_queues)?;
        // Offload negotiation: echo the backend's GSO advertisement. A
        // backend that never advertised the key leaves both sides in the
        // single-slot protocol — no keys, no behavior change. Checksum
        // offload rides along with GSO.
        let gso = hv
            .store
            .read(
                guest,
                None,
                &format!("{}/{}", paths.backend(), FEATURE_GSO_KEY),
            )
            .map(|v| v == "1")
            .unwrap_or(false);
        if gso {
            hv.store
                .write(guest, None, &format!("{fe}/{FEATURE_GSO_KEY}"), "1")?;
        }
        let mut queues = Vec::with_capacity(nqueues as usize);
        for k in 0..nqueues {
            queues.push(make_queue(hv, paths, nqueues, k)?);
        }
        hv.store
            .write(guest, None, &format!("{fe}/mac"), &mac.to_string())?;
        hv.switch_state(guest, &paths.frontend_state(), XenbusState::Initialised)?;
        let mut nf = Netfront {
            guest,
            backend: paths.back,
            index: paths.index,
            mac,
            queues,
            received: VecDeque::new(),
            tx_ring_full: 0,
            gso,
        };
        nf.post_rx_buffers(hv)?;
        Ok(nf)
    }

    /// Number of negotiated queues.
    pub fn queue_count(&self) -> usize {
        self.queues.len()
    }

    /// Whether GSO descriptor chains were negotiated with the backend.
    pub fn gso(&self) -> bool {
        self.gso
    }

    /// Largest frame [`Netfront::send`] accepts: one page without GSO,
    /// a 64KB super-frame with it.
    pub fn max_tx_frame(&self) -> usize {
        if self.gso {
            NETIF_MAX_GSO_FRAME
        } else {
            kite_xen::PAGE_SIZE
        }
    }

    /// Queue `q`'s guest-local event-channel port.
    pub fn port_of(&self, q: usize) -> Port {
        self.queues[q].evtchn
    }

    /// Posts every free Rx buffer on every queue. Returns the queues
    /// whose backend end should be notified.
    pub fn post_rx_buffers(&mut self, hv: &mut Hypervisor) -> Result<Vec<usize>> {
        let mut notify = Vec::new();
        for (q, qu) in self.queues.iter_mut().enumerate() {
            if qu.post_rx_buffers(hv)? {
                notify.push(q);
            }
        }
        Ok(notify)
    }

    /// Sends one frame on the queue its flow steers to. Returns the
    /// queue index (whose [`Netfront::port_of`] port the caller notifies
    /// when `FrontOp::notify` is set). Fails with [`XenError::RingFull`]
    /// when the steered queue has no Tx slot or buffer free (UDP
    /// workloads count that as a drop).
    ///
    /// With GSO negotiated a frame larger than one page becomes a
    /// descriptor chain: a head slot flagged `NETTXF_EXTRA_INFO |
    /// NETTXF_MORE_DATA`, the GSO extra-info slot, then continuation
    /// fragments (`NETTXF_MORE_DATA` on all but the last). The chain is
    /// pushed atomically — if the ring or pool cannot hold every slot,
    /// nothing is pushed and the whole frame drops.
    ///
    /// A traced request (`req`) is mapped to the Tx ring slot it lands
    /// in and stamped [`ReqStage::RingSubmit`], so the backend's drain
    /// can pick the id back up from the slot.
    ///
    /// [`ReqStage::RingSubmit`]: kite_xen::ReqStage::RingSubmit
    pub fn send(
        &mut self,
        hv: &mut Hypervisor,
        frame: &[u8],
        req: Option<ReqId>,
    ) -> Result<(usize, FrontOp)> {
        if frame.len() > self.max_tx_frame() {
            return Err(XenError::OutOfBounds);
        }
        let q = kite_net::flow::steer(frame, self.queues.len() as u32) as usize;
        let nfrags = frame.len().div_ceil(kite_xen::PAGE_SIZE).max(1);
        let chained = self.gso && nfrags > 1;
        // Data slots plus, for a chain, the extra-info slot.
        let slots = if chained { nfrags + 1 } else { nfrags };
        let qu = &mut self.queues[q];
        if (qu.tx.ring.free_requests() as usize) < slots || qu.tx_pool.free.len() < nfrags {
            self.tx_ring_full += 1;
            return Err(XenError::RingFull);
        }
        let mss = kite_net::ether::TSO_MSS;
        let mut head_id = 0u16;
        let mut off = 0usize;
        for f in 0..nfrags {
            let id = qu.tx_pool.alloc_id().expect("checked pool headroom");
            let len = (frame.len() - off).min(kite_xen::PAGE_SIZE);
            let buf = qu.tx_pool.pages[id as usize];
            hv.mem.page_mut(buf)?[..len].copy_from_slice(&frame[off..off + len]);
            let mut flags = 0u16;
            if chained {
                if f == 0 {
                    flags = NETTXF_EXTRA_INFO | NETTXF_MORE_DATA;
                } else if f + 1 < nfrags {
                    flags = NETTXF_MORE_DATA;
                }
            }
            let req_tx = NetifTxRequest {
                gref: qu.tx_pool.grefs[id as usize],
                offset: 0,
                flags,
                id,
                size: len as u16,
            };
            let page = hv.mem.page_mut(qu.tx.page)?;
            qu.tx.ring.push_request(page, &req_tx)?;
            qu.in_flight_tx.push_back((id, len as u16, f == 0));
            if f == 0 {
                head_id = id;
                if chained {
                    // The extra-info slot rides immediately after the
                    // head, before any continuation fragment.
                    let extra = NetifExtraInfo {
                        kind: XEN_NETIF_EXTRA_TYPE_GSO,
                        gso_size: mss as u16,
                        gso_segs: frame.len().div_ceil(mss) as u16,
                        total_len: frame.len() as u32,
                    };
                    let page = hv.mem.page_mut(qu.tx.page)?;
                    qu.tx.ring.push_request(page, &extra.to_tx_slot())?;
                }
            }
            off += len;
        }
        let page = hv.mem.page_mut(qu.tx.page)?;
        let notify = qu.tx.ring.push_requests(page);
        if let Some(r) = req {
            let key = (q as u64) << 32 | head_id as u64;
            hv.req.map(SlotClass::NetTx, key, r);
            hv.req
                .stamp(r, ReqStage::RingSubmit, self.guest.0, Some(q as u16));
        }
        // Guest-side cost: buffer copy + ring bookkeeping. With checksum
        // offload the guest skips the software csum pass, halving the
        // per-byte term.
        let per_byte = if self.gso { 32 } else { 16 };
        Ok((
            q,
            FrontOp {
                notify,
                cost: Nanos::from_nanos(150 + frame.len() as u64 / per_byte),
            },
        ))
    }

    /// The guest's interrupt handler for a device whose queues share
    /// one vector (and the whole of a one-queue device's): reaps Tx
    /// completions and Rx deliveries on every queue, then reposts Rx
    /// buffers. Returns the cost and the queues whose backend must be
    /// notified (for reposted buffers).
    pub fn on_irq(&mut self, hv: &mut Hypervisor) -> Result<(FrontOp, Vec<usize>)> {
        let mut cost = Nanos::ZERO;
        for qu in &mut self.queues {
            cost += qu.reap(hv, &mut self.received)?;
        }
        let notify = self.post_rx_buffers(hv)?;
        Ok((
            FrontOp {
                notify: !notify.is_empty(),
                cost,
            },
            notify,
        ))
    }

    /// Queue `q`'s interrupt handler: a multi-queue netfront binds one
    /// event channel per queue, and a queue's handler reaps and reposts
    /// that queue's rings only — the others wait for their own
    /// interrupts. `FrontOp::notify` asks for a kick on
    /// [`Netfront::port_of`]`(q)`.
    pub fn on_queue_irq(&mut self, hv: &mut Hypervisor, q: usize) -> Result<FrontOp> {
        let qu = &mut self.queues[q];
        let cost = qu.reap(hv, &mut self.received)?;
        let notify = qu.post_rx_buffers(hv)?;
        Ok(FrontOp { notify, cost })
    }

    /// The queue whose event channel is guest-local `port`.
    pub fn queue_of(&self, port: Port) -> Option<usize> {
        self.queues.iter().position(|qu| qu.evtchn == port)
    }

    /// Takes the next received frame, if any.
    pub fn recv(&mut self) -> Option<Vec<u8>> {
        self.received.pop_front()
    }

    /// Sends refused for want of ring space. Nothing is lost: the caller
    /// keeps the frame and retries on Tx completion, so this counts
    /// back-pressure stalls.
    pub fn tx_ring_full(&self) -> u64 {
        self.tx_ring_full
    }

    /// Tx frames pushed to the rings but never acknowledged, queue by
    /// queue and oldest first within each — the payloads a crashed
    /// backend may or may not have moved. The guest's recovery path
    /// retransmits these through the replacement device (retrying an
    /// already-delivered frame is the UDP analog of an idempotent
    /// replay; TCP would dedup by sequence number).
    pub fn take_unacked(&mut self, hv: &Hypervisor) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        for qu in &mut self.queues {
            // First-markers delimit GSO chains: a head slot flushes the
            // frame accumulated so far, continuation slots append.
            let mut partial: Vec<u8> = Vec::new();
            while let Some((id, len, first)) = qu.in_flight_tx.pop_front() {
                if first && !partial.is_empty() {
                    out.push(std::mem::take(&mut partial));
                }
                let buf = qu.tx_pool.pages[id as usize];
                if let Ok(page) = hv.mem.page(buf) {
                    partial.extend_from_slice(&page[..len as usize]);
                }
            }
            if !partial.is_empty() {
                out.push(partial);
            }
        }
        out
    }
}
