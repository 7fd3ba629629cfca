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
use kite_sim::{Nanos, Spares};
use kite_xen::netif::{
    NetifExtraInfo, NetifRxRequest, NetifRxResponse, NetifTxRequest, NetifTxResponse,
    NETIF_MAX_GSO_FRAME, NETIF_RSP_NULL, NETRXF_DATA_VALIDATED, NETRXF_MORE_DATA,
    NETTXF_EXTRA_INFO, NETTXF_MORE_DATA, XEN_NETIF_EXTRA_TYPE_GSO,
};
use kite_xen::xenbus::{negotiate_front, publish_queue, FrontEndpoint, RingKey, FEATURE_GSO_KEY};
use kite_xen::{
    DevicePaths, DomainId, Hypervisor, Port, ReqId, Result, SlotClass, XenError, XenbusState,
};

use crate::pool::GrantPool;
use crate::{overrun, record_refusal, FrontOp, Refusal, RspRejects};

/// Number of packet buffer pages in each direction's pool, per queue.
const POOL: usize = 256;

/// What a Tx buffer carries while it is out: enough to rebuild its frame
/// for [`Netfront::take_unacked`].
#[derive(Clone, Copy, Default)]
struct TxSlot {
    /// The queue's send sequence number when the slot was pushed.
    seq: u64,
    len: u16,
    /// The frame's first slot (a GSO chain's head).
    first: bool,
}

/// One queue's worth of frontend state: a Tx/Rx ring pair, its event
/// channel, and the buffer pools feeding it.
struct NfQueue {
    guest: DomainId,
    qid: u16,
    evtchn: Port,
    tx: FrontEndpoint<NetifTxRequest, NetifTxResponse>,
    rx: FrontEndpoint<NetifRxRequest, NetifRxResponse>,
    tx_pool: GrantPool,
    rx_pool: GrantPool,
    // Per Tx buffer id, what the buffer out with the backend carries
    // (`tx_pool.is_out` says which are out). What a crashed backend leaves
    // unacknowledged; the sequence numbers restore send order and the
    // first-markers let recovery reassemble GSO chains into whole frames.
    tx_sent: [TxSlot; POOL],
    tx_seq: u64,
    // Rx super-frame reassembly: fragments flagged `NETRXF_MORE_DATA`
    // accumulate here until the closing fragment arrives. A mid-chain
    // error poisons the chain and the whole partial frame is dropped.
    rx_partial: Vec<u8>,
    rx_poisoned: bool,
    /// A ring was corrupted: nothing on this queue is reaped, posted or
    /// sent any more (xen-netfront's `info->broken`).
    broken: bool,
}

impl NfQueue {
    /// Books a refused response on the Tx (`rx == false`) or Rx ring.
    fn refuse(&self, hv: &mut Hypervisor, rj: &mut RspRejects, rx: bool, why: Refusal, id: u64) {
        let queue = if rx { "netfront_rx" } else { "netfront_tx" };
        record_refusal(hv, self.guest, rj, queue, self.qid, why, id);
    }

    /// Reaps this queue's Tx completions (freeing buffers) and Rx
    /// deliveries (gathering each whole frame into a buffer from
    /// `spares` and appending it to `received`); returns the guest-side
    /// cost.
    ///
    /// Every field the backend wrote is checked before it is used: a
    /// response naming a buffer the backend does not hold, or Rx bytes
    /// past their page, is refused into `rj`. A backend that moves
    /// `rsp_prod` past the requests in flight breaks the queue.
    fn reap(
        &mut self,
        hv: &mut Hypervisor,
        received: &mut VecDeque<Vec<u8>>,
        spares: &mut Spares,
        rj: &mut RspRejects,
    ) -> Result<Nanos> {
        let mut cost = Nanos::ZERO;
        if self.broken {
            return Ok(cost);
        }
        let corrupt = match overrun(hv, &self.tx)? {
            Some(prod) => Some((false, prod)),
            None => overrun(hv, &self.rx)?.map(|prod| (true, prod)),
        };
        if let Some((rx, prod)) = corrupt {
            self.broken = true;
            self.refuse(hv, rj, rx, Refusal::RingCorrupt, prod);
            return Ok(cost);
        }
        // Tx completions.
        while let Some(rsp) = self.tx.ring.consume_response(hv.mem.page(self.tx.page)?)? {
            if rsp.status == NETIF_RSP_NULL {
                // Extra-info slot acknowledgment: its id field held the
                // descriptor kind, not a pool id — nothing to release.
                continue;
            }
            match self.tx_pool.release(rsp.id) {
                Ok(()) => cost += Nanos::from_nanos(80),
                Err(why) => self.refuse(hv, rj, false, why, rsp.id.into()),
            }
        }
        let page = hv.mem.page_mut(self.tx.page)?;
        self.tx.ring.final_check_for_responses(page);
        // Rx deliveries.
        while let Some(rsp) = self.rx.ring.consume_response(hv.mem.page(self.rx.page)?)? {
            let more = rsp.flags & NETRXF_MORE_DATA != 0;
            let (off, len) = (rsp.offset as usize, rsp.status.max(0) as usize);
            // A posted buffer comes back whatever its response says.
            let checked = match self.rx_pool.release(rsp.id) {
                Ok(()) if off + len > kite_xen::PAGE_SIZE => Err(Refusal::BadRange),
                released => released,
            };
            let deliver = match checked {
                Ok(()) => len > 0,
                Err(why) => {
                    self.refuse(hv, rj, true, why, rsp.id.into());
                    false
                }
            };
            if deliver {
                let buf = self.rx_pool.page(rsp.id);
                let data = &hv.mem.page(buf)?[off..off + len];
                if self.rx_partial.is_empty() {
                    // A frame's first slot sizes it, once: a single slot
                    // by its own length, a chain by the length its IPv4
                    // header claims (bytes the backend wrote, so the
                    // hint is capped).
                    let n = if more {
                        let hint = kite_net::ether::frame_len_hint(data).unwrap_or(0);
                        hint.min(NETIF_MAX_GSO_FRAME)
                    } else {
                        len
                    };
                    if self.rx_partial.capacity() < n {
                        let buf = spares.take(n);
                        spares.put(std::mem::replace(&mut self.rx_partial, buf));
                    }
                }
                self.rx_partial.extend_from_slice(data);
                // The backend validated the checksum for us when it
                // set `NETRXF_DATA_VALIDATED`; the guest's software
                // pass is skipped and the per-byte cost halves.
                let validated = rsp.flags & NETRXF_DATA_VALIDATED != 0;
                let per_byte = if validated { 32 } else { 16 };
                cost += Nanos::from_nanos(120 + len as u64 / per_byte);
            } else {
                // A failed or refused fragment poisons the chain it
                // belongs to: nothing already accumulated may be
                // delivered.
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
        }
        let page = hv.mem.page_mut(self.rx.page)?;
        self.rx.ring.final_check_for_responses(page);
        Ok(cost)
    }

    /// Posts every free Rx buffer; true when the backend end should be
    /// notified.
    fn post_rx_buffers(&mut self, hv: &mut Hypervisor) -> Result<bool> {
        let mut posted = false;
        while !self.broken && !self.rx.ring.full() {
            let Some(id) = self.rx_pool.alloc() else {
                break;
            };
            let (gref, page) = (self.rx_pool.gref(id), hv.mem.page_mut(self.rx.page)?);
            self.rx
                .ring
                .push_request(page, &NetifRxRequest { id, gref })?;
            posted = true;
        }
        Ok(posted && self.rx.ring.push_requests(hv.mem.page_mut(self.rx.page)?))
    }
}

/// The netfront driver instance.
pub struct Netfront {
    queues: Vec<NfQueue>,
    received: VecDeque<Vec<u8>>,
    /// Received frames handed back by their last reader
    /// ([`Netfront::recycle`]).
    spares: Spares,
    tx_ring_full: u64,
    gso: bool,
    rejects: RspRejects,
}

/// Copies bytes `at..at + dst.len()` of the frame `header` ++ `payload`
/// into `dst`.
fn copy_span(dst: &mut [u8], at: usize, header: &[u8], payload: &[u8]) {
    let from_header = header.get(at..).unwrap_or_default();
    let h = from_header.len().min(dst.len());
    dst[..h].copy_from_slice(&from_header[..h]);
    let (p, rest) = (at.saturating_sub(header.len()), dst.len() - h);
    dst[h..].copy_from_slice(&payload[p..p + rest]);
}

fn make_queue(hv: &mut Hypervisor, paths: &DevicePaths, nqueues: u32, k: u32) -> Result<NfQueue> {
    let tx = FrontEndpoint::alloc(hv, paths, RingKey::Tx)?;
    let rx = FrontEndpoint::alloc(hv, paths, RingKey::Rx)?;
    // Tx payload pages are read-only to the backend; Rx pages must be
    // writable (the backend copies into them).
    let tx_pool = GrantPool::new(hv, paths, POOL, true)?;
    let rx_pool = GrantPool::new(hv, paths, POOL, false)?;
    let evtchn = publish_queue(hv, paths, nqueues, k, &[tx.ring_ref(), rx.ring_ref()])?;
    Ok(NfQueue {
        guest: paths.front,
        qid: k as u16,
        evtchn,
        tx,
        rx,
        tx_pool,
        rx_pool,
        tx_sent: [TxSlot::default(); POOL],
        tx_seq: 0,
        rx_partial: Vec::new(),
        rx_poisoned: false,
        broken: false,
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
        let key = format!("{}/{FEATURE_GSO_KEY}", paths.backend());
        let gso = hv.store.read(guest, None, &key).is_ok_and(|v| v == "1");
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
            queues,
            received: VecDeque::new(),
            spares: Spares::default(),
            tx_ring_full: 0,
            gso,
            rejects: RspRejects::default(),
        };
        for qu in &mut nf.queues {
            qu.post_rx_buffers(hv)?;
        }
        Ok(nf)
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

    /// Sends one frame on the queue its flow steers to. Returns the
    /// queue index (whose [`Netfront::port_of`] port the caller notifies
    /// when `FrontOp::notify` is set). Fails with [`XenError::RingFull`]
    /// when the steered queue has no Tx slot or buffer free (the caller
    /// keeps the frame and retries on a Tx completion), and with
    /// [`XenError::RingCorrupt`] when its backend broke the queue.
    ///
    /// With GSO negotiated a frame larger than one page becomes a
    /// descriptor chain: a head slot flagged `NETTXF_EXTRA_INFO |
    /// NETTXF_MORE_DATA`, the GSO extra-info slot, then continuation
    /// fragments (`NETTXF_MORE_DATA` on all but the last). The chain is
    /// pushed atomically — if the ring or pool cannot hold every slot,
    /// nothing is pushed and the whole frame drops.
    ///
    /// A traced request (`req`) is mapped to the Tx ring slot it lands
    /// in, so the backend's drain can pick the id back up from the slot;
    /// the caller stamps the submit at its own time.
    pub fn send(
        &mut self,
        hv: &mut Hypervisor,
        frame: &[u8],
        req: Option<ReqId>,
    ) -> Result<(usize, FrontOp)> {
        self.send_parts(hv, frame, &[], req)
    }

    /// [`Netfront::send`] of the frame `header` followed by `payload`,
    /// laid into the Tx pages straight from the two buffers, so a stack
    /// that writes a datagram's headers apart from its payload never joins
    /// them first. Steering reads `header` only: it holds every field the
    /// flow hash reads (a whole Ethernet + IPv4 + UDP header, or the whole
    /// frame).
    pub fn send_parts(
        &mut self,
        hv: &mut Hypervisor,
        header: &[u8],
        payload: &[u8],
        req: Option<ReqId>,
    ) -> Result<(usize, FrontOp)> {
        let len = header.len() + payload.len();
        if len > self.max_tx_frame() {
            return Err(XenError::OutOfBounds);
        }
        let q = kite_net::flow::steer(header, self.queues.len() as u32) as usize;
        let nfrags = len.div_ceil(kite_xen::PAGE_SIZE).max(1);
        let chained = self.gso && nfrags > 1;
        // Data slots plus, for a chain, the extra-info slot.
        let slots = if chained { nfrags + 1 } else { nfrags };
        let qu = &mut self.queues[q];
        if qu.broken {
            return Err(XenError::RingCorrupt);
        }
        if (qu.tx.ring.free_requests() as usize) < slots || qu.tx_pool.available() < nfrags {
            self.tx_ring_full += 1;
            return Err(XenError::RingFull);
        }
        let mss = kite_net::ether::TSO_MSS;
        let mut head_id = 0u16;
        let mut off = 0usize;
        for f in 0..nfrags {
            let id = qu.tx_pool.alloc().expect("checked pool headroom");
            let n = (len - off).min(kite_xen::PAGE_SIZE);
            let buf = qu.tx_pool.page(id);
            copy_span(&mut hv.mem.page_mut(buf)?[..n], off, header, payload);
            let mut flags = 0u16;
            if chained {
                if f == 0 {
                    flags = NETTXF_EXTRA_INFO | NETTXF_MORE_DATA;
                } else if f + 1 < nfrags {
                    flags = NETTXF_MORE_DATA;
                }
            }
            let req_tx = NetifTxRequest {
                gref: qu.tx_pool.gref(id),
                offset: 0,
                flags,
                id,
                size: n as u16,
            };
            let page = hv.mem.page_mut(qu.tx.page)?;
            qu.tx.ring.push_request(page, &req_tx)?;
            qu.tx_sent[id as usize] = TxSlot {
                seq: qu.tx_seq,
                len: n as u16,
                first: f == 0,
            };
            qu.tx_seq += 1;
            if f == 0 {
                head_id = id;
                if chained {
                    // The extra-info slot rides immediately after the
                    // head, before any continuation fragment.
                    let extra = NetifExtraInfo {
                        kind: XEN_NETIF_EXTRA_TYPE_GSO,
                        gso_size: mss as u16,
                        gso_segs: len.div_ceil(mss) as u16,
                        total_len: len as u32,
                    };
                    let page = hv.mem.page_mut(qu.tx.page)?;
                    qu.tx.ring.push_request(page, &extra.to_tx_slot())?;
                }
            }
            off += n;
        }
        let page = hv.mem.page_mut(qu.tx.page)?;
        let notify = qu.tx.ring.push_requests(page);
        if let Some(r) = req {
            let key = (q as u64) << 32 | head_id as u64;
            hv.req.map(SlotClass::NetTx, key, r);
        }
        // Guest-side cost: buffer copy + ring bookkeeping. With checksum
        // offload the guest skips the software csum pass, halving the
        // per-byte term.
        let per_byte = if self.gso { 32 } else { 16 };
        let cost = Nanos::from_nanos(150 + len as u64 / per_byte);
        Ok((q, FrontOp { notify, cost }))
    }

    /// The guest's interrupt handler for a device whose queues share
    /// one vector (and the whole of a one-queue device's): every queue's
    /// [`Netfront::on_queue_irq`]. Returns the cost and the queues whose
    /// backend must be notified (for reposted buffers).
    pub fn on_irq(&mut self, hv: &mut Hypervisor) -> Result<(FrontOp, Vec<usize>)> {
        let (mut cost, mut notify) = (Nanos::ZERO, Vec::new());
        for q in 0..self.queues.len() {
            let op = self.on_queue_irq(hv, q)?;
            cost += op.cost;
            notify.extend(op.notify.then_some(q));
        }
        let notify_any = !notify.is_empty();
        Ok((
            FrontOp {
                notify: notify_any,
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
        let cost = qu.reap(hv, &mut self.received, &mut self.spares, &mut self.rejects)?;
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

    /// Hands back a received frame whose last reader is done with it; a
    /// later frame is gathered into it.
    pub fn recycle(&mut self, frame: Vec<u8>) {
        self.spares.put(frame);
    }

    /// Sends refused for want of ring space. Nothing is lost: the caller
    /// keeps the frame and retries on Tx completion, so this counts
    /// back-pressure stalls.
    pub fn tx_ring_full(&self) -> u64 {
        self.tx_ring_full
    }

    /// Backend-written responses refused so far, all queues.
    pub fn rejects(&self) -> RspRejects {
        self.rejects
    }

    /// Tx frames pushed to the rings but never acknowledged, queue by
    /// queue and oldest first within each — the payloads a crashed
    /// backend may or may not have moved. The guest's recovery path
    /// retransmits these through the replacement device (retrying an
    /// already-delivered frame is the UDP analog of an idempotent
    /// replay; TCP would dedup by sequence number). Their buffers go
    /// back to the pool.
    pub fn take_unacked(&mut self, hv: &Hypervisor) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        for qu in &mut self.queues {
            let mut ids: Vec<u16> = (0..POOL as u16)
                .filter(|&id| qu.tx_pool.is_out(id))
                .collect();
            ids.sort_unstable_by_key(|&id| qu.tx_sent[id as usize].seq);
            // First-markers delimit GSO chains: a head slot flushes the
            // frame accumulated so far, continuation slots append.
            let mut partial: Vec<u8> = Vec::new();
            for id in ids {
                let TxSlot { len, first, .. } = qu.tx_sent[id as usize];
                if first && !partial.is_empty() {
                    out.push(std::mem::take(&mut partial));
                }
                if let Ok(page) = hv.mem.page(qu.tx_pool.page(id)) {
                    partial.extend_from_slice(&page[..len as usize]);
                }
                qu.tx_pool.release(id).expect("the id was out a line ago");
            }
            if !partial.is_empty() {
                out.push(partial);
            }
        }
        out
    }

    /// `(Tx, Rx)` buffers out with the backend, queue by queue, after
    /// checking every pool is sound (each buffer free or out, once).
    pub fn pools_lent(&self) -> Vec<(usize, usize)> {
        let lent = |qu: &NfQueue| (qu.tx_pool.assert_sound(), qu.rx_pool.assert_sound());
        self.queues.iter().map(lent).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{machine, reject_events};
    use kite_xen::netif::{NETIF_RSP_ERROR, NETIF_RSP_OKAY};
    use kite_xen::ring::sring;
    use kite_xen::xenbus::{attach_back, BackEndpoint};
    use kite_xen::DeviceKind;
    use std::time::{Duration, Instant};

    /// A netfront connected on a freshly provisioned vif, the driver
    /// domain advertising GSO or not.
    fn connected(gso: bool) -> (Hypervisor, DevicePaths, Netfront) {
        let keys: &[_] = if gso { &[(FEATURE_GSO_KEY, "1")] } else { &[] };
        let (mut hv, paths) = machine(DeviceKind::Vif, keys);
        let nf = Netfront::connect(&mut hv, &paths, MacAddr::local(1)).unwrap();
        (hv, paths, nf)
    }

    /// The backend end of a one-queue netfront's rings, driven by hand so
    /// tests can write responses no real netback would: the frontend twin
    /// of blkback's `RawBlkFront`.
    struct RawBack {
        back: DomainId,
        front: DomainId,
        tx: BackEndpoint<NetifTxRequest, NetifTxResponse>,
        rx: BackEndpoint<NetifRxRequest, NetifRxResponse>,
    }

    impl RawBack {
        fn attach(hv: &mut Hypervisor, paths: &DevicePaths) -> RawBack {
            let (tx, rx) = attach_back(hv, paths, |hv, a| {
                Ok((a.ring(hv, 0, RingKey::Tx)?, a.ring(hv, 0, RingKey::Rx)?))
            })
            .unwrap();
            RawBack {
                back: paths.back,
                front: paths.front,
                tx,
                rx,
            }
        }

        /// Consumes every Tx request published so far.
        fn tx_requests(&mut self, hv: &Hypervisor) -> Vec<NetifTxRequest> {
            let page = hv.mem.page(self.tx.page).unwrap();
            std::iter::from_fn(|| self.tx.ring.consume_request(page).unwrap()).collect()
        }

        /// Consumes every posted Rx buffer published so far.
        fn rx_requests(&mut self, hv: &Hypervisor) -> Vec<NetifRxRequest> {
            let page = hv.mem.page(self.rx.page).unwrap();
            std::iter::from_fn(|| self.rx.ring.consume_request(page).unwrap()).collect()
        }

        /// Publishes one Tx response per `(id, status)`.
        fn answer_tx(&mut self, hv: &mut Hypervisor, rsps: &[(u16, i16)]) {
            let page = hv.mem.page_mut(self.tx.page).unwrap();
            for &(id, status) in rsps {
                let rsp = NetifTxResponse { id, status };
                self.tx.ring.push_response(page, &rsp).unwrap();
            }
            self.tx.ring.push_responses(page);
        }

        fn answer_rx(&mut self, hv: &mut Hypervisor, rsps: &[NetifRxResponse]) {
            let page = hv.mem.page_mut(self.rx.page).unwrap();
            for rsp in rsps {
                self.rx.ring.push_response(page, rsp).unwrap();
            }
            self.rx.ring.push_responses(page);
        }

        /// The bytes a Tx request names, read through a grant map.
        fn tx_bytes(&self, hv: &mut Hypervisor, req: &NetifTxRequest) -> Vec<u8> {
            let (m, _) = hv.map_grant(self.back, self.front, req.gref, true).unwrap();
            let off = req.offset as usize;
            let bytes = hv.mem.page(m.page).unwrap()[off..off + req.size as usize].to_vec();
            hv.unmap_grant(self.back, m.handle).unwrap();
            bytes
        }

        /// Copies `data` into the buffer `req` posted and returns the
        /// response that delivers it with `flags`.
        fn fill(
            &self,
            hv: &mut Hypervisor,
            req: &NetifRxRequest,
            data: &[u8],
            flags: u16,
        ) -> NetifRxResponse {
            let (m, _) = hv
                .map_grant(self.back, self.front, req.gref, false)
                .unwrap();
            hv.mem.page_mut(m.page).unwrap()[..data.len()].copy_from_slice(data);
            hv.unmap_grant(self.back, m.handle).unwrap();
            rx_rsp(req.id, data.len() as i16, flags)
        }
    }

    fn rx_rsp(id: u16, status: i16, flags: u16) -> NetifRxResponse {
        NetifRxResponse {
            id,
            offset: 0,
            flags,
            status,
        }
    }

    /// `len` bytes no other `n` produces at the same offsets.
    fn payload(n: usize, len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 7 + n * 13) as u8).collect()
    }

    #[test]
    fn hostile_tx_responses_are_refused_and_counted() {
        let (mut hv, paths, mut nf) = connected(false);
        hv.trace.enable(1024);
        let mut be = RawBack::attach(&mut hv, &paths);
        for n in 0..6 {
            nf.send(&mut hv, &payload(n, 100 + n), None).unwrap();
        }
        let ids: Vec<u16> = be.tx_requests(&hv).iter().map(|r| r.id).collect();
        assert_eq!(ids, [0, 1, 2, 3, 4, 5]);
        let past = POOL as u16;
        be.answer_tx(
            &mut hv,
            &[
                (7, NETIF_RSP_OKAY), // never sent
                (0, NETIF_RSP_OKAY),
                (0, NETIF_RSP_OKAY), // answered twice
                (past, NETIF_RSP_OKAY),
                (2, NETIF_RSP_OKAY), // valid, out of order
                (1, NETIF_RSP_ERROR),
            ],
        );
        nf.on_queue_irq(&mut hv, 0).unwrap();
        let want = RspRejects {
            bad_id: 1,
            unknown_id: 2,
            ..RspRejects::default()
        };
        assert_eq!(nf.rejects(), want);
        assert_eq!(
            reject_events(&hv),
            [
                ("netfront_tx", 0, "unknown_id", 7),
                ("netfront_tx", 0, "unknown_id", 0),
                ("netfront_tx", 0, "bad_id", past.into()),
            ]
        );
        nf.queues[0].tx_pool.assert_sound();

        // Ids 3, 4 and 5 are still out, so exactly the other 253 buffers
        // take new frames, each on its own page with its own bytes; the
        // ring has room to spare, so the next send fails on the pool.
        let later: Vec<Vec<u8>> = (0..POOL - 3).map(|n| payload(100 + n, 60 + n)).collect();
        for f in &later {
            nf.send(&mut hv, f, None).unwrap();
        }
        assert!(nf.queues[0].tx.ring.free_requests() > 0);
        assert_eq!(
            nf.send(&mut hv, &later[0], None).err(),
            Some(XenError::RingFull),
            "a refused response freed a buffer"
        );
        let reqs = be.tx_requests(&hv);
        assert_eq!(reqs.len(), later.len());
        let mut grefs: Vec<u32> = reqs.iter().map(|r| r.gref.0).collect();
        grefs.sort_unstable();
        grefs.dedup();
        assert_eq!(grefs.len(), later.len(), "two frames share a buffer");
        for (req, f) in reqs.iter().zip(&later) {
            assert_eq!(&be.tx_bytes(&mut hv, req), f);
        }
    }

    #[test]
    fn hostile_rx_responses_are_refused_and_counted() {
        let (mut hv, paths, mut nf) = connected(false);
        hv.trace.enable(1024);
        let mut be = RawBack::attach(&mut hv, &paths);
        let posted = be.rx_requests(&hv);
        assert_eq!(posted.len(), POOL, "the whole pool is posted at connect");
        let (a, b, c) = (payload(1, 300), payload(2, 1500), payload(3, 40));
        let past_page = NetifRxResponse {
            offset: (kite_xen::PAGE_SIZE - 100) as u16,
            ..rx_rsp(posted[0].id, 200, 0)
        };
        let rsps = [
            rx_rsp(POOL as u16 + 144, 64, 0), // past the pool
            past_page,
            be.fill(&mut hv, &posted[1], &a, 0),
            be.fill(&mut hv, &posted[1], &a, 0), // answered twice
            // A chain with a refused middle fragment drops whole.
            be.fill(&mut hv, &posted[2], &a, NETRXF_MORE_DATA),
            rx_rsp(999, 64, NETRXF_MORE_DATA),
            be.fill(&mut hv, &posted[3], &b, 0),
            // Valid, out of order.
            be.fill(&mut hv, &posted[5], &b, 0),
            be.fill(&mut hv, &posted[4], &c, 0),
        ];
        be.answer_rx(&mut hv, &rsps);
        nf.on_queue_irq(&mut hv, 0).unwrap();

        let want = RspRejects {
            bad_id: 2,
            unknown_id: 1,
            bad_range: 1,
            ..RspRejects::default()
        };
        assert_eq!(nf.rejects(), want);
        assert_eq!(
            reject_events(&hv),
            [
                ("netfront_rx", 0, "bad_id", POOL as u32 + 144),
                ("netfront_rx", 0, "bad_range", posted[0].id.into()),
                ("netfront_rx", 0, "unknown_id", posted[1].id.into()),
                ("netfront_rx", 0, "bad_id", 999),
            ]
        );
        let got: Vec<Vec<u8>> = std::iter::from_fn(|| nf.recv()).collect();
        assert_eq!(got, [a, b, c]);
        nf.queues[0].rx_pool.assert_sound();

        // The six buffers that came back are posted again, once each, and
        // carry the next delivery intact.
        let mut reposted: Vec<u16> = be.rx_requests(&hv).iter().map(|r| r.id).collect();
        reposted.sort_unstable();
        let mut returned: Vec<u16> = posted[..6].iter().map(|r| r.id).collect();
        returned.sort_unstable();
        assert_eq!(reposted, returned);
        let d = payload(4, 4096);
        let rsp = be.fill(&mut hv, &posted[7], &d, 0);
        be.answer_rx(&mut hv, &[rsp]);
        nf.on_queue_irq(&mut hv, 0).unwrap();
        assert_eq!(nf.recv(), Some(d));
    }

    /// A backend that moves either ring's `rsp_prod` past the requests in
    /// flight (here, far past a whole ring) breaks the queue: refused,
    /// counted and traced once, and from then on nothing on the queue is
    /// reaped, reposted or sent.
    #[test]
    fn a_response_producer_jump_breaks_the_queue() {
        for (ring, rx) in [("netfront_tx", false), ("netfront_rx", true)] {
            let (mut hv, paths, mut nf) = connected(false);
            hv.trace.enable(64);
            let mut be = RawBack::attach(&mut hv, &paths);
            nf.send(&mut hv, &payload(0, 100), None).unwrap();
            let sent = be.tx_requests(&hv);
            let posted = be.rx_requests(&hv);
            // A valid answer on each ring, then the jump on one of them.
            be.answer_tx(&mut hv, &[(sent[0].id, NETIF_RSP_OKAY)]);
            let delivery = be.fill(&mut hv, &posted[0], &payload(1, 64), 0);
            be.answer_rx(&mut hv, &[delivery]);
            let page = if rx { be.rx.page } else { be.tx.page };
            sring::set_rsp_prod(hv.mem.page_mut(page).unwrap(), 100_000);
            for _ in 0..2 {
                let op = nf.on_queue_irq(&mut hv, 0).unwrap();
                assert_eq!((op.notify, op.cost), (false, Nanos::ZERO), "{ring}");
            }
            let want = RspRejects {
                ring_corrupt: 1,
                ..RspRejects::default()
            };
            assert_eq!(nf.rejects(), want, "{ring}");
            assert_eq!(reject_events(&hv), [(ring, 0, "ring_corrupt", 100_000)]);
            assert_eq!(nf.recv(), None, "{ring}: a delivery was reaped");
            let refused = nf.send(&mut hv, &payload(2, 100), None).err();
            assert_eq!(refused, Some(XenError::RingCorrupt), "{ring}");
            assert!(be.tx_requests(&hv).is_empty(), "{ring}: a send went out");
            // Neither valid answer was taken: both buffers are still out.
            assert_eq!(nf.pools_lent(), [(1, POOL)], "{ring}");
        }
    }

    /// Salvage order with the backend having answered some frames in
    /// order, some out of order and some in part. A chain whose head was
    /// answered but not its tail loses its first-marker, so the tail rides
    /// with the frame before it.
    #[test]
    fn take_unacked_returns_the_unanswered_slots_in_send_order() {
        let (mut hv, paths, mut nf) = connected(true);
        let mut be = RawBack::attach(&mut hv, &paths);
        let lens = [1000, 10_000, 500, 9000, 700, 5000, 9000];
        let frames: Vec<Vec<u8>> = lens
            .iter()
            .enumerate()
            .map(|(n, &l)| payload(n, l))
            .collect();
        for f in &frames {
            nf.send(&mut hv, f, None).unwrap();
        }
        let reqs = be.tx_requests(&hv);
        let heads: Vec<usize> = (0..reqs.len())
            .filter(|&i| i == 0 || reqs[i - 1].flags & NETTXF_MORE_DATA == 0)
            .collect();
        assert_eq!(heads.len(), frames.len());
        let data_ids: Vec<u16> = reqs
            .iter()
            .enumerate()
            .filter(|&(i, _)| i == 0 || reqs[i - 1].flags & NETTXF_EXTRA_INFO == 0)
            .map(|(_, r)| r.id)
            .collect();
        // Frame by frame: 0 | 1 2 3 | 4 | 5 6 7 | 8 | 9 10 | 11 12 13.
        assert_eq!(data_ids, (0..14).collect::<Vec<u16>>());
        let ok = |id| (id, NETIF_RSP_OKAY);
        let extra = (XEN_NETIF_EXTRA_TYPE_GSO as u16, NETIF_RSP_NULL);
        be.answer_tx(
            &mut hv,
            &[
                ok(0),
                ok(4), // frame 2 before frame 1
                ok(5), // frame 3's head only
                extra,
                ok(10), // frame 5's tail only
                ok(11), // frame 6 whole
                extra,
                ok(12),
                ok(13),
            ],
        );
        nf.on_queue_irq(&mut hv, 0).unwrap();
        assert_eq!(nf.rejects(), RspRejects::default());
        let page = kite_xen::PAGE_SIZE;
        let want = [
            [&frames[1][..], &frames[3][page..]].concat(),
            frames[4].clone(),
            frames[5][..page].to_vec(),
        ];
        assert_eq!(nf.take_unacked(&hv), want);
        assert!(nf.take_unacked(&hv).is_empty());
        assert_eq!(nf.pools_lent(), [(0, POOL)]);
    }

    /// Per Tx response, `on_queue_irq` with ~240 frames in flight costs
    /// less than twice what it costs with 8: retiring a completion does
    /// not walk the frames still queued. Wall-clock, so release only.
    #[test]
    #[cfg_attr(debug_assertions, ignore)]
    fn tx_completion_cost_does_not_grow_with_frames_in_flight() {
        const BATCH: usize = 8;
        const ROUNDS: usize = 400;
        struct Rig {
            hv: Hypervisor,
            nf: Netfront,
            be: RawBack,
            owed: VecDeque<u16>,
        }
        let rig = |depth: usize| {
            let (mut hv, paths, mut nf) = connected(false);
            let mut be = RawBack::attach(&mut hv, &paths);
            for _ in 0..depth {
                nf.send(&mut hv, &[0x5a; 64], None).unwrap();
            }
            let owed = be.tx_requests(&hv).iter().map(|r| r.id).collect();
            Rig { hv, nf, be, owed }
        };
        // One trial: answer the oldest BATCH, time the interrupt that
        // reaps them, send BATCH more; the depth stays where it started.
        let trial = |r: &mut Rig| {
            let mut spent = Duration::ZERO;
            for _ in 0..ROUNDS {
                let rsps: Vec<(u16, i16)> = r
                    .owed
                    .drain(..BATCH)
                    .map(|id| (id, NETIF_RSP_OKAY))
                    .collect();
                r.be.answer_tx(&mut r.hv, &rsps);
                let t = Instant::now();
                r.nf.on_queue_irq(&mut r.hv, 0).unwrap();
                spent += t.elapsed();
                for _ in 0..BATCH {
                    r.nf.send(&mut r.hv, &[0x5a; 64], None).unwrap();
                }
                let sent = r.be.tx_requests(&r.hv);
                r.owed.extend(sent.iter().map(|q| q.id));
            }
            spent.as_nanos() as f64 / (ROUNDS * BATCH) as f64
        };
        let (mut shallow, mut deep) = (rig(8), rig(240));
        let (mut at8, mut at240) = (Vec::new(), Vec::new());
        for _ in 0..11 {
            at8.push(trial(&mut shallow));
            at240.push(trial(&mut deep));
        }
        let median = |v: &mut Vec<f64>| {
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        };
        let (at8, at240) = (median(&mut at8), median(&mut at240));
        assert!(
            at240 < 2.0 * at8,
            "{at240:.1} ns per response at 240 in flight vs {at8:.1} ns at 8"
        );
    }
}
