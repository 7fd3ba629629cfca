//! Blkfront: the guest-side PV block driver.
//!
//! Builds direct or indirect requests according to the features the
//! backend advertised in xenstore, keeps a granted buffer-page pool
//! (persistent from the frontend's perspective), and reaps completions.
//!
//! With [`Blkfront::connect_with_queues`] the frontend negotiates up to
//! `n` hardware queues (rings): requests spread across rings round-robin
//! (block I/O carries no flow-ordering constraint), responses return on
//! the ring that carried the request.

use std::collections::HashMap;

use kite_sim::Nanos;
use kite_xen::blkif::{
    pack_indirect_segments, BlkifRequest, BlkifResponse, BlkifSegment,
    BLKIF_MAX_SEGMENTS_PER_REQUEST, BLKIF_OP_FLUSH_DISKCACHE, BLKIF_OP_READ, BLKIF_OP_WRITE,
    BLKIF_RSP_OKAY, SECTOR_SIZE,
};
use kite_xen::xenbus::{negotiate_front, publish_queue, read_key, FrontEndpoint, RingKey};
use kite_xen::{
    DevicePaths, DomainId, GrantRef, Hypervisor, PageId, Port, Result, XenError, XenbusState,
};

use crate::netfront::FrontOp;

/// A completed block request as seen by the guest.
#[derive(Debug)]
pub struct BlkCompletion {
    /// Request id.
    pub id: u64,
    /// The operation that completed.
    pub op: u8,
    /// True on success.
    pub ok: bool,
    /// Read data (present for successful reads).
    pub data: Option<Vec<u8>>,
}

struct Pending {
    op: u8,
    ring: usize,                 // ring the request went out on
    pages: Vec<usize>,           // buffer pages, as pool indices
    len: usize,                  // bytes of I/O spread over `pages`
    indirect_idx: Option<usize>, // indirect descriptor page to recycle
}

/// One ring of the frontend: the shared ring and its event channel.
struct BfRing {
    evtchn: Port,
    shared: FrontEndpoint<BlkifRequest, BlkifResponse>,
}

/// The blkfront driver instance.
pub struct Blkfront {
    /// Guest domain.
    pub guest: DomainId,
    /// Driver domain.
    pub backend: DomainId,
    /// Device capacity in sectors (read from the backend's advertisement).
    pub sectors: u64,
    /// Backend supports indirect segments up to this many.
    pub max_indirect: usize,
    rings: Vec<BfRing>,
    /// Round-robin cursor for spreading submissions across rings.
    rr: usize,
    pool_pages: Vec<PageId>,
    pool_grefs: Vec<GrantRef>,
    pool_free: Vec<usize>,
    indirect_pages: Vec<PageId>,
    indirect_grefs: Vec<GrantRef>,
    indirect_free: Vec<usize>,
    next_id: u64,
    pending: HashMap<u64, Pending>,
    completions: Vec<BlkCompletion>,
    // Submit-path scratch, recycled so a warmed-up submit allocates
    // nothing: the request's segment list, and the page lists completed
    // requests hand back for the next `Pending` to take.
    scratch_segs: Vec<BlkifSegment>,
    spare_page_lists: Vec<Vec<usize>>,
}

/// Buffer pool size in pages: enough for a full ring of indirect requests.
const POOL_PAGES: usize = 1024;

impl Blkfront {
    /// Connects with the flat single-ring layout.
    pub fn connect(hv: &mut Hypervisor, paths: &DevicePaths) -> Result<Blkfront> {
        Blkfront::connect_with_queues(hv, paths, 1)
    }

    /// Connects, asking for up to `max_queues` rings: allocates each
    /// negotiated ring and the shared pools, publishes details, flips to
    /// `Initialised`.
    ///
    /// [`negotiate_front`] clamps `max_queues` against the backend's
    /// advertisement; with a single ring the flat key layout is kept, so
    /// a `max_queues = 1` connect is indistinguishable from [`connect`].
    ///
    /// The backend writes its property keys when it connects; the system
    /// layer re-reads them via [`Blkfront::read_features`] once the
    /// backend reports `Connected`.
    ///
    /// [`connect`]: Blkfront::connect
    pub fn connect_with_queues(
        hv: &mut Hypervisor,
        paths: &DevicePaths,
        max_queues: u32,
    ) -> Result<Blkfront> {
        let guest = paths.front;
        let backend = paths.back;
        let fe = paths.frontend();
        let nrings = negotiate_front(hv, paths, max_queues)?;
        let mut rings = Vec::with_capacity(nrings as usize);
        for k in 0..nrings {
            let shared = FrontEndpoint::alloc(hv, paths, RingKey::Blk)?;
            let evtchn = publish_queue(hv, paths, nrings, k, &[shared.ring_ref()])?;
            rings.push(BfRing { evtchn, shared });
        }
        let mut pool_pages = Vec::with_capacity(POOL_PAGES);
        let mut pool_grefs = Vec::with_capacity(POOL_PAGES);
        for _ in 0..POOL_PAGES {
            let p = hv.alloc_page(guest)?;
            pool_pages.push(p);
            pool_grefs.push(hv.grant_access(guest, backend, p, false)?);
        }
        // One indirect descriptor page per possible in-flight request.
        let mut indirect_pages = Vec::with_capacity(32);
        let mut indirect_grefs = Vec::with_capacity(32);
        for _ in 0..32 {
            let p = hv.alloc_page(guest)?;
            indirect_pages.push(p);
            indirect_grefs.push(hv.grant_access(guest, backend, p, true)?);
        }
        hv.store
            .write(guest, None, &format!("{fe}/protocol"), "x86_64-abi")?;
        hv.store
            .write(guest, None, &format!("{fe}/feature-persistent"), "1")?;
        hv.switch_state(guest, &paths.frontend_state(), XenbusState::Initialised)?;
        Ok(Blkfront {
            guest,
            backend,
            sectors: 0,
            max_indirect: 0,
            rings,
            rr: 0,
            pool_pages,
            pool_grefs,
            pool_free: (0..POOL_PAGES).rev().collect(),
            indirect_pages,
            indirect_grefs,
            indirect_free: (0..32).rev().collect(),
            next_id: 1,
            pending: HashMap::new(),
            completions: Vec::new(),
            scratch_segs: Vec::new(),
            spare_page_lists: Vec::new(),
        })
    }

    /// Number of negotiated rings.
    pub fn queue_count(&self) -> usize {
        self.rings.len()
    }

    /// Ring `q`'s guest-local event-channel port.
    pub fn port_of(&self, q: usize) -> Port {
        self.rings[q].evtchn
    }

    /// The ring a still-outstanding request went out on.
    pub fn ring_of(&self, id: u64) -> Option<usize> {
        self.pending.get(&id).map(|p| p.ring)
    }

    /// Reads the backend's advertised properties (sectors, indirect cap).
    pub fn read_features(&mut self, hv: &mut Hypervisor, paths: &DevicePaths) -> Result<()> {
        let be = paths.backend();
        self.sectors = read_key(hv, self.guest, &format!("{be}/sectors"))?;
        let cap = format!("{be}/feature-max-indirect-segments");
        self.max_indirect = read_key(hv, self.guest, &cap)?;
        Ok(())
    }

    /// Largest single request in bytes given negotiated features.
    pub fn max_request_bytes(&self) -> usize {
        let segs = if self.max_indirect > 0 {
            self.max_indirect
        } else {
            BLKIF_MAX_SEGMENTS_PER_REQUEST
        };
        segs * kite_xen::PAGE_SIZE
    }

    /// Picks the next ring round-robin, skipping full rings.
    fn pick_ring(&mut self) -> Result<usize> {
        let n = self.rings.len();
        for i in 0..n {
            let q = (self.rr + i) % n;
            if !self.rings[q].shared.ring.full() {
                self.rr = (q + 1) % n;
                return Ok(q);
            }
        }
        Err(XenError::RingFull)
    }

    /// Takes `n` buffer pages off the pool, listed in a recycled list.
    fn alloc_pages(&mut self, n: usize) -> Option<Vec<usize>> {
        let keep = self.pool_free.len().checked_sub(n)?;
        let mut idxs = self.spare_page_lists.pop().unwrap_or_default();
        idxs.extend(self.pool_free.drain(keep..).rev());
        Some(idxs)
    }

    /// Returns a request's buffer pages to the pool and its list to the
    /// spares.
    fn free_pages(&mut self, mut idxs: Vec<usize>) {
        self.pool_free.extend_from_slice(&idxs);
        idxs.clear();
        self.spare_page_lists.push(idxs);
    }

    /// Fills `scratch_segs` with the segments covering `len` bytes over
    /// the pages `idxs`.
    fn build_segments(&mut self, idxs: &[usize], len: usize) {
        self.scratch_segs.clear();
        let mut remaining = len.div_ceil(SECTOR_SIZE);
        for &i in idxs {
            let sectors = remaining.min(8);
            self.scratch_segs.push(BlkifSegment {
                gref: self.pool_grefs[i],
                first_sect: 0,
                last_sect: (sectors - 1) as u8,
            });
            remaining -= sectors;
        }
    }

    /// Submits a read of `len` bytes at `sector`. Returns the request id.
    ///
    /// `len` must be a multiple of 512 and at most
    /// [`Blkfront::max_request_bytes`]; callers split larger I/O.
    pub fn submit_read(
        &mut self,
        hv: &mut Hypervisor,
        sector: u64,
        len: usize,
    ) -> Result<(u64, FrontOp)> {
        self.submit_io(hv, BLKIF_OP_READ, sector, len, None)
    }

    /// Submits a write of `data` at `sector` (`data.len()` a multiple of
    /// 512, at most [`Blkfront::max_request_bytes`]).
    pub fn submit_write(
        &mut self,
        hv: &mut Hypervisor,
        sector: u64,
        data: &[u8],
    ) -> Result<(u64, FrontOp)> {
        self.submit_io(hv, BLKIF_OP_WRITE, sector, data.len(), Some(data))
    }

    /// Submits a cache flush barrier.
    pub fn submit_flush(&mut self, hv: &mut Hypervisor) -> Result<(u64, FrontOp)> {
        let q = self.pick_ring()?;
        let id = self.next_id;
        self.next_id += 1;
        let req = BlkifRequest::direct(BLKIF_OP_FLUSH_DISKCACHE, 0, id, 0, &[]);
        let pages = self.spare_page_lists.pop().unwrap_or_default();
        let rq = &mut self.rings[q];
        let page = hv.mem.page_mut(rq.shared.page)?;
        rq.shared.ring.push_request(page, &req)?;
        let notify = rq.shared.ring.push_requests(page);
        self.pending.insert(
            id,
            Pending {
                op: BLKIF_OP_FLUSH_DISKCACHE,
                ring: q,
                pages,
                len: 0,
                indirect_idx: None,
            },
        );
        Ok((
            id,
            FrontOp {
                notify,
                cost: Nanos::from_nanos(300),
            },
        ))
    }

    fn submit_io(
        &mut self,
        hv: &mut Hypervisor,
        op: u8,
        sector: u64,
        len: usize,
        data: Option<&[u8]>,
    ) -> Result<(u64, FrontOp)> {
        if len == 0 || !len.is_multiple_of(SECTOR_SIZE) || len > self.max_request_bytes() {
            return Err(XenError::Inval);
        }
        let q = self.pick_ring()?;
        let n_pages = len.div_ceil(kite_xen::PAGE_SIZE);
        let idxs = self.alloc_pages(n_pages).ok_or(XenError::RingFull)?;
        let mut cost = Nanos::from_nanos(400);
        // For writes, fill the buffer pages with real data.
        if let Some(data) = data {
            for (k, &i) in idxs.iter().enumerate() {
                let off = k * kite_xen::PAGE_SIZE;
                let n = (data.len() - off).min(kite_xen::PAGE_SIZE);
                hv.mem.page_mut(self.pool_pages[i])?[..n].copy_from_slice(&data[off..off + n]);
            }
            cost += Nanos::from_nanos(len as u64 / 16); // guest memcpy
        }
        self.build_segments(&idxs, len);
        let nsegs = self.scratch_segs.len();
        let id = self.next_id;
        self.next_id += 1;
        let mut indirect_idx = None;
        let req = if nsegs <= BLKIF_MAX_SEGMENTS_PER_REQUEST {
            BlkifRequest::direct(op, 0, id, sector, &self.scratch_segs)
        } else {
            if self.max_indirect == 0 || nsegs > self.max_indirect {
                self.free_pages(idxs);
                return Err(XenError::Inval);
            }
            let Some(ind) = self.indirect_free.pop() else {
                self.free_pages(idxs);
                return Err(XenError::RingFull);
            };
            indirect_idx = Some(ind);
            let page = hv.mem.page_mut(self.indirect_pages[ind])?;
            pack_indirect_segments(page, &self.scratch_segs);
            let grefs = [self.indirect_grefs[ind]];
            BlkifRequest::indirect(op, 0, id, sector, nsegs as u16, &grefs)
        };
        let rq = &mut self.rings[q];
        let page = hv.mem.page_mut(rq.shared.page)?;
        rq.shared.ring.push_request(page, &req)?;
        let notify = rq.shared.ring.push_requests(page);
        self.pending.insert(
            id,
            Pending {
                op,
                ring: q,
                pages: idxs,
                len,
                indirect_idx,
            },
        );
        Ok((id, FrontOp { notify, cost }))
    }

    /// The guest's interrupt handler: reaps completions from every ring.
    pub fn on_irq(&mut self, hv: &mut Hypervisor) -> Result<FrontOp> {
        let mut cost = Nanos::ZERO;
        for q in 0..self.rings.len() {
            loop {
                let rsp = {
                    let rq = &mut self.rings[q];
                    let page = hv.mem.page(rq.shared.page)?;
                    rq.shared.ring.consume_response(page)?
                };
                let Some(rsp) = rsp else { break };
                let Some(p) = self.pending.remove(&rsp.id) else {
                    continue;
                };
                let ok = rsp.status == BLKIF_RSP_OKAY;
                let data = if ok && p.op == BLKIF_OP_READ {
                    let mut buf = Vec::with_capacity(p.len);
                    for &i in &p.pages {
                        let n = (p.len - buf.len()).min(kite_xen::PAGE_SIZE);
                        buf.extend_from_slice(&hv.mem.page(self.pool_pages[i])?[..n]);
                    }
                    cost += Nanos::from_nanos(buf.len() as u64 / 16);
                    Some(buf)
                } else {
                    None
                };
                if let Some(ind) = p.indirect_idx {
                    self.indirect_free.push(ind);
                }
                self.free_pages(p.pages);
                self.completions.push(BlkCompletion {
                    id: rsp.id,
                    op: p.op,
                    ok,
                    data,
                });
                cost += Nanos::from_nanos(200);
            }
            let rq = &mut self.rings[q];
            let page = hv.mem.page_mut(rq.shared.page)?;
            rq.shared.ring.final_check_for_responses(page);
        }
        Ok(FrontOp {
            notify: false,
            cost,
        })
    }

    /// Takes all completions reaped so far.
    pub fn take_completions(&mut self) -> Vec<BlkCompletion> {
        std::mem::take(&mut self.completions)
    }

    /// Requests submitted and not yet completed.
    pub fn outstanding(&self) -> usize {
        self.pending.len()
    }
}
