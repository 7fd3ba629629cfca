//! Blkfront: the guest-side PV block driver.
//!
//! Builds direct or indirect requests according to the features the
//! backend advertised in xenstore, lends data and indirect-descriptor pages
//! from two `GrantPool`s (persistent from the frontend's perspective), and
//! reaps completions that answer a request in flight on its ring.
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
use kite_xen::{DevicePaths, DomainId, Hypervisor, Port, Result, XenError, XenbusState, PAGE_SIZE};

use crate::pool::GrantPool;
use crate::{overrun, record_refusal, FrontOp, Refusal, RspRejects};

/// A completed block request as seen by the guest.
#[derive(Debug)]
pub struct BlkCompletion {
    /// Request id.
    pub id: u64,
    /// True on success.
    pub ok: bool,
    /// Read data (present for successful reads).
    pub data: Option<Vec<u8>>,
}

/// Data pages: enough for a full ring of indirect requests.
const POOL_PAGES: usize = 1024;
/// Indirect-descriptor pages, one per indirect request in flight.
const INDIRECT_PAGES: usize = 32;
/// Segments per request at most, whatever the backend advertises (Linux
/// blkfront's default): one request fits one descriptor page, and the pool.
const MAX_SEGMENTS: usize = 32;

struct Pending {
    op: u8,
    ring: usize, // ring the request went out on
    len: usize,  // bytes of I/O, over the first `len / PAGE_SIZE` (rounded up) pages
    pages: [u16; MAX_SEGMENTS],
    indirect: Option<u16>,
}

impl Pending {
    fn pages(&self) -> &[u16] {
        &self.pages[..self.len.div_ceil(PAGE_SIZE)]
    }
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
    /// Device capacity in sectors (read from the backend's advertisement).
    pub sectors: u64,
    /// Indirect segments per request, as advertised up to 32.
    pub max_indirect: usize,
    rings: Vec<BfRing>,
    /// Round-robin cursor for spreading submissions across rings.
    rr: usize,
    data: GrantPool,
    indirect: GrantPool,
    next_id: u64,
    pending: HashMap<u64, Pending>,
    completions: Vec<BlkCompletion>,
    rejects: RspRejects,
    /// A ring was corrupted: nothing is reaped or submitted any more
    /// (Linux's `BLKIF_STATE_ERROR`).
    broken: bool,
}

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
    /// advertisement; with a single ring the flat key layout is kept, so a
    /// `max_queues = 1` connect is indistinguishable from [`Blkfront::connect`].
    ///
    /// The backend writes its property keys when it connects; the system
    /// layer re-reads them via [`Blkfront::read_features`] once the
    /// backend reports `Connected`.
    pub fn connect_with_queues(
        hv: &mut Hypervisor,
        paths: &DevicePaths,
        max_queues: u32,
    ) -> Result<Blkfront> {
        let guest = paths.front;
        let fe = paths.frontend();
        let nrings = negotiate_front(hv, paths, max_queues)?;
        let mut rings = Vec::with_capacity(nrings as usize);
        for k in 0..nrings {
            let shared = FrontEndpoint::alloc(hv, paths, RingKey::Blk)?;
            let evtchn = publish_queue(hv, paths, nrings, k, &[shared.ring_ref()])?;
            rings.push(BfRing { evtchn, shared });
        }
        let data = GrantPool::new(hv, paths, POOL_PAGES, false)?;
        let indirect = GrantPool::new(hv, paths, INDIRECT_PAGES, true)?;
        hv.store
            .write(guest, None, &format!("{fe}/protocol"), "x86_64-abi")?;
        hv.store
            .write(guest, None, &format!("{fe}/feature-persistent"), "1")?;
        hv.switch_state(guest, &paths.frontend_state(), XenbusState::Initialised)?;
        Ok(Blkfront {
            guest,
            sectors: 0,
            max_indirect: 0,
            rings,
            rr: 0,
            data,
            indirect,
            next_id: 1,
            pending: HashMap::new(),
            completions: Vec::new(),
            rejects: RspRejects::default(),
            broken: false,
        })
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
        self.max_indirect = read_key::<usize>(hv, self.guest, &cap)?.min(MAX_SEGMENTS);
        Ok(())
    }

    /// Largest single request in bytes given negotiated features.
    pub fn max_request_bytes(&self) -> usize {
        let segs = if self.max_indirect > 0 {
            self.max_indirect
        } else {
            BLKIF_MAX_SEGMENTS_PER_REQUEST
        };
        segs * PAGE_SIZE
    }

    /// Picks the next ring round-robin, skipping full rings; a broken
    /// device takes nothing.
    fn pick_ring(&mut self) -> Result<usize> {
        if self.broken {
            return Err(XenError::RingCorrupt);
        }
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
        self.submit_io(hv, BLKIF_OP_FLUSH_DISKCACHE, 0, 0, None)
    }

    fn submit_io(
        &mut self,
        hv: &mut Hypervisor,
        op: u8,
        sector: u64,
        len: usize,
        data: Option<&[u8]>,
    ) -> Result<(u64, FrontOp)> {
        // A flush moves no data; everything else moves some.
        let flush = op == BLKIF_OP_FLUSH_DISKCACHE;
        if (len == 0) != flush || !len.is_multiple_of(SECTOR_SIZE) || len > self.max_request_bytes()
        {
            return Err(XenError::Inval);
        }
        let ring = self.pick_ring()?;
        let n_pages = len.div_ceil(PAGE_SIZE);
        if self.data.available() < n_pages {
            return Err(XenError::RingFull);
        }
        let mut p = Pending {
            op,
            ring,
            len,
            pages: [0; MAX_SEGMENTS],
            indirect: None,
        };
        let mut segs = [BlkifSegment::ZERO; MAX_SEGMENTS];
        let mut sectors = len / SECTOR_SIZE;
        for (k, (id, seg)) in p.pages.iter_mut().zip(&mut segs).take(n_pages).enumerate() {
            *id = self.data.alloc().expect("checked headroom");
            // For writes, fill the buffer pages with real data.
            if let Some(data) = data {
                let chunk = &data[k * PAGE_SIZE..len.min((k + 1) * PAGE_SIZE)];
                hv.mem.page_mut(self.data.page(*id))?[..chunk.len()].copy_from_slice(chunk);
            }
            let n = sectors.min(PAGE_SIZE / SECTOR_SIZE);
            *seg = BlkifSegment {
                gref: self.data.gref(*id),
                first_sect: 0,
                last_sect: (n - 1) as u8,
            };
            sectors -= n;
        }
        let mut cost = Nanos::from_nanos(if flush { 300 } else { 400 });
        if data.is_some() {
            cost += Nanos::from_nanos(len as u64 / 16); // guest memcpy
        }
        let segs = &segs[..n_pages];
        let id = self.next_id;
        self.next_id += 1;
        let req = if n_pages <= BLKIF_MAX_SEGMENTS_PER_REQUEST {
            BlkifRequest::direct(op, 0, id, sector, segs)
        } else {
            // `max_request_bytes` lets an indirect request through only
            // with indirect segments negotiated, and never past the cap.
            let Some(ind) = self.indirect.alloc() else {
                for &i in p.pages() {
                    self.data.release(i).expect("allocated above");
                }
                return Err(XenError::RingFull);
            };
            p.indirect = Some(ind);
            pack_indirect_segments(hv.mem.page_mut(self.indirect.page(ind))?, segs);
            let grefs = [self.indirect.gref(ind)];
            BlkifRequest::indirect(op, 0, id, sector, n_pages as u16, &grefs)
        };
        let rq = &mut self.rings[ring];
        let page = hv.mem.page_mut(rq.shared.page)?;
        rq.shared.ring.push_request(page, &req)?;
        let notify = rq.shared.ring.push_requests(page);
        self.pending.insert(id, p);
        Ok((id, FrontOp { notify, cost }))
    }

    fn refuse(&mut self, hv: &mut Hypervisor, q: usize, why: Refusal, id: u64) {
        let rj = &mut self.rejects;
        record_refusal(hv, self.guest, rj, "blkfront", q as u16, why, id);
    }

    /// The guest's interrupt handler: reaps completions from every ring.
    /// A response is used only if its id is in flight on that ring with
    /// that operation; a ring whose producer index runs more than a ring
    /// ahead breaks the device.
    pub fn on_irq(&mut self, hv: &mut Hypervisor) -> Result<FrontOp> {
        let mut cost = Nanos::ZERO;
        for q in 0..self.rings.len() {
            if self.broken {
                break;
            }
            if let Some(prod) = overrun(hv, &self.rings[q].shared)? {
                self.broken = true;
                self.refuse(hv, q, Refusal::RingCorrupt, prod);
                break;
            }
            loop {
                let rq = &mut self.rings[q].shared;
                let Some(rsp) = rq.ring.consume_response(hv.mem.page(rq.page)?)? else {
                    break;
                };
                let why = match self.pending.get(&rsp.id) {
                    None => Some(Refusal::UnknownId),
                    Some(p) if p.ring != q => Some(Refusal::WrongRing),
                    Some(p) if p.op != rsp.operation => Some(Refusal::BadOp),
                    Some(_) => None,
                };
                if let Some(why) = why {
                    self.refuse(hv, q, why, rsp.id);
                    continue;
                }
                let p = self.pending.remove(&rsp.id).expect("checked in flight");
                let ok = rsp.status == BLKIF_RSP_OKAY;
                let data = if ok && p.op == BLKIF_OP_READ {
                    let mut buf = Vec::with_capacity(p.len);
                    for &i in p.pages() {
                        let n = (p.len - buf.len()).min(PAGE_SIZE);
                        buf.extend_from_slice(&hv.mem.page(self.data.page(i))?[..n]);
                    }
                    cost += Nanos::from_nanos(buf.len() as u64 / 16);
                    Some(buf)
                } else {
                    None
                };
                if let Some(i) = p.indirect {
                    self.indirect.release(i).expect("lent with the request");
                }
                for &i in p.pages() {
                    self.data.release(i).expect("lent with the request");
                }
                let id = rsp.id;
                self.completions.push(BlkCompletion { id, ok, data });
                cost += Nanos::from_nanos(200);
            }
            let rq = &mut self.rings[q].shared;
            rq.ring.final_check_for_responses(hv.mem.page_mut(rq.page)?);
        }
        let notify = false;
        Ok(FrontOp { notify, cost })
    }

    /// Takes all completions reaped so far.
    pub fn take_completions(&mut self) -> Vec<BlkCompletion> {
        std::mem::take(&mut self.completions)
    }

    /// Backend-written responses refused so far.
    pub fn rejects(&self) -> RspRejects {
        self.rejects
    }

    /// Data and indirect pages out with the backend, after checking both
    /// pools are sound (every page free or out, once).
    pub fn pools_lent(&self) -> (usize, usize) {
        (self.data.assert_sound(), self.indirect.assert_sound())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{machine, reject_events};
    use kite_xen::blkif::unpack_indirect_segments;
    use kite_xen::ring::sring;
    use kite_xen::xenbus::{attach_back, BackEndpoint};
    use kite_xen::{DeviceKind, GrantRef};

    /// Size of the raw backend's disk.
    const DISK_SECTORS: usize = 4096;

    /// The backend end of a blkfront's rings, driven by hand so tests can
    /// write responses no real blkback would: blkfront's twin of
    /// netfront's `RawBack`. [`RawBlkBack::serve`] is the honest backend,
    /// over a disk held in memory.
    struct RawBlkBack {
        back: DomainId,
        front: DomainId,
        rings: Vec<BackEndpoint<BlkifRequest, BlkifResponse>>,
        disk: Vec<u8>,
    }

    impl RawBlkBack {
        fn attach(hv: &mut Hypervisor, paths: &DevicePaths) -> RawBlkBack {
            let rings = attach_back(hv, paths, |hv, a| {
                (0..a.queues())
                    .map(|k| a.ring(hv, k, RingKey::Blk))
                    .collect()
            })
            .unwrap();
            RawBlkBack {
                back: paths.back,
                front: paths.front,
                rings,
                disk: vec![0; DISK_SECTORS * SECTOR_SIZE],
            }
        }

        /// Consumes every request ring `q` published so far.
        fn requests(&mut self, hv: &Hypervisor, q: usize) -> Vec<BlkifRequest> {
            let ep = &mut self.rings[q];
            let page = hv.mem.page(ep.page).unwrap();
            std::iter::from_fn(|| ep.ring.consume_request(page).unwrap()).collect()
        }

        /// Publishes `rsps` on ring `q`.
        fn answer(&mut self, hv: &mut Hypervisor, q: usize, rsps: &[BlkifResponse]) {
            let ep = &mut self.rings[q];
            let page = hv.mem.page_mut(ep.page).unwrap();
            for rsp in rsps {
                ep.ring.push_response(page, rsp).unwrap();
            }
            ep.ring.push_responses(page);
        }

        /// Runs `f` over the bytes `off..off + len` of the guest page
        /// `gref` names, through a grant map (`readonly` or writable).
        fn with_page(
            &self,
            hv: &mut Hypervisor,
            readonly: bool,
            (gref, off, len): (GrantRef, usize, usize),
            f: impl FnOnce(&mut [u8]),
        ) {
            let (m, _) = hv.map_grant(self.back, self.front, gref, readonly).unwrap();
            f(&mut hv.mem.page_mut(m.page).unwrap()[off..off + len]);
            hv.unmap_grant(self.back, m.handle).unwrap();
        }

        /// Moves `req`'s bytes between the guest's pages and the disk, and
        /// returns the response an honest backend writes.
        fn serve(&mut self, hv: &mut Hypervisor, req: &BlkifRequest) -> BlkifResponse {
            let mut buf = [BlkifSegment::ZERO; MAX_SEGMENTS];
            let segs = match req {
                BlkifRequest::Direct {
                    nr_segments,
                    segments,
                    ..
                } => &segments[..*nr_segments as usize],
                BlkifRequest::Indirect {
                    nr_segments,
                    indirect_grefs,
                    ..
                } => {
                    let segs = &mut buf[..*nr_segments as usize];
                    let descriptors = (indirect_grefs[0], 0, PAGE_SIZE);
                    self.with_page(hv, true, descriptors, |p| unpack_indirect_segments(p, segs));
                    segs
                }
            };
            let mut at = req.sector() as usize * SECTOR_SIZE;
            let write = req.io_op() == BLKIF_OP_WRITE;
            for seg in segs {
                let (off, len) = (seg.first_sect as usize * SECTOR_SIZE, seg.len());
                let mut disk = std::mem::take(&mut self.disk);
                self.with_page(hv, write, (seg.gref, off, len), |page| {
                    let disk = &mut disk[at..at + len];
                    if write {
                        disk.copy_from_slice(page);
                    } else {
                        page.copy_from_slice(disk);
                    }
                });
                self.disk = disk;
                at += len;
            }
            ok(req.id(), req.io_op())
        }

        /// Serves `reqs` and answers them on ring `q`, in order.
        fn serve_on(&mut self, hv: &mut Hypervisor, q: usize, reqs: &[BlkifRequest]) {
            let rsps: Vec<_> = reqs.iter().map(|r| self.serve(hv, r)).collect();
            self.answer(hv, q, &rsps);
        }
    }

    fn ok(id: u64, operation: u8) -> BlkifResponse {
        BlkifResponse {
            id,
            operation,
            status: BLKIF_RSP_OKAY,
        }
    }

    /// `len` bytes no other `n` produces at the same offsets.
    fn payload(n: usize, len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 7 + n * 13) as u8).collect()
    }

    /// A blkfront of up to `rings` rings connected to a [`RawBlkBack`]
    /// that advertises two rings and `max_indirect` segments.
    fn connected(rings: u32, max_indirect: &str) -> (Hypervisor, Blkfront, RawBlkBack) {
        let sectors = DISK_SECTORS.to_string();
        let keys = [
            ("sectors", sectors.as_str()),
            ("feature-max-indirect-segments", max_indirect),
            ("multi-queue-max-queues", "2"),
        ];
        let (mut hv, paths) = machine(DeviceKind::Vbd, &keys);
        hv.trace.enable(256);
        let mut bf = Blkfront::connect_with_queues(&mut hv, &paths, rings).unwrap();
        let be = RawBlkBack::attach(&mut hv, &paths);
        bf.read_features(&mut hv, &paths).unwrap();
        (hv, bf, be)
    }

    /// Every field a backend writes is checked: an id never sent, one
    /// answered twice, one answered on the other ring and one answered
    /// with the wrong operation are refused, counted and traced, and
    /// complete nothing; valid answers out of order complete, and later
    /// I/O, indirect requests included, carries its own bytes.
    #[test]
    fn hostile_responses_are_refused_and_counted() {
        let (mut hv, mut bf, mut be) = connected(2, "32");
        // Six 8 KiB writes, round-robin: ids 1, 3, 5 on ring 0 and 2, 4, 6
        // on ring 1.
        let data: Vec<Vec<u8>> = (0..6).map(|n| payload(n, 8192)).collect();
        for (n, d) in data.iter().enumerate() {
            let (id, _) = bf.submit_write(&mut hv, 16 * n as u64, d).unwrap();
            assert_eq!((id, bf.ring_of(id)), (n as u64 + 1, Some(n % 2)));
        }
        let reqs = [be.requests(&hv, 0), be.requests(&hv, 1)];
        let (w, r) = (BLKIF_OP_WRITE, BLKIF_OP_READ);
        let five = be.serve(&mut hv, &reqs[0][2]);
        let six = be.serve(&mut hv, &reqs[1][2]);
        be.answer(&mut hv, 0, &[ok(99, w), five, ok(5, w)]);
        be.answer(&mut hv, 1, &[ok(3, w), ok(2, r), six]);
        bf.on_irq(&mut hv).unwrap();
        let want = RspRejects {
            unknown_id: 2,
            wrong_ring: 1,
            bad_op: 1,
            ..RspRejects::default()
        };
        assert_eq!(bf.rejects(), want);
        let events = [
            ("blkfront", 0, "unknown_id", 99),
            ("blkfront", 0, "unknown_id", 5),
            ("blkfront", 1, "wrong_ring", 3),
            ("blkfront", 1, "bad_op", 2),
        ];
        assert_eq!(reject_events(&hv), events);
        let done: Vec<u64> = bf.take_completions().iter().map(|c| c.id).collect();
        assert_eq!(done, [5, 6], "a refused response completed a request");
        assert_eq!(bf.pools_lent(), (8, 0));

        // Later I/O: a 128 KiB write and its read-back each go out as one
        // indirect request, and both reads return their own bytes. Each
        // refused response took the slot of an answer ids 1 to 4 were
        // owed, so those four stay in flight, their pages lent.
        let big = payload(9, 128 * 1024);
        bf.submit_write(&mut hv, 1024, &big).unwrap(); // ring 0, id 7
        bf.submit_read(&mut hv, 1024, big.len()).unwrap(); // ring 1, id 8
        bf.submit_read(&mut hv, 16 * 4, 8192).unwrap(); // ring 0, id 9
        assert_eq!(bf.pools_lent(), (8 + 66, 2));
        let reqs = [be.requests(&hv, 0), be.requests(&hv, 1)];
        let indirect = |r: &BlkifRequest| matches!(r, BlkifRequest::Indirect { .. });
        assert!(indirect(&reqs[0][0]) && indirect(&reqs[1][0]));
        be.serve_on(&mut hv, 0, &reqs[0]);
        be.serve_on(&mut hv, 1, &reqs[1]);
        bf.on_irq(&mut hv).unwrap();
        let mut done = bf.take_completions();
        done.sort_by_key(|c| c.id);
        let got: Vec<_> = done.iter().map(|c| (c.id, c.data.as_deref())).collect();
        assert_eq!(
            got,
            [(7, None), (8, Some(&big[..])), (9, Some(&data[4][..]))]
        );
        assert!(done.iter().all(|c| c.ok));
        assert_eq!(bf.rejects(), want);
        assert_eq!(bf.pools_lent(), (8, 0));
    }

    /// A backend that moves a ring's `rsp_prod` past the requests in
    /// flight breaks the device: refused, counted and traced once, and
    /// from then on nothing is reaped or submitted, on any ring.
    #[test]
    fn a_response_producer_jump_breaks_the_device() {
        // One response more than ring 1 has in flight, and a ring ahead.
        for jump in [2, 100_000] {
            let (mut hv, mut bf, mut be) = connected(2, "32");
            bf.submit_write(&mut hv, 0, &payload(0, 4096)).unwrap(); // ring 0
            bf.submit_write(&mut hv, 8, &payload(1, 4096)).unwrap(); // ring 1
            let reqs = [be.requests(&hv, 0), be.requests(&hv, 1)];
            be.serve_on(&mut hv, 0, &reqs[0]);
            be.serve_on(&mut hv, 1, &reqs[1]);
            let page = hv.mem.page_mut(be.rings[1].page).unwrap();
            sring::set_rsp_prod(page, jump);
            for _ in 0..2 {
                bf.on_irq(&mut hv).unwrap();
            }
            let want = RspRejects {
                ring_corrupt: 1,
                ..RspRejects::default()
            };
            assert_eq!(bf.rejects(), want, "{jump}");
            let events = [("blkfront", 1, "ring_corrupt", jump)];
            assert_eq!(reject_events(&hv), events);
            // Ring 0 was reaped before ring 1 broke the device.
            let done: Vec<u64> = bf.take_completions().iter().map(|c| c.id).collect();
            assert_eq!(done, [1], "{jump}");
            for refused in [
                bf.submit_read(&mut hv, 0, 4096),
                bf.submit_write(&mut hv, 0, &payload(2, 512)),
                bf.submit_flush(&mut hv),
            ] {
                assert_eq!(refused.err(), Some(XenError::RingCorrupt), "{jump}");
            }
            assert!(be.requests(&hv, 0).is_empty() && be.requests(&hv, 1).is_empty());
            assert_eq!(
                bf.pools_lent(),
                (1, 0),
                "{jump}: ring 1's write is still out"
            );
        }
    }

    /// The indirect-segment cap is the backend's advertisement clamped to
    /// 32: one request always fits one descriptor page and the pool.
    #[test]
    fn an_indirect_cap_past_32_is_clamped() {
        for (advertised, segs) in [("0", 11), ("32", 32), ("4096", 32)] {
            let (mut hv, mut bf, mut be) = connected(1, advertised);
            assert_eq!(bf.max_request_bytes(), segs * PAGE_SIZE, "{advertised}");
            let past = bf.submit_read(&mut hv, 0, (segs + 1) * PAGE_SIZE);
            assert_eq!(past.err(), Some(XenError::Inval), "{advertised}");
            let data = payload(3, segs * PAGE_SIZE);
            bf.submit_write(&mut hv, 64, &data).unwrap();
            bf.submit_read(&mut hv, 64, data.len()).unwrap();
            let reqs = be.requests(&hv, 0);
            be.serve_on(&mut hv, 0, &reqs);
            bf.on_irq(&mut hv).unwrap();
            let done = bf.take_completions();
            assert_eq!(done[1].data.as_deref(), Some(&data[..]), "{advertised}");
        }
    }

    /// A flush moves no data and takes no page.
    #[test]
    fn a_flush_is_answered_with_its_own_operation() {
        let (mut hv, mut bf, mut be) = connected(1, "32");
        let (id, op) = bf.submit_flush(&mut hv).unwrap();
        assert_eq!(op.cost, Nanos::from_nanos(300));
        assert_eq!(bf.pools_lent(), (0, 0));
        let reqs = be.requests(&hv, 0);
        assert_eq!(
            (reqs[0].id(), reqs[0].io_op()),
            (id, BLKIF_OP_FLUSH_DISKCACHE)
        );
        be.answer(&mut hv, 0, &[ok(id, BLKIF_OP_FLUSH_DISKCACHE)]);
        bf.on_irq(&mut hv).unwrap();
        let done = bf.take_completions();
        assert_eq!((done[0].id, done[0].ok), (id, true));
        assert_eq!(bf.submit_read(&mut hv, 0, 0).err(), Some(XenError::Inval));
    }
}
