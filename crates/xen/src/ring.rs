//! The Xen shared I/O ring protocol (`xen/include/public/io/ring.h`).
//!
//! A ring lives in a single granted 4 KiB page shared between a frontend
//! (request producer / response consumer) and a backend (request consumer /
//! response producer). Requests and responses share the same slot array —
//! a slot holding a served request is reused for its response.
//!
//! The shared header carries four free-running `u32` indices:
//!
//! ```text
//! offset 0  req_prod   — frontend publishes requests up to here
//! offset 4  req_event  — backend asks to be notified when req_prod passes this
//! offset 8  rsp_prod   — backend publishes responses up to here
//! offset 12 rsp_event  — frontend asks to be notified when rsp_prod passes this
//! offset 64 slots[]    — power-of-two request/response union slots
//! ```
//!
//! The `*_event` fields implement *notification suppression*: a producer
//! only sends an event-channel notification when the consumer declared
//! interest past the previous producer index — exactly the
//! `RING_PUSH_*_AND_CHECK_NOTIFY` / `RING_FINAL_CHECK_FOR_*` macro dance.
//! Getting this right matters for performance fidelity: it is what lets
//! batched rings avoid a hypercall per packet.

use core::marker::PhantomData;

use crate::error::{Result, XenError};
use crate::mem::PAGE_SIZE;

/// Byte offset of the first slot in the shared page.
pub const RING_HEADER_SIZE: usize = 64;

/// A fixed-size entry serializable into a ring slot.
pub trait RingEntry: Clone {
    /// Serialized size in bytes.
    const SIZE: usize;
    /// Writes the entry into `buf` (`buf.len() == Self::SIZE`).
    ///
    /// Must define **every** byte of `buf`, padding included: the rings
    /// encode straight into the shared slot, which still holds whatever
    /// the previous request or response left there, and a byte this
    /// leaves alone is a stale byte the peer domain can read.
    fn write_to(&self, buf: &mut [u8]);
    /// Reads an entry back from `buf`.
    fn read_from(buf: &[u8]) -> Self;
}

/// Number of slots for a ring whose slots must hold both `Req` and `Rsp`.
///
/// Mirrors `__CONST_RING_SIZE`: the largest power of two that fits.
pub const fn ring_size(req_size: usize, rsp_size: usize) -> u32 {
    let slot = if req_size > rsp_size {
        req_size
    } else {
        rsp_size
    };
    let max = (PAGE_SIZE - RING_HEADER_SIZE) / slot;
    // Largest power of two <= max.
    let mut n = 1u32;
    while (n as usize) * 2 <= max {
        n *= 2;
    }
    n
}

const fn slot_bytes(req_size: usize, rsp_size: usize) -> usize {
    if req_size > rsp_size {
        req_size
    } else {
        rsp_size
    }
}

fn read_u32(page: &[u8], off: usize) -> u32 {
    u32::from_le_bytes([page[off], page[off + 1], page[off + 2], page[off + 3]])
}

fn write_u32(page: &mut [u8], off: usize, v: u32) {
    page[off..off + 4].copy_from_slice(&v.to_le_bytes());
}

/// Raw accessors for the shared header (used by both halves and by tests
/// that deliberately corrupt rings).
pub mod sring {
    use super::{read_u32, write_u32};

    /// Reads `req_prod`.
    pub fn req_prod(page: &[u8]) -> u32 {
        read_u32(page, 0)
    }
    /// Writes `req_prod`.
    pub fn set_req_prod(page: &mut [u8], v: u32) {
        write_u32(page, 0, v)
    }
    /// Reads `req_event`.
    pub fn req_event(page: &[u8]) -> u32 {
        read_u32(page, 4)
    }
    /// Writes `req_event`.
    pub fn set_req_event(page: &mut [u8], v: u32) {
        write_u32(page, 4, v)
    }
    /// Reads `rsp_prod`.
    pub fn rsp_prod(page: &[u8]) -> u32 {
        read_u32(page, 8)
    }
    /// Writes `rsp_prod`.
    pub fn set_rsp_prod(page: &mut [u8], v: u32) {
        write_u32(page, 8, v)
    }
    /// Reads `rsp_event`.
    pub fn rsp_event(page: &[u8]) -> u32 {
        read_u32(page, 12)
    }
    /// Writes `rsp_event`.
    pub fn set_rsp_event(page: &mut [u8], v: u32) {
        write_u32(page, 12, v)
    }

    /// `SHARED_RING_INIT`: zero producer indices, arm both event fields.
    pub fn init(page: &mut [u8]) {
        set_req_prod(page, 0);
        set_rsp_prod(page, 0);
        set_req_event(page, 1);
        set_rsp_event(page, 1);
    }
}

fn slot_range(idx: u32, size: u32, slot: usize) -> core::ops::Range<usize> {
    let i = (idx & (size - 1)) as usize;
    let start = RING_HEADER_SIZE + i * slot;
    start..start + slot
}

/// Frontend half: produces requests, consumes responses.
#[derive(Clone, Debug)]
pub struct FrontRing<Req, Rsp> {
    req_prod_pvt: u32,
    rsp_cons: u32,
    size: u32,
    _marker: PhantomData<(Req, Rsp)>,
}

impl<Req: RingEntry, Rsp: RingEntry> Default for FrontRing<Req, Rsp> {
    fn default() -> Self {
        FrontRing {
            req_prod_pvt: 0,
            rsp_cons: 0,
            size: ring_size(Req::SIZE, Rsp::SIZE),
            _marker: PhantomData,
        }
    }
}

impl<Req: RingEntry, Rsp: RingEntry> FrontRing<Req, Rsp> {
    /// `FRONT_RING_INIT` — also initializes the shared page.
    pub fn init(page: &mut [u8]) -> Self {
        sring::init(page);
        Self::default()
    }

    /// Number of slots in the ring.
    pub fn size(&self) -> u32 {
        self.size
    }

    /// Free request slots (`RING_FREE_REQUESTS`).
    pub fn free_requests(&self) -> u32 {
        self.size - (self.req_prod_pvt.wrapping_sub(self.rsp_cons))
    }

    /// True when the ring is full (`RING_FULL`).
    pub fn full(&self) -> bool {
        self.free_requests() == 0
    }

    /// Stages a request at the private producer index.
    pub fn push_request(&mut self, page: &mut [u8], req: &Req) -> Result<()> {
        if self.full() {
            return Err(XenError::RingFull);
        }
        let r = slot_range(
            self.req_prod_pvt,
            self.size,
            slot_bytes(Req::SIZE, Rsp::SIZE),
        );
        req.write_to(&mut page[r.start..r.start + Req::SIZE]);
        self.req_prod_pvt = self.req_prod_pvt.wrapping_add(1);
        Ok(())
    }

    /// `RING_PUSH_REQUESTS_AND_CHECK_NOTIFY`: publishes staged requests.
    ///
    /// Returns `true` when the backend must be notified via the event
    /// channel (it armed `req_event` past the old producer index).
    pub fn push_requests(&mut self, page: &mut [u8]) -> bool {
        let old = sring::req_prod(page);
        let new = self.req_prod_pvt;
        sring::set_req_prod(page, new);
        let req_event = sring::req_event(page);
        new.wrapping_sub(req_event) < new.wrapping_sub(old)
    }

    /// Unconsumed responses available (`RING_HAS_UNCONSUMED_RESPONSES`).
    pub fn unconsumed_responses(&self, page: &[u8]) -> u32 {
        sring::rsp_prod(page).wrapping_sub(self.rsp_cons)
    }

    /// Consumes the next response, if any.
    pub fn consume_response(&mut self, page: &[u8]) -> Result<Option<Rsp>> {
        let avail = self.unconsumed_responses(page);
        if avail == 0 {
            return Ok(None);
        }
        if avail > self.size {
            return Err(XenError::RingCorrupt);
        }
        let r = slot_range(self.rsp_cons, self.size, slot_bytes(Req::SIZE, Rsp::SIZE));
        let rsp = Rsp::read_from(&page[r.start..r.start + Rsp::SIZE]);
        self.rsp_cons = self.rsp_cons.wrapping_add(1);
        Ok(Some(rsp))
    }

    /// `RING_FINAL_CHECK_FOR_RESPONSES`: arms `rsp_event` and re-checks.
    ///
    /// Returns `true` when responses slipped in between the last consume and
    /// arming — the caller must loop again instead of sleeping.
    pub fn final_check_for_responses(&mut self, page: &mut [u8]) -> bool {
        if self.unconsumed_responses(page) > 0 {
            return true;
        }
        sring::set_rsp_event(page, self.rsp_cons.wrapping_add(1));
        self.unconsumed_responses(page) > 0
    }
}

/// Backend half: consumes requests, produces responses.
#[derive(Clone, Debug)]
pub struct BackRing<Req, Rsp> {
    rsp_prod_pvt: u32,
    req_cons: u32,
    size: u32,
    _marker: PhantomData<(Req, Rsp)>,
}

impl<Req: RingEntry, Rsp: RingEntry> Default for BackRing<Req, Rsp> {
    fn default() -> Self {
        BackRing {
            rsp_prod_pvt: 0,
            req_cons: 0,
            size: ring_size(Req::SIZE, Rsp::SIZE),
            _marker: PhantomData,
        }
    }
}

impl<Req: RingEntry, Rsp: RingEntry> BackRing<Req, Rsp> {
    /// `BACK_RING_INIT` — attaches to an already-initialized shared page.
    pub fn attach() -> Self {
        Self::default()
    }

    /// Number of slots in the ring.
    pub fn size(&self) -> u32 {
        self.size
    }

    /// Unconsumed requests available (`RING_HAS_UNCONSUMED_REQUESTS`).
    pub fn unconsumed_requests(&self, page: &[u8]) -> u32 {
        sring::req_prod(page).wrapping_sub(self.req_cons)
    }

    /// The free-running request-consumer index — the backend's progress
    /// watermark. Health monitors compare successive samples: a ring with
    /// unconsumed requests whose `req_cons` has not moved is stalled.
    pub fn req_cons(&self) -> u32 {
        self.req_cons
    }

    /// Consumes the next request, if any.
    pub fn consume_request(&mut self, page: &[u8]) -> Result<Option<Req>> {
        let avail = self.unconsumed_requests(page);
        if avail == 0 {
            return Ok(None);
        }
        if avail > self.size {
            return Err(XenError::RingCorrupt);
        }
        let r = slot_range(self.req_cons, self.size, slot_bytes(Req::SIZE, Rsp::SIZE));
        let req = Req::read_from(&page[r.start..r.start + Req::SIZE]);
        self.req_cons = self.req_cons.wrapping_add(1);
        Ok(Some(req))
    }

    /// Free response slots: responses may only fill slots whose requests
    /// were already consumed.
    pub fn free_responses(&self) -> u32 {
        self.req_cons.wrapping_sub(self.rsp_prod_pvt)
    }

    /// Stages a response at the private producer index.
    pub fn push_response(&mut self, page: &mut [u8], rsp: &Rsp) -> Result<()> {
        if self.free_responses() == 0 {
            return Err(XenError::RingFull);
        }
        let r = slot_range(
            self.rsp_prod_pvt,
            self.size,
            slot_bytes(Req::SIZE, Rsp::SIZE),
        );
        rsp.write_to(&mut page[r.start..r.start + Rsp::SIZE]);
        self.rsp_prod_pvt = self.rsp_prod_pvt.wrapping_add(1);
        Ok(())
    }

    /// `RING_PUSH_RESPONSES_AND_CHECK_NOTIFY`.
    pub fn push_responses(&mut self, page: &mut [u8]) -> bool {
        let old = sring::rsp_prod(page);
        let new = self.rsp_prod_pvt;
        sring::set_rsp_prod(page, new);
        let rsp_event = sring::rsp_event(page);
        new.wrapping_sub(rsp_event) < new.wrapping_sub(old)
    }

    /// `RING_FINAL_CHECK_FOR_REQUESTS`: arms `req_event` and re-checks.
    pub fn final_check_for_requests(&mut self, page: &mut [u8]) -> bool {
        if self.unconsumed_requests(page) > 0 {
            return true;
        }
        sring::set_req_event(page, self.req_cons.wrapping_add(1));
        self.unconsumed_requests(page) > 0
    }
}

/// Asserts `write_to`'s contract: encoding over a poisoned slot leaves
/// the same bytes as encoding over a zeroed one.
#[cfg(test)]
pub(crate) fn assert_defines_every_byte<E: RingEntry>(e: &E) {
    let (mut zeroed, mut poisoned) = (vec![0u8; E::SIZE], vec![0xffu8; E::SIZE]);
    e.write_to(&mut zeroed);
    e.write_to(&mut poisoned);
    assert_eq!(zeroed, poisoned, "write_to left a slot byte undefined");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy 8-byte entry for protocol tests.
    #[derive(Clone, Debug, PartialEq, Eq)]
    struct E(u64);

    impl RingEntry for E {
        const SIZE: usize = 8;
        fn write_to(&self, buf: &mut [u8]) {
            buf.copy_from_slice(&self.0.to_le_bytes());
        }
        fn read_from(buf: &[u8]) -> Self {
            E(u64::from_le_bytes(buf[..8].try_into().unwrap()))
        }
    }

    /// A 4-byte entry: half of the 8-byte union slot it shares with `E`.
    #[derive(Clone, Debug, PartialEq, Eq)]
    struct Half(u32);

    impl RingEntry for Half {
        const SIZE: usize = 4;
        fn write_to(&self, buf: &mut [u8]) {
            buf.copy_from_slice(&self.0.to_le_bytes());
        }
        fn read_from(buf: &[u8]) -> Self {
            Half(u32::from_le_bytes(buf[..4].try_into().unwrap()))
        }
    }

    fn page() -> Vec<u8> {
        vec![0u8; PAGE_SIZE]
    }

    /// A push writes its entry's `SIZE` bytes and nothing else: the rest
    /// of a larger union slot keeps what the last occupant left, as it
    /// always has.
    #[test]
    fn push_leaves_the_union_slot_past_size_alone() {
        let mut p = vec![0xa5u8; PAGE_SIZE];
        let mut f: FrontRing<Half, E> = FrontRing::init(&mut p);
        let mut b: BackRing<Half, E> = BackRing::attach();
        let slot0 = RING_HEADER_SIZE..RING_HEADER_SIZE + 8;
        f.push_request(&mut p, &Half(0x0403_0201)).unwrap();
        assert_eq!(p[slot0.clone()], [1, 2, 3, 4, 0xa5, 0xa5, 0xa5, 0xa5]);
        assert_eq!(p[slot0.end], 0xa5, "next slot untouched");
        f.push_requests(&mut p);
        b.consume_request(&p).unwrap();
        b.push_response(&mut p, &E(u64::MAX)).unwrap();
        assert_eq!(p[slot0.clone()], [0xff; 8]);
        // Slot 0 again, one lap later: the request overwrites only its half.
        let mut f: FrontRing<Half, E> = FrontRing::default();
        f.push_request(&mut p, &Half(0)).unwrap();
        assert_eq!(p[slot0], [0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff]);
    }

    #[test]
    fn ring_size_is_power_of_two() {
        // 8-byte slots: (4096-64)/8 = 504 -> 256.
        assert_eq!(ring_size(8, 8), 256);
        // Xen blkif: 112-byte requests -> (4032/112)=36 -> 32 slots.
        assert_eq!(ring_size(112, 16), 32);
        // Xen netif: 16-byte union -> 252 -> 128 slots.
        assert_eq!(ring_size(12, 16), 128);
    }

    #[test]
    fn request_roundtrip() {
        let mut p = page();
        let mut f: FrontRing<E, E> = FrontRing::init(&mut p);
        let mut b: BackRing<E, E> = BackRing::attach();
        f.push_request(&mut p, &E(0xdead)).unwrap();
        f.push_request(&mut p, &E(0xbeef)).unwrap();
        // Backend sees nothing until the producer publishes.
        assert_eq!(b.unconsumed_requests(&p), 0);
        let notify = f.push_requests(&mut p);
        assert!(notify, "fresh ring has req_event armed at 1");
        assert_eq!(b.unconsumed_requests(&p), 2);
        assert_eq!(b.consume_request(&p).unwrap(), Some(E(0xdead)));
        assert_eq!(b.consume_request(&p).unwrap(), Some(E(0xbeef)));
        assert_eq!(b.consume_request(&p).unwrap(), None);
    }

    #[test]
    fn response_roundtrip_reuses_slots() {
        let mut p = page();
        let mut f: FrontRing<E, E> = FrontRing::init(&mut p);
        let mut b: BackRing<E, E> = BackRing::attach();
        f.push_request(&mut p, &E(1)).unwrap();
        f.push_requests(&mut p);
        assert_eq!(b.free_responses(), 0, "no consumed request yet");
        b.consume_request(&p).unwrap();
        assert_eq!(b.free_responses(), 1);
        b.push_response(&mut p, &E(101)).unwrap();
        let notify = b.push_responses(&mut p);
        assert!(notify);
        assert_eq!(f.consume_response(&p).unwrap(), Some(E(101)));
        assert_eq!(f.consume_response(&p).unwrap(), None);
    }

    #[test]
    fn ring_full_rejected() {
        let mut p = page();
        let mut f: FrontRing<E, E> = FrontRing::init(&mut p);
        for i in 0..f.size() {
            f.push_request(&mut p, &E(i as u64)).unwrap();
        }
        assert!(f.full());
        assert_eq!(f.push_request(&mut p, &E(999)), Err(XenError::RingFull));
    }

    #[test]
    fn slots_free_after_response_consumed() {
        let mut p = page();
        let mut f: FrontRing<E, E> = FrontRing::init(&mut p);
        let mut b: BackRing<E, E> = BackRing::attach();
        let n = f.size();
        for i in 0..n {
            f.push_request(&mut p, &E(i as u64)).unwrap();
        }
        f.push_requests(&mut p);
        assert!(f.full());
        // Backend serves one.
        b.consume_request(&p).unwrap();
        b.push_response(&mut p, &E(100)).unwrap();
        b.push_responses(&mut p);
        // Frontend must consume the response to free the slot.
        assert!(f.full());
        f.consume_response(&p).unwrap();
        assert_eq!(f.free_requests(), 1);
        f.push_request(&mut p, &E(7)).unwrap();
    }

    #[test]
    fn wraparound_many_times_preserves_order() {
        let mut p = page();
        let mut f: FrontRing<E, E> = FrontRing::init(&mut p);
        let mut b: BackRing<E, E> = BackRing::attach();
        let mut next_val = 0u64;
        let mut expect = 0u64;
        // 10x ring size in small irregular batches.
        for round in 0..(10 * f.size() as u64) {
            let batch = (round % 3) + 1;
            for _ in 0..batch {
                if !f.full() {
                    f.push_request(&mut p, &E(next_val)).unwrap();
                    next_val += 1;
                }
            }
            f.push_requests(&mut p);
            while let Some(req) = b.consume_request(&p).unwrap() {
                assert_eq!(req, E(expect));
                expect += 1;
                b.push_response(&mut p, &E(req.0 | 0x8000_0000_0000_0000))
                    .unwrap();
            }
            b.push_responses(&mut p);
            while let Some(_r) = f.consume_response(&p).unwrap() {}
        }
        assert!(expect > 500, "exercised wraparound");
    }

    #[test]
    fn notification_suppression_requests() {
        let mut p = page();
        let mut f: FrontRing<E, E> = FrontRing::init(&mut p);
        let mut b: BackRing<E, E> = BackRing::attach();
        // First push notifies (event armed at 1).
        f.push_request(&mut p, &E(1)).unwrap();
        assert!(f.push_requests(&mut p));
        // Backend consumes but does NOT re-arm: further pushes are silent.
        b.consume_request(&p).unwrap();
        f.push_request(&mut p, &E(2)).unwrap();
        assert!(!f.push_requests(&mut p), "backend did not ask for events");
        // Backend drains then arms via final-check; next push notifies.
        b.consume_request(&p).unwrap();
        assert!(!b.final_check_for_requests(&mut p));
        f.push_request(&mut p, &E(3)).unwrap();
        assert!(f.push_requests(&mut p));
    }

    #[test]
    fn final_check_catches_race() {
        let mut p = page();
        let mut f: FrontRing<E, E> = FrontRing::init(&mut p);
        let mut b: BackRing<E, E> = BackRing::attach();
        f.push_request(&mut p, &E(1)).unwrap();
        f.push_requests(&mut p);
        b.consume_request(&p).unwrap();
        // A request sneaks in before the backend arms the event.
        f.push_request(&mut p, &E(2)).unwrap();
        f.push_requests(&mut p);
        // final_check must report more work instead of letting the backend
        // sleep (the classic lost-wakeup race the protocol exists to solve).
        assert!(b.final_check_for_requests(&mut p));
    }

    #[test]
    fn corrupt_producer_detected() {
        let mut p = page();
        let mut f: FrontRing<E, E> = FrontRing::init(&mut p);
        let mut b: BackRing<E, E> = BackRing::attach();
        f.push_request(&mut p, &E(1)).unwrap();
        f.push_requests(&mut p);
        // A malicious frontend lies about req_prod.
        sring::set_req_prod(&mut p, 100_000);
        assert_eq!(b.consume_request(&p), Err(XenError::RingCorrupt));
    }

    #[test]
    fn response_notification_suppression() {
        let mut p = page();
        let mut f: FrontRing<E, E> = FrontRing::init(&mut p);
        let mut b: BackRing<E, E> = BackRing::attach();
        for i in 0..4 {
            f.push_request(&mut p, &E(i)).unwrap();
        }
        f.push_requests(&mut p);
        for _ in 0..4 {
            b.consume_request(&p).unwrap();
        }
        b.push_response(&mut p, &E(0)).unwrap();
        assert!(b.push_responses(&mut p), "rsp_event armed at 1 initially");
        f.consume_response(&p).unwrap();
        // Frontend has not re-armed: silent.
        b.push_response(&mut p, &E(1)).unwrap();
        assert!(!b.push_responses(&mut p));
        // Frontend drains and arms.
        while f.consume_response(&p).unwrap().is_some() {}
        assert!(!f.final_check_for_responses(&mut p));
        b.push_response(&mut p, &E(2)).unwrap();
        assert!(b.push_responses(&mut p));
    }
}
