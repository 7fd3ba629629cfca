//! Guest-side PV frontends.
//!
//! These are the *unmodified* drivers every Xen guest already ships —
//! Kite's claim is precisely that its unikernel backends interoperate with
//! stock frontends. [`netfront::Netfront`] and [`blkfront::Blkfront`]
//! speak the byte-exact ring ABIs from `kite-xen` and negotiate through
//! xenstore exactly as Linux's drivers do. Both lend pages from one
//! `GrantPool` type and refuse, count and trace any response field a
//! backend should not have written.

pub mod blkfront;
pub mod netfront;
mod pool;

pub use blkfront::{BlkCompletion, Blkfront};
pub use netfront::Netfront;

use kite_sim::Nanos;
use kite_xen::ring::{sring, RingEntry};
use kite_xen::xenbus::FrontEndpoint;
use kite_xen::{DomainId, EventKind, Hypervisor, Result};

/// Outcome of a frontend operation that may require notifying the backend.
#[derive(Debug, Default)]
pub struct FrontOp {
    /// The backend must be notified via the event channel.
    pub notify: bool,
    /// Guest-side CPU cost of the operation.
    pub cost: Nanos,
}

/// Backend-written responses a frontend refused, by cause. Each also
/// emits an [`EventKind::RingReject`] naming the ring; none frees a page,
/// completes a request or reaches the guest's stack.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RspRejects {
    /// Ids past the buffer pool (netfront).
    pub bad_id: u64,
    /// Ids naming nothing the backend holds: never sent, or answered.
    pub unknown_id: u64,
    /// Rx `offset + status` past the buffer's page (netfront).
    pub bad_range: u64,
    /// Answers on a ring other than their request's (blkfront).
    pub wrong_ring: u64,
    /// Operations other than their request's (blkfront).
    pub bad_op: u64,
    /// Response producer indices past the requests in flight. The first
    /// one breaks what owns the ring: netfront's queue, blkfront's device.
    pub ring_corrupt: u64,
}

/// Why a response was refused: one per [`RspRejects`] counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Refusal {
    BadId,
    UnknownId,
    BadRange,
    WrongRing,
    BadOp,
    RingCorrupt,
}

/// Books one refused response in `rejects` and as an [`EventKind::RingReject`]
/// on ring `queue`/`qid` of `guest`'s device (a wider id saturates).
fn record_refusal(
    hv: &mut Hypervisor,
    guest: DomainId,
    rejects: &mut RspRejects,
    queue: &'static str,
    qid: u16,
    why: Refusal,
    id: u64,
) {
    let (counter, reason) = match why {
        Refusal::BadId => (&mut rejects.bad_id, "bad_id"),
        Refusal::UnknownId => (&mut rejects.unknown_id, "unknown_id"),
        Refusal::BadRange => (&mut rejects.bad_range, "bad_range"),
        Refusal::WrongRing => (&mut rejects.wrong_ring, "wrong_ring"),
        Refusal::BadOp => (&mut rejects.bad_op, "bad_op"),
        Refusal::RingCorrupt => (&mut rejects.ring_corrupt, "ring_corrupt"),
    };
    *counter += 1;
    let id = u32::try_from(id).unwrap_or(u32::MAX);
    hv.trace.emit_with(guest.0, || EventKind::RingReject {
        queue,
        qid,
        reason,
        id,
    });
}

/// `rsp_prod` when the backend published more responses than `ep` has
/// requests in flight (Linux's `RING_RESPONSE_PROD_OVERFLOW`, which a ring
/// ahead also is): that ring can no longer be trusted. Checked before a reap.
fn overrun<Req: RingEntry, Rsp: RingEntry>(
    hv: &Hypervisor,
    ep: &FrontEndpoint<Req, Rsp>,
) -> Result<Option<u64>> {
    let page = hv.mem.page(ep.page)?;
    let in_flight = ep.ring.size() - ep.ring.free_requests();
    let ahead = ep.ring.unconsumed_responses(page) > in_flight;
    Ok(ahead.then(|| sring::rsp_prod(page).into()))
}

#[cfg(test)]
pub(crate) mod testing {
    use kite_xen::{
        DeviceKind, DevicePaths, DomainId, DomainKind, EventKind, Hypervisor, Perm, XenbusState,
    };

    /// A guest and a driver domain with one `kind` device provisioned
    /// between them, the backend having written `keys` under its own
    /// directory: what the toolstack and a backend leave for a frontend
    /// to connect to.
    pub fn machine(kind: DeviceKind, keys: &[(&str, &str)]) -> (Hypervisor, DevicePaths) {
        let mut hv = Hypervisor::new();
        let d0 = DomainId::DOM0;
        hv.create_domain("Domain-0", DomainKind::Dom0, 8192, 4);
        let dd = hv.create_domain("backend", DomainKind::Driver, 1024, 1);
        let gu = hv.create_domain("guest", DomainKind::Guest, 5120, 22);
        let paths = DevicePaths::new(gu, dd, kind, 0);
        let (fe, be) = (paths.frontend(), paths.backend());
        let mut write = |path: String, value: &str| hv.store.write(d0, None, &path, value).unwrap();
        write(format!("{fe}/backend"), &be);
        write(format!("{be}/frontend"), &fe);
        for (key, value) in keys {
            write(format!("{be}/{key}"), value);
        }
        hv.switch_state(d0, &paths.frontend_state(), XenbusState::Initialising)
            .unwrap();
        hv.store.set_perm(d0, &fe, gu, Perm::ReadWrite).unwrap();
        hv.store.set_perm(d0, &fe, dd, Perm::Read).unwrap();
        hv.store.set_perm(d0, &be, gu, Perm::Read).unwrap();
        (hv, paths)
    }

    /// `(ring, qid, reason, id)` of each `RingReject` the tracer holds.
    pub fn reject_events(hv: &Hypervisor) -> Vec<(&'static str, u16, &'static str, u32)> {
        let events = hv.trace.events();
        let reject = |kind: &EventKind| match *kind {
            EventKind::RingReject {
                queue,
                qid,
                reason,
                id,
            } => Some((queue, qid, reason, id)),
            _ => None,
        };
        events.filter_map(|e| reject(&e.kind)).collect()
    }
}
