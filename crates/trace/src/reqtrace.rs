//! Per-request end-to-end tracing: virtual-time latency waterfalls.
//!
//! A [`ReqTracer`] mints a deterministic sampled [`ReqId`] at injection
//! (1-in-N counting, no RNG, no wall clock) and collects a
//! [`StageStamp`] at every stage boundary the request crosses —
//! frontend ring submit, backend fetch, grant copy, NVMe SQ/CQ, IRQ
//! delivery — until [`finish_at`](ReqTracer::finish_at) closes the record.
//! Closed records land in a bounded drop-oldest store (completion
//! order, so exports are deterministic; every drop counted) and feed
//! per-stage, per-domain and end-to-end [`Histogram`]s.
//!
//! Stage durations telescope: each inter-stamp gap is attributed to the
//! *later* stamp's stage, so the per-request stage durations always sum
//! to the end-to-end latency exactly — the waterfall has no gaps and no
//! double counting.
//!
//! Like [`Tracer`](crate::Tracer), a disabled `ReqTracer` costs one
//! branch per call and never allocates; domain ids are carried as raw
//! `u16` because this crate sits below `kite-xen`.

use std::collections::{BTreeMap, HashMap, VecDeque};

use kite_sim::{Histogram, Nanos};

/// Identity of one sampled request, threaded through ring slots and
/// device queues. Ids are minted sequentially from 0 per tracer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ReqId(pub u64);

/// A stage boundary on a request's path through the stack.
///
/// The network echo path visits `Inject → NicRx → RxDeliver →
/// RingSubmit → BackendFetch → GrantCopy → NicTx → Complete`; the
/// storage path visits `Inject → RingSubmit → BackendFetch →
/// NvmeSubmit → NvmeComplete → IrqDeliver → Complete`.
/// Each stamp is taken by the code doing the work, at the time it does
/// it, so a record's stamps arrive in time order. Stamping is
/// first-touch: a repeated stage is ignored. A logical I/O split into
/// several ring requests is followed through its first one (the chunk at
/// offset 0) only.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// The workload injected the request (client ping sent, logical
    /// I/O submitted).
    Inject,
    /// The frame arrived at the driver domain's physical NIC.
    NicRx,
    /// The guest stack saw the inbound request (echo server wake).
    RxDeliver,
    /// The frontend placed the request in a shared ring slot.
    RingSubmit,
    /// The backend's drain thread consumed the ring slot.
    BackendFetch,
    /// The grant-copy batch carrying the payload completed.
    GrantCopy,
    /// The NVMe command entered the submission queue.
    NvmeSubmit,
    /// The NVMe completion-queue entry was reaped.
    NvmeComplete,
    /// The driver domain handed the frame to the physical NIC.
    NicTx,
    /// The completion interrupt reached the frontend's handler.
    IrqDeliver,
    /// The workload observed the response.
    Complete,
}

impl Stage {
    /// Number of stages.
    pub const COUNT: usize = 11;

    /// Every stage, in path order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::Inject,
        Stage::NicRx,
        Stage::RxDeliver,
        Stage::RingSubmit,
        Stage::BackendFetch,
        Stage::GrantCopy,
        Stage::NvmeSubmit,
        Stage::NvmeComplete,
        Stage::NicTx,
        Stage::IrqDeliver,
        Stage::Complete,
    ];

    /// Stable lower-case label used in reports and flow events.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Inject => "inject",
            Stage::NicRx => "nic_rx",
            Stage::RxDeliver => "rx_deliver",
            Stage::RingSubmit => "ring_submit",
            Stage::BackendFetch => "backend_fetch",
            Stage::GrantCopy => "grant_copy",
            Stage::NvmeSubmit => "nvme_submit",
            Stage::NvmeComplete => "nvme_complete",
            Stage::NicTx => "nic_tx",
            Stage::IrqDeliver => "irq_deliver",
            Stage::Complete => "complete",
        }
    }

    fn idx(self) -> usize {
        self as usize
    }
}

/// Namespaces for the slot map that carries a [`ReqId`] across layers
/// that only share an opaque key (a ring-slot id, an ICMP sequence
/// number, an NVMe command id).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SlotClass {
    /// ICMP echo sequence number (unique per run).
    NetIcmp = 0,
    /// Netfront tx ring slot, keyed `(queue << 32) | slot id`.
    NetTx = 1,
    /// Blkfront ring request id (monotonic per run).
    BlkReq = 2,
    /// NVMe command id (never recycled per controller incarnation).
    NvmeCid = 3,
}

/// One recorded stage crossing.
#[derive(Clone, Copy, Debug)]
pub struct StageStamp {
    /// Which boundary was crossed.
    pub stage: Stage,
    /// Raw id of the domain the crossing is attributed to.
    pub dom: u16,
    /// Queue index the crossing happened on; `None` for a stamp taken
    /// outside any queue (the client machine, the NIC interrupt, the
    /// guest's stack). The Chrome exporter places it by the same rule as
    /// a `RingDrain`, so flow points land on the drains' track.
    pub qid: Option<u16>,
    /// Virtual time of the crossing.
    pub at: Nanos,
}

/// The complete stamp trail of one sampled request.
#[derive(Clone, Debug)]
pub struct ReqRecord {
    /// The request's id.
    pub id: u64,
    /// Stamps in arrival order, which is time order.
    pub stamps: Vec<StageStamp>,
}

impl ReqRecord {
    /// End-to-end latency: last stamp minus first.
    pub fn e2e(&self) -> Nanos {
        match (self.stamps.first(), self.stamps.last()) {
            (Some(a), Some(b)) => b.at.saturating_sub(a.at),
            _ => Nanos::ZERO,
        }
    }
}

struct Inner {
    sample_every: u64,
    tick: u64,
    next_id: u64,
    capacity: usize,
    live: HashMap<u64, ReqRecord>,
    slots: HashMap<(SlotClass, u64), u64>,
    completed: VecDeque<ReqRecord>,
    dropped: u64,
    stage_hist: Vec<Histogram>,
    dom_hist: BTreeMap<u16, Histogram>,
    e2e_hist: Histogram,
}

/// Default completed-record capacity used by convenience callers.
pub const DEFAULT_REQ_CAPACITY: usize = 1 << 12;

/// Bounded recorder of per-request stage trails.
#[derive(Default)]
pub struct ReqTracer {
    inner: Option<Box<Inner>>,
}

impl ReqTracer {
    /// A tracer that samples nothing; every call is one branch.
    pub fn disabled() -> ReqTracer {
        ReqTracer { inner: None }
    }

    /// Switches sampling on — one request in `sample_every`, keeping up
    /// to `capacity` completed records (oldest dropped first). Idempotent:
    /// an enabled tracer keeps its records, rate and capacity.
    pub fn enable(&mut self, sample_every: u64, capacity: usize) {
        if self.inner.is_none() {
            self.inner = Some(Box::new(Inner {
                sample_every: sample_every.max(1),
                tick: 0,
                next_id: 0,
                capacity: capacity.max(1),
                live: HashMap::new(),
                slots: HashMap::new(),
                completed: VecDeque::new(),
                dropped: 0,
                stage_hist: vec![Histogram::new(); Stage::COUNT],
                dom_hist: BTreeMap::new(),
                e2e_hist: Histogram::new(),
            }));
        }
    }

    /// Whether requests are being sampled.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Counts an injection and mints a [`ReqId`] for every
    /// `sample_every`-th one (the first injection is always sampled, so
    /// short runs still trace). The new record carries its
    /// [`Stage::Inject`] stamp at `at`.
    pub fn admit(&mut self, dom: u16, at: Nanos) -> Option<ReqId> {
        let inner = self.inner.as_mut()?;
        let tick = inner.tick;
        inner.tick += 1;
        if tick % inner.sample_every != 0 {
            return None;
        }
        let id = inner.next_id;
        inner.next_id += 1;
        inner.live.insert(
            id,
            ReqRecord {
                id,
                stamps: vec![StageStamp {
                    stage: Stage::Inject,
                    dom,
                    qid: None,
                    at,
                }],
            },
        );
        Some(ReqId(id))
    }

    /// Records `req` crossing `stage` at `at`, the time of the work the
    /// stage names; a request's stamps must arrive in time order.
    /// First-touch: a stage the request already carries is ignored.
    pub fn stamp_at(&mut self, req: ReqId, stage: Stage, dom: u16, qid: Option<u16>, at: Nanos) {
        let Some(rec) = self.inner.as_mut().and_then(|i| i.live.get_mut(&req.0)) else {
            return;
        };
        if rec.stamps.iter().any(|s| s.stage == stage) {
            return;
        }
        rec.stamps.push(StageStamp {
            stage,
            dom,
            qid,
            at,
        });
    }

    /// Associates an opaque layer-local key with `req` so a later layer
    /// can recover the id (ring slot → backend, command id → reap).
    pub fn map(&mut self, class: SlotClass, key: u64, req: ReqId) {
        if let Some(inner) = &mut self.inner {
            inner.slots.insert((class, key), req.0);
        }
    }

    /// The request mapped under `(class, key)`, if any (non-destructive).
    pub fn lookup(&self, class: SlotClass, key: u64) -> Option<ReqId> {
        self.inner
            .as_ref()
            .and_then(|i| i.slots.get(&(class, key)).copied().map(ReqId))
    }

    /// Removes and returns the mapping under `(class, key)`.
    pub fn take(&mut self, class: SlotClass, key: u64) -> Option<ReqId> {
        self.inner
            .as_mut()
            .and_then(|i| i.slots.remove(&(class, key)).map(ReqId))
    }

    /// Closes `req` at `at`: stamps [`Stage::Complete`], feeds the
    /// histograms and moves the record to the bounded completed store,
    /// dropping (and counting) the oldest record there at capacity.
    pub fn finish_at(&mut self, req: ReqId, dom: u16, at: Nanos) {
        let Some(inner) = &mut self.inner else {
            return;
        };
        let Some(mut rec) = inner.live.remove(&req.0) else {
            return;
        };
        if !rec.stamps.iter().any(|s| s.stage == Stage::Complete) {
            rec.stamps.push(StageStamp {
                stage: Stage::Complete,
                dom,
                qid: None,
                at,
            });
        }
        for i in 1..rec.stamps.len() {
            let d = rec.stamps[i].at.saturating_sub(rec.stamps[i - 1].at);
            inner.stage_hist[rec.stamps[i].stage.idx()].record(d);
            inner
                .dom_hist
                .entry(rec.stamps[i].dom)
                .or_default()
                .record(d);
        }
        inner.e2e_hist.record(rec.e2e());
        if inner.completed.len() == inner.capacity {
            inner.completed.pop_front();
            inner.dropped += 1;
        }
        inner.completed.push_back(rec);
    }

    /// Injections counted (sampled or not).
    pub fn seen(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.tick)
    }

    /// Requests sampled (ids minted).
    pub fn sampled(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.next_id)
    }

    /// Completed records dropped from the full store.
    pub fn dropped(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.dropped)
    }

    /// Requests sampled and still in flight.
    pub fn live_len(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| i.live.len())
    }

    /// Completed records held, oldest completion first.
    pub fn completed(&self) -> impl Iterator<Item = &ReqRecord> {
        self.inner.iter().flat_map(|i| i.completed.iter())
    }

    /// The latency histogram of `stage` (time from the preceding stamp),
    /// when enabled.
    pub fn stage_hist(&self, stage: Stage) -> Option<&Histogram> {
        self.inner.as_ref().map(|i| &i.stage_hist[stage.idx()])
    }

    /// Per-domain latency histogram: all inter-stamp time attributed to
    /// stamps of domain `dom`, if any landed there.
    pub fn dom_hist(&self, dom: u16) -> Option<&Histogram> {
        self.inner.as_ref().and_then(|i| i.dom_hist.get(&dom))
    }

    /// End-to-end latency histogram over completed requests.
    pub fn e2e_hist(&self) -> Option<&Histogram> {
        self.inner.as_ref().map(|i| &i.e2e_hist)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_is_inert() {
        let mut t = ReqTracer::disabled();
        let at = Nanos::from_secs(1);
        assert!(t.admit(0, at).is_none());
        t.stamp_at(ReqId(0), Stage::RingSubmit, 1, None, at);
        t.map(SlotClass::NetTx, 7, ReqId(0));
        assert!(t.lookup(SlotClass::NetTx, 7).is_none());
        assert!(t.take(SlotClass::NetTx, 7).is_none());
        t.finish_at(ReqId(0), 0, at);
        assert!(!t.is_enabled());
        assert_eq!(t.seen(), 0);
        assert_eq!(t.completed().count(), 0);
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn admit_samples_one_in_n_starting_with_the_first() {
        let mut t = ReqTracer::default();
        t.enable(4, 16);
        let minted: Vec<Option<ReqId>> = (0..9).map(|_| t.admit(3, Nanos::ZERO)).collect();
        let ids: Vec<u64> = minted.iter().flatten().map(|r| r.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        assert!(minted[0].is_some() && minted[4].is_some() && minted[8].is_some());
        assert_eq!(t.seen(), 9);
        assert_eq!(t.sampled(), 3);
    }

    #[test]
    fn stamps_are_first_touch_and_telescope_to_e2e() {
        let mut t = ReqTracer::default();
        t.enable(1, 16);
        let req = t.admit(0, Nanos::from_micros(10)).expect("sampled");
        t.stamp_at(req, Stage::RingSubmit, 3, None, Nanos::from_micros(14));
        // Ignored: first touch.
        t.stamp_at(req, Stage::RingSubmit, 9, None, Nanos::from_micros(15));
        t.stamp_at(req, Stage::BackendFetch, 2, Some(1), Nanos::from_micros(20));
        t.stamp_at(req, Stage::GrantCopy, 2, Some(1), Nanos::from_micros(22));
        t.finish_at(req, 0, Nanos::from_micros(30));
        let rec = t.completed().next().expect("one record");
        assert_eq!(rec.e2e(), Nanos::from_micros(20));
        let stages: Vec<Stage> = rec.stamps.iter().map(|s| s.stage).collect();
        assert_eq!(
            stages,
            vec![
                Stage::Inject,
                Stage::RingSubmit,
                Stage::BackendFetch,
                Stage::GrantCopy,
                Stage::Complete
            ]
        );
        let submit = rec.stamps.iter().find(|s| s.stage == Stage::RingSubmit);
        assert_eq!(submit.unwrap().dom, 3);
        // Stage durations sum exactly to the end-to-end latency.
        let sum: u64 = rec
            .stamps
            .windows(2)
            .map(|w| (w[1].at - w[0].at).as_nanos())
            .sum();
        assert_eq!(sum, rec.e2e().as_nanos());
        assert_eq!(t.stage_hist(Stage::RingSubmit).unwrap().count(), 1);
        assert_eq!(t.e2e_hist().unwrap().count(), 1);
        assert!(t.dom_hist(2).is_some());
        assert!(t.dom_hist(7).is_none());
    }

    #[test]
    fn slot_map_round_trips_and_take_consumes() {
        let mut t = ReqTracer::default();
        t.enable(1, 16);
        let req = t.admit(0, Nanos::ZERO).expect("sampled");
        t.map(SlotClass::NvmeCid, 42, req);
        assert_eq!(t.lookup(SlotClass::NvmeCid, 42), Some(req));
        // Same key, different class: distinct namespaces.
        assert!(t.lookup(SlotClass::BlkReq, 42).is_none());
        assert_eq!(t.take(SlotClass::NvmeCid, 42), Some(req));
        assert!(t.take(SlotClass::NvmeCid, 42).is_none());
    }

    #[test]
    fn completed_store_drops_oldest_and_counts() {
        let mut t = ReqTracer::default();
        t.enable(1, 2);
        for i in 0..4u64 {
            let at = Nanos::from_micros(i);
            let req = t.admit(0, at).expect("sampled");
            t.finish_at(req, 0, at);
        }
        assert_eq!(t.completed().count(), 2);
        // Oldest survivor is the third request.
        assert_eq!(t.completed().next().unwrap().id, 2);
        assert_eq!(t.dropped(), 2);
        // Histograms still count every finished request.
        assert_eq!(t.e2e_hist().unwrap().count(), 4);
    }

    #[test]
    fn a_full_store_counts_the_record_it_evicts() {
        let mut t = ReqTracer::default();
        t.enable(1, 1);
        for i in 0..2u64 {
            let req = t.admit(0, Nanos::from_micros(i)).expect("sampled");
            t.finish_at(req, 0, Nanos::from_micros(i + 1));
        }
        assert_eq!(t.completed().map(|r| r.id).collect::<Vec<_>>(), vec![1]);
        assert_eq!(t.dropped(), 1);
    }

    #[test]
    fn enable_is_idempotent() {
        let mut t = ReqTracer::default();
        t.enable(2, 8);
        assert!(t.admit(0, Nanos::ZERO).is_some());
        t.enable(100, 1);
        assert!(
            t.admit(0, Nanos::ZERO).is_none(),
            "original rate of 2 still in force"
        );
        assert!(t.admit(0, Nanos::ZERO).is_some());
    }

    #[test]
    fn finishing_an_unknown_request_is_ignored() {
        let mut t = ReqTracer::default();
        t.enable(1, 4);
        t.finish_at(ReqId(99), 0, Nanos::ZERO);
        assert_eq!(t.completed().count(), 0);
        assert_eq!(t.e2e_hist().unwrap().count(), 0);
    }
}
