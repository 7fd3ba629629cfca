//! The storage datapath: guest application ⇄ blkfront ⇄ Kite/Linux
//! driver domain (blkback) ⇄ NVMe device.
//!
//! Workloads submit logical I/Os (any size); the system splits them into
//! ring requests bounded by the negotiated features (44 KiB direct or
//! 128 KiB with 32 indirect segments), applies ring backpressure, and
//! reports completions to a workload-installed handler that can keep each
//! simulated worker thread's loop going (closed-loop benchmarks). The
//! driver-domain lifecycle (faults, detection, reboot, reconnect) lives
//! in [`crate::host`].

use std::collections::{HashMap, VecDeque};

use kite_core::{
    blockapp, BackendDevice, BlkComplete, BlkbackConfig, BlkbackInstance, BlkbackStats,
    RecoveryStats,
};
use kite_devices::NvmeController;
use kite_frontends::{BlkCompletion, Blkfront};
use kite_prof::Phase;
use kite_sim::{Histogram, IdleWake, Nanos};
use kite_trace::MetricsSnapshot;
use kite_xen::{
    DevicePaths, DomainId, Hypervisor, PciDevice, Port, ReqId, ReqStage, SlotClass, XenError,
};

use crate::config::SystemConfig;
use crate::host::{set_bits, Datapath, Event, Host};

/// A logical I/O a workload submits.
#[derive(Clone, Debug)]
pub enum IoKind {
    /// Read `len` bytes at `sector`.
    Read {
        /// Starting 512-byte sector.
        sector: u64,
        /// Length in bytes (multiple of 512).
        len: usize,
    },
    /// Write bytes at `sector`.
    Write {
        /// Starting 512-byte sector.
        sector: u64,
        /// The data (length a multiple of 512).
        data: Vec<u8>,
    },
    /// Flush the disk cache.
    Flush,
}

/// A workload I/O with its tag.
#[derive(Clone, Debug)]
pub struct IoOp {
    /// The workload's label, returned unchanged in [`IoDone`]. The system
    /// identifies in-flight I/Os itself, so tags need not be unique.
    pub tag: u64,
    /// The operation.
    pub kind: IoKind,
}

/// A completed logical I/O.
#[derive(Debug)]
pub struct IoDone {
    /// The workload tag.
    pub tag: u64,
    /// All chunks succeeded.
    pub ok: bool,
    /// Assembled data for reads.
    pub data: Option<Vec<u8>>,
    /// When the logical I/O was submitted.
    pub submitted: Nanos,
}

/// Completion handler: observes a finished I/O, returns follow-up ops
/// (the closed-loop worker pattern).
pub type IoHandler = Box<dyn FnMut(Nanos, &IoDone) -> Vec<IoOp>>;

/// The storage datapath's scheduled events. `driver` guards against
/// completions of a crashed backend incarnation hitting a replacement
/// that happens to reuse the same request id: Xen never reuses a
/// [`DomainId`], so the driver domain's id names the incarnation.
pub enum BlkEvent {
    /// Error response for a request that failed validation and never
    /// reached the device.
    BlkError {
        /// Backend request id.
        req_id: u64,
        /// The ring the request arrived on.
        ring: usize,
        /// Driver domain whose backend scheduled the response.
        driver: DomainId,
    },
    /// NVMe completion interrupt: a CQ entry on `ring`'s queue pair came
    /// due; the reap runs on the vCPU its MSI-X vector is steered to.
    NvmeCq {
        /// The ring whose queue pair completed.
        ring: usize,
        /// Driver domain whose backend submitted the command.
        driver: DomainId,
    },
    /// A workload submits a logical I/O.
    Submit(IoOp),
}

// The scheduler stores events inline; growing them grows every slab slot.
const _: () = assert!(std::mem::size_of::<Event<BlkEvent>>() <= 40);

/// One ring request's worth of a logical I/O: `offset` bytes into
/// logical op `op`.
#[derive(Debug)]
struct Chunk {
    op: u64,
    offset: usize,
    kind: IoKind,
}

/// A logical I/O in flight, under the id `try_submit` minted for it.
struct InFlight {
    tag: u64,
    remaining: usize,
    ok: bool,
    /// A read's padded length and its bytes, each chunk landing at its
    /// offset; `None` for writes and flushes.
    read: Option<(usize, Vec<u8>)>,
    submitted: Nanos,
    /// Request-tracing sample following this logical I/O, when tagged.
    req: Option<ReqId>,
}

/// Storage metrics.
#[derive(Default)]
pub struct StorMetrics {
    /// Logical I/Os completed.
    pub ios: u64,
    /// Bytes read (logical).
    pub read_bytes: u64,
    /// Bytes written (logical).
    pub write_bytes: u64,
    /// Latencies of logical I/Os.
    pub latency: Histogram,
}

/// Storage-datapath state: the NVMe device and the driver domain's
/// status application, blkfront, and the guest's logical-I/O chunking.
pub struct BlkPath {
    /// The NVMe device (sparse real contents).
    pub nvme: NvmeController,
    bb_stats_base: BlkbackStats,
    blkfront: Option<Blkfront>,
    // Negotiated per-request ceiling, kept so logical ops submitted
    // during an outage still chunk correctly.
    max_req_bytes: usize,
    // req_id -> in-flight chunk (kept whole so a crash can replay it)
    req_map: HashMap<u64, Chunk>,
    // minted op id -> logical I/O; ids are never reused
    ops: HashMap<u64, InFlight>,
    next_op: u64,
    pendq: VecDeque<Chunk>,
    /// Per-drain and per-interrupt scratch, cleared not dropped: the
    /// completion interrupts one request-thread run posted, the
    /// completions one blkfront interrupt reaped, and the logical I/Os
    /// they finished.
    cq_irqs: Vec<(usize, Nanos)>,
    completions: Vec<BlkCompletion>,
    finished: Vec<IoDone>,
    handler: Option<IoHandler>,
    /// Measurement taps.
    pub metrics: StorMetrics,
}

/// The storage scenario system: a [`Host`] running the storage
/// datapath.
pub type StorSystem = Host<BlkPath>;

impl Datapath for BlkPath {
    type Backend = BlkbackInstance;
    type Event = BlkEvent;
    const KITE_DOMAIN: &'static str = "blkbackend";
    /// The DomU's I/O worker: the network guest's wake-from-halt model
    /// with its own, separately calibrated constants.
    const GUEST_WAKE: IdleWake = IdleWake {
        cap: Nanos(170_000),
        div: 10,
    };

    fn phase_of(ev: &BlkEvent) -> Phase {
        match ev {
            BlkEvent::Submit(_) => Phase::DispatchBlkSubmit,
            BlkEvent::NvmeCq { .. } | BlkEvent::BlkError { .. } => Phase::DispatchBlkComplete,
        }
    }

    fn pci_device() -> PciDevice {
        // Samsung 970 EVO Plus 500GB
        PciDevice {
            bdf: "04:00.0".parse().expect("static BDF"),
        }
    }

    fn build(
        cfg: &SystemConfig,
        hv: &mut Hypervisor,
        driver: DomainId,
    ) -> (BlkPath, BlkbackConfig) {
        // Scaled capacity: the data plane is sparse-real; 16 GiB of
        // addressable space is ample for the scaled workloads.
        let mut nvme = match &cfg.nvme_profile {
            Some(profile) => NvmeController::with_profile(16, profile.clone()),
            None => NvmeController::new(16),
        };
        if let Some(max) = cfg.nvme_max_io_queues {
            nvme = nvme.with_max_io_queues(max as usize);
        }
        blockapp::start(hv, driver, nvme.sectors).expect("blockapp");
        let bb_cfg = BlkbackConfig {
            profile: cfg.os.profile(),
            tuning: cfg.tuning,
            device_sectors: nvme.sectors,
        };
        let dp = BlkPath {
            nvme,
            bb_stats_base: BlkbackStats::default(),
            blkfront: None,
            max_req_bytes: 0,
            req_map: HashMap::new(),
            ops: HashMap::new(),
            next_op: 0,
            pendq: VecDeque::new(),
            cq_irqs: Vec::new(),
            completions: Vec::new(),
            finished: Vec::new(),
            handler: None,
            metrics: StorMetrics::default(),
        };
        (dp, bb_cfg)
    }

    fn driver_booted(&mut self, hv: &mut Hypervisor, driver: DomainId) {
        blockapp::start(hv, driver, self.nvme.sectors).expect("blockapp");
    }

    fn connect_frontend(&mut self, hv: &mut Hypervisor, paths: &DevicePaths, nrings: u32) {
        let bf = Blkfront::connect_with_queues(hv, paths, nrings).expect("blkfront");
        self.blkfront = Some(bf);
    }

    fn backend_connected(
        &mut self,
        hv: &mut Hypervisor,
        paths: &DevicePaths,
        _bb: &BlkbackInstance,
    ) {
        let bf = self.blkfront.as_mut().expect("just connected");
        bf.read_features(hv, paths).expect("features");
        self.max_req_bytes = bf.max_request_bytes();
    }

    fn latency(&self) -> &Histogram {
        &self.metrics.latency
    }

    fn handle(host: &mut StorSystem, now: Nanos, ev: BlkEvent) {
        host.handle_blk(now, ev);
    }

    /// Drains every ring, not only the one whose event channel fired.
    /// Queue-local blkback was measured and buys `stor_mixed` nothing:
    /// the workload is device-bound (627 of 653 µs of a request sit in
    /// `devices.stage_nvme_complete`, driver vCPUs 6.5 % busy), and losing
    /// the piggy-backed drains costs it (`sim_lat_p99_us` 861.5 → 867.0,
    /// `host_allocs_per_op` +0.21 %). An optimisation the measurements do
    /// not ask for is not done (ROADMAP).
    fn run_backend(host: &mut StorSystem, now: Nanos, _q: usize) {
        host.run_blkback(now);
    }

    /// Reaps every ring, like [`run_backend`](Self::run_backend) drains
    /// every ring and for the same measured reason.
    fn guest_irq(host: &mut StorSystem, now: Nanos, _port: Port) {
        host.blkfront_irq(now);
    }

    fn backend_lost(&mut self, bb: &BlkbackInstance, _recovery: &mut RecoveryStats) {
        self.bb_stats_base.merge(&bb.stats());
    }

    /// Retires the dead device in the frontend and parks every
    /// unacknowledged chunk for replay. Reads are side-effect free and
    /// writes re-execute the same sectors, so the at-least-once replay
    /// loses no acknowledged request.
    fn salvage(&mut self, _hv: &Hypervisor, recovery: &mut RecoveryStats) {
        // Function-level reset before the NVMe is re-assigned to the
        // replacement domain: the dead incarnation's queue pairs, cursors
        // and unreaped CQ entries vanish; media contents survive. The
        // new blkback recreates its queues lazily on first drain.
        self.nvme.reset();
        self.blkfront = None;
        let mut inflight: Vec<Chunk> = self.req_map.drain().map(|(_, c)| c).collect();
        inflight.sort_by_key(|c| (c.op, c.offset)); // submission order
        recovery.retried_ops += inflight.len() as u64;
        for c in inflight.into_iter().rev() {
            self.pendq.push_front(c);
        }
    }

    fn replay(host: &mut StorSystem, now: Nanos) {
        host.drain_pendq(now);
    }

    /// Blkback has no Rx queue or offload: RX_DROP and GSO_FRM read 0,
    /// and RXQ_DEPTH is each ring's unconsumed requests.
    fn top_cells(host: &StorSystem) -> ([u64; 4], Vec<u64>) {
        let s = host.blkback_stats();
        let pending = host.backend.device().map_or_else(Vec::new, |bb| {
            let rings = bb.queue_progress(&host.hv).into_iter();
            rings.map(|(_, pending)| pending).collect()
        });
        ([s.requests, s.read_bytes + s.write_bytes, 0, 0], pending)
    }

    fn export(host: &StorSystem, rows: &mut MetricsSnapshot) {
        let dp = &host.dp;
        rows.push_int("ios", "count", dp.metrics.ios);
        rows.push_int("logical_read_bytes", "bytes", dp.metrics.read_bytes);
        rows.push_int("logical_write_bytes", "bytes", dp.metrics.write_bytes);
        rows.push_float("mean_latency", "ns", dp.metrics.latency.mean());
        rows.push_int("in_flight", "count", dp.req_map.len() as u64);
        rows.push_int("pendq", "count", dp.pendq.len() as u64);
        if let Some(bb) = host.backend.device() {
            for (q, (_, pending)) in bb.queue_progress(&host.hv).into_iter().enumerate() {
                rows.push_int(format!("ring_pending_q{q}"), "count", pending);
            }
        }
        host.blkback_stats().export(rows, "");
    }
}

impl Host<BlkPath> {
    /// Installs the completion handler.
    pub fn set_handler(&mut self, h: IoHandler) {
        self.dp.handler = Some(h);
    }

    /// Schedules a logical I/O submission at `t`.
    pub fn submit_at(&mut self, t: Nanos, op: IoOp) {
        self.schedule_at(t, BlkEvent::Submit(op));
    }

    /// Outstanding logical I/Os.
    pub fn outstanding(&self) -> usize {
        self.dp.ops.len()
    }

    /// Blkback statistics, summed across backend incarnations.
    pub fn blkback_stats(&self) -> BlkbackStats {
        let mut s = self.dp.bb_stats_base;
        if let Some(bb) = self.backend.device() {
            s.merge(&bb.stats());
        }
        s
    }

    // ---- internals -----------------------------------------------------

    /// Splits logical op `op`'s I/O into ring-sized chunks, parked on
    /// the end of `pendq`; returns how many.
    fn park_chunks(&mut self, op: u64, kind: IoKind) -> usize {
        let max = self.dp.max_req_bytes;
        let parked = self.dp.pendq.len();
        let mut park = |offset, kind| self.dp.pendq.push_back(Chunk { op, offset, kind });
        match kind {
            IoKind::Read { sector, len } => {
                let len = len.div_ceil(512) * 512;
                for off in (0..len).step_by(max) {
                    let (sector, len) = (sector + (off / 512) as u64, (len - off).min(max));
                    park(off, IoKind::Read { sector, len });
                }
            }
            IoKind::Write { sector, mut data } => {
                let padded = data.len().div_ceil(512) * 512;
                data.resize(padded, 0);
                if (1..=max).contains(&padded) {
                    // Fits one ring request: the buffer moves into it.
                    park(0, IoKind::Write { sector, data });
                } else {
                    for (off, part) in (0..).step_by(max).zip(data.chunks(max)) {
                        let (sector, data) = (sector + (off / 512) as u64, part.to_vec());
                        park(off, IoKind::Write { sector, data });
                    }
                }
            }
            IoKind::Flush => park(0, IoKind::Flush),
        }
        self.dp.pendq.len() - parked
    }

    /// Mints the logical op's id, registers its completion state under
    /// it and queues its chunks; as many as fit go straight into the ring.
    fn try_submit(&mut self, now: Nanos, op: IoOp) {
        let read = match &op.kind {
            IoKind::Read { len, .. } => Some((len.div_ceil(512) * 512, Vec::new())),
            IoKind::Write { data, .. } => {
                self.dp.metrics.write_bytes += data.len() as u64;
                None
            }
            IoKind::Flush => None,
        };
        let id = self.dp.next_op;
        self.dp.next_op += 1;
        let remaining = self.park_chunks(id, op.kind);
        // Injection point for request tracing: the sampler decides here
        // whether this logical I/O is followed stage by stage. The guest
        // application issues it, so the Inject stamp books to the guest.
        let req = self.hv.req.admit(self.guest.0, now);
        let state = InFlight {
            tag: op.tag,
            remaining,
            ok: true,
            read,
            submitted: now,
            req,
        };
        self.dp.ops.insert(id, state);
        self.drain_pendq(now);
    }

    /// Pushes parked chunks into the ring while space allows. During an
    /// outage the queue just accumulates; the reconnect drains it.
    fn drain_pendq(&mut self, now: Nanos) {
        if self.dp.blkfront.is_none() {
            return;
        }
        let mut notify = 0u64;
        let mut cost = Nanos::ZERO;
        while let Some(c) = self.dp.pendq.front() {
            let bf = self.dp.blkfront.as_mut().expect("checked");
            let res = match &c.kind {
                IoKind::Read { sector, len } => bf.submit_read(&mut self.hv, *sector, *len),
                IoKind::Write { sector, data } => bf.submit_write(&mut self.hv, *sector, data),
                IoKind::Flush => bf.submit_flush(&mut self.hv),
            };
            match res {
                Ok((id, fo)) => {
                    let c = self.dp.pendq.pop_front().expect("peeked");
                    let bf = self.dp.blkfront.as_ref().expect("checked");
                    let ring = || bf.ring_of(id).unwrap_or(0);
                    // A traced I/O is followed through its first ring
                    // request only.
                    let op = self.dp.ops.get(&c.op);
                    if let Some(r) = op.and_then(|op| op.req).filter(|_| c.offset == 0) {
                        self.hv.req.map(SlotClass::BlkReq, id, r);
                        let dom = self.guest.0;
                        let qid = Some(ring() as u16);
                        self.hv.req.stamp_at(r, ReqStage::RingSubmit, dom, qid, now);
                    }
                    if fo.notify {
                        notify |= 1 << ring();
                    }
                    self.dp.req_map.insert(id, c);
                    cost += fo.cost;
                }
                // A full ring frees up on completion; a device its backend
                // broke never does, and its chunks stay parked as in an
                // outage.
                Err(XenError::RingFull | XenError::RingCorrupt) => break,
                Err(e) => panic!("unexpected submit error: {e}"),
            }
        }
        if cost > Nanos::ZERO {
            self.guest_cpu_run(now, cost);
        }
        for q in set_bits(notify) {
            let port = self.dp.blkfront.as_ref().expect("checked").port_of(q);
            self.kick_backend(port, now);
        }
    }

    fn run_blkback(&mut self, now: Nanos) {
        if !self.backend.is_connected() || self.hung {
            return; // driver domain down (or livelocked: thread never runs)
        }
        // Each ring's request thread is pinned to its own driver vCPU, so
        // the rings drain concurrently.
        let nrings = self.backend.device().expect("checked").queue_count();
        let mut cq_irqs = std::mem::take(&mut self.dp.cq_irqs);
        for q in 0..nrings {
            loop {
                let bb = self.backend.device_mut().expect("checked");
                let nvme = &mut self.dp.nvme;
                let batch = bb
                    .request_thread_run_into(&mut self.hv, nvme, q, now, 32, cq_irqs)
                    .expect("request thread");
                self.driver_cpus.run_on(q, now, batch.cost);
                for f in batch.failures {
                    self.schedule_at(
                        f.respond_at,
                        BlkEvent::BlkError {
                            req_id: f.req_id,
                            ring: q,
                            driver: self.driver,
                        },
                    );
                }
                cq_irqs = batch.cq_irqs;
                for (ring, fire_at) in cq_irqs.drain(..) {
                    self.schedule_at(
                        fire_at,
                        BlkEvent::NvmeCq {
                            ring,
                            driver: self.driver,
                        },
                    );
                }
                if !batch.more {
                    break;
                }
            }
        }
        self.dp.cq_irqs = cq_irqs;
    }

    /// Charges a completion callback's cost to `vcpu` and sends the
    /// frontend notification for every ring the callback flagged.
    fn finish_blk_completion(&mut self, now: Nanos, vcpu: usize, res: BlkComplete) {
        let mut done = self.driver_cpus.run_on(vcpu, now, res.cost);
        for q in set_bits(res.notify_rings) {
            done = self.kick_frontend(vcpu, q, done);
        }
    }

    fn handle_blk(&mut self, now: Nanos, ev: BlkEvent) {
        match ev {
            BlkEvent::Submit(op) => self.try_submit(now, op),
            BlkEvent::BlkError {
                req_id,
                ring,
                driver,
            } => {
                if driver != self.driver || self.hung {
                    // Response of a crashed backend incarnation, or a
                    // livelocked completion callback that never runs.
                    return;
                }
                let Some(bb) = self.backend.device_mut() else {
                    return; // the request died with the driver domain
                };
                let res = bb.complete(&mut self.hv, req_id).expect("complete");
                self.finish_blk_completion(now, ring, res);
            }
            BlkEvent::NvmeCq { ring, driver } => {
                if driver != self.driver || self.hung {
                    // A CQ entry of a crashed/reset controller incarnation,
                    // or a livelocked interrupt handler that never runs.
                    return;
                }
                let Some(bb) = self.backend.device_mut() else {
                    return; // the submission died with the driver domain
                };
                // MSI-X steering: the completion interrupt lands on the
                // vCPU the ring's queue-pair vector was created with (the
                // ring's own vCPU, unless rings share a pair).
                let vcpu = bb
                    .nvme_queue_of(ring)
                    .and_then(|qid| self.dp.nvme.vector_of(qid))
                    .map_or(ring, |v| v.vcpu);
                let res = bb
                    .reap_completions(&mut self.hv, &mut self.dp.nvme, ring, now)
                    .expect("reap");
                if res.completed == 0 {
                    return; // an earlier interrupt already reaped the entry
                }
                self.finish_blk_completion(now, vcpu, res);
            }
        }
    }

    /// Blkfront's interrupt handler in the guest.
    fn blkfront_irq(&mut self, now: Nanos) {
        if self.dp.blkfront.is_none() {
            return; // stale interrupt for a retired device
        }
        let (wake, t) = self.guest_irq(now);
        let bf = self.dp.blkfront.as_mut().expect("checked");
        let op = bf.on_irq(&mut self.hv).expect("blkfront irq");
        let mut completions = std::mem::take(&mut self.dp.completions);
        bf.take_completions_into(&mut completions);
        self.guest_cpu_run(now, wake + op.cost);
        let mut finished = std::mem::take(&mut self.dp.finished);
        for c in completions.drain(..) {
            let Some(chunk) = self.dp.req_map.remove(&c.id) else {
                continue;
            };
            let op = self
                .dp
                .ops
                .get_mut(&chunk.op)
                .expect("chunk's op in flight");
            if let Some(r) = op.req.filter(|_| chunk.offset == 0) {
                // Guest sees the completion after wake-from-halt.
                let dom = self.guest.0;
                self.hv.req.stamp_at(r, ReqStage::IrqDeliver, dom, None, t);
            }
            op.ok &= c.ok;
            if let (Some((len, buf)), Some(d)) = (&mut op.read, c.data) {
                if d.len() == *len {
                    *buf = d; // a single-chunk read hands its buffer over
                } else {
                    // Each chunk lands at its offset in one buffer, and
                    // its own buffer goes back to blkfront.
                    let bf = self.dp.blkfront.as_mut().expect("checked");
                    if buf.is_empty() {
                        *buf = bf.read_buffer(*len);
                        buf.resize(*len, 0);
                    }
                    buf[chunk.offset..chunk.offset + d.len()].copy_from_slice(&d);
                    bf.recycle(d);
                }
            }
            op.remaining -= 1;
            if op.remaining > 0 {
                continue;
            }
            let op = self.dp.ops.remove(&chunk.op).expect("present");
            let data = op.read.filter(|_| op.ok).map(|(_, buf)| buf);
            if let Some(r) = op.req {
                self.hv.req.finish_at(r, self.guest.0, t);
            }
            let lat = t - op.submitted;
            self.dp.metrics.ios += 1;
            self.dp.metrics.latency.record(lat);
            self.mark_first_byte(t);
            if let Some(d) = &data {
                self.dp.metrics.read_bytes += d.len() as u64;
            }
            finished.push(IoDone {
                tag: op.tag,
                ok: op.ok,
                data,
                submitted: op.submitted,
            });
        }
        self.dp.completions = completions;
        // Ring slots freed: drain parked ops first.
        self.drain_pendq(t);
        let mut handler = self.dp.handler.take();
        for d in finished.drain(..) {
            let next = handler.as_mut().map_or_else(Vec::new, |h| h(t, &d));
            // The handler only saw `&IoDone`: the read buffer's last
            // reader is done, and the next read gathers into it.
            if let (Some(data), Some(bf)) = (d.data, self.dp.blkfront.as_mut()) {
                bf.recycle(data);
            }
            for op in next {
                self.try_submit(t, op);
            }
        }
        self.dp.handler = handler;
        self.dp.finished = finished;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{interleaved_streams, FILL};
    use crate::BackendOs;

    fn write(tag: u64, sector: u64) -> IoOp {
        let data = vec![FILL; 4096];
        IoOp {
            tag,
            kind: IoKind::Write { sector, data },
        }
    }

    /// A guest that moves its ring's `req_prod` more than a ring ahead
    /// halts that blkback ring: the run reaches quiescence without a
    /// panic, the halt counted once, and no request on it is consumed.
    #[test]
    fn a_guest_producer_jump_halts_the_ring_and_the_run_quiesces() {
        let mut sys = SystemConfig::new(BackendOs::Kite, 1).build_stor();
        let t = Nanos::from_micros(10);
        sys.submit_at(t, write(0, 0));
        // The write is published and the backend kicked; it drains after
        // this instant.
        sys.run_until(t);
        sys.corrupt_req_prod("ring-ref");
        sys.submit_at(t * 2, write(1, 8));
        sys.run_to_quiescence();
        let s = sys.blkback_stats();
        assert_eq!((s.ring_corrupt, s.requests), (1, 0));
        assert_eq!((sys.metrics.ios, sys.outstanding()), (0, 2));
    }

    /// A recycled read buffer never shows the bytes it held before (the
    /// SoK's shared-state leak, PAPERS.md). Blkfront's spares are seeded
    /// with `0xA5`-filled buffers; reads of sectors nothing has written
    /// return zeros, whole or in two chunks, and so does a shorter read
    /// into the buffer a read of written data just handed back.
    #[test]
    fn a_recycled_read_buffer_shows_none_of_its_previous_bytes() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let mut sys = SystemConfig::new(BackendOs::Kite, 7).build_stor();
        let seen = Rc::new(RefCell::new(Vec::new()));
        let log = seen.clone();
        sys.set_handler(Box::new(move |_, done| {
            if let Some(data) = &done.data {
                log.borrow_mut().push((data.as_ptr(), data.clone()));
            }
            Vec::new()
        }));
        let io = |sys: &mut StorSystem, kind| {
            let at = sys.now() + Nanos::from_micros(10);
            sys.submit_at(at, IoOp { tag: 0, kind });
            sys.run_to_quiescence();
            seen.borrow_mut().pop()
        };
        let read = |sector, len| IoKind::Read { sector, len };
        let seeded = vec![0xa5u8; 6 * 1024];
        let at = seeded.as_ptr();
        sys.dp.blkfront.as_mut().expect("connected").recycle(seeded);
        assert_eq!(io(&mut sys, read(0, 4096)), Some((at, vec![0; 4096])));
        let data = vec![0x77u8; 4096];
        io(&mut sys, IoKind::Write { sector: 8, data });
        let (_, back) = io(&mut sys, read(8, 4096)).expect("read back");
        assert_eq!(back, [0x77; 4096]);
        assert_eq!(io(&mut sys, read(16, 3072)), Some((at, vec![0; 3072])));
        // Two ring requests, 128 + 64 KiB, each gathered into a spare and
        // copied to its offset in a third.
        let seeded = vec![0xa5u8; 200 * 1024];
        sys.dp.blkfront.as_mut().expect("connected").recycle(seeded);
        let (_, back) = io(&mut sys, read(1 << 16, 192 * 1024)).expect("read");
        assert_eq!(back, vec![0; 192 * 1024]);
    }

    /// At quiescence after 128 KiB writes, their read-back and a flush
    /// over four rings, both blkfront pools are sound with nothing out.
    #[test]
    fn four_ring_run_returns_every_page_to_the_pools() {
        let mut sys = SystemConfig::new(BackendOs::Kite, 7).queues(4).build_stor();
        interleaved_streams(&mut sys, 4, 8, 128 * 1024, Nanos::from_micros(2));
        let later = Nanos::from_millis(100);
        for i in 0..8 {
            let kind = IoKind::Read {
                sector: i * 256,
                len: 128 * 1024,
            };
            sys.submit_at(later + Nanos::from_micros(i), IoOp { tag: i, kind });
        }
        let kind = IoKind::Flush;
        sys.submit_at(later * 2, IoOp { tag: 8, kind });
        sys.run_to_quiescence();
        assert_eq!((sys.metrics.ios, sys.outstanding()), (32 + 8 + 1, 0));
        assert_eq!(sys.metrics.read_bytes, 8 * 128 * 1024);
        let bf = sys.dp.blkfront.as_ref().expect("connected");
        assert_eq!(bf.pools_lent(), (0, 0));
        assert_eq!(bf.rejects(), kite_frontends::RspRejects::default());
    }
}
