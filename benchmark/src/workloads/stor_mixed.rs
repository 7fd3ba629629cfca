//! `stor_mixed` — closed-loop mixed storage I/O over four blkback rings.
//!
//! Four streams — sequential 128 KiB writes and random 4 KiB reads over
//! region A, random 4 KiB writes and sequential 128 KiB reads over region
//! B (32 MiB each, wrapping; offsets from the seed) — issued in strict
//! rotation at a total queue depth of 32: every completion issues the
//! next I/O of the rotation until 5 000 have been issued. `queues(4)`,
//! NVMe profile with a 2 µs random penalty.
//!
//! Rotation rather than four independent depth-8 loops: with independent
//! loops the faster small-I/O streams take a share of the budget that
//! depends on the modelled timing (27–31 % each vs 21 % for the large
//! ones, moving with the seed), so bytes per repetition — and with them
//! every host-side per-operation number — would change whenever virtual
//! time does. In rotation each repetition is exactly 1 250 I/Os of each
//! kind, 330 MB, whatever the timing.
//!
//! Why: exercises only blkfront / blkback / NVMe — every net phase must
//! read zero — and puts reads beside writes and indirect-segment,
//! persistent-grant large I/O beside per-request-overhead small I/O.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use kite::devices::NvmeProfile;
use kite::sim::{Nanos, Pcg};
use kite::system::{BackendOs, IoDone, IoKind, IoOp, StorSystem, SystemConfig};
use kite::xen::{DomainId, DomainKind};

use crate::harness::{busy_ns, hypercall_counters, Harness};
use crate::rep::{fill_of, note, Rep, HDR};

pub const IOS: u64 = 5_000;
const DEPTH: u64 = 32;
const BLOCK: usize = 4096;
const BLOCK_SECTORS: u64 = (BLOCK / 512) as u64;
const LARGE_BLOCKS: u64 = 32; // 128 KiB
const REGION_BLOCKS: u64 = 8192; // 32 MiB
/// Region B starts 512 MiB into the disk, far from region A.
const REGION_B: u64 = 1 << 17;
const START: Nanos = Nanos::from_micros(10);

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Stream {
    SeqWrite,
    SeqRead,
    RandRead,
    RandWrite,
}

const STREAMS: [Stream; 4] = [
    Stream::SeqWrite,
    Stream::SeqRead,
    Stream::RandRead,
    Stream::RandWrite,
];

impl Stream {
    fn is_write(self) -> bool {
        matches!(self, Stream::SeqWrite | Stream::RandWrite)
    }

    fn blocks(self) -> u64 {
        match self {
            Stream::SeqWrite | Stream::SeqRead => LARGE_BLOCKS,
            Stream::RandRead | Stream::RandWrite => 1,
        }
    }

    /// First block of the region the stream works in.
    fn region(self) -> u64 {
        match self {
            Stream::SeqWrite | Stream::RandRead => 0,
            Stream::SeqRead | Stream::RandWrite => REGION_B,
        }
    }
}

struct InFlight {
    stream: Stream,
    first: u64,
    /// Writes: this write's stamp. Reads: unused.
    stamp: u64,
    /// Reads: per block, the stamp of the last write that had completed
    /// when the read was submitted (0 = never written).
    snapshot: Vec<u64>,
}

/// The generator and the shadow model of the disk it checks reads against.
///
/// Every 4 KiB block a write carries starts with (block number, stamp),
/// stamp = 1 + the write's index, and is filled with a byte derived from
/// the stamp. At most one write per block is ever in flight (the random
/// writer re-draws, the sequential writer laps the region only every 256
/// writes), so per block writes complete in issue order and a read must
/// return, for every block, either zero-fill when nothing had completed
/// there, or a write to that block no older than the last one completed
/// before the read was submitted.
struct State {
    rng: Pcg,
    issued: u64,
    completed: u64,
    bytes: u64,
    cursor: [u64; 4],
    /// Stamp of the last completed write per block, regions A then B.
    committed: Vec<u64>,
    /// (first block, blocks) of every write issued, by stamp − 1.
    writes: Vec<(u64, u64)>,
    inflight: BTreeMap<u64, InFlight>,
    lat_ns: Vec<u64>,
    last_done: Nanos,
    errors: Vec<String>,
}

fn shadow_index(block: u64) -> usize {
    if block >= REGION_B {
        (REGION_BLOCKS + block - REGION_B) as usize
    } else {
        block as usize
    }
}

impl State {
    fn overlaps_inflight(&self, first: u64, blocks: u64) -> bool {
        self.inflight
            .values()
            .any(|f| first < f.first + f.stream.blocks() && f.first < first + blocks)
    }

    /// Builds the next I/O of the rotation and registers it as in flight.
    fn next_op(&mut self) -> IoOp {
        let si = (self.issued % STREAMS.len() as u64) as usize;
        let stream = STREAMS[si];
        let blocks = stream.blocks();
        let first = stream.region()
            + match stream {
                Stream::SeqWrite | Stream::SeqRead => {
                    let at = self.cursor[si];
                    self.cursor[si] = (at + blocks) % REGION_BLOCKS;
                    at
                }
                Stream::RandRead => self.rng.range_u64(0, REGION_BLOCKS),
                Stream::RandWrite => loop {
                    let at = self.rng.range_u64(0, REGION_BLOCKS);
                    if !self.overlaps_inflight(stream.region() + at, 1) {
                        break at;
                    }
                },
            };
        let tag = self.issued;
        self.issued += 1;
        let sector = first * BLOCK_SECTORS;
        let (kind, stamp, snapshot) = if stream.is_write() {
            self.writes.push((first, blocks));
            let stamp = self.writes.len() as u64;
            let mut data = vec![fill_of(stamp); blocks as usize * BLOCK];
            for (k, b) in data.chunks_exact_mut(BLOCK).enumerate() {
                b[..8].copy_from_slice(&(first + k as u64).to_le_bytes());
                b[8..HDR].copy_from_slice(&stamp.to_le_bytes());
            }
            (IoKind::Write { sector, data }, stamp, Vec::new())
        } else {
            let snapshot = (first..first + blocks)
                .map(|b| self.committed[shadow_index(b)])
                .collect();
            let len = blocks as usize * BLOCK;
            (IoKind::Read { sector, len }, 0, snapshot)
        };
        self.inflight.insert(
            tag,
            InFlight {
                stream,
                first,
                stamp,
                snapshot,
            },
        );
        IoOp { tag, kind }
    }

    fn check_read(&self, f: &InFlight, data: &[u8]) -> Result<(), String> {
        if data.len() != f.stream.blocks() as usize * BLOCK {
            return Err(format!(
                "read at block {} returned {} bytes",
                f.first,
                data.len()
            ));
        }
        for (k, b) in data.chunks_exact(BLOCK).enumerate() {
            let block = f.first + k as u64;
            let snap = f.snapshot[k];
            let named = u64::from_le_bytes(b[..8].try_into().expect("8 bytes"));
            let stamp = u64::from_le_bytes(b[8..HDR].try_into().expect("8 bytes"));
            let ok = if stamp == 0 {
                snap == 0 && b.iter().all(|&x| x == 0)
            } else {
                named == block
                    && stamp >= snap
                    && self
                        .writes
                        .get(stamp as usize - 1)
                        .is_some_and(|&(w, n)| (w..w + n).contains(&block))
                    && b[HDR..].iter().all(|&x| x == fill_of(stamp))
            };
            if !ok {
                return Err(format!(
                    "block {block}: read stamp {stamp} naming block {named}, committed {snap}"
                ));
            }
        }
        Ok(())
    }

    /// The completion handler: check the finished I/O, then keep the
    /// queue at depth while the budget lasts.
    fn on_done(&mut self, now: Nanos, done: &IoDone) -> Vec<IoOp> {
        let Some(f) = self.inflight.remove(&done.tag) else {
            note(
                &mut self.errors,
                format!("tag {} completed twice", done.tag),
            );
            return Vec::new();
        };
        let checked = if !done.ok {
            Err(format!("tag {} failed", done.tag))
        } else if f.stream.is_write() {
            for b in f.first..f.first + f.stream.blocks() {
                self.committed[shadow_index(b)] = f.stamp;
            }
            Ok(())
        } else {
            match &done.data {
                Some(d) => self.check_read(&f, d),
                None => Err(format!("read tag {} returned no data", done.tag)),
            }
        };
        match checked {
            Ok(()) => {
                self.completed += 1;
                self.bytes += f.stream.blocks() * BLOCK as u64;
                self.lat_ns.push((now - done.submitted).0);
                self.last_done = now;
            }
            Err(e) => note(&mut self.errors, e),
        }
        if self.issued < IOS {
            vec![self.next_op()]
        } else {
            Vec::new()
        }
    }
}

/// Deterministic counters of a finished storage repetition.
fn stor_counters(sys: &StorSystem) -> Vec<(&'static str, u64)> {
    let bb = sys.blkback_stats();
    let now = sys.now();
    let mut out = vec![
        ("ios", sys.metrics.ios),
        ("logical_read_bytes", sys.metrics.read_bytes),
        ("logical_write_bytes", sys.metrics.write_bytes),
        ("quiesced_at", now.0),
        ("dd_vcpus", sys.queue_count() as u64),
        (
            "dd_busy_ns",
            busy_ns(sys.driver_cpu_percent(now), now, sys.queue_count()),
        ),
        ("gnt_copy_ops", bb.copy.ops),
        ("gnt_copy_bytes", bb.copy.bytes),
        ("bb_requests", bb.requests),
        ("bb_device_ops", bb.device_ops),
        ("bb_persistent_hits", bb.persistent_hits),
        ("bb_grant_maps", bb.grant_maps),
        ("bb_errors", bb.errors),
        ("nvme_cmds", sys.nvme.reads() + sys.nvme.writes()),
        ("nvme_seq_hits", sys.nvme.seq_hits()),
        ("nvme_random_penalties", sys.nvme.random_penalties()),
    ];
    out.extend(hypercall_counters(
        sys.hv.meter(dom_of(sys, DomainKind::Driver)),
        sys.hv.meter(dom_of(sys, DomainKind::Guest)),
    ));
    out
}

/// `StorSystem` has no domain-id accessors; find the live domain of a
/// kind in the hypervisor's public domain table.
fn dom_of(sys: &StorSystem, kind: DomainKind) -> DomainId {
    sys.hv
        .domains
        .iter()
        .find(|d| d.kind == kind)
        .expect("the scenario has one live domain of each kind")
        .id
}

pub fn rep(seed: u64, traced: bool) -> Rep {
    let mut h = Harness::start(traced);
    let mut cfg = SystemConfig::new(BackendOs::Kite, seed)
        .queues(4)
        .nvme_profile(NvmeProfile::default().with_random_penalty(Nanos::from_micros(2)));
    if traced {
        cfg = cfg.profiling(true).req_tracing(16);
    }
    let mut sys = cfg.build_stor();
    let st = Rc::new(RefCell::new(State {
        rng: Pcg::new(seed, 0x7374_6f72),
        issued: 0,
        completed: 0,
        bytes: 0,
        cursor: [0; 4],
        committed: vec![0; 2 * REGION_BLOCKS as usize],
        writes: Vec::with_capacity(IOS as usize),
        inflight: BTreeMap::new(),
        lat_ns: Vec::with_capacity(IOS as usize),
        last_done: Nanos::ZERO,
        errors: Vec::new(),
    }));
    let handler = Rc::clone(&st);
    sys.set_handler(Box::new(move |now, done| {
        handler.borrow_mut().on_done(now, done)
    }));
    h.built();

    for _ in 0..DEPTH {
        let op = st.borrow_mut().next_op();
        sys.submit_at(START, op);
    }
    h.run_closed_loop(&mut sys, IOS, || st.borrow().completed, |_, _| {});

    let mut s = st.borrow_mut();
    let mut rep = Rep {
        attempted: IOS,
        completed: s.completed,
        payload_bytes: s.bytes,
        first_send: START,
        last_done: s.last_done,
        lat_ns: std::mem::take(&mut s.lat_ns),
        events: sys.events_processed(),
        errors: std::mem::take(&mut s.errors),
        ..Rep::default()
    };
    if sys.metrics.ios != s.completed || sys.outstanding() != 0 {
        note(
            &mut rep.errors,
            format!(
                "conservation: system completed {} with {} outstanding, handler checked {}",
                sys.metrics.ios,
                sys.outstanding(),
                s.completed
            ),
        );
    }
    if sys.metrics.read_bytes + sys.metrics.write_bytes != s.bytes {
        note(
            &mut rep.errors,
            format!(
                "system moved {} bytes, harness checked {}",
                sys.metrics.read_bytes + sys.metrics.write_bytes,
                s.bytes
            ),
        );
    }
    rep.counters = stor_counters(&sys);
    h.finish(&sys.hv.req, &mut rep);
    rep
}
