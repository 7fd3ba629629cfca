//! Shared plumbing for the macro workloads: a tiny length-prefixed message
//! protocol whose messages carry a request id, so multi-chunk requests and
//! responses are reassembled exactly once on each side and every response
//! names the request it answers; the two closed-loop harnesses —
//! [`rr_closed_loop`] over the network scenario, [`stor_closed_loop`] over
//! the storage one — which own all of a closed loop's bookkeeping; and the
//! storage benchmarks' shared prepare phase.

use std::cell::RefCell;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::rc::Rc;

use kite_fs::{Fs, Ino};
use kite_sim::{Histogram, Nanos};
use kite_system::{addrs, BackendOs, IoKind, IoOp, NetSystem, Reply, Side, StorSystem, UdpMsg};

use crate::latency::LatencyStats;

/// Header magic for logical messages.
const MAGIC: u16 = 0x4b4d; // "KM"
/// Header length: magic(2) + kind(2) + total body length(4).
pub const MSG_HEADER: usize = 8;
/// The request id is the body's first four bytes (big-endian), so it
/// adds nothing to the bytes a message puts on the wire.
const ID_LEN: usize = 4;

/// Builds a logical message: header plus a `body_len`-byte body that
/// opens with `id` and is filler after it.
///
/// # Panics
///
/// If `body_len` is too short to carry the id.
pub fn encode_msg(kind: u16, id: u32, body_len: usize) -> Vec<u8> {
    assert!(
        body_len >= ID_LEN,
        "a {body_len}-byte body cannot carry its id"
    );
    let mut out = Vec::with_capacity(MSG_HEADER + body_len);
    out.extend_from_slice(&MAGIC.to_be_bytes());
    out.extend_from_slice(&kind.to_be_bytes());
    out.extend_from_slice(&(body_len as u32).to_be_bytes());
    out.extend_from_slice(&id.to_be_bytes());
    out.resize(MSG_HEADER + body_len, 0x6b);
    out
}

/// A fully reassembled logical message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogicalMsg {
    /// Peer address.
    pub src_ip: Ipv4Addr,
    /// Peer port (the flow key).
    pub src_port: u16,
    /// Local port it arrived on.
    pub dst_port: u16,
    /// Application-defined kind tag.
    pub kind: u16,
    /// The request id: a request's own, or the one a response answers.
    pub id: u32,
    /// Body length in bytes.
    pub body_len: usize,
}

#[derive(Debug)]
struct Partial {
    kind: u16,
    id: u32,
    body_len: usize,
    got: usize,
}

/// Per-flow reassembly of logical messages from UDP chunks.
#[derive(Default)]
pub struct Reassembler {
    flows: HashMap<(Ipv4Addr, u16, u16), Partial>,
    discarded: u64,
}

impl Reassembler {
    /// Creates an empty reassembler.
    pub fn new() -> Reassembler {
        Reassembler::default()
    }

    /// Feeds one UDP chunk; returns the logical message when complete.
    ///
    /// Chunks of one logical message arrive in order on a flow (the
    /// sender cuts each message in one event, and the simulated path is
    /// FIFO); a header starts a new message. What a lost chunk leaves
    /// behind is discarded and counted in [`Reassembler::discarded`].
    pub fn push(&mut self, msg: &UdpMsg) -> Option<LogicalMsg> {
        let key = (msg.src_ip, msg.src_port, msg.dst_port);
        let data: &[u8] = &msg.payload;
        let word = |i: usize| u32::from_be_bytes([data[i], data[i + 1], data[i + 2], data[i + 3]]);
        let open = self.flows.remove(&key);
        let p = if data.len() >= MSG_HEADER + ID_LEN && data[..2] == MAGIC.to_be_bytes() {
            // A message still open lost its tail.
            self.discarded += u64::from(open.is_some());
            Partial {
                kind: u16::from_be_bytes([data[2], data[3]]),
                id: word(MSG_HEADER),
                body_len: word(4) as usize,
                got: data.len() - MSG_HEADER,
            }
        } else if let Some(mut p) = open {
            p.got += data.len();
            p
        } else {
            // No header and no message open: one that lost its head.
            self.discarded += 1;
            return None;
        };
        if p.got < p.body_len {
            self.flows.insert(key, p);
            return None;
        }
        Some(LogicalMsg {
            src_ip: msg.src_ip,
            src_port: msg.src_port,
            dst_port: msg.dst_port,
            kind: p.kind,
            id: p.id,
            body_len: p.body_len,
        })
    }

    /// Chunks dropped because they arrived with no header while no
    /// message was open on their flow, plus messages cut off by the
    /// next header while still partial. Each follows a lost chunk.
    pub fn discarded(&self) -> u64 {
        self.discarded
    }
}

/// Configuration of a generic closed-loop request/response benchmark over
/// the network scenario (Apache/ab, Redis, sysbench-MySQL, memtier all
/// specialize this).
pub struct RrConfig {
    /// Concurrent workers (connections/threads on the load generator).
    pub workers: u16,
    /// Requests each worker performs.
    pub ops_per_worker: u64,
    /// Outstanding requests per worker (1 = strict closed loop;
    /// >1 = pipelining, as redis-benchmark's `-P`).
    pub pipeline: u32,
    /// Request body size for op index `i` (kind, bytes).
    pub request: Box<dyn Fn(u64) -> (u16, usize)>,
    /// Response body size for a request of `kind`.
    pub response: Box<dyn Fn(u16) -> usize>,
    /// Server compute cost per request.
    pub server_cost: Nanos,
    /// Server port.
    pub port: u16,
}

/// Results of a closed-loop run.
#[derive(Debug)]
pub struct RrResult {
    /// Per-request latency (first byte of request to last of response).
    pub latency: LatencyStats,
    /// Completed requests.
    pub ops: u64,
    /// Virtual time from first send to last completion.
    pub duration: Nanos,
    /// Response payload bytes received by the client.
    pub resp_bytes: u64,
    /// Guest mean CPU utilization over the run (sysstat style).
    pub guest_cpu: f64,
    /// Requests never answered, each behind a counted drop.
    pub unanswered: u64,
}

/// [`rr_closed_loop`]'s state, the one cell both endpoints' handlers share.
struct RrLoop {
    cfg: RrConfig,
    /// Requests each worker has sent.
    started: Vec<u64>,
    /// Unanswered requests by id: the worker that sent each, and when.
    sent: HashMap<u32, (u16, Nanos)>,
    next_id: u32,
    latency: LatencyStats,
    resp_bytes: u64,
    client: Reassembler,
    server: Reassembler,
}

impl RrLoop {
    /// Worker `w`'s next request, sent at `now`; `None` once it has sent
    /// its share.
    fn request(&mut self, w: u16, now: Nanos) -> Option<Reply> {
        let started = &mut self.started[usize::from(w)];
        if *started == self.cfg.ops_per_worker {
            return None;
        }
        let (kind, body) = (self.cfg.request)(*started);
        *started += 1;
        let id = self.next_id;
        self.next_id += 1;
        self.sent.insert(id, (w, now));
        Some(Reply {
            dst_ip: addrs::GUEST,
            dst_port: self.cfg.port,
            src_port: 30_000 + w,
            payload: encode_msg(kind, id, body),
            cost: Nanos::from_micros(2),
        })
    }
}

/// Runs the closed-loop benchmark against one driver-domain OS. Worker
/// `i` sends `pipeline` requests at `100 + 3i` µs and one more whenever
/// a response arrives, matched to its request by id.
///
/// # Panics
///
/// If more requests are unanswered at quiescence than frames were
/// dropped: a request went missing that no counted drop explains.
pub fn rr_closed_loop(os: BackendOs, cfg: RrConfig) -> RrResult {
    let mut sys = NetSystem::new(os);
    let (workers, pipeline) = (cfg.workers, cfg.pipeline);
    let state = Rc::new(RefCell::new(RrLoop {
        cfg,
        started: vec![0; usize::from(workers)],
        sent: HashMap::new(),
        next_id: 0,
        latency: LatencyStats::new(),
        resp_bytes: 0,
        client: Reassembler::new(),
        server: Reassembler::new(),
    }));
    let server = Rc::clone(&state);
    sys.set_guest_app(Box::new(move |_, msg| {
        let st = &mut *server.borrow_mut();
        let Some(req) = st.server.push(msg) else {
            return Vec::new();
        };
        vec![Reply {
            dst_ip: req.src_ip,
            dst_port: req.src_port,
            src_port: req.dst_port,
            payload: encode_msg(req.kind, req.id, (st.cfg.response)(req.kind)),
            cost: st.cfg.server_cost,
        }]
    }));
    let client = Rc::clone(&state);
    sys.set_client_app(Box::new(move |now, msg| {
        let st = &mut *client.borrow_mut();
        let Some(rsp) = st.client.push(msg) else {
            return Vec::new();
        };
        let Some((w, t0)) = st.sent.remove(&rsp.id) else {
            panic!(
                "rr_closed_loop: response to request {}, not outstanding",
                rsp.id
            );
        };
        st.latency.push_nanos(now - t0);
        st.resp_bytes += rsp.body_len as u64;
        st.request(w, now).into_iter().collect()
    }));
    for w in 0..workers {
        let t = Nanos::from_micros(100 + u64::from(w) * 3);
        for _ in 0..pipeline {
            let Some(r) = state.borrow_mut().request(w, t) else {
                break;
            };
            sys.send_udp_at(t, Side::Client, r.dst_ip, r.dst_port, r.src_port, r.payload);
        }
    }
    sys.run_to_quiescence();
    let end = sys.now();
    let st = &mut *state.borrow_mut();
    let (unanswered, drops) = (st.sent.len() as u64, sys.metrics.drops);
    assert!(
        unanswered <= drops,
        "rr_closed_loop: {unanswered} requests unanswered, {drops} frames dropped \
         (the client discarded {}, the server {})",
        st.client.discarded(),
        st.server.discarded(),
    );
    RrResult {
        ops: st.latency.count(),
        latency: std::mem::take(&mut st.latency),
        duration: end,
        resp_bytes: st.resp_bytes,
        guest_cpu: sys.guest_cpu_percent(end),
        unanswered,
    }
}

/// What [`stor_closed_loop`] measured.
#[derive(Debug, Default)]
pub struct StorResult {
    /// Latency of the device I/Os the loop issued, and of nothing `sys`
    /// ran before.
    pub latency: Histogram,
    /// Operations completed, those that needed no device I/O included.
    pub ops: u64,
    /// Bytes those operations moved for the application.
    pub bytes: u64,
}

/// [`stor_closed_loop`]'s state, the one cell its completion handler
/// shares.
struct StorLoop<F> {
    next: F,
    /// Per worker, the device I/Os of its operation still in flight.
    waiting: Vec<usize>,
    result: StorResult,
}

impl<F: FnMut(u64, u64) -> Option<(u64, Vec<IoOp>)>> StorLoop<F> {
    /// Worker `w`'s next operation that needs device I/O, each one before
    /// it that needs none done on the spot; empty once `next` retires it.
    fn ask(&mut self, w: usize) -> Vec<IoOp> {
        while let Some((bytes, ios)) = (self.next)(w as u64, self.result.ops) {
            self.result.bytes += bytes;
            if !ios.is_empty() {
                self.waiting[w] = ios.len();
                return ios;
            }
            self.result.ops += 1;
        }
        Vec::new()
    }
}

/// The storage twin of [`rr_closed_loop`]: `workers` threads over `sys`,
/// each keeping one logical operation outstanding. `next(worker, done)`
/// is asked for a worker's next operation, `done` being the operations
/// completed so far: `None` retires the worker; otherwise it yields the
/// bytes the operation moves for the application and its device I/Os,
/// each tagged with the worker's index — none for an operation done on
/// the spot. Worker `i` is asked first at `start + i` µs, then whenever
/// the last I/O of its operation completes. Runs to quiescence.
///
/// # Panics
///
/// If a worker has not retired at quiescence: it waits on an I/O that
/// never completed, and the run would otherwise pass for a short one.
pub fn stor_closed_loop(
    sys: &mut StorSystem,
    start: Nanos,
    workers: u16,
    next: impl FnMut(u64, u64) -> Option<(u64, Vec<IoOp>)> + 'static,
) -> StorResult {
    let mut st = StorLoop {
        next,
        waiting: vec![0; usize::from(workers)],
        result: StorResult::default(),
    };
    for w in 0..usize::from(workers) {
        for op in st.ask(w) {
            sys.submit_at(start + Nanos::from_micros(w as u64), op);
        }
    }
    let state = Rc::new(RefCell::new(st));
    let handler = Rc::clone(&state);
    sys.set_handler(Box::new(move |now, done| {
        assert!(done.ok, "closed-loop I/O failed");
        let st = &mut *handler.borrow_mut();
        st.result.latency.record(now - done.submitted);
        let w = done.tag as usize;
        st.waiting[w] -= 1;
        if st.waiting[w] > 0 {
            return Vec::new();
        }
        st.result.ops += 1;
        st.ask(w)
    }));
    sys.run_to_quiescence();
    let st = &mut *state.borrow_mut();
    if let Some((w, left)) = st.waiting.iter().enumerate().find(|&(_, &n)| n > 0) {
        panic!("stor_closed_loop: worker {w} stalled, {left} I/Os outstanding");
    }
    std::mem::take(&mut st.result)
}

/// A storage benchmark's data set: the system it was written through,
/// the filesystem that laid it out, and the files by name.
pub struct FileSet {
    /// The storage system, quiescent after the last prepare write.
    pub sys: StorSystem,
    /// The extent filesystem over the device, caches dropped.
    pub fs: Fs,
    /// Every file created, in creation order.
    pub files: Vec<(String, Ino)>,
}

/// The prepare phase of sysbench fileio and Filebench: creates `nfiles`
/// files (`size()` bytes each, drawn in creation order) on a 4 GiB
/// filesystem with a 64 MiB page cache — the data set deliberately
/// exceeds the cache, as in the paper — writes them through the PV path
/// one device I/O every `pace`, then drops the caches.
pub fn prepare_files(
    os: BackendOs,
    nfiles: usize,
    pace: Nanos,
    mut size: impl FnMut() -> usize,
) -> FileSet {
    let mut sys = StorSystem::new(os);
    let mut fs = Fs::format(1 << 20, 16_384);
    let mut files = Vec::with_capacity(nfiles);
    let mut t = Nanos::from_micros(100);
    for i in 0..nfiles {
        let name = format!("f{i:06}");
        let ino = fs.create(&name).expect("fresh name");
        for io in fs.write(ino, 0, size()).expect("device has room") {
            let kind = IoKind::Write {
                sector: io.sector,
                data: vec![0x5a; io.bytes],
            };
            sys.submit_at(t, IoOp { tag: 0, kind });
            t += pace;
        }
        files.push((name, ino));
    }
    sys.run_to_quiescence();
    fs.drop_caches();
    FileSet { sys, fs, files }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Splits like a transport would; the reassembler must not care
    /// where the cuts fall.
    fn chunk(payload: &[u8]) -> Vec<Vec<u8>> {
        const CHUNK: usize = 4000;
        payload.chunks(CHUNK).map(|c| c.to_vec()).collect()
    }

    fn msg(payload: Vec<u8>) -> UdpMsg {
        UdpMsg {
            src_ip: "10.0.0.1".parse().unwrap(),
            src_port: 1000,
            dst_port: 80,
            payload: payload.into(),
        }
    }

    /// Every operation is two 4 KiB writes under its worker's tag, so two
    /// device I/Os of one worker are in flight at once: all 40 operations
    /// run and every worker retires.
    #[test]
    fn closed_loop_runs_operations_of_several_device_ios() {
        const WORKERS: u16 = 4;
        const OPS: u64 = 10;
        let mut sys = StorSystem::new(BackendOs::Kite);
        let mut issued = [0u64; WORKERS as usize];
        let r = stor_closed_loop(&mut sys, Nanos::from_micros(10), WORKERS, move |w, _| {
            let i = &mut issued[w as usize];
            if *i == OPS {
                return None;
            }
            *i += 1;
            let write = |sector| IoOp {
                tag: w,
                kind: IoKind::Write {
                    sector,
                    data: vec![0x11; 4096],
                },
            };
            let sector = (w << 20) + *i * 16;
            Some((8192, vec![write(sector), write(sector + 8)]))
        });
        let ios = 2 * OPS * u64::from(WORKERS);
        assert_eq!(sys.metrics.ios, ios, "every device I/O completed");
        assert_eq!(r.latency.count(), ios, "and is in the loop's latency");
        assert_eq!(r.ops, OPS * u64::from(WORKERS));
        assert_eq!(r.bytes, 8192 * r.ops);
        assert_eq!(sys.outstanding(), 0);
    }

    /// Every third operation needs no device I/O, the first ask of each
    /// worker's included: the loop counts each operation it ran once,
    /// whether it completed on the spot or on a device completion, and
    /// `done` tells the generator that count as it goes.
    #[test]
    fn closed_loop_counts_operations_that_need_no_device_io() {
        const WORKERS: u16 = 3;
        const BUDGET: u64 = 30;
        let mut sys = StorSystem::new(BackendOs::Kite);
        let (mut issued, mut with_io) = (0u64, 0u64);
        let r = stor_closed_loop(&mut sys, Nanos::from_micros(10), WORKERS, move |w, done| {
            assert!(done <= issued, "{done} completed of {issued} issued");
            if issued == BUDGET {
                return None;
            }
            issued += 1;
            if issued % 3 == 1 {
                return Some((1, Vec::new()));
            }
            with_io += 1;
            let kind = IoKind::Read {
                sector: with_io * 8,
                len: 4096,
            };
            Some((1, vec![IoOp { tag: w, kind }]))
        });
        assert_eq!(r.ops, BUDGET, "every operation issued is counted once");
        assert_eq!(r.bytes, BUDGET);
        assert_eq!(
            sys.metrics.ios,
            2 * BUDGET / 3,
            "only the others reach the device"
        );
        assert_eq!(r.latency.count(), sys.metrics.ios);
    }

    /// The loop's latency covers its own I/Os only. Prepare writes
    /// 8 MiB files far faster than the device takes them, so its writes
    /// queue for tens of milliseconds; one worker's random 4 KiB reads
    /// still report the 4 KiB random-read band: the device's penalty and
    /// read latency, plus at most half a millisecond of PV path.
    #[test]
    fn closed_loop_latency_leaves_out_the_prepare_phase() {
        let FileSet { mut sys, .. } =
            prepare_files(BackendOs::Kite, 16, Nanos::from_micros(1), || 8 << 20);
        let mut left = 20u64;
        let start = sys.now() + Nanos::from_millis(1);
        let r = stor_closed_loop(&mut sys, start, 1, move |tag, _| {
            if left == 0 {
                return None;
            }
            left -= 1;
            let sector = 4096 + left * 2048;
            let kind = IoKind::Read { sector, len: 4096 };
            Some((4096, vec![IoOp { tag, kind }]))
        });
        let p = sys.nvme.profile();
        let floor = (p.random_penalty + p.read_latency).as_nanos() as f64;
        let band = floor..floor + 500_000.0;
        let latency = r.latency;
        assert_eq!(latency.count(), 20);
        assert!(
            band.contains(&latency.mean()),
            "mean {} ns outside {band:?}",
            latency.mean()
        );
        let all = sys.metrics.latency.mean();
        assert!(
            all > 2.0 * band.end,
            "prepare's queued writes dominate the system's mean: {all}"
        );
    }

    /// Requests and responses of several chunks each, both ways through
    /// the full PV path: every response is matched to its request by id,
    /// none goes missing, and the latency has one sample per request.
    #[test]
    fn rr_closed_loop_answers_every_request_of_a_lossless_run() {
        let r = rr_closed_loop(
            BackendOs::Kite,
            RrConfig {
                workers: 3,
                ops_per_worker: 7,
                pipeline: 2,
                request: Box::new(|i| (1 + i as u16 % 2, 5000 + 100 * i as usize)),
                response: Box::new(|kind| 20_000 * usize::from(kind)),
                server_cost: Nanos::from_micros(5),
                port: 8080,
            },
        );
        assert_eq!((r.ops, r.unanswered), (21, 0));
        assert_eq!(r.latency.count(), 21);
        // Four of each worker's seven requests are kind 1, three kind 2.
        assert_eq!(r.resp_bytes, 3 * (4 * 20_000 + 3 * 40_000));
    }

    /// The id a client puts in a request comes back in the server's
    /// response, through chunking and reassembly on both sides: ids whose
    /// leading bytes spell the header magic included.
    #[test]
    fn request_id_survives_reassembly_and_the_servers_echo() {
        for id in [0, 1, 0x4b4d_0000, 0x4b4d_4b4d, u32::MAX] {
            let (mut server, mut client) = (Reassembler::new(), Reassembler::new());
            let mut req = None;
            for c in chunk(&encode_msg(2, id, 9000)) {
                req = req.or(server.push(&msg(c)));
            }
            let req = req.expect("request reassembled");
            assert_eq!((req.kind, req.id, req.body_len), (2, id, 9000));
            let mut rsp = None;
            for c in chunk(&encode_msg(req.kind, req.id, 12_000)) {
                rsp = rsp.or(client.push(&msg(c)));
            }
            assert_eq!(rsp.expect("response reassembled").id, id);
            assert_eq!((server.discarded(), client.discarded()), (0, 0));
        }
    }

    #[test]
    fn single_chunk_message() {
        let mut r = Reassembler::new();
        let m = encode_msg(7, 3, 100);
        let out = r.push(&msg(m)).unwrap();
        assert_eq!(out.kind, 7);
        assert_eq!(out.id, 3);
        assert_eq!(out.body_len, 100);
    }

    #[test]
    fn multi_chunk_message_completes_once() {
        let mut r = Reassembler::new();
        let m = encode_msg(3, 0, 10_000);
        let chunks = chunk(&m);
        assert!(chunks.len() > 2);
        let mut results = Vec::new();
        for c in &chunks {
            if let Some(l) = r.push(&msg(c.clone())) {
                results.push(l);
            }
        }
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].body_len, 10_000);
    }

    #[test]
    fn back_to_back_messages_on_one_flow() {
        let mut r = Reassembler::new();
        for k in 0..5u16 {
            let m = encode_msg(k, u32::from(k), 6000);
            let mut seen = 0;
            for c in chunk(&m) {
                if let Some(l) = r.push(&msg(c)) {
                    assert_eq!((l.kind, l.id), (k, u32::from(k)));
                    seen += 1;
                }
            }
            assert_eq!(seen, 1);
        }
    }

    /// A chunk with no header while no message is open is counted and
    /// dropped, and leaves the flow clean for the next real message.
    #[test]
    fn garbage_header_dropped() {
        let mut r = Reassembler::new();
        assert!(r.push(&msg(vec![0; 20])).is_none());
        let m = encode_msg(1, 0, 10);
        assert!(r.push(&msg(m)).is_some());
        assert_eq!(r.discarded(), 1);
    }

    /// A message that lost its last chunk is still partial when the next
    /// message's header arrives: the partial one is discarded and
    /// counted, and the new one is reassembled whole — not read as the
    /// old one's body, which would merge the two.
    #[test]
    fn header_while_partial_cuts_the_old_message() {
        let mut r = Reassembler::new();
        let lost_tail = chunk(&encode_msg(1, 10, 9000));
        assert!(r.push(&msg(lost_tail[0].clone())).is_none());
        let next = r.push(&msg(encode_msg(2, 11, 100)));
        let next = next.expect("the new message stands alone");
        assert_eq!((next.kind, next.id, next.body_len), (2, 11, 100));
        assert_eq!(r.discarded(), 1);
    }

    #[test]
    fn flows_are_independent() {
        let mut r = Reassembler::new();
        let m = encode_msg(1, 0, 9000);
        let chunks = chunk(&m);
        let mut m1 = msg(chunks[0].clone());
        m1.src_port = 1;
        let mut m2 = msg(chunks[0].clone());
        m2.src_port = 2;
        assert!(r.push(&m1).is_none());
        assert!(r.push(&m2).is_none());
        let mut t1 = msg(chunks[1].clone());
        t1.src_port = 1;
        // 4000-8+4000 < 9000: still incomplete.
        assert!(r.push(&t1).is_none());
        let mut t1b = msg(chunks[2].clone());
        t1b.src_port = 1;
        assert!(r.push(&t1b).is_some());
    }
}
