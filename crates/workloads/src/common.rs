//! Shared plumbing for the macro workloads: a tiny length-prefixed message
//! protocol so multi-chunk requests/responses are reassembled exactly once
//! on each side, plus the two closed-loop harnesses — [`rr_closed_loop`]
//! over the network scenario, [`stor_closed_loop`] over the storage one —
//! and the storage benchmarks' shared prepare phase.

use std::cell::RefCell;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::rc::Rc;

use kite_fs::{Fs, Ino};
use kite_sim::{Nanos, OnlineStats};
use kite_system::{BackendOs, IoKind, IoOp, StorSystem, UdpMsg};

/// Header magic for logical messages.
const MAGIC: u16 = 0x4b4d; // "KM"
/// Header length: magic(2) + kind(2) + total body length(4).
pub const MSG_HEADER: usize = 8;

/// Builds a logical message: header plus `body_len` filler bytes.
pub fn encode_msg(kind: u16, body_len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(MSG_HEADER + body_len);
    out.extend_from_slice(&MAGIC.to_be_bytes());
    out.extend_from_slice(&kind.to_be_bytes());
    out.extend_from_slice(&(body_len as u32).to_be_bytes());
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
    /// Body length in bytes.
    pub body_len: usize,
    /// Arrival time of the first chunk.
    pub started: Nanos,
}

#[derive(Debug)]
struct Partial {
    kind: u16,
    body_len: usize,
    got: usize,
    started: Nanos,
}

/// Per-flow reassembly of logical messages from UDP chunks.
#[derive(Default)]
pub struct Reassembler {
    flows: HashMap<(Ipv4Addr, u16, u16), Partial>,
}

impl Reassembler {
    /// Creates an empty reassembler.
    pub fn new() -> Reassembler {
        Reassembler::default()
    }

    /// Feeds one UDP chunk; returns the logical message when complete.
    ///
    /// Chunks of one logical message arrive in order on a flow (the
    /// simulated path is FIFO); a fresh header starts a new message.
    pub fn push(&mut self, now: Nanos, msg: &UdpMsg) -> Option<LogicalMsg> {
        let key = (msg.src_ip, msg.src_port, msg.dst_port);
        let p = self.flows.entry(key).or_insert(Partial {
            kind: 0,
            body_len: 0,
            got: 0,
            started: now,
        });
        let mut data: &[u8] = &msg.payload;
        if p.got == 0 {
            // Expect a header.
            if data.len() < MSG_HEADER || u16::from_be_bytes([data[0], data[1]]) != MAGIC {
                self.flows.remove(&key);
                return None;
            }
            p.kind = u16::from_be_bytes([data[2], data[3]]);
            p.body_len = u32::from_be_bytes([data[4], data[5], data[6], data[7]]) as usize;
            p.started = now;
            data = &data[MSG_HEADER..];
        }
        p.got += data.len();
        if p.got >= p.body_len {
            let done = LogicalMsg {
                src_ip: msg.src_ip,
                src_port: msg.src_port,
                dst_port: msg.dst_port,
                kind: p.kind,
                body_len: p.body_len,
                started: p.started,
            };
            self.flows.remove(&key);
            Some(done)
        } else {
            None
        }
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
    pub server_cost: kite_sim::Nanos,
    /// Server port.
    pub port: u16,
}

/// Results of a closed-loop run.
#[derive(Debug)]
pub struct RrResult {
    /// Per-request latency (first byte of request to last of response).
    pub latency: kite_sim::OnlineStats,
    /// Completed requests.
    pub ops: u64,
    /// Virtual time from first send to last completion.
    pub duration: kite_sim::Nanos,
    /// Response payload bytes received by the client.
    pub resp_bytes: u64,
    /// Guest mean CPU utilization over the run (sysstat style).
    pub guest_cpu: f64,
}

/// Runs the closed-loop benchmark against one driver-domain OS.
pub fn rr_closed_loop(os: kite_system::BackendOs, seed: u64, cfg: RrConfig) -> RrResult {
    use kite_system::{addrs, NetSystem, Reply, Side};
    use std::collections::VecDeque;

    let mut sys = NetSystem::new(os, seed);
    let server_asm = Rc::new(RefCell::new(Reassembler::new()));
    let sa = server_asm.clone();
    let response = cfg.response;
    let server_cost = cfg.server_cost;
    sys.set_guest_app(Box::new(move |now, msg| {
        let Some(req) = sa.borrow_mut().push(now, msg) else {
            return Vec::new();
        };
        vec![Reply {
            dst_ip: req.src_ip,
            dst_port: req.src_port,
            src_port: req.dst_port,
            payload: encode_msg(req.kind, response(req.kind)),
            cost: server_cost,
        }]
    }));

    struct Worker {
        outstanding: VecDeque<Nanos>,
        started: u64,
        done: u64,
    }
    let workers: Rc<RefCell<HashMap<u16, Worker>>> = Rc::new(RefCell::new(HashMap::new()));
    let latency = Rc::new(RefCell::new(kite_sim::OnlineStats::new()));
    let resp_bytes = Rc::new(RefCell::new(0u64));
    let client_asm = Rc::new(RefCell::new(Reassembler::new()));
    let ops_per_worker = cfg.ops_per_worker;
    let request = cfg.request;
    let port = cfg.port;

    let mk_req = std::rc::Rc::new(
        move |w: &mut Worker, now: Nanos, src_port: u16| -> Vec<Reply> {
            if w.started >= ops_per_worker {
                return Vec::new();
            }
            let (kind, body) = request(w.started);
            w.started += 1;
            w.outstanding.push_back(now);
            vec![Reply {
                dst_ip: addrs::GUEST,
                dst_port: port,
                src_port,
                payload: encode_msg(kind, body),
                cost: Nanos::from_micros(2),
            }]
        },
    );
    let mk_req2 = mk_req.clone();
    let (wk, la, rb, ca) = (
        workers.clone(),
        latency.clone(),
        resp_bytes.clone(),
        client_asm.clone(),
    );
    sys.set_client_app(Box::new(move |now, msg| {
        let Some(rsp) = ca.borrow_mut().push(now, msg) else {
            return Vec::new();
        };
        let mut workers = wk.borrow_mut();
        let Some(w) = workers.get_mut(&msg.dst_port) else {
            return Vec::new();
        };
        if let Some(t0) = w.outstanding.pop_front() {
            la.borrow_mut().push_nanos(now - t0);
        }
        w.done += 1;
        *rb.borrow_mut() += rsp.body_len as u64;
        mk_req2(w, now, msg.dst_port)
    }));

    // Kick off: each worker launches `pipeline` requests.
    for i in 0..cfg.workers {
        let src_port = 30_000 + i;
        let mut w = Worker {
            outstanding: VecDeque::new(),
            started: 0,
            done: 0,
        };
        let t = Nanos::from_micros(100 + u64::from(i) * 3);
        for _ in 0..cfg.pipeline {
            for r in mk_req(&mut w, t, src_port) {
                sys.send_udp_at(t, Side::Client, r.dst_ip, r.dst_port, r.src_port, r.payload);
            }
        }
        workers.borrow_mut().insert(src_port, w);
    }
    sys.run_to_quiescence();
    let end = sys.now();
    let lat = latency.borrow().clone();
    let resp = *resp_bytes.borrow();
    RrResult {
        ops: lat.count(),
        latency: lat,
        duration: end,
        resp_bytes: resp,
        guest_cpu: sys.guest_cpu_percent(end),
    }
}

/// The storage twin of [`rr_closed_loop`]: `workers` threads over `sys`,
/// each keeping one logical operation outstanding. `next(worker)` yields
/// the device I/Os of the worker's next operation, every one tagged with
/// the worker's index; worker `i` is asked first at `start + i` µs, then
/// again whenever the last I/O of its operation completes, and an empty
/// answer retires it. Runs to quiescence and returns the latency of the
/// device I/Os it issued, and of nothing `sys` ran before.
///
/// # Panics
///
/// If a worker has not retired at quiescence: it waits on an I/O that
/// never completed, and the run would otherwise pass for a short one.
pub fn stor_closed_loop(
    sys: &mut StorSystem,
    start: Nanos,
    workers: u16,
    mut next: impl FnMut(u64) -> Vec<IoOp> + 'static,
) -> OnlineStats {
    let mut outstanding = vec![0usize; usize::from(workers)];
    for (w, left) in (0u64..).zip(&mut outstanding) {
        let ops = next(w);
        *left = ops.len();
        for op in ops {
            sys.submit_at(start + Nanos::from_micros(w), op);
        }
    }
    let state = Rc::new(RefCell::new((outstanding, OnlineStats::new())));
    let handler_state = Rc::clone(&state);
    sys.set_handler(Box::new(move |now, done| {
        assert!(done.ok, "closed-loop I/O failed");
        let (outstanding, latency) = &mut *handler_state.borrow_mut();
        latency.push_nanos(now - done.submitted);
        let left = &mut outstanding[done.tag as usize];
        *left -= 1;
        if *left > 0 {
            return Vec::new();
        }
        let ops = next(done.tag);
        *left = ops.len();
        ops
    }));
    sys.run_to_quiescence();
    let (outstanding, latency) = &*state.borrow();
    for (w, &left) in outstanding.iter().enumerate() {
        assert_eq!(
            left, 0,
            "stor_closed_loop: worker {w} stalled, {left} I/Os outstanding"
        );
    }
    latency.clone()
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
    seed: u64,
    nfiles: usize,
    pace: Nanos,
    mut size: impl FnMut() -> usize,
) -> FileSet {
    let mut sys = StorSystem::new(os, seed);
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
        let mut sys = StorSystem::new(BackendOs::Kite, 5);
        let mut issued = [0u64; WORKERS as usize];
        let latency = stor_closed_loop(&mut sys, Nanos::from_micros(10), WORKERS, move |w| {
            let i = &mut issued[w as usize];
            if *i == OPS {
                return Vec::new();
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
            vec![write(sector), write(sector + 8)]
        });
        let ios = 2 * OPS * u64::from(WORKERS);
        assert_eq!(sys.metrics.ios, ios, "every device I/O completed");
        assert_eq!(latency.count(), ios, "and is in the loop's latency");
        assert_eq!(sys.outstanding(), 0);
    }

    /// The loop's latency covers its own I/Os only. Prepare writes
    /// 8 MiB files far faster than the device takes them, so its writes
    /// queue for tens of milliseconds; one worker's random 4 KiB reads
    /// still report the 4 KiB random-read band: the device's penalty and
    /// read latency, plus at most half a millisecond of PV path.
    #[test]
    fn closed_loop_latency_leaves_out_the_prepare_phase() {
        let FileSet { mut sys, .. } =
            prepare_files(BackendOs::Kite, 3, 16, Nanos::from_micros(1), || 8 << 20);
        let mut left = 20u64;
        let start = sys.now() + Nanos::from_millis(1);
        let latency = stor_closed_loop(&mut sys, start, 1, move |tag| {
            if left == 0 {
                return Vec::new();
            }
            left -= 1;
            let sector = 4096 + left * 2048;
            vec![IoOp {
                tag,
                kind: IoKind::Read { sector, len: 4096 },
            }]
        });
        let p = sys.nvme.profile();
        let floor = (p.random_penalty + p.read_latency).as_nanos() as f64;
        let band = floor..floor + 500_000.0;
        assert_eq!(latency.count(), 20);
        assert!(
            band.contains(&latency.mean()),
            "{latency:?} outside {band:?}"
        );
        let all = sys.metrics.latency.mean();
        assert!(
            all > 2.0 * band.end,
            "prepare's queued writes dominate the system's mean: {all}"
        );
    }

    #[test]
    fn single_chunk_message() {
        let mut r = Reassembler::new();
        let m = encode_msg(7, 100);
        let out = r.push(Nanos(5), &msg(m)).unwrap();
        assert_eq!(out.kind, 7);
        assert_eq!(out.body_len, 100);
        assert_eq!(out.started, Nanos(5));
    }

    #[test]
    fn multi_chunk_message_completes_once() {
        let mut r = Reassembler::new();
        let m = encode_msg(3, 10_000);
        let chunks = chunk(&m);
        assert!(chunks.len() > 2);
        let mut results = Vec::new();
        for (i, c) in chunks.iter().enumerate() {
            if let Some(l) = r.push(Nanos(i as u64), &msg(c.clone())) {
                results.push(l);
            }
        }
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].body_len, 10_000);
        assert_eq!(results[0].started, Nanos(0), "stamped at first chunk");
    }

    #[test]
    fn back_to_back_messages_on_one_flow() {
        let mut r = Reassembler::new();
        for k in 0..5u16 {
            let m = encode_msg(k, 6000);
            let mut seen = 0;
            for c in chunk(&m) {
                if let Some(l) = r.push(Nanos(1), &msg(c)) {
                    assert_eq!(l.kind, k);
                    seen += 1;
                }
            }
            assert_eq!(seen, 1);
        }
    }

    #[test]
    fn garbage_header_dropped() {
        let mut r = Reassembler::new();
        assert!(r.push(Nanos(0), &msg(vec![0; 20])).is_none());
        // And the flow state is clean for the next real message.
        let m = encode_msg(1, 10);
        assert!(r.push(Nanos(1), &msg(m)).is_some());
    }

    #[test]
    fn flows_are_independent() {
        let mut r = Reassembler::new();
        let m = encode_msg(1, 9000);
        let chunks = chunk(&m);
        let mut m1 = msg(chunks[0].clone());
        m1.src_port = 1;
        let mut m2 = msg(chunks[0].clone());
        m2.src_port = 2;
        assert!(r.push(Nanos(0), &m1).is_none());
        assert!(r.push(Nanos(0), &m2).is_none());
        let mut t1 = msg(chunks[1].clone());
        t1.src_port = 1;
        // 4000-8+4000 < 9000: still incomplete.
        assert!(r.push(Nanos(1), &t1).is_none());
        let mut t1b = msg(chunks[2].clone());
        t1b.src_port = 1;
        assert!(r.push(Nanos(2), &t1b).is_some());
    }
}
