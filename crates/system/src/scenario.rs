//! The canonical load drivers, each defined once.
//!
//! `repro`, the examples and the determinism tests all run the same few
//! bursts — the echo server, the 64-flow Toeplitz burst, the steady
//! recovery stream, the interleaved sequential write streams. The times,
//! ports and payload bytes below are pinned by `BENCH_mechanisms.json`
//! and the trace `cmp`s, so a scenario is changed here or nowhere
//! (DESIGN.md §18, "where a scenario lives").
//!
//! The 4-ring storage scenario (`mechanisms/blkback_rings_4`, the
//! storage half of `repro lat`):
//!
//! ```
//! use kite_devices::NvmeProfile;
//! use kite_sim::Nanos;
//! use kite_system::{scenario, BackendOs, SystemConfig};
//!
//! let mut sys = SystemConfig::new(BackendOs::Kite, 7)
//!     .queues(4)
//!     .nvme_profile(NvmeProfile::default().with_random_penalty(Nanos::from_micros(2)))
//!     .build_stor();
//! scenario::interleaved_streams(&mut sys, 4, 64, 8 * 1024, Nanos::from_micros(2));
//! sys.run_to_quiescence();
//! assert_eq!(sys.metrics.ios, 256);
//! assert_eq!(sys.nvme.random_penalties(), 4, "one cursor per stream");
//! ```

use kite_sim::Nanos;

use crate::netsys::{addrs, NetSystem, Reply, Side, UdpHandler};
use crate::storsys::{IoKind, IoOp, StorSystem};

/// The byte every scenario write is filled with.
pub const FILL: u8 = 0x5a;

/// An application that answers each datagram with its own payload,
/// charging `cost` of CPU per reply.
pub fn echo_server(cost: Nanos) -> UdpHandler {
    Box::new(move |_, msg| {
        vec![Reply {
            dst_ip: msg.src_ip,
            dst_port: msg.src_port,
            src_port: msg.dst_port,
            payload: msg.payload.to_vec(),
            cost,
        }]
    })
}

/// `msgs` datagrams of `len` bytes from `from` to its peer over 64 flows
/// (ports 1200–1263, Toeplitz-steered across the queues), one burst of
/// 64 every `burst_gap` starting 10 µs from now: faster than one vCPU
/// drains, so elapsed time exposes per-queue parallelism. A client-sent
/// flow is the mirror image of the guest-sent one on the same port.
pub fn flow_burst(sys: &mut NetSystem, from: Side, msgs: u64, len: usize, burst_gap: Nanos) {
    let start = sys.now() + Nanos::from_micros(10);
    for i in 0..msgs {
        let flow = 1200 + (i % 64) as u16;
        let (dst_ip, dst_port, src_port) = match from {
            Side::Guest => (addrs::CLIENT, 9999, flow),
            Side::Client => (addrs::GUEST, flow, 9999),
        };
        let t = start + burst_gap * (i / 64);
        sys.send_udp_at(t, from, dst_ip, dst_port, src_port, vec![i as u8; len]);
    }
}

/// A steady guest→client UDP stream: `msgs` datagrams of `len` bytes,
/// one every `gap` from 1 ms, round-robin over `flows` source ports
/// from 1234. The recovery stream every crash cycle runs is
/// `(120, 1, 1400, 250 ms)` — message `i` leaves at `1 + 250 * i` ms, so
/// 30 s at 4 msg/s spans the Kite (~7 s) outage and its queued tail
/// drains after the Linux (~75 s) reboot too.
pub fn steady_stream(sys: &mut NetSystem, msgs: u64, flows: u16, len: usize, gap: Nanos) {
    for i in 0..msgs {
        let t = Nanos::from_millis(1) + gap * i;
        let src_port = 1234 + (i % u64::from(flows)) as u16;
        let payload = vec![i as u8; len];
        sys.send_udp_at(t, Side::Guest, addrs::CLIENT, 9999, src_port, payload);
    }
}

/// `streams` independent sequential write streams of `per_stream` ×
/// `chunk` bytes, interleaved round-robin and submitted one every `gap`
/// from 100 µs. Streams live 512 MiB apart: far enough that no NVMe
/// cursor ever accidentally continues across streams.
pub fn interleaved_streams(
    sys: &mut StorSystem,
    streams: u64,
    per_stream: u64,
    chunk: usize,
    gap: Nanos,
) {
    const REGION_SECTORS: u64 = 1 << 20;
    for i in 0..streams * per_stream {
        let (stream, idx) = (i % streams, i / streams);
        let sector = stream * REGION_SECTORS + idx * (chunk / 512) as u64;
        let data = vec![FILL; chunk];
        let kind = IoKind::Write { sector, data };
        sys.submit_at(Nanos::from_micros(100) + gap * i, IoOp { tag: i, kind });
    }
}

/// `n` back-to-back sequential writes of `chunk` bytes from sector 0,
/// one every `gap`: the one-stream case of [`interleaved_streams`].
pub fn sequential_writes(sys: &mut StorSystem, n: u64, chunk: usize, gap: Nanos) {
    interleaved_streams(sys, 1, n, chunk, gap);
}
