//! The four named workloads. Each `rep` builds a fresh system from the
//! seed, drives a fixed amount of work through public `kite_system` items
//! only, checks every result it gets back, and reports what it saw.

pub mod bidir_mtu;
pub mod gso_stream;
pub mod rr_open;
pub mod stor_mixed;

use crate::rep::Rep;

pub struct Workload {
    pub name: &'static str,
    /// What one operation is, for the printed tables.
    pub op: &'static str,
    /// Operations per repetition (fixed, so repetitions are identical).
    pub ops: u64,
    /// Runs one repetition; `traced` turns on `profiling` + `req_tracing`.
    pub rep: fn(seed: u64, traced: bool) -> Rep,
}

pub const ALL: [Workload; 4] = [
    Workload {
        name: "rr_open",
        op: "request",
        ops: rr_open::REQUESTS,
        rep: rr_open::rep,
    },
    Workload {
        name: "gso_stream",
        op: "message",
        ops: gso_stream::MESSAGES,
        rep: gso_stream::rep,
    },
    Workload {
        name: "bidir_mtu",
        op: "datagram",
        ops: bidir_mtu::DATAGRAMS,
        rep: bidir_mtu::rep,
    },
    Workload {
        name: "stor_mixed",
        op: "I/O",
        ops: stor_mixed::IOS,
        rep: stor_mixed::rep,
    },
];
