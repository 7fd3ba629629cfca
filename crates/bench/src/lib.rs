//! Benchmark harness: the `repro` binary regenerates every paper table and
//! figure (see [`experiments`]) and the virtual-time result rows shipped
//! as `BENCH_mechanisms.json` (see [`report`]).

#![forbid(unsafe_code)]

pub mod experiments;
pub mod report;
