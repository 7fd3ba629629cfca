//! Workload generators reproducing every performance figure of the paper.
//!
//! | Module | Figure(s) | Benchmark |
//! |---|---|---|
//! | [`nuttcp`] | Fig 6 | UDP throughput + loss |
//! | [`latency`] | Fig 7 | ping, Netperf RR, memtier |
//! | [`apache`] | Fig 8 | ApacheBench file sweep |
//! | [`redis`] | Fig 9 | pipelined SET/GET |
//! | [`mysql`] | Fig 10, 13 | SysBench OLTP (network + storage) |
//! | [`dd`] | Fig 11 | sequential raw-device throughput |
//! | [`fileio`] | Fig 12 | SysBench random file I/O |
//! | [`filebench`] | Fig 14–16 | fileserver / MongoDB / webserver |
//! | [`perfdhcp`] | §5.5 | daemon-VM DORA latency |
//!
//! Each generator drives the full simulated stack (`kite-system`) and
//! returns typed reports; the `repro` binary in `kite-bench` prints them
//! alongside the paper's numbers.

#![forbid(unsafe_code)]

pub mod apache;
pub mod common;
pub mod dd;
pub mod filebench;
pub mod fileio;
pub mod latency;
pub mod mysql;
pub mod nuttcp;
pub mod perfdhcp;
pub mod redis;
