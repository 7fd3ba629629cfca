//! A small extent filesystem for the storage-domain workloads.
//!
//! Filebench's fileserver/webserver/MongoDB personalities, sysbench file
//! I/O and the MySQL tablespace model all run over [`fs::Fs`], mounted by
//! the guest on its blkfront device. File operations return the device
//! I/Os they imply, so the block traffic that reaches Kite's blkback —
//! sequential runs on a fresh FS, scattered runs after create/delete churn,
//! cache-filtered reads — emerges from real metadata ([`alloc`]) and a real
//! LRU page cache ([`cache`]).

#![forbid(unsafe_code)]

pub mod alloc;
pub mod cache;
pub mod fs;

pub use alloc::{Extent, ExtentAllocator};
pub use cache::ReadCache;
pub use fs::{DevIo, FileStat, Fs, FsError, Ino, ReadPlan};
