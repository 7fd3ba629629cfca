//! Apache + ApacheBench (Figure 8): HTTP server throughput over the
//! network driver domain.
//!
//! ab sends `requests` GETs with `concurrency` parallel connections; the
//! server returns the randomly generated file. Figure 8a sweeps the file
//! size 512 B – 1 MB; Figure 8b reports throughput, transfer time and
//! request rate for a 512 KB file.

use kite_sim::Nanos;
use kite_system::BackendOs;

use crate::common::{rr_closed_loop, RrConfig};

/// The file-size sweep of Figure 8a.
pub const FIG8A_SIZES: [usize; 6] = [512, 4096, 32768, 131072, 524288, 1048576];

/// One Apache measurement.
#[derive(Clone, Debug)]
pub struct ApacheReport {
    /// Server-side throughput in MB/s (ab's "Transfer rate").
    pub throughput_mbps: f64,
    /// Total transfer time in seconds.
    pub time_secs: f64,
    /// Requests per second.
    pub requests_per_sec: f64,
    /// Mean per-request latency in ms.
    pub latency_ms: f64,
}

/// Runs ab against one OS for one file size.
///
/// `requests` is the scaled-down count (the paper uses 100 000; the
/// stationary rates are unchanged — see EXPERIMENTS.md).
pub fn run(os: BackendOs, file_bytes: usize, requests: u64, concurrency: u16) -> ApacheReport {
    let r = rr_closed_loop(
        os,
        RrConfig {
            workers: concurrency,
            ops_per_worker: requests / u64::from(concurrency),
            pipeline: 1,
            // "GET /file HTTP/1.1" + headers.
            request: Box::new(|_| (1, 120)),
            response: Box::new(move |_| file_bytes),
            // Apache request handling: parse + sendfile syscalls.
            server_cost: Nanos::from_micros(45),
            port: 80,
        },
    );
    let secs = r.duration.as_secs_f64();
    ApacheReport {
        throughput_mbps: r.resp_bytes as f64 / 1e6 / secs,
        time_secs: secs,
        requests_per_sec: r.ops as f64 / secs,
        latency_ms: r.latency.mean() / 1e6,
    }
}

/// The Figure 8a sweep for one OS.
pub fn figure8a(os: BackendOs, requests: u64) -> Vec<ApacheReport> {
    FIG8A_SIZES
        .iter()
        .map(|&sz| run(os, sz, requests, 40))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kite_net::ether::{ETH_FRAME_MAX, ETH_WIRE_OVERHEAD, TSO_MSS};
    use kite_system::LineRate;

    /// Payload MB/s a 10GbE wire carries once every MSS of it is framed
    /// as an MTU segment: 1250 × 1472 / 1538 ≈ 1196.4.
    fn wire_goodput_mbps() -> f64 {
        LineRate::Gbe10.bps() as f64 / 8e6 * TSO_MSS as f64
            / (ETH_FRAME_MAX + ETH_WIRE_OVERHEAD) as f64
    }

    #[test]
    fn throughput_rises_with_file_size() {
        let reports = figure8a(BackendOs::Kite, 400);
        // The 1 MiB row sits at the wire's goodput ceiling (≈1196 MB/s)
        // and the 512 B row is bound by the request rate (≈157 MB/s), so
        // the ratio the model can show is ≈7.6; 7× leaves room for a
        // retuned cost constant, not for a lost amortization.
        assert!(
            reports.last().unwrap().throughput_mbps > 7.0 * reports[0].throughput_mbps,
            "large files amortize per-request costs: {reports:#?}"
        );
    }

    #[test]
    fn goodput_never_exceeds_what_the_wire_carries() {
        for os in BackendOs::both() {
            let largest = run(os, FIG8A_SIZES[FIG8A_SIZES.len() - 1], 400, 40);
            assert!(
                largest.throughput_mbps <= wire_goodput_mbps(),
                "{}: {:.1} MB/s of payload over a wire that carries {:.1}",
                os.name(),
                largest.throughput_mbps,
                wire_goodput_mbps()
            );
            // ...and saturation means reaching it, not merely staying under.
            assert!(largest.throughput_mbps > 0.99 * wire_goodput_mbps());
        }
    }

    #[test]
    fn parity_with_kite_marginally_faster_at_512k() {
        let kite = run(BackendOs::Kite, 524288, 400, 40);
        let linux = run(BackendOs::Linux, 524288, 400, 40);
        assert!(
            kite.throughput_mbps >= linux.throughput_mbps * 0.98,
            "Fig 8b: Kite marginally faster: {:.1} vs {:.1} MB/s",
            kite.throughput_mbps,
            linux.throughput_mbps
        );
        // And the two stay within ~20% (parity claim).
        assert!(kite.throughput_mbps <= linux.throughput_mbps * 1.25);
    }

    #[test]
    fn all_requests_complete() {
        let r = run(BackendOs::Kite, 4096, 400, 40);
        let total = r.requests_per_sec * r.time_secs;
        assert!((395.0..=401.0).contains(&total), "ops={total}");
    }
}
