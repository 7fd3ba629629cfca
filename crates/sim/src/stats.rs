//! Online statistics used by every measurement tap in the reproduction.
//!
//! The paper reports means, throughputs, latencies, percentile-ish maxima
//! and relative standard deviations (Table 4). [`OnlineStats`] implements
//! Welford's numerically stable single-pass algorithm; [`Histogram`] is a
//! log-bucketed latency histogram good to ~2% relative error.

use crate::time::Nanos;

/// Single-pass mean/variance accumulator (Welford's algorithm).
#[derive(Clone, Debug, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> OnlineStats {
        OnlineStats::default()
    }

    /// Records one sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Records a duration sample in nanoseconds.
    pub fn push_nanos(&mut self, d: Nanos) {
        self.push(d.as_nanos() as f64);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance, or 0 with fewer than two samples.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Relative standard deviation in percent (the paper's "RSD").
    pub fn rsd_percent(&self) -> f64 {
        if self.mean() == 0.0 {
            0.0
        } else {
            100.0 * self.stddev() / self.mean().abs()
        }
    }
}

/// Log-bucketed histogram for latency distributions.
///
/// Buckets are spaced geometrically: each bucket covers a `GROWTH`-factor
/// range, giving bounded relative error on quantile queries without storing
/// raw samples.
#[derive(Clone, Debug)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

const HIST_BUCKETS: usize = 256;
/// Bucket edge growth factor: 256 buckets cover 1ns..~100s at ~9.3%/bucket.
const GROWTH: f64 = 1.0934;

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            counts: vec![0; HIST_BUCKETS],
            total: 0,
        }
    }

    fn bucket_of(value_ns: u64) -> usize {
        if value_ns <= 1 {
            return 0;
        }
        let b = (value_ns as f64).ln() / GROWTH.ln();
        (b as usize).min(HIST_BUCKETS - 1)
    }

    fn bucket_upper(idx: usize) -> u64 {
        GROWTH.powi(idx as i32 + 1) as u64
    }

    /// Records one duration.
    pub fn record(&mut self, d: Nanos) {
        self.counts[Self::bucket_of(d.as_nanos())] += 1;
        self.total += 1;
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Approximate quantile `q` in `[0, 1]`, or `Nanos::ZERO` if empty.
    pub fn quantile(&self, q: f64) -> Nanos {
        if self.total == 0 {
            return Nanos::ZERO;
        }
        let target = ((self.total as f64) * q.clamp(0.0, 1.0)).ceil() as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target.max(1) {
                return Nanos(Self::bucket_upper(i));
            }
        }
        Nanos(Self::bucket_upper(HIST_BUCKETS - 1))
    }

    /// Several quantiles in one bucket walk.
    ///
    /// Returns one value per entry of `qs`, each identical to what
    /// [`Histogram::quantile`] would return for that `q`. `qs` need not be
    /// sorted — the walk carries every outstanding target simultaneously,
    /// so the cost is a single pass over the buckets regardless of how
    /// many quantiles are requested.
    pub fn quantiles(&self, qs: &[f64]) -> Vec<Nanos> {
        let mut out = vec![Nanos(Self::bucket_upper(HIST_BUCKETS - 1)); qs.len()];
        if self.total == 0 {
            return vec![Nanos::ZERO; qs.len()];
        }
        let targets: Vec<u64> = qs
            .iter()
            .map(|q| (((self.total as f64) * q.clamp(0.0, 1.0)).ceil() as u64).max(1))
            .collect();
        let mut remaining = qs.len();
        let mut done = vec![false; qs.len()];
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            for (k, &t) in targets.iter().enumerate() {
                if !done[k] && seen >= t {
                    out[k] = Nanos(Self::bucket_upper(i));
                    done[k] = true;
                    remaining -= 1;
                }
            }
            if remaining == 0 {
                break;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_closed_form() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut s = OnlineStats::new();
        for &x in &data {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Sample variance of this classic dataset is 32/7.
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn rsd_is_percent_of_mean() {
        let mut s = OnlineStats::new();
        s.push(99.0);
        s.push(101.0);
        // stddev = sqrt(2), mean = 100 -> RSD = 1.414...%
        assert!((s.rsd_percent() - 100.0 * (2.0f64).sqrt() / 100.0).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.stddev(), 0.0);
    }

    #[test]
    fn histogram_quantiles_monotone_and_close() {
        let mut h = Histogram::new();
        for i in 1..=10_000u64 {
            h.record(Nanos(i * 100)); // 100ns .. 1ms uniform
        }
        let q50 = h.quantile(0.5).as_nanos() as f64;
        let q99 = h.quantile(0.99).as_nanos() as f64;
        assert!(q50 <= q99);
        // True median is 500_050ns; log buckets are ~9% wide.
        assert!((q50 - 500_000.0).abs() / 500_000.0 < 0.15, "q50={q50}");
        assert!((q99 - 990_000.0).abs() / 990_000.0 < 0.15, "q99={q99}");
    }

    fn histogram_of(samples: &[u64]) -> Histogram {
        let mut h = Histogram::new();
        for &s in samples {
            h.record(Nanos(s));
        }
        h
    }

    #[test]
    fn histogram_quantiles_are_monotonic_in_q() {
        let h = histogram_of(&[
            1, 3, 10, 50, 120, 950, 1_000, 4_000, 65_000, 70_000, 1_000_000, 9_999_999,
        ]);
        let mut prev = Nanos::ZERO;
        for i in 0..=100 {
            let q = h.quantile(i as f64 / 100.0);
            assert!(
                q >= prev,
                "quantile({}) = {q:?} < {prev:?}",
                i as f64 / 100.0
            );
            prev = q;
        }
        assert!(h.quantile(0.5) <= h.quantile(0.99));
    }

    #[test]
    fn quantiles_pins_uniform_distribution() {
        // 10k samples uniform over 100ns..1ms: true p50 = 500_050ns,
        // p95 = 950_050ns, p99 = 990_050ns; log buckets are ~9% wide.
        let mut h = Histogram::new();
        for i in 1..=10_000u64 {
            h.record(Nanos(i * 100));
        }
        let qs = h.quantiles(&[0.5, 0.95, 0.99]);
        let expect = [500_000.0, 950_000.0, 990_000.0];
        for (got, want) in qs.iter().zip(expect) {
            let g = got.as_nanos() as f64;
            assert!((g - want).abs() / want < 0.15, "got {g}, want ~{want}");
        }
    }

    #[test]
    fn quantiles_pins_bimodal_distribution() {
        // 90% fast (1µs), 10% slow (1ms): p50 sits in the fast mode,
        // p95/p99 in the slow mode — the classic tail-latency shape.
        let mut h = Histogram::new();
        for _ in 0..900 {
            h.record(Nanos(1_000));
        }
        for _ in 0..100 {
            h.record(Nanos(1_000_000));
        }
        let qs = h.quantiles(&[0.5, 0.95, 0.99]);
        let p50 = qs[0].as_nanos() as f64;
        let p95 = qs[1].as_nanos() as f64;
        let p99 = qs[2].as_nanos() as f64;
        assert!((p50 - 1_000.0).abs() / 1_000.0 < 0.15, "p50={p50}");
        assert!((p95 - 1_000_000.0).abs() / 1_000_000.0 < 0.15, "p95={p95}");
        assert!((p99 - 1_000_000.0).abs() / 1_000_000.0 < 0.15, "p99={p99}");
    }

    #[test]
    fn quantiles_agrees_with_quantile_everywhere() {
        let h = histogram_of(&[
            1, 3, 10, 50, 120, 950, 1_000, 4_000, 65_000, 70_000, 1_000_000, 9_999_999,
        ]);
        // Deliberately unsorted and with duplicates/extremes.
        let qs = [0.99, 0.0, 0.5, 1.0, 0.5, 0.123, 0.95];
        let multi = h.quantiles(&qs);
        for (q, got) in qs.iter().zip(&multi) {
            assert_eq!(*got, h.quantile(*q), "diverged at q={q}");
        }
        // Empty histograms return all zeros, like quantile().
        let empty = Histogram::new();
        assert_eq!(empty.quantiles(&qs), vec![Nanos::ZERO; qs.len()]);
    }
}
