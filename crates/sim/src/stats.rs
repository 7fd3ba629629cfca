//! The latency record every measurement tap in the reproduction keeps.
//!
//! The paper reports latency as means and tails (Figure 7). A
//! [`Histogram`] keeps one stream's samples as log-spaced bucket counts
//! plus their exact sum: the mean is exact, the quantiles are good to
//! ~9% relative error.

use crate::time::Nanos;

/// Log-bucketed histogram for latency distributions.
///
/// Buckets are spaced geometrically: each bucket covers a `GROWTH`-factor
/// range, giving bounded relative error on quantile queries without storing
/// raw samples. The samples' sum is kept exactly, so the mean carries no
/// bucket error.
#[derive(Clone, Debug)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    sum_ns: u64,
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
            sum_ns: 0,
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
        self.sum_ns += d.as_nanos();
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean of the recorded samples in nanoseconds (their exact sum over
    /// their count), or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.total as f64
        }
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
    fn mean_is_the_exact_sum_over_the_count() {
        let h = histogram_of(&[2, 4, 4, 4, 5, 5, 7, 9]);
        assert_eq!(h.count(), 8);
        assert_eq!(h.mean(), 5.0);
        // Past 2^53 a running f64 sum drops each 1 ns sample; the integer
        // sum keeps them: (2^53 + 2) / 3, not 2^53 / 3.
        let big = 1u64 << 53;
        let h = histogram_of(&[big, 1, 1]);
        assert_eq!(h.mean(), (big + 2) as f64 / 3.0);
        assert_ne!(h.mean(), big as f64 / 3.0);
        assert_eq!(Histogram::new().mean(), 0.0);
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
