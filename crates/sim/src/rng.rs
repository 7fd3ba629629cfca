//! Deterministic pseudo-random number generation for the simulation.
//!
//! The whole reproduction must be replayable: the same seed must produce the
//! same figures bit-for-bit. We therefore use a self-contained PCG-XSH-RR
//! 64/32 generator (O'Neill, 2014) rather than a thread-local OS-seeded RNG.
//! The statistical quality is far beyond what the load generators and fault
//! plans need, and the implementation is small enough to audit.

use crate::time::Nanos;

/// A deterministic PCG-XSH-RR 64/32 random number generator.
#[derive(Clone, Debug)]
pub struct Pcg {
    state: u64,
    inc: u64,
}

const PCG_MULT: u64 = 6364136223846793005;

impl Pcg {
    /// Creates a generator from a seed and a stream id.
    ///
    /// Different stream ids yield statistically independent sequences even
    /// for the same seed, which lets each subsystem own a private stream
    /// while the scenario carries a single user-visible seed.
    pub fn new(seed: u64, stream: u64) -> Pcg {
        let mut rng = Pcg {
            state: 0,
            inc: (stream << 1) | 1,
        };
        rng.next_u32();
        rng.state = rng.state.wrapping_add(seed);
        rng.next_u32();
        rng
    }

    /// Creates a generator on the default stream.
    pub fn seeded(seed: u64) -> Pcg {
        Pcg::new(seed, 0xda3e39cb94b95bdb)
    }

    /// Next 32 random bits.
    pub fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.state = old.wrapping_mul(PCG_MULT).wrapping_add(self.inc);
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        ((self.next_u32() as u64) << 32) | self.next_u32() as u64
    }

    /// Uniform float in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        // 53 random bits scaled into the unit interval.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        let span = hi - lo;
        // Lemire's multiply-shift rejection method (debiased).
        let mut x = self.next_u64();
        let mut m = (x as u128) * (span as u128);
        let mut l = m as u64;
        if l < span {
            let t = span.wrapping_neg() % span;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (span as u128);
                l = m as u64;
            }
        }
        lo + (m >> 64) as u64
    }

    /// Uniform usize in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        self.range_u64(0, n as u64) as usize
    }

    /// Bernoulli draw with probability `p` of `true`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Exponentially distributed duration with the given mean.
    ///
    /// Used for inter-arrival jitter in open-loop load generators.
    pub fn exp(&mut self, mean: Nanos) -> Nanos {
        let u = 1.0 - self.f64(); // in (0, 1]
        Nanos::from_secs_f64(-mean.as_secs_f64() * u.ln())
    }

    /// Fills a byte slice with random data (payload generation).
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        let mut chunks = buf.chunks_exact_mut(4);
        for c in &mut chunks {
            c.copy_from_slice(&self.next_u32().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let w = self.next_u32().to_le_bytes();
            rem.copy_from_slice(&w[..rem.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = Pcg::seeded(42);
        let mut b = Pcg::seeded(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Pcg::seeded(1);
        let mut b = Pcg::seeded(2);
        let same = (0..64).filter(|_| a.next_u32() == b.next_u32()).count();
        assert!(same < 4, "streams should be essentially uncorrelated");
    }

    #[test]
    fn streams_are_independent() {
        let mut a = Pcg::new(7, 1);
        let mut b = Pcg::new(7, 2);
        let same = (0..64).filter(|_| a.next_u32() == b.next_u32()).count();
        assert!(same < 4);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Pcg::seeded(9);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn range_is_inclusive_exclusive_and_covers() {
        let mut r = Pcg::seeded(3);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            let v = r.range_u64(5, 15);
            assert!((5..15).contains(&v));
            seen[(v - 5) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values in range should occur");
    }

    #[test]
    fn exp_mean_roughly_correct() {
        let mut r = Pcg::seeded(11);
        let mean = Nanos::from_micros(100);
        let n = 20_000;
        let total: u64 = (0..n).map(|_| r.exp(mean).as_nanos()).sum();
        let avg = total as f64 / n as f64;
        let expect = mean.as_nanos() as f64;
        assert!((avg - expect).abs() / expect < 0.05, "avg={avg}");
    }

    #[test]
    fn fill_bytes_fills_everything() {
        let mut r = Pcg::seeded(14);
        let mut buf = [0u8; 33];
        r.fill_bytes(&mut buf);
        // With 33 random bytes, all-zero is essentially impossible.
        assert!(buf.iter().any(|&b| b != 0));
        let mut buf2 = [0u8; 33];
        let mut r2 = Pcg::seeded(14);
        r2.fill_bytes(&mut buf2);
        assert_eq!(buf, buf2);
    }

    #[test]
    fn chance_probability_approximate() {
        let mut r = Pcg::seeded(15);
        let hits = (0..100_000).filter(|_| r.chance(0.3)).count();
        let p = hits as f64 / 100_000.0;
        assert!((p - 0.3).abs() < 0.01, "p={p}");
    }
}
