//! Virtual time for the discrete-event simulation.
//!
//! All simulation clocks are expressed as [`Nanos`], a monotonically
//! increasing count of virtual nanoseconds since scenario start. The type is
//! a thin newtype over `u64` so arithmetic mistakes between "a point in
//! time" and "a plain integer" are caught at compile time.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in virtual time, or a duration, in nanoseconds.
///
/// The simulation does not distinguish instants from durations at the type
/// level (mirroring how most DES kernels treat time); the arithmetic below
/// saturates on subtraction so transient ordering bugs surface as zero-length
/// intervals rather than panics deep inside an event handler.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Nanos(pub u64);

impl Nanos {
    /// The zero instant (scenario start).
    pub const ZERO: Nanos = Nanos(0);
    /// The last instant: a deadline no event lies beyond.
    pub const MAX: Nanos = Nanos(u64::MAX);

    /// Constructs a duration of `n` nanoseconds.
    pub const fn from_nanos(n: u64) -> Nanos {
        Nanos(n)
    }

    /// Constructs a duration of `us` microseconds.
    pub const fn from_micros(us: u64) -> Nanos {
        Nanos(us * 1_000)
    }

    /// Constructs a duration of `ms` milliseconds.
    pub const fn from_millis(ms: u64) -> Nanos {
        Nanos(ms * 1_000_000)
    }

    /// Constructs a duration of `s` seconds.
    pub const fn from_secs(s: u64) -> Nanos {
        Nanos(s * 1_000_000_000)
    }

    /// Constructs a duration from fractional seconds.
    ///
    /// Negative inputs clamp to zero; the simulation has no notion of time
    /// before scenario start.
    pub fn from_secs_f64(s: f64) -> Nanos {
        if s <= 0.0 {
            return Nanos::ZERO;
        }
        Nanos((s * 1e9).round() as u64)
    }

    /// Raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This instant/duration expressed as fractional microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// This instant/duration expressed as fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// This instant/duration expressed as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction: `self - rhs`, or zero if `rhs` is later.
    pub fn saturating_sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition, `None` on overflow.
    pub fn checked_add(self, rhs: Nanos) -> Option<Nanos> {
        self.0.checked_add(rhs.0).map(Nanos)
    }

    /// The later of two instants.
    pub fn max(self, other: Nanos) -> Nanos {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The earlier of two instants.
    pub fn min(self, other: Nanos) -> Nanos {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Scales a duration by a dimensionless factor, rounding to nearest.
    ///
    /// Negative factors clamp to zero.
    pub fn scale(self, factor: f64) -> Nanos {
        if factor <= 0.0 {
            return Nanos::ZERO;
        }
        Nanos((self.0 as f64 * factor).round() as u64)
    }
}

impl Add for Nanos {
    type Output = Nanos;
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Nanos {
    fn add_assign(&mut self, rhs: Nanos) {
        *self = *self + rhs;
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    fn sub(self, rhs: Nanos) -> Nanos {
        self.saturating_sub(rhs)
    }
}

impl SubAssign for Nanos {
    fn sub_assign(&mut self, rhs: Nanos) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Nanos {
    type Output = Nanos;
    fn mul(self, rhs: u64) -> Nanos {
        Nanos(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for Nanos {
    type Output = Nanos;
    fn div(self, rhs: u64) -> Nanos {
        Nanos(self.0 / rhs)
    }
}

impl Sum for Nanos {
    fn sum<I: Iterator<Item = Nanos>>(iter: I) -> Nanos {
        iter.fold(Nanos::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = self.0;
        if n >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if n >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if n >= 1_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{n}ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_units_agree() {
        assert_eq!(Nanos::from_secs(2), Nanos::from_millis(2_000));
        assert_eq!(Nanos::from_millis(3), Nanos::from_micros(3_000));
        assert_eq!(Nanos::from_micros(5), Nanos::from_nanos(5_000));
    }

    #[test]
    fn from_secs_f64_rounds_and_clamps() {
        assert_eq!(Nanos::from_secs_f64(1.5), Nanos::from_millis(1_500));
        assert_eq!(Nanos::from_secs_f64(-1.0), Nanos::ZERO);
        assert_eq!(Nanos::from_secs_f64(0.0), Nanos::ZERO);
    }

    #[test]
    fn subtraction_saturates() {
        let a = Nanos::from_secs(1);
        let b = Nanos::from_secs(2);
        assert_eq!(a - b, Nanos::ZERO);
        assert_eq!(b - a, Nanos::from_secs(1));
    }

    #[test]
    fn addition_saturates_at_max() {
        let max = Nanos(u64::MAX);
        assert_eq!(max + Nanos::from_secs(1), max);
    }

    #[test]
    fn scale_rounds_to_nearest() {
        assert_eq!(Nanos(10).scale(0.25), Nanos(3)); // 2.5 rounds away from zero
        assert_eq!(Nanos(100).scale(1.5), Nanos(150));
        assert_eq!(Nanos(100).scale(-1.0), Nanos::ZERO);
    }

    #[test]
    fn display_picks_human_unit() {
        assert_eq!(Nanos(500).to_string(), "500ns");
        assert_eq!(Nanos::from_micros(12).to_string(), "12.000us");
        assert_eq!(Nanos::from_millis(7).to_string(), "7.000ms");
        assert_eq!(Nanos::from_secs(3).to_string(), "3.000s");
    }

    #[test]
    fn min_max_behave() {
        let a = Nanos(1);
        let b = Nanos(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn sum_of_durations() {
        let total: Nanos = [Nanos(1), Nanos(2), Nanos(3)].into_iter().sum();
        assert_eq!(total, Nanos(6));
    }
}
