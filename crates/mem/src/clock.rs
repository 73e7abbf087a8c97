//! Virtual time for the simulation.
//!
//! The whole reproduction is a deterministic discrete-time simulation: no
//! wall-clock time is ever consulted. [`Nanos`] is a newtype over `u64`
//! nanoseconds and [`Clock`] is a monotonically advancing counter owned by
//! the memory system (everything that costs time is charged through it).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A duration or instant in virtual nanoseconds.
///
/// ```
/// use kloc_mem::Nanos;
/// let t = Nanos::from_micros(2) + Nanos::new(500);
/// assert_eq!(t.as_nanos(), 2_500);
/// assert!(t < Nanos::from_millis(1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Nanos(u64);

impl Nanos {
    /// Zero duration.
    pub const ZERO: Nanos = Nanos(0);

    /// Creates a duration of `ns` nanoseconds.
    pub const fn new(ns: u64) -> Self {
        Nanos(ns)
    }

    /// Creates a duration of `us` microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Nanos(us * 1_000)
    }

    /// Creates a duration of `ms` milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Nanos(ms * 1_000_000)
    }

    /// Creates a duration of `s` seconds.
    pub const fn from_secs(s: u64) -> Self {
        Nanos(s * 1_000_000_000)
    }

    /// Raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Value in (truncated) microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Value in (truncated) milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Value in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction: `self - other`, clamped at zero.
    pub fn saturating_sub(self, other: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(other.0))
    }

    /// Saturating addition: `self + other`, clamped at the largest
    /// representable time.
    pub fn saturating_add(self, other: Nanos) -> Nanos {
        Nanos(self.0.saturating_add(other.0))
    }

    /// Time to move `bytes` at `bytes_per_sec` bandwidth.
    ///
    /// Returns zero if `bytes_per_sec` is zero (infinite bandwidth is used
    /// by tests that want latency-only accounting).
    pub fn for_transfer(bytes: u64, bytes_per_sec: u64) -> Nanos {
        if bytes_per_sec == 0 {
            return Nanos::ZERO;
        }
        // ns = bytes / (bytes/s) * 1e9, multiply first to keep
        // sub-nanosecond precision for small transfers. Every real
        // transfer (object touch to multi-MB migration) keeps
        // `bytes * 1e9` inside u64, where the division is a single
        // hardware instruction; the u128 path exists only for the
        // >18 GB tail and computes the identical value.
        if let Some(scaled) = bytes.checked_mul(1_000_000_000) {
            return Nanos(scaled / bytes_per_sec);
        }
        let ns = (bytes as u128 * 1_000_000_000u128) / bytes_per_sec as u128;
        Nanos(ns as u64)
    }
}

impl Add for Nanos {
    type Output = Nanos;
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl AddAssign for Nanos {
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs.0;
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 - rhs.0)
    }
}

impl Mul<u64> for Nanos {
    type Output = Nanos;
    fn mul(self, rhs: u64) -> Nanos {
        Nanos(self.0 * rhs)
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
        iter.fold(Nanos::ZERO, Add::add)
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// Monotonic virtual clock.
///
/// ```
/// use kloc_mem::{Clock, Nanos};
/// let mut clock = Clock::new();
/// clock.advance(Nanos::from_micros(5));
/// assert_eq!(clock.now(), Nanos::from_micros(5));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Clock {
    now: Nanos,
}

impl Clock {
    /// New clock at time zero.
    pub fn new() -> Self {
        Clock::default()
    }

    /// Current virtual time.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Advances the clock by `dt`.
    pub fn advance(&mut self, dt: Nanos) {
        self.now += dt;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(Nanos::from_secs(2).as_nanos(), 2_000_000_000);
        assert_eq!(Nanos::from_millis(3).as_micros(), 3_000);
        assert_eq!(Nanos::from_micros(7).as_nanos(), 7_000);
        assert_eq!(Nanos::from_secs(1).as_millis(), 1_000);
    }

    #[test]
    fn arithmetic() {
        let a = Nanos::new(100);
        let b = Nanos::new(40);
        assert_eq!((a + b).as_nanos(), 140);
        assert_eq!((a - b).as_nanos(), 60);
        assert_eq!((a * 3).as_nanos(), 300);
        assert_eq!((a / 4).as_nanos(), 25);
        assert_eq!(b.saturating_sub(a), Nanos::ZERO);
    }

    #[test]
    fn transfer_time_matches_bandwidth() {
        // 4 KB at 30 GB/s => ~136 ns.
        let t = Nanos::for_transfer(4096, 30_000_000_000);
        assert_eq!(t.as_nanos(), 136);
        // Zero bandwidth means "don't charge bandwidth".
        assert_eq!(Nanos::for_transfer(4096, 0), Nanos::ZERO);
    }

    #[test]
    fn transfer_time_no_overflow_for_large_values() {
        let t = Nanos::for_transfer(u64::from(u32::MAX) * 4096, 1_000_000_000);
        assert!(t.as_nanos() > 0);
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut c = Clock::new();
        assert_eq!(c.now(), Nanos::ZERO);
        c.advance(Nanos::new(10));
        c.advance(Nanos::new(5));
        assert_eq!(c.now(), Nanos::new(15));
    }

    #[test]
    fn display_scales_units() {
        assert_eq!(Nanos::new(500).to_string(), "500ns");
        assert_eq!(Nanos::from_micros(2).to_string(), "2.000us");
        assert_eq!(Nanos::from_millis(2).to_string(), "2.000ms");
        assert_eq!(Nanos::from_secs(2).to_string(), "2.000s");
    }

    #[test]
    fn sum_of_nanos() {
        let total: Nanos = [Nanos::new(1), Nanos::new(2), Nanos::new(3)]
            .into_iter()
            .sum();
        assert_eq!(total, Nanos::new(6));
    }
}
