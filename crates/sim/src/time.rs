//! Simulated time. All components share a single microsecond-resolution clock that only the
//! simulation driver advances — no wall-clock reads anywhere, which is what makes every
//! experiment in the repository exactly reproducible.

use serde::Serialize;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant in simulated time, in microseconds since the start of the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
pub struct SimTime(pub u64);

/// A span of simulated time, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The simulation origin.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Creates an instant from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Creates an instant from (possibly fractional) seconds.
    pub fn from_secs_f64(secs: f64) -> Self {
        SimTime(micros_of_secs(secs))
    }

    /// Microseconds since the origin.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Milliseconds since the origin (fractional).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Seconds since the origin (fractional).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Time elapsed since `earlier`; saturates at zero when `earlier` is in the future.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// The earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Creates a duration from (possibly fractional) seconds.
    pub fn from_secs_f64(secs: f64) -> Self {
        SimDuration(micros_of_secs(secs))
    }

    /// Microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Milliseconds (fractional).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Seconds (fractional).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

/// `secs` in whole microseconds, rounded half away from zero, with negative values and NaN
/// at 0 and values past `u64::MAX` at `u64::MAX`: `(secs * 1e6).round().max(0.0) as u64`,
/// without the libm call `round` compiles to on baseline x86-64 (the pacer and the link
/// convert once per packet). The fraction `us - whole` is exact (Sterbenz), so the result is too.
fn micros_of_secs(secs: f64) -> u64 {
    let us = (secs * 1e6).max(0.0);
    let whole = us as u64;
    if us - whole as f64 >= 0.5 {
        whole.saturating_add(1)
    } else {
        whole
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seconds_round_to_the_microsecond_exactly_like_f64_round() {
        let reference = |secs: f64| (secs * 1e6).round().max(0.0) as u64;
        let mut cases = vec![
            0.0,
            -0.0,
            5e-7,
            4.999_999_999_999_999e-7,
            1.5e-6,
            2.5e-6,
            -2.5e-6,
            -0.7,
            1e6,
            1.8e13,
            1e20,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            f64::MAX,
        ];
        cases.extend(
            [
                0.49999999999999994,
                4_503_599_627_370_495.5,
                9_007_199_254_740_993.0,
            ]
            .map(|us| us / 1e6),
        );
        // A deterministic spread over twenty decades, fractions of every size included.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..100_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let mantissa = (x >> 11) as f64 / (1u64 << 53) as f64;
            cases.push(mantissa * 10f64.powi((x % 21) as i32 - 8));
        }
        for secs in cases {
            assert_eq!(micros_of_secs(secs), reference(secs), "{secs:e} s");
        }
    }

    #[test]
    fn conversions_roundtrip() {
        assert_eq!(SimTime::from_millis(30).as_micros(), 30_000);
        assert_eq!(SimTime::from_secs_f64(0.5).as_micros(), 500_000);
        assert!((SimDuration::from_micros(1_500).as_millis_f64() - 1.5).abs() < 1e-12);
        assert!((SimTime::from_micros(2_000_000).as_secs_f64() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_millis(10) + SimDuration::from_millis(5);
        assert_eq!(t, SimTime::from_millis(15));
        assert_eq!(t - SimTime::from_millis(10), SimDuration::from_millis(5));
        // Saturating subtraction.
        assert_eq!(
            SimTime::from_millis(1) - SimTime::from_millis(5),
            SimDuration::ZERO
        );
    }

    #[test]
    fn ordering_and_min_max() {
        let a = SimTime::from_millis(3);
        let b = SimTime::from_millis(7);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn display_formats_milliseconds() {
        assert_eq!(format!("{}", SimTime::from_micros(1_234)), "1.234ms");
        assert_eq!(format!("{}", SimDuration::from_millis(2)), "2.000ms");
    }
}
