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

/// The longest duration, and the latest instant, a time given from outside may be: 1e6 s
/// (1e12 µs). A clock that has run for millennia still adds one without passing
/// `u64::MAX` µs, past which every sum of times panics by name, in every build profile.
pub const MAX_TIME: SimDuration = SimDuration(1_000_000_000_000);

/// Why a time given from outside was refused.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TimeError {
    /// Seconds that are NaN, below zero or past [`MAX_TIME`] (−0.0 counts as zero).
    Secs(f64),
    /// A duration or an instant past [`MAX_TIME`], in microseconds.
    Micros(u64),
}

impl fmt::Display for TimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let max_secs = MAX_TIME.as_secs_f64();
        match self {
            TimeError::Secs(secs) => write!(f, "must be within 0..={max_secs:e} seconds, got {secs}"),
            TimeError::Micros(us) => write!(f, "must be at most {max_secs:e} s, got {us} µs"),
        }
    }
}

/// Why a sum of times fails, at the caller: it never wraps to an instant in the past.
#[cold]
#[track_caller]
fn clock_overflow(lhs: u64, rhs: u64) -> ! {
    panic!("simulated clock overflow: {lhs} µs + {rhs} µs is past u64::MAX µs")
}

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

    /// The instant `secs` after the origin, as [`SimDuration::try_from_secs_f64`] takes it.
    pub fn try_from_secs_f64(secs: f64) -> Result<Self, TimeError> {
        SimDuration::try_from_secs_f64(secs).map(|since| SimTime(since.0))
    }

    /// The instant `secs` after the origin, as [`SimDuration::from_secs_f64`] takes it.
    #[track_caller]
    pub fn from_secs_f64(secs: f64) -> Self {
        SimTime(SimDuration::from_secs_f64(secs).0)
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

    /// `secs` seconds rounded to the microsecond, or why it is no duration: NaN, negative or
    /// past [`MAX_TIME`].
    pub fn try_from_secs_f64(secs: f64) -> Result<Self, TimeError> {
        // `contains` is false for NaN and true for −0.0.
        if (0.0..=MAX_TIME.as_secs_f64()).contains(&secs) {
            Ok(SimDuration(micros_of_secs(secs)))
        } else {
            Err(TimeError::Secs(secs))
        }
    }

    /// [`SimDuration::try_from_secs_f64`], panicking with its error.
    #[track_caller]
    pub fn from_secs_f64(secs: f64) -> Self {
        match Self::try_from_secs_f64(secs) {
            Ok(duration) => duration,
            Err(error) => panic!("secs {error}"),
        }
    }

    /// `Ok` when the duration is at most [`MAX_TIME`]: the one check of a time that arrives
    /// typed (an instant `t` is checked as `t - SimTime::ZERO`).
    pub fn check_bound(self) -> Result<(), TimeError> {
        if self <= MAX_TIME {
            Ok(())
        } else {
            Err(TimeError::Micros(self.0))
        }
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
    #[inline]
    #[track_caller]
    fn add(self, rhs: SimDuration) -> SimTime {
        match self.0.checked_add(rhs.0) {
            Some(us) => SimTime(us),
            None => clock_overflow(self.0, rhs.0),
        }
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    #[track_caller]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

/// Time elapsed since `rhs`: zero when `rhs` is later.
impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    #[track_caller]
    fn add(self, rhs: SimDuration) -> SimDuration {
        match self.0.checked_add(rhs.0) {
            Some(us) => SimDuration(us),
            None => clock_overflow(self.0, rhs.0),
        }
    }
}

impl AddAssign for SimDuration {
    #[inline]
    #[track_caller]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

/// `secs` (within `0..=1e6`) in whole microseconds, rounded half away from zero:
/// `(secs * 1e6).round() as u64`, without the libm call `round` compiles to on baseline
/// x86-64 (the pacer and the link convert once per packet). The fraction `us - whole` is
/// exact (Sterbenz), so the result is too.
fn micros_of_secs(secs: f64) -> u64 {
    let us = secs * 1e6;
    let whole = us as u64;
    whole + u64::from(us - whole as f64 >= 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seconds_round_to_the_microsecond_exactly_like_f64_round() {
        let reference = |secs: f64| (secs * 1e6).round() as u64;
        let mut cases = vec![
            0.0,
            -0.0,
            5e-7,
            4.999_999_999_999_999e-7,
            1.5e-6,
            2.5e-6,
            999_999.999_999_5,
            1e6,
            f64::MIN_POSITIVE,
            0.49999999999999994 / 1e6,
        ];
        // A deterministic spread over the twenty decades up to the bound, fractions of every
        // size included.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..100_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let mantissa = (x >> 11) as f64 / (1u64 << 53) as f64;
            cases.push(mantissa * 10f64.powi((x % 21) as i32 - 14));
        }
        for secs in cases {
            let expected = reference(secs);
            assert_eq!(micros_of_secs(secs), expected, "{secs:e} s");
            assert_eq!(
                SimDuration::try_from_secs_f64(secs),
                Ok(SimDuration(expected)),
                "{secs:e} s"
            );
            assert_eq!(SimTime::from_secs_f64(secs), SimTime(expected), "{secs:e} s");
        }
    }

    fn panic_message(op: impl FnOnce() + std::panic::UnwindSafe) -> String {
        let panic = std::panic::catch_unwind(op).expect_err("must panic");
        match panic.downcast::<String>() {
            Ok(message) => *message,
            Err(panic) => panic.downcast_ref::<&str>().expect("a panic message").to_string(),
        }
    }

    /// What used to become 0 (NaN, the negatives) or saturate (∞, 1e20, `f64::MAX`, and
    /// times past the bound that still fit a `u64`) is refused by both forms, by name.
    #[test]
    fn time_bound_refuses_nan_infinities_negatives_and_seconds_past_it() {
        for secs in [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -f64::MIN_POSITIVE,
            -2.5e-6,
            -0.7,
            1e6 + 1e-6,
            1.8e13 / 1e6,
            4_503_599_627_370_495.5 / 1e6,
            9_007_199_254_740_993.0 / 1e6,
            1e20,
            f64::MAX,
        ] {
            let refused =
                |error: TimeError| matches!(error, TimeError::Secs(s) if s.to_bits() == secs.to_bits());
            assert!(
                SimDuration::try_from_secs_f64(secs).is_err_and(refused),
                "{secs:e} s"
            );
            assert!(SimTime::try_from_secs_f64(secs).is_err_and(refused), "{secs:e} s");
            let message = format!("secs must be within 0..=1e6 seconds, got {secs}");
            assert_eq!(
                panic_message(|| {
                    let _ = SimDuration::from_secs_f64(secs);
                }),
                message
            );
            assert_eq!(
                panic_message(|| {
                    let _ = SimTime::from_secs_f64(secs);
                }),
                message
            );
        }
    }

    #[test]
    fn time_bound_accepts_exactly_1e6_seconds() {
        assert_eq!(MAX_TIME.as_micros(), 1_000_000_000_000);
        assert_eq!(SimDuration::try_from_secs_f64(1e6), Ok(MAX_TIME));
        assert_eq!(SimTime::try_from_secs_f64(1e6), Ok(SimTime(MAX_TIME.0)));
        assert_eq!(MAX_TIME.check_bound(), Ok(()));
        assert_eq!((SimTime(MAX_TIME.0) - SimTime::ZERO).check_bound(), Ok(()));
    }

    #[test]
    fn time_bound_refuses_1e6_seconds_plus_one_microsecond() {
        let secs = 1e6 + 1e-6;
        assert_eq!(SimDuration::try_from_secs_f64(secs), Err(TimeError::Secs(secs)));
        assert_eq!(SimTime::try_from_secs_f64(secs), Err(TimeError::Secs(secs)));
        let past = MAX_TIME.0 + 1;
        assert_eq!(SimDuration(past).check_bound(), Err(TimeError::Micros(past)));
        assert_eq!(
            (SimTime(past) - SimTime::ZERO).check_bound(),
            Err(TimeError::Micros(past))
        );
        assert_eq!(
            TimeError::Micros(past).to_string(),
            "must be at most 1e6 s, got 1000000000001 µs"
        );
        assert_eq!(
            TimeError::Secs(secs).to_string(),
            "must be within 0..=1e6 seconds, got 1000000.000001"
        );
    }

    /// Clock sums are checked in release too: past `u64::MAX` µs they panic by name, never
    /// wrap to an instant in the past.
    #[test]
    fn time_bound_clock_sums_past_u64_max_panic_by_name() {
        let message = "simulated clock overflow: 18446744073709551615 µs + 1 µs is past u64::MAX µs";
        let (end, one) = (SimTime(u64::MAX), SimDuration(1));
        assert_eq!(
            panic_message(|| {
                let _ = end + one;
            }),
            message
        );
        assert_eq!(
            panic_message(|| {
                let _ = SimDuration(u64::MAX) + one;
            }),
            message
        );
        assert_eq!(
            panic_message(|| {
                let mut t = end;
                t += one;
            }),
            message
        );
        assert_eq!(
            panic_message(|| {
                let mut d = SimDuration(u64::MAX);
                d += one;
            }),
            message
        );
        assert_eq!(SimTime(u64::MAX - 1) + one, end);
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
}
