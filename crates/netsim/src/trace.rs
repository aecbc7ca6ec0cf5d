//! Time-varying bandwidth traces.
//!
//! The paper's measurement uses a constant 10 Mbps link, but any serious RTC evaluation
//! also needs varying capacity (ABR exists because capacity varies). Traces are piecewise
//! constant and queried by simulated time; helpers build the common shapes (constant, step
//! drop, periodic sawtooth, random walk).

use aivc_sim::{SimDuration, SimTime};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

/// A piecewise-constant bandwidth trace in bits per second.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct BandwidthTrace {
    /// Segment boundaries: `(start_time_us, rate_bps)`, sorted by start time, first at 0.
    segments: Vec<(u64, f64)>,
    /// Loop period in microseconds; `0` = no looping (the last segment's rate holds
    /// forever). See [`BandwidthTrace::looping`].
    loop_period_us: u64,
}

/// Slowest rate a trace may hold, in bits per second. The link divides a packet's bits by
/// the rate to get its serialization time: at 1 bps an MTU takes hours but stays a finite
/// number of microseconds, where a subnormal rate overflows the clock.
const MIN_RATE_BPS: f64 = 1.0;
/// Fastest rate a trace may hold, in bits per second: far past any link, and finite — an
/// infinite rate serializes everything in zero time and never builds a queue.
pub const MAX_RATE_BPS: f64 = 1e12;

/// Most segments [`BandwidthTrace::square_wave`] / [`BandwidthTrace::random_walk`] may
/// generate: 2^20, about a million 1-µs steps, far past any trace worth simulating. Refusing
/// more costs nothing, where building them allocates a segment per step.
const MAX_GENERATED_SEGMENTS: u64 = 1 << 20;

/// Why a trace was rejected by [`BandwidthTrace::try_from_segments`], or by the constructors
/// that panic with it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BandwidthTraceError {
    /// The trace has no segment, so no rate at any time.
    NoSegments,
    /// The first segment does not start at time zero (the beginning would have no rate), or
    /// a later one does not start strictly after its predecessor (`rate_at` would be
    /// ambiguous).
    SegmentStart {
        /// Index of the offending segment.
        segment: usize,
    },
    /// A segment's rate is outside `MIN_RATE_BPS..=`[`MAX_RATE_BPS`] (or NaN).
    Rate {
        /// Index of the offending segment.
        segment: usize,
        /// Its rate as given.
        rate_bps: f64,
    },
    /// A generator's step divides its total into more than `MAX_GENERATED_SEGMENTS`
    /// segments.
    TooManySegments {
        /// How many segments the step and total ask for.
        segments: u64,
    },
    /// A loop period does not exceed the last segment's start, so that segment (and any
    /// after the period) could never be reached.
    LoopPeriod {
        /// The period asked for, in microseconds.
        period_us: u64,
        /// The last segment's start, in microseconds.
        last_start_us: u64,
    },
}

impl core::fmt::Display for BandwidthTraceError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("bandwidth trace invalid: ")?;
        match *self {
            BandwidthTraceError::NoSegments => f.write_str("a trace needs at least one segment"),
            BandwidthTraceError::SegmentStart { segment } => write!(
                f,
                "the first segment must start at t=0 and start times must be strictly increasing, \
                 segment {segment}'s is not"
            ),
            BandwidthTraceError::Rate { segment, rate_bps } => write!(
                f,
                "segment {segment}'s rate must be within 1..=1e12 bits per second, got {rate_bps}"
            ),
            BandwidthTraceError::TooManySegments { segments } => write!(
                f,
                "a generated trace may hold at most {MAX_GENERATED_SEGMENTS} segments, its step \
                 and total ask for {segments}"
            ),
            BandwidthTraceError::LoopPeriod {
                period_us,
                last_start_us,
            } => write!(
                f,
                "loop period {period_us}us must exceed the last segment start {last_start_us}us"
            ),
        }
    }
}

impl BandwidthTrace {
    /// A constant-rate trace.
    ///
    /// # Panics
    ///
    /// Panics with the [`BandwidthTraceError`] when the rate is rejected.
    pub fn constant(rate_bps: f64) -> Self {
        Self::from_segments(vec![(SimTime::ZERO, rate_bps)])
    }

    /// Builds a trace from explicit `(start_time, rate_bps)` segments.
    ///
    /// Segments must be sorted by start time and the first must start at time zero.
    ///
    /// # Panics
    ///
    /// Panics with the [`BandwidthTraceError`] when they are rejected.
    pub fn from_segments(segments: Vec<(SimTime, f64)>) -> Self {
        Self::try_from_segments(segments).unwrap_or_else(|error| panic!("{error}"))
    }

    /// [`BandwidthTrace::from_segments`], returning the rejection instead of panicking
    /// with it. Every trace is built here, so this is the one place its rules are checked
    /// before a link divides by its rates.
    pub fn try_from_segments(segments: Vec<(SimTime, f64)>) -> Result<Self, BandwidthTraceError> {
        use BandwidthTraceError as E;
        if segments.is_empty() {
            return Err(E::NoSegments);
        }
        let mut after = None;
        for (segment, &(start, rate_bps)) in segments.iter().enumerate() {
            if after.map_or(start != SimTime::ZERO, |previous| start <= previous) {
                return Err(E::SegmentStart { segment });
            }
            // `contains` is false for NaN.
            if !(MIN_RATE_BPS..=MAX_RATE_BPS).contains(&rate_bps) {
                return Err(E::Rate { segment, rate_bps });
            }
            after = Some(start);
        }
        Ok(Self {
            segments: segments.into_iter().map(|(t, r)| (t.as_micros(), r)).collect(),
            loop_period_us: 0,
        })
    }

    /// Refuses a generator stepping by `step` (1 µs at least) over `total` when that lays
    /// more than `MAX_GENERATED_SEGMENTS` segments, before any of them is allocated.
    fn check_segment_count(step: SimTime, total: SimTime) {
        let segments = total.as_micros().div_ceil(step.as_micros().max(1));
        if segments > MAX_GENERATED_SEGMENTS {
            panic!("{}", BandwidthTraceError::TooManySegments { segments });
        }
    }

    /// Makes the trace repeat with the given period: `rate_at(t)` becomes
    /// `rate_at(t mod period)`, so a trace recorded over a few seconds can drive a
    /// conversation that lasts minutes (turn windows keep advancing absolute simulated
    /// time; without looping, every turn past the recording would sit on the final
    /// segment's rate forever).
    ///
    /// **The seam is an ordinary segment boundary**: at every multiple of `period` the
    /// rate steps from the last segment's value back to the first segment's — a
    /// deterministic, documented rate step, exactly like any other boundary inside the
    /// trace (no discontinuity panic, no interpolation). `period` must cover every
    /// segment start, so no segment is unreachable.
    ///
    /// # Panics
    ///
    /// Panics with [`BandwidthTraceError::LoopPeriod`] when it does not.
    pub fn looping(mut self, period: SimDuration) -> Self {
        let (period_us, last_start_us) = (period.as_micros(), self.segments.last().map_or(0, |s| s.0));
        if period_us <= last_start_us {
            let error = BandwidthTraceError::LoopPeriod {
                period_us,
                last_start_us,
            };
            panic!("{error}");
        }
        self.loop_period_us = period_us;
        self
    }

    /// A step trace: `before_bps` until `at`, then `after_bps`.
    pub fn step(before_bps: f64, after_bps: f64, at: SimTime) -> Self {
        Self::from_segments(vec![(SimTime::ZERO, before_bps), (at, after_bps)])
    }

    /// A periodic square wave alternating between `high_bps` and `low_bps` every `half_period`.
    ///
    /// # Panics
    ///
    /// Panics with [`BandwidthTraceError::TooManySegments`] when `half_period` splits
    /// `total` into more than 2^20 segments, and as [`BandwidthTrace::from_segments`]
    /// does on a rejected rate.
    pub fn square_wave(high_bps: f64, low_bps: f64, half_period: SimTime, total: SimTime) -> Self {
        Self::check_segment_count(half_period, total);
        let mut segments = Vec::new();
        let mut t = 0u64;
        let mut high = true;
        while t < total.as_micros() {
            segments.push((SimTime::from_micros(t), if high { high_bps } else { low_bps }));
            high = !high;
            t += half_period.as_micros().max(1);
        }
        Self::from_segments(segments)
    }

    /// A bounded random-walk trace: every `step` the rate is multiplied by a factor drawn
    /// uniformly from `[0.85, 1.15]` and clamped to `[min_bps, max_bps]`.
    ///
    /// # Panics
    ///
    /// As [`BandwidthTrace::square_wave`], with `step` in place of its half period.
    pub fn random_walk(
        seed: u64,
        start_bps: f64,
        min_bps: f64,
        max_bps: f64,
        step: SimTime,
        total: SimTime,
    ) -> Self {
        Self::check_segment_count(step, total);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut segments = Vec::new();
        let mut t = 0u64;
        let mut rate = start_bps.clamp(min_bps, max_bps);
        while t < total.as_micros() {
            segments.push((SimTime::from_micros(t), rate));
            rate = (rate * rng.gen_range(0.85..1.15)).clamp(min_bps, max_bps);
            t += step.as_micros().max(1);
        }
        Self::from_segments(segments)
    }

    /// The rate in bits per second at simulated time `t` (wrapped into the loop period
    /// when the trace repeats).
    pub fn rate_at(&self, t: SimTime) -> f64 {
        let us = if self.loop_period_us > 0 {
            t.as_micros() % self.loop_period_us
        } else {
            t.as_micros()
        };
        match self.segments.binary_search_by_key(&us, |(start, _)| *start) {
            Ok(i) => self.segments[i].1,
            Err(0) => self.segments[0].1,
            Err(i) => self.segments[i - 1].1,
        }
    }

    /// The mean rate over `[0, until]`, duration-weighted (loop-aware: full periods
    /// contribute the period mean, the tail contributes its prefix mean) — what the tests
    /// below measure the generated traces with.
    #[cfg(test)]
    fn mean_rate(&self, until: SimTime) -> f64 {
        let end = until.as_micros();
        if end == 0 {
            return self.segments[0].1;
        }
        if self.loop_period_us > 0 && end > self.loop_period_us {
            let period = self.loop_period_us;
            let full = end / period;
            let tail = end % period;
            let mut acc = self.rate_sum_over(period) * full as f64;
            if tail > 0 {
                acc += self.rate_sum_over(tail);
            }
            return acc / end as f64;
        }
        self.rate_sum_over(end) / end as f64
    }

    /// `∫₀^end rate dt` over the unlooped segments, in bits (end in µs, so bits·µs — the
    /// caller divides by a duration in µs).
    #[cfg(test)]
    fn rate_sum_over(&self, end: u64) -> f64 {
        let mut acc = 0.0;
        for (i, (start, rate)) in self.segments.iter().enumerate() {
            if *start >= end {
                break;
            }
            let seg_end = self.segments.get(i + 1).map(|(s, _)| *s).unwrap_or(end).min(end);
            acc += rate * (seg_end - start) as f64;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_trace() {
        let t = BandwidthTrace::constant(10e6);
        assert_eq!(t.rate_at(SimTime::ZERO), 10e6);
        assert_eq!(t.rate_at(SimTime::from_secs_f64(1e4)), 10e6);
        assert_eq!(t.mean_rate(SimTime::from_secs_f64(5.0)), 10e6);
    }

    #[test]
    fn step_trace_switches_at_boundary() {
        let t = BandwidthTrace::step(8e6, 2e6, SimTime::from_secs_f64(10.0));
        assert_eq!(t.rate_at(SimTime::from_secs_f64(9.999)), 8e6);
        assert_eq!(t.rate_at(SimTime::from_secs_f64(10.0)), 2e6);
        assert_eq!(t.rate_at(SimTime::from_secs_f64(100.0)), 2e6);
        let mean = t.mean_rate(SimTime::from_secs_f64(20.0));
        assert!((mean - 5e6).abs() < 1.0, "mean {mean}");
    }

    #[test]
    fn square_wave_alternates() {
        let t = BandwidthTrace::square_wave(
            10e6,
            2e6,
            SimTime::from_secs_f64(1.0),
            SimTime::from_secs_f64(4.0),
        );
        assert_eq!(t.rate_at(SimTime::from_secs_f64(0.5)), 10e6);
        assert_eq!(t.rate_at(SimTime::from_secs_f64(1.5)), 2e6);
        assert_eq!(t.rate_at(SimTime::from_secs_f64(2.5)), 10e6);
    }

    #[test]
    fn random_walk_stays_in_bounds_and_is_deterministic() {
        let a = BandwidthTrace::random_walk(
            9,
            5e6,
            1e6,
            10e6,
            SimTime::from_secs_f64(1.0),
            SimTime::from_secs_f64(60.0),
        );
        let b = BandwidthTrace::random_walk(
            9,
            5e6,
            1e6,
            10e6,
            SimTime::from_secs_f64(1.0),
            SimTime::from_secs_f64(60.0),
        );
        assert_eq!(a, b);
        for i in 0..60 {
            let r = a.rate_at(SimTime::from_secs_f64(i as f64));
            assert!((1e6..=10e6).contains(&r));
        }
    }

    /// `5e-324` used to overflow the link's clock and `+∞` to serialize in zero time; NaN, 0
    /// and −1 were assertions without a `Result`. Each is now a structured rejection the
    /// panicking constructors repeat word for word.
    #[test]
    fn rates_a_link_cannot_divide_by_are_rejected_by_name() {
        let inf = f64::INFINITY;
        for rate in [f64::NAN, inf, -inf, 0.0, -1.0, 5e-324, 0.999, 1.1e12, f64::MAX] {
            let error =
                BandwidthTrace::try_from_segments(vec![(SimTime::ZERO, rate)]).expect_err("must be rejected");
            assert!(
                matches!(error, BandwidthTraceError::Rate { segment: 0, .. }),
                "{error:?}"
            );
            let message = error.to_string();
            assert!(message.ends_with(&format!("got {rate}")), "{message}");
            let panic =
                std::panic::catch_unwind(|| BandwidthTrace::constant(rate)).expect_err("constant too");
            assert_eq!(panic.downcast_ref::<String>(), Some(&message));
            let stepped = vec![(SimTime::ZERO, 1e6), (SimTime::from_millis(5), rate)];
            assert_eq!(
                BandwidthTrace::try_from_segments(stepped).map_err(|e| e.to_string()),
                Err(message.replace("segment 0", "segment 1"))
            );
        }
        for rate in [1.0, 430e3, 1e12] {
            assert_eq!(
                BandwidthTrace::try_from_segments(vec![(SimTime::ZERO, rate)])
                    .map(|t| t.rate_at(SimTime::ZERO)),
                Ok(rate)
            );
        }
        assert_eq!(
            BandwidthTrace::try_from_segments(vec![]),
            Err(BandwidthTraceError::NoSegments)
        );
    }

    /// Every segment list goes through `try_from_segments`, which holds it to each rule by
    /// name: no segment, a first start off zero, a start that does not advance, a zero rate.
    #[test]
    fn segment_lists_are_held_to_the_constructors_rules() {
        let segments = |raw: &[(u64, f64)]| -> Vec<(SimTime, f64)> {
            raw.iter()
                .map(|&(us, rate)| (SimTime::from_micros(us), rate))
                .collect()
        };
        let valid = BandwidthTrace::try_from_segments(segments(&[(0, 8e6), (10_000, 2e6)]));
        assert_eq!(valid.map(|t| t.rate_at(SimTime::from_micros(10_000))), Ok(2e6));
        for (raw, expected) in [
            (&[][..], BandwidthTraceError::NoSegments),
            (&[(7, 1e6)][..], BandwidthTraceError::SegmentStart { segment: 0 }),
            (
                &[(0, 1e6), (9, 2e6), (9, 3e6)][..],
                BandwidthTraceError::SegmentStart { segment: 2 },
            ),
            (
                &[(0, 1e6), (9, 0.0)][..],
                BandwidthTraceError::Rate {
                    segment: 1,
                    rate_bps: 0.0,
                },
            ),
        ] {
            assert_eq!(
                BandwidthTrace::try_from_segments(segments(raw)),
                Err(expected),
                "{raw:?}"
            );
        }
    }

    /// A 1 µs step over 10⁶ s used to push 10¹² segments; both generators now refuse a
    /// step that lays more than `MAX_GENERATED_SEGMENTS`, by name, before allocating.
    #[test]
    fn generators_refuse_more_segments_than_the_bound() {
        let total = SimTime::from_secs_f64(1e6);
        let message = BandwidthTraceError::TooManySegments {
            segments: 1_000_000_000_000,
        }
        .to_string();
        for refused in [
            std::panic::catch_unwind(|| BandwidthTrace::square_wave(8e6, 2e6, SimTime::ZERO, total)),
            std::panic::catch_unwind(|| BandwidthTrace::random_walk(1, 5e6, 1e6, 9e6, SimTime::ZERO, total)),
        ] {
            let panic = refused.expect_err("a step past the bound is refused");
            assert_eq!(panic.downcast_ref::<String>(), Some(&message));
        }
        let bound = SimTime::from_micros(MAX_GENERATED_SEGMENTS);
        let longest = BandwidthTrace::square_wave(8e6, 2e6, SimTime::ZERO, bound);
        let last = SimTime::from_micros(MAX_GENERATED_SEGMENTS - 1);
        assert_eq!(longest.rate_at(last), 2e6);
    }

    #[test]
    #[should_panic(expected = "must start at t=0")]
    fn segments_must_start_at_zero() {
        let _ = BandwidthTrace::from_segments(vec![(SimTime::from_millis(1), 1e6)]);
    }

    #[test]
    fn looping_wraps_at_the_seam_without_discontinuity_panic() {
        // 8 Mbps for 1 s, then 2 Mbps for 1 s, looping every 2 s.
        let t = BandwidthTrace::step(8e6, 2e6, SimTime::from_secs_f64(1.0))
            .looping(SimDuration::from_secs_f64(2.0));
        assert_eq!(t.loop_period_us, 2_000_000);
        // Inside the first period: unchanged.
        assert_eq!(t.rate_at(SimTime::from_secs_f64(0.5)), 8e6);
        assert_eq!(t.rate_at(SimTime::from_secs_f64(1.5)), 2e6);
        // Just before the seam the last segment holds; at the seam the first returns.
        assert_eq!(t.rate_at(SimTime::from_micros(1_999_999)), 2e6);
        assert_eq!(t.rate_at(SimTime::from_secs_f64(2.0)), 8e6);
        // Far beyond the recording, the pattern keeps repeating.
        assert_eq!(t.rate_at(SimTime::from_secs_f64(100.5)), 8e6);
        assert_eq!(t.rate_at(SimTime::from_secs_f64(101.5)), 2e6);
    }

    #[test]
    fn looping_mean_rate_accounts_for_full_periods_and_tail() {
        let t = BandwidthTrace::step(8e6, 2e6, SimTime::from_secs_f64(1.0))
            .looping(SimDuration::from_secs_f64(2.0));
        // Whole periods average to 5 Mbps.
        let mean = t.mean_rate(SimTime::from_secs_f64(4.0));
        assert!((mean - 5e6).abs() < 1.0, "mean {mean}");
        // 2 full periods + a 1 s tail at 8 Mbps: (2*10 + 8) / 5 = 5.6 Mbps.
        let mean = t.mean_rate(SimTime::from_secs_f64(5.0));
        assert!((mean - 5.6e6).abs() < 1.0, "mean {mean}");
        // Without looping, the final rate holds instead.
        let unlooped = BandwidthTrace::step(8e6, 2e6, SimTime::from_secs_f64(1.0));
        assert_eq!(unlooped.rate_at(SimTime::from_secs_f64(100.0)), 2e6);
    }

    /// `looping`'s refusal is a `BandwidthTraceError` like every other, which its panic renders.
    #[test]
    #[should_panic(
        expected = "bandwidth trace invalid: loop period 1000000us must exceed the last segment start 2000000us"
    )]
    fn loop_period_must_cover_every_segment() {
        let _ = BandwidthTrace::step(8e6, 2e6, SimTime::from_secs_f64(2.0))
            .looping(SimDuration::from_secs_f64(1.0));
    }

    #[test]
    fn seam_boundary_is_exact_at_every_multiple_of_the_period() {
        let period = SimDuration::from_secs_f64(2.0);
        let t = BandwidthTrace::step(8e6, 2e6, SimTime::from_secs_f64(1.0)).looping(period);
        for k in 1u64..=5 {
            let seam = SimTime::from_micros(k * period.as_micros());
            // One microsecond before the seam the *last* segment still holds; exactly at
            // t == k·period the wrap is inclusive of the first segment.
            assert_eq!(
                t.rate_at(SimTime::from_micros(seam.as_micros() - 1)),
                2e6,
                "just before seam {k}"
            );
            assert_eq!(t.rate_at(seam), 8e6, "at seam {k}");
            assert_eq!(
                t.rate_at(SimTime::from_micros(seam.as_micros() + 1)),
                8e6,
                "just after seam {k}"
            );
        }
    }

    #[test]
    fn mean_rate_at_exact_period_multiples_has_no_spurious_tail() {
        let t = BandwidthTrace::step(8e6, 2e6, SimTime::from_secs_f64(1.0))
            .looping(SimDuration::from_secs_f64(2.0));
        // t == 1·period takes the unlooped path; t == k·period the full-periods path with
        // a zero-length tail. All must agree on the period mean exactly.
        for k in 1u64..=4 {
            let mean = t.mean_rate(SimTime::from_secs_f64(2.0 * k as f64));
            assert!((mean - 5e6).abs() < 1e-6, "k={k} mean {mean}");
        }
    }

    #[test]
    fn mean_rate_tail_landing_exactly_on_a_segment_start() {
        let t = BandwidthTrace::step(8e6, 2e6, SimTime::from_secs_f64(1.0))
            .looping(SimDuration::from_secs_f64(2.0));
        // 1 full period (mean 5) + a tail that ends exactly where segment 2 begins (all
        // 8 Mbps): (10 + 8) / 3 s = 6 Mbps. The tail's final segment is zero-length and
        // must contribute nothing.
        let mean = t.mean_rate(SimTime::from_secs_f64(3.0));
        assert!((mean - 6e6).abs() < 1e-6, "mean {mean}");
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn zero_length_segments_are_rejected() {
        // Two segments sharing a start time would make the first zero-length; the
        // constructor rejects it so `rate_at` never has to disambiguate.
        let _ = BandwidthTrace::from_segments(vec![
            (SimTime::ZERO, 8e6),
            (SimTime::from_secs_f64(1.0), 4e6),
            (SimTime::from_secs_f64(1.0), 2e6),
        ]);
    }

    #[test]
    fn square_wave_with_submicrosecond_half_period_stays_well_formed() {
        // A degenerate half period clamps to 1 µs instead of emitting zero-length
        // segments (which from_segments would reject).
        let t = BandwidthTrace::square_wave(10e6, 2e6, SimTime::ZERO, SimTime::from_micros(4));
        assert_eq!(t.rate_at(SimTime::ZERO), 10e6);
        assert_eq!(t.rate_at(SimTime::from_micros(1)), 2e6);
        assert_eq!(t.rate_at(SimTime::from_micros(2)), 10e6);
    }

    #[test]
    fn rate_at_between_interior_boundaries_is_left_inclusive() {
        let t = BandwidthTrace::from_segments(vec![
            (SimTime::ZERO, 12e6),
            (SimTime::from_secs_f64(1.0), 5e6),
            (SimTime::from_secs_f64(1.8), 0.9e6),
        ]);
        assert_eq!(t.rate_at(SimTime::from_micros(999_999)), 12e6);
        assert_eq!(t.rate_at(SimTime::from_secs_f64(1.0)), 5e6);
        assert_eq!(t.rate_at(SimTime::from_micros(1_799_999)), 5e6);
        assert_eq!(t.rate_at(SimTime::from_secs_f64(1.8)), 0.9e6);
    }
}
