//! Deterministic fault injection: timed episodes composed over [`crate::Link::send`].
//!
//! Well-behaved traces ([`crate::BandwidthTrace`]) model *capacity* dynamics; real mobile
//! links additionally fail in *episodes* — a handover blacks the radio out for hundreds of
//! milliseconds, a deep fade turns into a burst-loss storm, a path change steps the RTT,
//! middleboxes duplicate or reorder packets. A [`FaultSchedule`] is a seedable,
//! serializable list of such [`FaultEpisode`]s on the virtual timeline; the link consults
//! it on every send and the schedule decides, deterministically for a given link seed,
//! what happens to the packet *before* the ordinary bandwidth/queue/loss model sees it.
//!
//! Composition semantics (documented because goldens depend on them):
//!
//! * Episodes are evaluated in schedule order; every episode whose `[start, start+duration)`
//!   window contains the send time applies.
//! * [`FaultKind::Outage`] short-circuits: the packet is dropped on the floor (no
//!   serialization, no queue occupancy — the radio is simply gone), counted in
//!   [`crate::link::LinkCounters::outage_drops`].
//! * [`FaultKind::BurstLoss`] draws an extra loss decision that is applied at the link's
//!   ordinary random-loss point (after serialization, so storm losses still occupy
//!   airtime, like corrupted-but-transmitted radio frames).
//! * [`FaultKind::RttSpike`] adds a fixed extra one-way delay to the delivery.
//! * [`FaultKind::Duplicate`] delivers the packet normally *and* emits a second copy one
//!   serialization time later (back-to-back duplicates, the common middlebox pattern).
//! * [`FaultKind::Reorder`] delays *this* packet by a bounded extra amount, letting
//!   later-sent packets overtake it — bounded reordering, never unbounded shuffling.
//!
//! An empty schedule costs one branch per send and draws **nothing** from the fault RNG,
//! so links without faults stay byte-for-byte identical to their pre-fault behaviour.
//!
//! Validation: construction rejects any time (start, duration, end, extra or maximum delay)
//! past [`aivc_sim::MAX_TIME`], outage layouts whose reporting would be ambiguous —
//! [`FaultKind::Outage`] episodes must be sorted by start time and pairwise disjoint
//! (half-open windows; touching is fine) — and any probability outside `[0, 1]`. Everything
//! else may overlap and appear in any order; schedule order then *is* the composition order,
//! and reordering a schedule is a semantic change (it permutes RNG draws) — which is why
//! construction never sorts.

use aivc_sim::{SimDuration, SimTime, TimeError};
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

/// What a fault episode does to packets sent while it is active.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum FaultKind {
    /// Full outage / blackout: every packet is dropped before it touches the link.
    Outage,
    /// A burst-loss storm: each packet is independently lost with `loss_rate`, on top of
    /// the link's configured loss model.
    BurstLoss {
        /// Per-packet loss probability while the storm lasts.
        loss_rate: f64,
    },
    /// An RTT step/spike: every delivery gains `extra_delay` of one-way latency.
    RttSpike {
        /// Extra one-way delay added to each delivered packet.
        extra_delay: SimDuration,
    },
    /// Packet duplication: with `probability`, a delivered packet is followed by a second
    /// copy one serialization time later.
    Duplicate {
        /// Per-packet duplication probability.
        probability: f64,
    },
    /// Bounded reordering: with `probability`, a delivered packet is held back by an extra
    /// delay drawn uniformly from `(0, max_delay]`, letting later packets overtake it.
    Reorder {
        /// Per-packet reorder probability.
        probability: f64,
        /// Upper bound of the extra holding delay.
        max_delay: SimDuration,
    },
}

/// One timed fault episode: `kind` applies to every packet sent in
/// `[start, start + duration)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct FaultEpisode {
    /// When the episode begins (absolute simulated time).
    pub start: SimTime,
    /// How long it lasts.
    pub duration: SimDuration,
    /// What it does.
    pub kind: FaultKind,
}

impl FaultEpisode {
    /// The first instant *after* the episode (exclusive end of its window).
    pub fn end(&self) -> SimTime {
        self.start + self.duration
    }

    /// True when the episode is active at `t`.
    pub fn contains(&self, t: SimTime) -> bool {
        t >= self.start && t < self.end()
    }
}

/// What the active episodes decided for one packet. Plain value, no allocation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultAction {
    /// Drop before the link (outage).
    pub drop_outage: bool,
    /// Lose at the link's random-loss point (storm).
    pub drop_storm: bool,
    /// Extra one-way delivery delay (RTT spike + reorder hold, summed).
    pub extra_delay: SimDuration,
    /// Emit a duplicate copy after delivery.
    pub duplicate: bool,
    /// The reorder draw fired (for counting; its delay is folded into `extra_delay`).
    pub reordered: bool,
}

/// Why a proposed fault schedule was rejected by [`FaultSchedule::try_new`] (or by
/// [`FaultSchedule::new`], which panics with it).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultScheduleError {
    /// Two [`FaultKind::Outage`] episodes overlap in time. Overlapping outages would
    /// double-count in [`FaultSchedule::outage_overlap`], silently inflating reported
    /// `outage_ms`, so they are rejected rather than composed.
    OverlappingOutages {
        /// Indices (in schedule order) of the offending pair.
        first: usize,
        second: usize,
    },
    /// [`FaultKind::Outage`] episodes are not sorted by start time. Keeping outages in
    /// chronological order makes the schedule's recovery point (the last outage end)
    /// well-defined at a glance; non-outage episodes may appear in any order because
    /// their composition is order-dependent only through RNG draw order, which the
    /// schedule order pins explicitly.
    UnsortedOutages {
        /// Index (in schedule order) of the outage that starts before its predecessor.
        index: usize,
    },
    /// A [`FaultKind::BurstLoss`] `loss_rate` or a [`FaultKind::Duplicate`] /
    /// [`FaultKind::Reorder`] `probability` is NaN or outside `[0, 1]`. Each is drawn as a
    /// Bernoulli probability, and a NaN one would silently never fire.
    Probability {
        /// Index (in schedule order) of the offending episode.
        index: usize,
        /// The rejected value.
        value: f64,
    },
    /// An episode's `start`, `duration`, `end`, `extra_delay` or `max_delay` is past
    /// [`aivc_sim::MAX_TIME`], so a sum with the clock could overflow it: the episode's
    /// index (in schedule order), the field, then why.
    Time(usize, &'static str, TimeError),
}

impl core::fmt::Display for FaultScheduleError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FaultScheduleError::OverlappingOutages { first, second } => write!(
                f,
                "fault schedule invalid: outage episodes {first} and {second} overlap \
                 (outage windows must be pairwise disjoint)"
            ),
            FaultScheduleError::UnsortedOutages { index } => write!(
                f,
                "fault schedule invalid: outage episode {index} starts before the previous \
                 outage (outages must be sorted by start time)"
            ),
            FaultScheduleError::Probability { index, value } => write!(
                f,
                "fault schedule invalid: episode {index}'s probability must be within 0..=1, \
                 got {value}"
            ),
            FaultScheduleError::Time(index, field, error) => {
                write!(f, "fault schedule invalid: episode {index}'s {field} {error}")
            }
        }
    }
}

/// A serializable schedule of timed fault episodes. See the module docs for composition
/// semantics. Construct with [`FaultSchedule::try_new`] (fallible) or
/// [`FaultSchedule::new`] (panics on invalid input).
///
/// Validity: [`FaultKind::Outage`] episodes must be sorted by start and pairwise disjoint
/// (half-open windows, so an outage may start exactly where the previous one ends).
/// Non-outage episodes may overlap each other and outages freely — they compose in
/// schedule order, and that order is part of the schedule's deterministic contract
/// because it fixes the RNG draw order.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct FaultSchedule {
    episodes: Vec<FaultEpisode>,
}

impl FaultSchedule {
    /// The empty schedule: no faults, no RNG draws, one branch per send.
    pub fn none() -> Self {
        Self::default()
    }

    /// A schedule from explicit episodes (evaluated in the given order; overlapping
    /// non-outage windows compose).
    ///
    /// # Panics
    ///
    /// Panics when the episodes violate the outage invariants — see
    /// [`FaultSchedule::try_new`] for the fallible variant.
    pub fn new(episodes: Vec<FaultEpisode>) -> Self {
        match Self::try_new(episodes) {
            Ok(s) => s,
            Err(e) => panic!("{e}"),
        }
    }

    /// A schedule from explicit episodes, rejecting times past [`aivc_sim::MAX_TIME`],
    /// invalid outage layouts — outage episodes must be sorted by start time and pairwise
    /// disjoint — and probabilities outside `[0, 1]`. Every schedule with an episode is
    /// built here, so this is the one place its rules are checked.
    pub fn try_new(episodes: Vec<FaultEpisode>) -> Result<Self, FaultScheduleError> {
        let mut prev: Option<(usize, &FaultEpisode)> = None;
        for (i, e) in episodes.iter().enumerate() {
            let delay = match e.kind {
                FaultKind::RttSpike { extra_delay } => ("extra_delay", extra_delay),
                FaultKind::Reorder { max_delay, .. } => ("max_delay", max_delay),
                _ => ("delay", SimDuration::ZERO), // none, and zero passes
            };
            let start = e.start - SimTime::ZERO;
            // Saturating: past `u64::MAX` only when the start or the duration is refused first.
            let end = SimDuration::from_micros(start.as_micros().saturating_add(e.duration.as_micros()));
            for (field, time) in [("start", start), ("duration", e.duration), ("end", end), delay] {
                time.check_bound()
                    .map_err(|error| FaultScheduleError::Time(i, field, error))?;
            }
            let probability = match e.kind {
                FaultKind::Outage => {
                    if let Some((pi, p)) = prev {
                        if e.start < p.start {
                            return Err(FaultScheduleError::UnsortedOutages { index: i });
                        }
                        if e.start < p.end() {
                            return Err(FaultScheduleError::OverlappingOutages { first: pi, second: i });
                        }
                    }
                    prev = Some((i, e));
                    continue;
                }
                FaultKind::RttSpike { extra_delay: _ } => continue,
                FaultKind::BurstLoss { loss_rate } => loss_rate,
                FaultKind::Duplicate { probability }
                | FaultKind::Reorder {
                    probability,
                    max_delay: _,
                } => probability,
            };
            // `contains` is false for NaN.
            if !(0.0..=1.0).contains(&probability) {
                return Err(FaultScheduleError::Probability {
                    index: i,
                    value: probability,
                });
            }
        }
        Ok(Self { episodes })
    }

    /// A single blackout of `duration` starting at `start`.
    pub fn blackout(start: SimTime, duration: SimDuration) -> Self {
        Self::new(vec![FaultEpisode {
            start,
            duration,
            kind: FaultKind::Outage,
        }])
    }

    /// True when the schedule carries no episodes (the always-clean fast path).
    pub fn is_empty(&self) -> bool {
        self.episodes.is_empty()
    }

    /// The episodes, in evaluation order.
    pub fn episodes(&self) -> &[FaultEpisode] {
        &self.episodes
    }

    /// Total [`FaultKind::Outage`] time within `[from, to)` — the denominator of a turn's
    /// `outage_ms` report field. Exact because construction guarantees outage episodes
    /// are pairwise disjoint.
    pub fn outage_overlap(&self, from: SimTime, to: SimTime) -> SimDuration {
        let mut total = SimDuration::ZERO;
        for e in &self.episodes {
            if !matches!(e.kind, FaultKind::Outage) {
                continue;
            }
            let lo = e.start.max(from);
            let hi = e.end().min(to);
            total += hi - lo;
        }
        total
    }

    /// Evaluates every episode active at `now` against one packet, drawing any random
    /// decisions from `rng`. The caller must skip this entirely when
    /// [`FaultSchedule::is_empty`] — that guarantee is what keeps fault-free links
    /// bit-identical to their pre-fault behaviour (no draws, no branches per episode).
    pub fn apply(&self, now: SimTime, rng: &mut ChaCha8Rng) -> FaultAction {
        let mut action = FaultAction::default();
        for e in &self.episodes {
            if !e.contains(now) {
                continue;
            }
            match e.kind {
                FaultKind::Outage => {
                    action.drop_outage = true;
                    // Short-circuit: nothing else matters for a blacked-out packet, and
                    // skipping further draws keeps the post-outage RNG stream aligned
                    // with the schedule, not with how many episodes overlap.
                    return action;
                }
                FaultKind::BurstLoss { loss_rate } => {
                    if rng.gen_bool(loss_rate) {
                        action.drop_storm = true;
                    }
                }
                FaultKind::RttSpike { extra_delay } => {
                    action.extra_delay += extra_delay;
                }
                FaultKind::Duplicate { probability } => {
                    if rng.gen_bool(probability) {
                        action.duplicate = true;
                    }
                }
                FaultKind::Reorder {
                    probability,
                    max_delay,
                } => {
                    if max_delay > SimDuration::ZERO && rng.gen_bool(probability) {
                        action.reordered = true;
                        action.extra_delay +=
                            SimDuration::from_micros(rng.gen_range(1..=max_delay.as_micros()));
                    }
                }
            }
        }
        action
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    fn dur_ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn empty_schedule_is_empty_and_overlap_free() {
        let s = FaultSchedule::none();
        assert!(s.is_empty());
        assert_eq!(s.outage_overlap(ms(0), ms(100)), SimDuration::ZERO);
    }

    #[test]
    fn episode_window_is_half_open() {
        let e = FaultEpisode {
            start: ms(100),
            duration: dur_ms(50),
            kind: FaultKind::Outage,
        };
        assert!(!e.contains(ms(99)));
        assert!(e.contains(ms(100)));
        assert!(e.contains(ms(149)));
        assert!(!e.contains(ms(150)));
    }

    #[test]
    fn outage_overlap_clips_to_the_queried_window() {
        let s = FaultSchedule::blackout(ms(100), dur_ms(200));
        assert_eq!(s.outage_overlap(ms(0), ms(1_000)), dur_ms(200));
        assert_eq!(s.outage_overlap(ms(150), ms(1_000)), dur_ms(150));
        assert_eq!(s.outage_overlap(ms(0), ms(150)), dur_ms(50));
        assert_eq!(s.outage_overlap(ms(400), ms(500)), SimDuration::ZERO);
    }

    #[test]
    fn outage_short_circuits_other_episodes() {
        let s = FaultSchedule::new(vec![
            FaultEpisode {
                start: ms(0),
                duration: dur_ms(100),
                kind: FaultKind::Outage,
            },
            FaultEpisode {
                start: ms(0),
                duration: dur_ms(100),
                kind: FaultKind::RttSpike {
                    extra_delay: dur_ms(250),
                },
            },
        ]);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let action = s.apply(ms(50), &mut rng);
        assert!(action.drop_outage);
        assert_eq!(action.extra_delay, SimDuration::ZERO);
    }

    #[test]
    fn rtt_spikes_compose_additively() {
        let s = FaultSchedule::new(vec![
            FaultEpisode {
                start: ms(0),
                duration: dur_ms(100),
                kind: FaultKind::RttSpike {
                    extra_delay: dur_ms(100),
                },
            },
            FaultEpisode {
                start: ms(0),
                duration: dur_ms(100),
                kind: FaultKind::RttSpike {
                    extra_delay: dur_ms(50),
                },
            },
        ]);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let action = s.apply(ms(10), &mut rng);
        assert!(!action.drop_outage && !action.drop_storm);
        assert_eq!(action.extra_delay, dur_ms(150));
    }

    #[test]
    fn storm_duplicate_and_reorder_rates_are_respected_and_deterministic() {
        let s = FaultSchedule::new(vec![
            FaultEpisode {
                start: ms(0),
                duration: SimDuration::from_secs_f64(1e6),
                kind: FaultKind::BurstLoss { loss_rate: 0.3 },
            },
            FaultEpisode {
                start: ms(0),
                duration: SimDuration::from_secs_f64(1e6),
                kind: FaultKind::Duplicate { probability: 0.1 },
            },
            FaultEpisode {
                start: ms(0),
                duration: SimDuration::from_secs_f64(1e6),
                kind: FaultKind::Reorder {
                    probability: 0.05,
                    max_delay: dur_ms(40),
                },
            },
        ]);
        let run = |seed: u64| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut storms = 0u32;
            let mut dups = 0u32;
            let mut reorders = 0u32;
            let n = 20_000;
            for i in 0..n {
                let a = s.apply(ms(i), &mut rng);
                storms += a.drop_storm as u32;
                dups += a.duplicate as u32;
                reorders += a.reordered as u32;
                assert!(a.extra_delay <= dur_ms(40));
            }
            (storms, dups, reorders)
        };
        let (storms, dups, reorders) = run(7);
        assert_eq!(
            (storms, dups, reorders),
            run(7),
            "fault draws must be seed-deterministic"
        );
        assert!((storms as f64 / 20_000.0 - 0.3).abs() < 0.02);
        assert!((dups as f64 / 20_000.0 - 0.1).abs() < 0.02);
        assert!((reorders as f64 / 20_000.0 - 0.05).abs() < 0.02);
    }

    #[test]
    fn try_new_rejects_overlapping_outages() {
        let err = FaultSchedule::try_new(vec![
            FaultEpisode {
                start: ms(100),
                duration: dur_ms(200),
                kind: FaultKind::Outage,
            },
            FaultEpisode {
                start: ms(250),
                duration: dur_ms(100),
                kind: FaultKind::Outage,
            },
        ])
        .unwrap_err();
        assert_eq!(
            err,
            FaultScheduleError::OverlappingOutages { first: 0, second: 1 }
        );
    }

    #[test]
    fn try_new_rejects_unsorted_outages() {
        let err = FaultSchedule::try_new(vec![
            FaultEpisode {
                start: ms(500),
                duration: dur_ms(100),
                kind: FaultKind::Outage,
            },
            FaultEpisode {
                start: ms(100),
                duration: dur_ms(100),
                kind: FaultKind::Outage,
            },
        ])
        .unwrap_err();
        assert_eq!(err, FaultScheduleError::UnsortedOutages { index: 1 });
    }

    /// A NaN probability used to run as "never" and 1.5 as "always": `gen_bool` is handed
    /// the value as it stands. Each is now refused by episode index.
    #[test]
    fn try_new_rejects_probabilities_outside_0_1() {
        let kinds: [fn(f64) -> FaultKind; 3] = [
            |loss_rate| FaultKind::BurstLoss { loss_rate },
            |probability| FaultKind::Duplicate { probability },
            |probability| FaultKind::Reorder {
                probability,
                max_delay: dur_ms(20),
            },
        ];
        let schedule = |kind: FaultKind| {
            vec![
                FaultEpisode {
                    start: ms(0),
                    duration: dur_ms(100),
                    kind: FaultKind::Outage,
                },
                FaultEpisode {
                    start: ms(0),
                    duration: dur_ms(100),
                    kind,
                },
            ]
        };
        for kind in kinds {
            for value in [f64::NAN, -0.1, 1.5, f64::INFINITY, f64::NEG_INFINITY] {
                let error = FaultSchedule::try_new(schedule(kind(value))).expect_err("must be rejected");
                assert!(
                    matches!(error, FaultScheduleError::Probability { index: 1, value: v } if v.to_bits() == value.to_bits()),
                    "{error:?}"
                );
                assert_eq!(
                    error.to_string(),
                    format!(
                        "fault schedule invalid: episode 1's probability must be within 0..=1, got {value}"
                    )
                );
            }
            for value in [0.0, 1.0] {
                assert!(FaultSchedule::try_new(schedule(kind(value))).is_ok(), "{value}");
            }
        }
    }

    /// An outage from 1 µs lasting `u64::MAX` µs used to be accepted, and its end overflowed
    /// (a panic in debug, an outage that never applies in release). Every episode time is
    /// held to the clock's bound, and the refusal names the episode and the field.
    #[test]
    fn try_new_rejects_times_past_the_bound() {
        let max = aivc_sim::MAX_TIME;
        let episode = |start: SimTime, duration: SimDuration, kind| FaultEpisode {
            start,
            duration,
            kind,
        };
        let at_max = SimTime::from_micros(max.as_micros());
        let spike = |extra_delay| FaultKind::RttSpike { extra_delay };
        let reorder = |max_delay| FaultKind::Reorder {
            probability: 0.5,
            max_delay,
        };
        let endless = SimDuration::from_micros(u64::MAX);
        for (e, field, us) in [
            (episode(ms(0), endless, FaultKind::Outage), "duration", u64::MAX),
            (
                episode(SimTime::from_micros(u64::MAX), dur_ms(1), FaultKind::Outage),
                "start",
                u64::MAX,
            ),
            (
                episode(at_max, SimDuration::from_micros(1), FaultKind::Outage),
                "end",
                max.as_micros() + 1,
            ),
            (
                episode(ms(0), dur_ms(100), spike(endless)),
                "extra_delay",
                u64::MAX,
            ),
            (
                episode(ms(0), dur_ms(100), reorder(max + SimDuration::from_micros(1))),
                "max_delay",
                max.as_micros() + 1,
            ),
        ] {
            let error = FaultSchedule::try_new(vec![e]).expect_err(field);
            assert_eq!(
                error.to_string(),
                format!("fault schedule invalid: episode 0's {field} must be at most 1e6 s, got {us} µs")
            );
        }
        for kind in [FaultKind::Outage, spike(max), reorder(max)] {
            assert!(FaultSchedule::try_new(vec![episode(ms(0), max, kind)]).is_ok());
        }
    }

    #[test]
    fn try_new_accepts_touching_outages() {
        // Half-open windows: an outage may begin exactly where the previous one ends.
        let s = FaultSchedule::try_new(vec![
            FaultEpisode {
                start: ms(100),
                duration: dur_ms(100),
                kind: FaultKind::Outage,
            },
            FaultEpisode {
                start: ms(200),
                duration: dur_ms(100),
                kind: FaultKind::Outage,
            },
        ])
        .unwrap();
        assert_eq!(s.outage_overlap(ms(0), ms(1_000)), dur_ms(200));
    }

    #[test]
    fn try_new_accepts_unsorted_and_overlapping_non_outage_episodes() {
        // Mixed-kind schedules (like the registry's rtt-spike-midturn) may interleave
        // freely: only outage windows carry ordering invariants. Schedule order pins the
        // RNG draw order, so construction must preserve it untouched.
        let episodes = vec![
            FaultEpisode {
                start: ms(1_000),
                duration: dur_ms(500),
                kind: FaultKind::RttSpike {
                    extra_delay: dur_ms(250),
                },
            },
            FaultEpisode {
                start: ms(1_000),
                duration: dur_ms(500),
                kind: FaultKind::BurstLoss { loss_rate: 0.1 },
            },
            FaultEpisode {
                start: ms(500),
                duration: dur_ms(2_000),
                kind: FaultKind::Duplicate { probability: 0.05 },
            },
            FaultEpisode {
                start: ms(500),
                duration: dur_ms(2_000),
                kind: FaultKind::Reorder {
                    probability: 0.05,
                    max_delay: dur_ms(20),
                },
            },
        ];
        let s = FaultSchedule::try_new(episodes.clone()).unwrap();
        assert_eq!(s.episodes(), &episodes[..], "order must be preserved verbatim");
    }

    #[test]
    #[should_panic(expected = "outage episodes 0 and 1 overlap")]
    fn new_panics_on_overlapping_outages() {
        let _ = FaultSchedule::new(vec![
            FaultEpisode {
                start: ms(0),
                duration: dur_ms(300),
                kind: FaultKind::Outage,
            },
            FaultEpisode {
                start: ms(100),
                duration: dur_ms(100),
                kind: FaultKind::Outage,
            },
        ]);
    }
}
