//! Property tests of the GCC-style congestion controller: the §2.2 control loop the
//! network-in-the-loop chat turns ([`aivchat::core::Conversation`]) close into the
//! ABR policy. Whatever feedback the network produces, the estimate must stay a sane,
//! bounded, finite bitrate — an estimator that can go NaN, negative or out of bounds would
//! poison every downstream encode target.

use aivchat::netsim::{SimDuration, SimTime};
use aivchat::rtc::cc::{MAX_BPS, MIN_BPS};
use aivchat::rtc::{FeedbackFold, GccConfig, GccController, PacketFeedback};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Builds one feedback report of `count` packets with the given loss probability and a
/// one-way delay drawn from `owd_ms_range` per packet, folded in sending order.
fn random_report(
    rng: &mut ChaCha8Rng,
    base_ms: u64,
    count: usize,
    loss_prob: f64,
    owd_ms_range: (u64, u64),
) -> FeedbackFold {
    let mut fold = FeedbackFold::new();
    for i in 0..count {
        let sent = SimTime::from_millis(base_ms + i as u64);
        let lost = rng.gen_bool(loss_prob);
        let owd = rng.gen_range(owd_ms_range.0..=owd_ms_range.1);
        fold.push(&PacketFeedback {
            sent_at: sent,
            arrived_at: if lost {
                None
            } else {
                Some(sent + SimDuration::from_millis(owd))
            },
            size_bytes: rng.gen_range(60..=1_400),
        });
    }
    fold
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For arbitrary feedback sequences — any mix of loss rates, delays, report sizes
    /// (including empty and all-lost reports) — the estimate stays finite, positive and
    /// within `[MIN_BPS, MAX_BPS]` after every report.
    #[test]
    fn estimate_stays_within_bounds_for_arbitrary_feedback(
        seed in 0u64..10_000,
        reports in 1usize..60,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut cc = GccController::new(GccConfig::default());
        for r in 0..reports {
            let count = rng.gen_range(0..40);
            let loss = rng.gen_range(0.0..1.0);
            let owd_lo = rng.gen_range(1..300);
            let owd_hi = owd_lo + rng.gen_range(0..300);
            let report = random_report(&mut rng, r as u64 * 1_000, count, loss, (owd_lo, owd_hi));
            cc.on_feedback_fold_at(SimTime::from_millis(r as u64 * 1_000), &report);
            let estimate = cc.estimate_bps();
            prop_assert!(estimate.is_finite(), "report {r}: estimate {estimate}");
            prop_assert!(
                (MIN_BPS..=MAX_BPS).contains(&estimate),
                "report {r}: estimate {estimate} outside [{MIN_BPS}, {MAX_BPS}]"
            );
        }
    }

    /// The bounds hold from whatever initial estimate the controller was handed, one
    /// outside them included, once the first report is in.
    #[test]
    fn bounds_hold_from_any_initial_estimate(
        seed in 0u64..10_000,
        initial_kbps in 1.0f64..100_000.0,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut cc = GccController::new(GccConfig {
            initial_estimate_bps: initial_kbps * 1e3,
            ..GccConfig::default()
        });
        for r in 0..20u64 {
            let count = rng.gen_range(1..30);
            let loss = rng.gen_range(0.0..0.5);
            let report = random_report(&mut rng, r * 500, count, loss, (5, 200));
            cc.on_feedback_fold_at(SimTime::from_millis(r * 500), &report);
            prop_assert!((MIN_BPS..=MAX_BPS).contains(&cc.estimate_bps()));
        }
    }

    /// Sustained delay-gradient growth — the queue-building signature — makes the estimate
    /// decrease monotonically (until it pins at the floor), regardless of the ramp slope
    /// and report size.
    #[test]
    fn sustained_delay_growth_decreases_the_estimate(
        ramp_ms in 3u64..40,
        count in 5usize..50,
        initial_mbps in 1.0f64..40.0,
    ) {
        let mut cc = GccController::new(GccConfig {
            initial_estimate_bps: initial_mbps * 1e6,
            ..GccConfig::default()
        });
        let mut feed_flat = |round: u64, owd: u64| {
            let mut fold = FeedbackFold::new();
            for i in 0..count {
                let sent = SimTime::from_millis(round * 100 + i as u64);
                fold.push(&PacketFeedback {
                    sent_at: sent,
                    arrived_at: Some(sent + SimDuration::from_millis(owd)),
                    size_bytes: 1_250,
                });
            }
            cc.on_feedback_fold_at(SimTime::from_millis(round * 100), &fold);
            cc.estimate_bps()
        };
        // The first report only establishes the delay baseline (no gradient exists yet).
        let after_baseline = feed_flat(0, 20);
        let mut previous = after_baseline;
        for round in 1..=12u64 {
            // Delay grows by `ramp_ms` (> the 2 ms overuse threshold) every report.
            let estimate = feed_flat(round, 20 + round * ramp_ms);
            // Monotone non-increasing; strictly decreasing until the floor.
            prop_assert!(estimate <= previous, "round {round}");
            if previous > MIN_BPS {
                prop_assert!(estimate < previous, "round {round} did not back off");
            }
            previous = estimate;
        }
        prop_assert!(previous < after_baseline);
    }

    /// Pathological feedback — empty reports, all-lost reports, zero-delay and enormous
    /// delays interleaved — never produces NaN, negative or zero estimates.
    #[test]
    fn pathological_feedback_never_breaks_the_estimate(seed in 0u64..10_000) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut cc = GccController::new(GccConfig::default());
        for r in 0..30u64 {
            let report = match rng.gen_range(0..4) {
                0 => FeedbackFold::new(),
                1 => random_report(&mut rng, r * 100, 20, 1.0, (1, 2)), // everything lost
                2 => random_report(&mut rng, r * 100, 5, 0.0, (0, 0)),  // zero delay
                _ => random_report(&mut rng, r * 100, 5, 0.5, (10_000, 60_000)), // seconds late
            };
            cc.on_feedback_fold_at(SimTime::from_millis(r * 100), &report);
            let estimate = cc.estimate_bps();
            prop_assert!(estimate.is_finite() && estimate > 0.0, "report {r}: {estimate}");
        }
    }
}
