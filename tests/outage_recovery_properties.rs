//! Property tests of the outage-resilience stack: the feedback watchdog, the post-outage
//! recovery ramp and loss-driven adaptive FEC. Whatever sequence of silences, blackouts
//! and feedback the network produces, the controller must keep its estimate a sane bounded
//! bitrate, the ramp must climb monotonically until real congestion pushes back, and the
//! parity overhead must track the loss estimate in both directions without ever spending
//! more than the ABR budget.

use aivchat::netsim::{SimDuration, SimTime};
use aivchat::rtc::{AdaptiveFecConfig, CcState, GccConfig, GccController, PacketFeedback};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A watchdog-armed controller configuration (the `with_resilience` shape).
fn watchdog_config() -> GccConfig {
    GccConfig {
        watchdog_timeout: SimDuration::from_millis(200),
        ..GccConfig::default()
    }
}

/// One feedback report of `count` packets with the given loss probability and one-way
/// delays drawn from `owd_ms_range`, all sent around `base_ms`.
fn random_report(
    rng: &mut ChaCha8Rng,
    base_ms: u64,
    count: usize,
    loss_prob: f64,
    owd_ms_range: (u64, u64),
) -> Vec<PacketFeedback> {
    (0..count)
        .map(|i| {
            let sent = SimTime::from_millis(base_ms + i as u64);
            let lost = rng.gen_bool(loss_prob);
            let owd = rng.gen_range(owd_ms_range.0..=owd_ms_range.1);
            PacketFeedback {
                sent_at: sent,
                arrived_at: if lost {
                    None
                } else {
                    Some(sent + SimDuration::from_millis(owd))
                },
                size_bytes: rng.gen_range(60..=1_400),
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For arbitrary interleavings of silence (watchdog polls across random gaps, possibly
    /// many timeouts long) and feedback reports of any quality, the estimate stays finite,
    /// positive and inside `[min_bps, max_bps]` — an outage can never drive the controller
    /// NaN, negative or out of bounds.
    #[test]
    fn estimate_survives_arbitrary_outage_and_feedback_interleavings(
        seed in 0u64..10_000,
        steps in 1usize..80,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let config = watchdog_config();
        let (min_bps, max_bps) = (config.min_bps, config.max_bps);
        let mut cc = GccController::new(config);
        let mut now_ms = 0u64;
        for _ in 0..steps {
            // Advance by anything from one capture tick to a multi-second blackout.
            now_ms += rng.gen_range(10..3_000);
            let now = SimTime::from_millis(now_ms);
            cc.poll_watchdog(now);
            if rng.gen_bool(0.6) {
                let count = rng.gen_range(0..40);
                let loss = rng.gen_range(0.0..1.0);
                let owd_lo = rng.gen_range(1..300);
                let owd_hi = owd_lo + rng.gen_range(0..300);
                let report = random_report(&mut rng, now_ms, count, loss, (owd_lo, owd_hi));
                cc.on_feedback_report_at(now, &report);
            }
            let est = cc.estimate_bps();
            prop_assert!(est.is_finite(), "estimate went non-finite: {est}");
            prop_assert!(est >= min_bps && est <= max_bps, "estimate {est} out of [{min_bps}, {max_bps}]");
            let loss = cc.loss_estimate();
            prop_assert!(loss.is_finite() && (0.0..=1.0).contains(&loss), "loss estimate {loss}");
        }
    }

    /// After an outage ends, clean feedback ramps the estimate monotonically until the
    /// pre-fallback operating point is restored (fallback clears) — and only an over-use
    /// signal (`CcState::Decrease`) may interrupt the climb. With lossless constant-delay
    /// reports there is no over-use, so the ramp must complete.
    #[test]
    fn post_outage_ramp_is_monotone_until_fallback_clears(
        seed in 0u64..10_000,
        warm_reports in 3usize..20,
        silent_ms in 400u64..4_000,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut cc = GccController::new(watchdog_config());
        // Warm up on clean feedback, then go dark long enough for ≥ 1 watchdog decay.
        let mut now_ms = 0u64;
        for _ in 0..warm_reports {
            now_ms += 100;
            let report = random_report(&mut rng, now_ms, 20, 0.0, (30, 30));
            cc.on_feedback_report_at(SimTime::from_millis(now_ms), &report);
        }
        now_ms += silent_ms;
        cc.poll_watchdog(SimTime::from_millis(now_ms));
        prop_assert!(cc.is_silent(), "a {silent_ms} ms gap must trip the 200 ms watchdog");
        prop_assert!(cc.in_fallback());
        // Path restored: clean reports flow again.
        let mut prev = cc.estimate_bps();
        let mut cleared = false;
        for _ in 0..200 {
            now_ms += 100;
            let report = random_report(&mut rng, now_ms, 20, 0.0, (30, 30));
            cc.on_feedback_report_at(SimTime::from_millis(now_ms), &report);
            let est = cc.estimate_bps();
            if cc.state() != CcState::Decrease {
                prop_assert!(
                    est >= prev,
                    "ramp went backwards without over-use: {prev} -> {est}"
                );
            }
            prev = est;
            if !cc.in_fallback() {
                cleared = true;
                break;
            }
        }
        prop_assert!(cleared, "clean feedback never cleared the fallback");
    }

    /// The adaptive FEC group size tracks the loss estimate in both directions: more loss
    /// never yields a *larger* group (less parity), less loss never yields a smaller one —
    /// and the implied overhead always stays within the `[2, 12]` group-size clamp, which
    /// is exactly what caps parity spend under the ABR budget.
    #[test]
    fn adaptive_fec_overhead_tracks_loss_both_ways_within_bounds(
        loss_a in 0.0f64..1.0,
        loss_b in 0.0f64..1.0,
        fallback in 1u32..20,
    ) {
        let config = AdaptiveFecConfig { enabled: true };
        let (lo, hi) = if loss_a <= loss_b { (loss_a, loss_b) } else { (loss_b, loss_a) };
        let group_lo = config.group_for_loss(lo, fallback);
        let group_hi = config.group_for_loss(hi, fallback);
        prop_assert!(
            group_lo >= group_hi,
            "loss {lo} -> group {group_lo}, loss {hi} -> group {group_hi}: more loss must not shrink parity"
        );
        for group in [group_lo, group_hi] {
            prop_assert!((2..=12).contains(&group), "group {group} outside [2, 12]");
        }
    }

    /// The media budget shave keeps media + parity within the ABR per-frame budget: one
    /// parity packet per group of `g` media packets costs `1/g` extra, and shaving media
    /// to `g/(g+1)` of the target absorbs it exactly.
    #[test]
    fn shaved_media_plus_parity_never_exceeds_the_abr_budget(
        target_bps in 100_000.0f64..20_000_000.0,
        fps in 1.0f64..60.0,
        loss in 0.0f64..1.0,
    ) {
        let config = AdaptiveFecConfig { enabled: true };
        let group = config.group_for_loss(loss, 10) as f64;
        let frame_budget = target_bps / fps;
        let media = frame_budget * group / (group + 1.0);
        let with_parity = media * (1.0 + 1.0 / group);
        prop_assert!(
            with_parity <= frame_budget * (1.0 + 1e-9),
            "media {media} + parity exceeds budget {frame_budget} at group {group}"
        );
    }

    /// Disabled adaptive FEC is inert for any input: the fallback group passes through
    /// untouched (the bit-identity guarantee of the fixtures).
    #[test]
    fn disabled_adaptive_fec_passes_the_fallback_through(
        loss in 0.0f64..1.0,
        fallback in 1u32..64,
    ) {
        let config = AdaptiveFecConfig::disabled();
        prop_assert_eq!(config.group_for_loss(loss, fallback), fallback);
    }
}
