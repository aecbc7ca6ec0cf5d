//! Adaptive bitrate policy — and how AI-oriented RTC changes it.
//!
//! Traditional ABR sets the video bitrate as close as possible to (but below) the estimated
//! bandwidth, maximizing perceptual quality while avoiding stalls: the grey region of
//! Figure 3. AI-oriented RTC flips the objective: accuracy only needs enough bits on the
//! chat-relevant regions, and *every* extra bit increases transmission latency through more
//! packets and more retransmission exposure (§2.2) — so the policy targets the *lowest*
//! bitrate that maintains MLLM accuracy: the yellow region of Figure 3.

use serde::Serialize;

/// Fraction of the bandwidth estimate a sender dares to use (WebRTC uses ~0.85–0.95): the
/// traditional policy rides it, the AI-oriented one never exceeds it.
const UTILIZATION: f64 = 0.85;
/// Safety headroom the AI-oriented policy keeps on top of its accuracy floor.
const HEADROOM: f64 = 1.1;
/// Lowest bitrate the encoder can produce meaningfully.
const MIN_BITRATE_BPS: f64 = 150_000.0;
/// Highest bitrate worth sending.
const MAX_BITRATE_BPS: f64 = 8_000_000.0;

/// The sender's rate objective. Build one with [`AbrPolicy::traditional`],
/// [`AbrPolicy::ai_oriented`] or [`AbrPolicy::held_at`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum AbrPolicy {
    /// Traditional WebRTC-style ABR: ride the bandwidth estimate at a safety margin.
    Traditional,
    /// AI-oriented ABR: use the smallest bitrate that keeps MLLM accuracy, never more than
    /// the link can carry.
    AiOriented {
        /// The minimum bitrate (bps) at which the context-aware encoder maintains accuracy
        /// for the current chat context (provided by the accuracy-vs-bitrate profile).
        accuracy_floor_bps: f64,
    },
    /// Pinned to one bitrate whatever the estimate says: the fixed-rate sender of the
    /// §2.2 sweep (Figure 3's x axis).
    Held {
        /// The bitrate every frame is coded to, in bps.
        bitrate_bps: f64,
    },
}

impl AbrPolicy {
    /// A traditional policy with WebRTC-like defaults.
    pub fn traditional() -> Self {
        Self::Traditional
    }

    /// An AI-oriented policy with the given accuracy floor.
    pub fn ai_oriented(accuracy_floor_bps: f64) -> Self {
        Self::AiOriented { accuracy_floor_bps }
    }

    /// A policy pinned to `bitrate_bps` whatever the estimate says.
    pub fn held_at(bitrate_bps: f64) -> Self {
        Self::Held { bitrate_bps }
    }

    /// The target bitrate given the congestion controller's current bandwidth estimate.
    pub fn target_bitrate(&self, bandwidth_estimate_bps: f64) -> f64 {
        let within_clamps = |raw: f64| raw.clamp(MIN_BITRATE_BPS, MAX_BITRATE_BPS);
        match *self {
            Self::Traditional => within_clamps(bandwidth_estimate_bps * UTILIZATION),
            // Never exceed what the link can carry, but otherwise stick to the floor.
            Self::AiOriented { accuracy_floor_bps } => {
                within_clamps((accuracy_floor_bps * HEADROOM).min(bandwidth_estimate_bps * UTILIZATION))
            }
            Self::Held { bitrate_bps } => bitrate_bps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traditional_rides_the_estimate() {
        let p = AbrPolicy::traditional();
        assert!(
            (p.target_bitrate(10e6) - 8.5e6).abs() < 1.0_f64.max(0.0) + 1.0 || p.target_bitrate(10e6) == 8e6
        );
        // Clamped to max.
        assert_eq!(p.target_bitrate(100e6), 8e6);
        // Clamped to min.
        assert_eq!(p.target_bitrate(10_000.0), 150_000.0);
    }

    #[test]
    fn ai_oriented_sticks_to_accuracy_floor() {
        let p = AbrPolicy::ai_oriented(430_000.0);
        // Plenty of bandwidth: stay near the floor, not near the estimate.
        let target = p.target_bitrate(10e6);
        assert!((target - 473_000.0).abs() < 1.0, "target {target}");
        // Tight bandwidth: do not exceed what fits.
        assert!(p.target_bitrate(300_000.0) <= 300_000.0 * 0.85 + 1.0);
    }

    #[test]
    fn ai_oriented_is_far_below_traditional_on_good_links() {
        let trad = AbrPolicy::traditional();
        let ai = AbrPolicy::ai_oriented(430_000.0);
        let estimate = 10e6;
        assert!(ai.target_bitrate(estimate) < trad.target_bitrate(estimate) / 10.0);
    }

    #[test]
    fn held_policy_ignores_the_estimate() {
        let p = AbrPolicy::held_at(12e6);
        for estimate in [0.0, 1e5, 12e6, 1e9] {
            assert_eq!(p.target_bitrate(estimate), 12e6);
        }
        // `Held` replaced a traditional policy with both clamps at the rate: the two
        // forms agree wherever the sweep holds a rate, inside the old clamps or not.
        assert_eq!(p, AbrPolicy::Held { bitrate_bps: 12e6 });
        for rate in [1.0, 200e3, 473e3, 6e6, 16e6, 1e12] {
            for estimate in [0.0, 1e5, 1e6, 12e6, 1e9, f64::INFINITY] {
                let both_clamps_at_the_rate = (estimate * 0.85_f64).clamp(rate, rate);
                assert_eq!(
                    AbrPolicy::held_at(rate).target_bitrate(estimate),
                    both_clamps_at_the_rate
                );
            }
        }
    }

    #[test]
    fn bounds_are_enforced_in_both_modes() {
        let ai = AbrPolicy::ai_oriented(10_000.0);
        assert_eq!(ai.target_bitrate(10e6), 150_000.0);
        let trad = AbrPolicy::traditional();
        assert!(trad.target_bitrate(1e3) >= 150_000.0);
    }
}
