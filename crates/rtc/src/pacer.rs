//! The pacer: smooths packet departures so a large frame does not slam the bottleneck queue
//! in one burst.
//!
//! WebRTC paces at a multiple of the target bitrate (default ~2.5×) so frames drain quickly
//! but without building a standing queue. The pacer is a token bucket over bytes; the
//! session runner asks it when the next packet may leave.

use aivc_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Pacer configuration: the rate. The bucket's depth is the constant `BURST_BYTES`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PacerConfig {
    /// Pacing rate in bits per second, at least `MIN_PACING_RATE_BPS`.
    pub pacing_rate_bps: f64,
}

/// The documented pacing floor, in bits per second.
///
/// A congestion-controller watchdog decaying toward its minimum under a long outage can
/// ask for a rate of (near-)zero — and `deficit * 8.0 / rate` with a zero or denormal
/// rate yields an infinite or garbage departure time, wedging the sender forever. Every
/// rate the pacer accepts ([`Pacer::new`], [`Pacer::set_rate`],
/// [`PacerConfig::from_target_bitrate`]) is clamped to at least this floor; at 100 kbps
/// an MTU packet departs in ~120 ms, slow enough to starve nothing and fast enough that
/// recovery probes still flow.
const MIN_PACING_RATE_BPS: f64 = 100_000.0;

/// Maximum burst the bucket may accumulate, in bytes: about seven MTU packets leave back to
/// back after an idle period, the rest of a frame at the pacing rate.
const BURST_BYTES: f64 = 10_000.0;

/// `rate` when it is a rate the pacer can divide by, `MIN_PACING_RATE_BPS` otherwise. The
/// negated `>=` is deliberate: it is false for NaN, so zero, a denormal, a negative rate and
/// NaN all land on the floor rather than poisoning every subsequent departure time.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
fn floored(rate_bps: f64) -> f64 {
    if !(rate_bps >= MIN_PACING_RATE_BPS) {
        MIN_PACING_RATE_BPS
    } else {
        rate_bps
    }
}

impl PacerConfig {
    /// WebRTC-style pacing at `multiplier` × the media target bitrate.
    pub fn from_target_bitrate(target_bps: f64, multiplier: f64) -> Self {
        Self {
            pacing_rate_bps: floored(target_bps * multiplier),
        }
    }
}

/// A token-bucket pacer.
#[derive(Debug, Clone)]
pub struct Pacer {
    config: PacerConfig,
    tokens_bytes: f64,
    last_refill: SimTime,
}

impl Pacer {
    /// Creates a pacer; the bucket starts full. A configured rate below
    /// `MIN_PACING_RATE_BPS` (or NaN) is clamped to the floor — a hand-built
    /// [`PacerConfig`] must not be able to wedge `schedule_send` with a zero/denormal
    /// divisor any more than [`Pacer::set_rate`] can.
    pub fn new(config: PacerConfig) -> Self {
        Self {
            config: PacerConfig {
                pacing_rate_bps: floored(config.pacing_rate_bps),
            },
            tokens_bytes: BURST_BYTES,
            last_refill: SimTime::ZERO,
        }
    }

    /// The configuration.
    pub fn config(&self) -> PacerConfig {
        self.config
    }

    /// Credits the tokens earned since the last refill, at the current rate, up to `now`
    /// (never looking earlier than the last committed departure), and returns that instant.
    fn refill(&mut self, now: SimTime) -> SimTime {
        let effective_now = now.max(self.last_refill);
        let elapsed = effective_now.saturating_since(self.last_refill).as_secs_f64();
        self.tokens_bytes =
            (self.tokens_bytes + elapsed * self.config.pacing_rate_bps / 8.0).min(BURST_BYTES);
        self.last_refill = effective_now;
        effective_now
    }

    /// Updates the pacing rate in place at time `now`, keeping the bucket level and the
    /// FIFO commitment (`last_refill`) intact — a congestion-controlled sender retunes its
    /// pacer every time the target bitrate changes, and already-committed departures must
    /// not be reordered by the change.
    ///
    /// Token accrual up to `now` is settled at the *old* rate first, so idle time already
    /// elapsed is credited at the rate it was earned rather than retroactively at the new
    /// one (an upward rate step must not mint an unearned burst).
    ///
    /// Rates below `MIN_PACING_RATE_BPS` — including zero, denormals, and NaN, which a
    /// watchdog-decayed congestion estimate can produce under a long outage — are clamped
    /// to the floor; the return value reports whether the clamp engaged so callers can
    /// count it.
    pub fn set_rate(&mut self, pacing_rate_bps: f64, now: SimTime) -> bool {
        self.refill(now);
        self.config.pacing_rate_bps = floored(pacing_rate_bps);
        // Also true for NaN, which equals nothing.
        self.config.pacing_rate_bps != pacing_rate_bps
    }

    /// Returns the earliest time at or after `now` at which a packet of `size_bytes` may be
    /// sent, and commits to that send (tokens are consumed).
    ///
    /// Returned times are monotone non-decreasing across calls even when `now` is earlier
    /// than a previously committed send — the pacer is a FIFO, so a later-enqueued packet
    /// never departs before an earlier one (this keeps sequence numbers in order on the
    /// wire and avoids spurious NACKs).
    pub fn schedule_send(&mut self, size_bytes: u32, now: SimTime) -> SimTime {
        let effective_now = self.refill(now);
        if self.tokens_bytes >= size_bytes as f64 {
            self.tokens_bytes -= size_bytes as f64;
            return effective_now;
        }
        let deficit = size_bytes as f64 - self.tokens_bytes;
        let wait = SimDuration::from_secs_f64(deficit * 8.0 / self.config.pacing_rate_bps);
        let when = effective_now + wait;
        // At `when` the bucket has exactly enough; consume it.
        self.tokens_bytes = 0.0;
        self.last_refill = when;
        when
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pacer(pacing_rate_bps: f64) -> Pacer {
        Pacer::new(PacerConfig { pacing_rate_bps })
    }

    /// A pacer at `pacing_rate_bps` whose initial burst has just left at `at`.
    fn drained(pacing_rate_bps: f64, at: SimTime) -> Pacer {
        let mut p = pacer(pacing_rate_bps);
        assert_eq!(
            p.schedule_send(BURST_BYTES as u32, at),
            at,
            "the burst rides the full bucket"
        );
        p
    }

    #[test]
    fn paced_sends_at_configured_rate() {
        // 1 Mbps pacing, 1250-byte packets -> 10 ms per packet once the burst is exhausted.
        let mut p = drained(1e6, SimTime::ZERO);
        let second = p.schedule_send(1_250, SimTime::ZERO);
        assert_eq!(second.as_micros(), 10_000);
        let third = p.schedule_send(1_250, second);
        assert_eq!(third.as_micros(), 20_000);
    }

    #[test]
    fn idle_time_refills_the_bucket_up_to_burst() {
        let mut p = drained(1e6, SimTime::ZERO);
        // 100 ms at 1 Mbps earns 12.5 kB, capped at the 10 kB bucket: eight 1250-byte
        // packets go immediately, the ninth must wait.
        let later = SimTime::from_millis(100);
        for _ in 0..8 {
            assert_eq!(p.schedule_send(1_250, later), later);
        }
        assert!(p.schedule_send(1_250, later) > later);
    }

    #[test]
    fn from_target_bitrate_uses_multiplier() {
        let cfg = PacerConfig::from_target_bitrate(2e6, 2.5);
        assert!((cfg.pacing_rate_bps - 5e6).abs() < 1.0);
    }

    #[test]
    fn set_rate_keeps_committed_departures_in_order() {
        let mut p = drained(1e6, SimTime::ZERO);
        let committed = p.schedule_send(1_250, SimTime::ZERO);
        assert_eq!(committed.as_micros(), 10_000);
        // Raising the rate must not let a later packet depart before `committed`.
        assert!(!p.set_rate(100e6, SimTime::ZERO));
        let next = p.schedule_send(1_250, SimTime::ZERO);
        assert!(next >= committed, "{next:?} vs {committed:?}");
        // And the floor matches `PacerConfig::from_target_bitrate`'s.
        assert!(p.set_rate(1.0, SimTime::ZERO));
        assert_eq!(p.config().pacing_rate_bps, MIN_PACING_RATE_BPS);
        assert_eq!(
            PacerConfig::from_target_bitrate(1.0, 2.5).pacing_rate_bps,
            MIN_PACING_RATE_BPS
        );
    }

    #[test]
    fn set_rate_settles_accrual_at_the_old_rate() {
        // 100 kbps floor rate, bucket drained at t=0.
        let mut p = drained(100_000.0, SimTime::ZERO);
        // 80 ms of idle at 100 kbps earns exactly 1000 bytes. Switching to a 25 Mbps rate
        // at t=80ms must not retroactively credit the idle time at 25 Mbps (250 kB).
        let t = SimTime::from_millis(80);
        assert!(!p.set_rate(25e6, t));
        // A 1000-byte packet rides the earned tokens...
        assert_eq!(p.schedule_send(1_000, t), t);
        // ...but the next packet must wait: the bucket was settled, not re-minted.
        assert!(p.schedule_send(1_000, t) > t);
    }

    #[test]
    fn new_clamps_a_zero_or_denormal_configured_rate() {
        for bad in [0.0, f64::MIN_POSITIVE, -1.0, f64::NAN, f64::NEG_INFINITY] {
            let mut p = drained(bad, SimTime::ZERO);
            assert_eq!(p.config().pacing_rate_bps, MIN_PACING_RATE_BPS, "rate {bad}");
            let t = p.schedule_send(1_250, SimTime::ZERO);
            assert!(t.as_micros() < 1_000_000, "finite departure, got {t:?}");
        }
    }

    #[test]
    fn outage_decay_to_zero_rate_recovers() {
        // A sender pacing normally hits a blackout: the watchdog decays the target to ~0
        // and the controller calls set_rate with it. The pacer must clamp to the floor,
        // keep departure times finite and monotone through the outage, and resume full
        // speed when the estimate recovers.
        //
        // The burst is drained at the blackout instant itself: idle time before the decay
        // is credited at the old rate (by design), so draining earlier would let the bucket
        // legitimately re-fill and mask the wait this test is about.
        let mut p = drained(5e6, SimTime::from_millis(10));
        for bad in [1e-3, 0.0, f64::MIN_POSITIVE, f64::NAN] {
            assert!(p.set_rate(bad, SimTime::from_millis(10)), "rate {bad}");
            assert_eq!(p.config().pacing_rate_bps, MIN_PACING_RATE_BPS);
        }
        // At the floor (100 kbps), a 1250-byte packet takes 100 ms of accrual.
        let during = p.schedule_send(1_250, SimTime::from_millis(10));
        assert!(during > SimTime::from_millis(10));
        assert!(during <= SimTime::from_millis(120), "{during:?}");
        // Recovery: the next rate update settles accrual at the floor (no phantom burst)
        // and subsequent sends pace at the recovered rate.
        assert!(!p.set_rate(5e6, during));
        let a = p.schedule_send(1_250, during);
        let b = p.schedule_send(1_250, a);
        assert!(a >= during && b > a);
        let spacing_us = b.as_micros() - a.as_micros();
        assert!(spacing_us <= 2_000, "recovered spacing {spacing_us} µs");
    }

    #[test]
    fn scheduled_times_are_monotone() {
        let mut p = pacer(3e6);
        let mut last = SimTime::ZERO;
        for i in 0..200u64 {
            let now = SimTime::from_micros(i * 100);
            let t = p.schedule_send(1_400, now.max(last));
            assert!(t >= last);
            last = t;
        }
    }
}
