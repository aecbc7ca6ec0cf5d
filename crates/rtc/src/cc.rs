//! Congestion control: a compact GCC-style (Google Congestion Control) estimator.
//!
//! WebRTC's sender adapts its rate from two signals (§1's citation \[6\]):
//!
//! * **delay gradient** — if one-way queueing delay trends upward, the bottleneck queue is
//!   filling and the rate must back off multiplicatively;
//! * **loss rate** — above ~10 % loss the rate backs off, below ~2 % it may grow.
//!
//! The controller here reproduces that state machine at per-feedback-report granularity.
//! It is exercised by the ABR ablation (traditional ABR rides the estimate close to
//! capacity; AI-oriented ABR deliberately does not, §2.2).

use aivc_sim::{SimDuration, SimTime};
use serde::Serialize;

/// EWMA smoothing factor for the live loss estimate (the adaptive-FEC driver).
const LOSS_EWMA_ALPHA: f64 = 0.3;

/// Delay-gradient threshold (ms per report interval) above which overuse is declared;
/// growth needs the trend below half of it.
const OVERUSE_THRESHOLD_MS: f64 = 2.0;
/// Multiplicative decrease on overuse or heavy loss.
const BETA: f64 = 0.85;
/// Multiplicative increase when the network is underused and loss is low.
const INCREASE_FACTOR: f64 = 1.06;
/// Loss fraction above which the loss-based controller backs off.
const HIGH_LOSS_THRESHOLD: f64 = 0.10;
/// Loss fraction below which increase is allowed.
const LOW_LOSS_THRESHOLD: f64 = 0.02;
/// Multiplicative decay per elapsed watchdog timeout of silence, and per
/// [`GccController::force_fallback`].
const WATCHDOG_BETA: f64 = 0.7;
/// Multiplicative ramp per feedback report while recovering from a fallback, until the
/// pre-fallback estimate is regained or congestion pushes back.
const RECOVERY_RAMP_FACTOR: f64 = 1.25;
/// Lower bound of the estimate, in bits per second.
pub const MIN_BPS: f64 = 100_000.0;
/// Upper bound of the estimate, in bits per second.
pub const MAX_BPS: f64 = 50_000_000.0;

/// Per-packet feedback the receiver reports back to the sender.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacketFeedback {
    /// When the packet left the sender.
    pub sent_at: SimTime,
    /// When it arrived at the receiver (`None` = lost).
    pub arrived_at: Option<SimTime>,
    /// On-the-wire size in bytes.
    pub size_bytes: u32,
}

/// An incrementally built summary of one feedback report — everything the controller's
/// per-report fold actually consumes: how many packets the report covers, how many
/// arrived, and the sum of the arrived packets' one-way delays (accumulated in the order
/// the packets are pushed).
///
/// The transport's feedback drain pushes matured per-packet feedback straight into one
/// of these while compacting its pending ring, then hands the fold to
/// [`GccController::on_feedback_fold_at`] — no intermediate report vector, no copies.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FeedbackFold {
    total: usize,
    received: usize,
    owd_sum_ms: f64,
}

impl FeedbackFold {
    /// An empty fold (a report covering no packets).
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one packet's feedback into the summary. Call in report order: the one-way
    /// delay sum is order-sensitive in its last ulps.
    pub fn push(&mut self, f: &PacketFeedback) {
        self.total += 1;
        if let Some(arrived) = f.arrived_at {
            self.received += 1;
            self.owd_sum_ms += (arrived - f.sent_at).as_millis_f64();
        }
    }

    /// Resets the fold for reuse.
    pub fn clear(&mut self) {
        *self = Self::default();
    }

    /// True when nothing has been folded in.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Fraction of the report's packets that were lost.
    fn loss_fraction(&self) -> f64 {
        1.0 - self.received as f64 / self.total as f64
    }
}

/// Congestion-controller configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct GccConfig {
    /// Initial bandwidth estimate in bits per second.
    pub initial_estimate_bps: f64,
    /// Feedback watchdog timeout: with no feedback for this long the controller stops
    /// riding its stale estimate and decays multiplicatively instead.
    /// [`SimDuration::ZERO`] (the default) disables the watchdog entirely, preserving the
    /// pre-watchdog behaviour bit for bit.
    pub watchdog_timeout: SimDuration,
}

impl Default for GccConfig {
    fn default() -> Self {
        Self {
            initial_estimate_bps: 1_000_000.0,
            watchdog_timeout: SimDuration::ZERO,
        }
    }
}

/// The GCC-style congestion controller.
#[derive(Debug, Clone)]
pub struct GccController {
    config: GccConfig,
    estimate_bps: f64,
    last_mean_owd_ms: Option<f64>,
    loss_ewma: f64,
    next_decay_at: Option<SimTime>,
    pre_fallback_bps: Option<f64>,
    silent: bool,
    watchdog_fallbacks: u64,
}

impl GccController {
    /// Creates a controller.
    pub fn new(config: GccConfig) -> Self {
        Self {
            config,
            estimate_bps: config.initial_estimate_bps,
            last_mean_owd_ms: None,
            loss_ewma: 0.0,
            next_decay_at: None,
            pre_fallback_bps: None,
            silent: false,
            watchdog_fallbacks: 0,
        }
    }

    /// The current bandwidth estimate in bits per second.
    pub fn estimate_bps(&self) -> f64 {
        self.estimate_bps
    }

    /// The smoothed (EWMA) observed loss fraction — the live signal that drives adaptive
    /// FEC sizing. Always in `[0, 1]`; `0.0` before any feedback has been seen.
    pub fn loss_estimate(&self) -> f64 {
        self.loss_ewma
    }

    /// True between the watchdog declaring the feedback channel dead and the first
    /// subsequent feedback report — the transport's "assume outage" signal.
    pub fn is_silent(&self) -> bool {
        self.silent
    }

    /// True while the controller is ramping back toward its pre-fallback estimate.
    pub fn in_fallback(&self) -> bool {
        self.pre_fallback_bps.is_some()
    }

    /// How many times the watchdog has fired (one count per decay step).
    pub fn watchdog_fallbacks(&self) -> u64 {
        self.watchdog_fallbacks
    }

    /// Forces one fallback step, as if an external supervisor (e.g. a starvation
    /// watchdog on a shared bottleneck) decided this sender must back off now. The
    /// current estimate is remembered as the recovery target, the estimate takes one
    /// watchdog decay step (× 0.7), and [`GccController::in_fallback`] turns true so the
    /// transport's degradation ladder engages; the ordinary feedback-driven ramp then
    /// recovers toward the remembered target. Unlike the silence watchdog this neither
    /// marks the controller silent nor counts in `watchdog_fallbacks` — the caller owns
    /// the accounting for externally-imposed fallbacks.
    pub fn force_fallback(&mut self) {
        if self.pre_fallback_bps.is_none() {
            self.pre_fallback_bps = Some(self.estimate_bps);
        }
        self.estimate_bps = (self.estimate_bps * WATCHDOG_BETA).max(MIN_BPS);
    }

    /// Drives the feedback watchdog forward to `now`. Call this on a steady cadence (the
    /// capture tick is natural). If [`GccConfig::watchdog_timeout`] has elapsed with no
    /// feedback, the estimate decays × 0.7 — once per elapsed timeout interval, regardless
    /// of how often this is polled — instead of the sender riding a stale estimate into a
    /// dead radio. Returns `true` if at least one decay step fired at this poll.
    pub fn poll_watchdog(&mut self, now: SimTime) -> bool {
        if self.config.watchdog_timeout == SimDuration::ZERO {
            return false;
        }
        // Anchor the first deadline lazily so constructing the controller early (before
        // traffic starts) doesn't count the idle lead-in as silence.
        let next = *self
            .next_decay_at
            .get_or_insert(now + self.config.watchdog_timeout);
        if now < next {
            return false;
        }
        let mut next = next;
        while next <= now {
            if self.pre_fallback_bps.is_none() {
                self.pre_fallback_bps = Some(self.estimate_bps);
            }
            self.estimate_bps = (self.estimate_bps * WATCHDOG_BETA).max(MIN_BPS);
            self.silent = true;
            self.watchdog_fallbacks += 1;
            next += self.config.watchdog_timeout;
        }
        self.next_decay_at = Some(next);
        true
    }

    /// Processes one feedback report, summarized as a [`FeedbackFold`], that arrived at
    /// `now`: it re-arms the watchdog, then updates the loss estimate and the rate
    /// estimate from the report's loss fraction and delay trend. An empty report is
    /// ignored.
    ///
    /// The first report after a watchdog-declared silence is special-cased: its contents
    /// describe the dead interval (losses from the outage, a stale delay baseline), so
    /// punishing the estimate with it would double-count the outage. Instead the delay
    /// baseline resets and the recovery ramp takes its first step. While recovering from a
    /// fallback, every later report takes a ramp step too, unless it signals congestion,
    /// which ends the ramp.
    pub fn on_feedback_fold_at(&mut self, now: SimTime, fold: &FeedbackFold) {
        if fold.is_empty() {
            return;
        }
        if self.config.watchdog_timeout != SimDuration::ZERO {
            self.next_decay_at = Some(now + self.config.watchdog_timeout);
        }
        if self.silent {
            self.silent = false;
            self.last_mean_owd_ms = None;
            self.update_loss_ewma(fold);
            self.ramp_step();
            return;
        }
        self.update_loss_ewma(fold);
        let loss_fraction = fold.loss_fraction();

        // Delay signal: change in mean one-way delay between this report and the previous.
        let delay_trend_ms = if fold.received == 0 {
            f64::INFINITY
        } else {
            let mean_owd_ms = fold.owd_sum_ms / fold.received as f64;
            let trend = self
                .last_mean_owd_ms
                .map(|prev| mean_owd_ms - prev)
                .unwrap_or(0.0);
            self.last_mean_owd_ms = Some(mean_owd_ms);
            trend
        };

        let overusing = delay_trend_ms > OVERUSE_THRESHOLD_MS;
        let heavy_loss = loss_fraction > HIGH_LOSS_THRESHOLD;
        let low_loss = loss_fraction < LOW_LOSS_THRESHOLD;

        if overusing || heavy_loss {
            self.estimate_bps *= BETA;
        } else if low_loss && delay_trend_ms < OVERUSE_THRESHOLD_MS * 0.5 {
            self.estimate_bps *= INCREASE_FACTOR;
        }
        self.estimate_bps = self.estimate_bps.clamp(MIN_BPS, MAX_BPS);
        if self.pre_fallback_bps.is_some() {
            if overusing || heavy_loss {
                // Real congestion push-back ends the recovery ramp.
                self.pre_fallback_bps = None;
            } else {
                self.ramp_step();
            }
        }
    }

    /// One multiplicative recovery-ramp step toward the pre-fallback estimate.
    fn ramp_step(&mut self) {
        let Some(target) = self.pre_fallback_bps else {
            return;
        };
        self.estimate_bps = (self.estimate_bps * RECOVERY_RAMP_FACTOR).clamp(MIN_BPS, MAX_BPS);
        if self.estimate_bps >= target.min(MAX_BPS) {
            self.pre_fallback_bps = None;
        }
    }

    fn update_loss_ewma(&mut self, fold: &FeedbackFold) {
        self.loss_ewma += LOSS_EWMA_ALPHA * (fold.loss_fraction() - self.loss_ewma);
        self.loss_ewma = self.loss_ewma.clamp(0.0, 1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aivc_sim::SimDuration;

    /// A controller with the default configuration and the given starting estimate.
    fn controller(initial_estimate_bps: f64) -> GccController {
        GccController::new(GccConfig {
            initial_estimate_bps,
            ..GccConfig::default()
        })
    }

    /// Feeds `cc` one report that arrives at `base_ms`: `count` packets sent 2 ms apart from
    /// `base_ms`, the last `lost` of them lost and the rest arriving `owd_ms` after sending.
    fn feed(cc: &mut GccController, owd_ms: u64, count: usize, lost: usize, base_ms: u64) {
        let mut fold = FeedbackFold::new();
        for i in 0..count {
            let sent = SimTime::from_millis(base_ms + i as u64 * 2);
            fold.push(&PacketFeedback {
                sent_at: sent,
                arrived_at: (i < count - lost).then(|| sent + SimDuration::from_millis(owd_ms)),
                size_bytes: 1_250,
            });
        }
        cc.on_feedback_fold_at(SimTime::from_millis(base_ms), &fold);
    }

    #[test]
    fn stable_delay_low_loss_increases_estimate() {
        let mut cc = controller(2e6);
        for round in 0..19u64 {
            feed(&mut cc, 35, 50, 0, round * 100);
        }
        let before = cc.estimate_bps();
        feed(&mut cc, 35, 50, 0, 1_900);
        assert!(before > 2e6);
        assert!(
            cc.estimate_bps() > before,
            "the last report still grew the estimate"
        );
    }

    #[test]
    fn rising_delay_backs_off() {
        let mut cc = controller(8e6);
        // Delay ramps up 10 ms per report: classic queue build-up.
        for round in 0..9u64 {
            feed(&mut cc, 30 + round * 10, 50, 0, round * 100);
        }
        let before = cc.estimate_bps();
        feed(&mut cc, 120, 50, 0, 900);
        assert!(before < 8e6);
        assert!(
            cc.estimate_bps() < before,
            "the last report still shrank the estimate"
        );
    }

    #[test]
    fn heavy_loss_backs_off_even_with_flat_delay() {
        let mut cc = controller(5e6);
        for round in 0..5u64 {
            feed(&mut cc, 30, 50, 10, round * 100); // 20% loss
        }
        assert!(cc.estimate_bps() < 5e6 * 0.85f64.powi(4) * 1.1);
    }

    #[test]
    fn moderate_loss_holds() {
        let mut cc = controller(5e6);
        feed(&mut cc, 30, 100, 0, 0);
        let before = cc.estimate_bps();
        feed(&mut cc, 30, 100, 5, 100); // 5% loss: between thresholds
        assert_eq!(cc.estimate_bps(), before);
    }

    #[test]
    fn estimate_respects_bounds() {
        let mut cc = controller(200_000.0);
        for round in 0..50u64 {
            feed(&mut cc, 30 + round * 20, 20, 10, round * 100);
        }
        assert_eq!(cc.estimate_bps(), MIN_BPS);
    }

    #[test]
    fn empty_report_is_ignored() {
        let mut cc = controller(1e6);
        feed(&mut cc, 30, 0, 0, 0);
        assert_eq!(cc.estimate_bps(), 1e6);
    }

    #[test]
    fn all_lost_report_backs_off() {
        let mut cc = controller(4e6);
        feed(&mut cc, 30, 20, 20, 0);
        assert!(cc.estimate_bps() < 4e6);
    }

    fn watchdog_config(initial: f64) -> GccConfig {
        GccConfig {
            initial_estimate_bps: initial,
            watchdog_timeout: SimDuration::from_millis(200),
        }
    }

    #[test]
    fn disabled_watchdog_never_fires() {
        let mut cc = controller(5e6);
        assert!(!cc.poll_watchdog(SimTime::from_secs_f64(3_600.0)));
        assert_eq!(cc.estimate_bps(), 5e6);
        assert!(!cc.is_silent());
    }

    #[test]
    fn watchdog_decays_once_per_elapsed_timeout_regardless_of_poll_cadence() {
        // Polled every 10 ms for 1 s of silence after the anchor: deadlines at 200, 400,
        // 600, 800 and 1000 ms all fire — 5 decays.
        let mut fine = GccController::new(watchdog_config(8e6));
        for t in 0..=100u64 {
            fine.poll_watchdog(SimTime::from_millis(t * 10));
        }
        // Polled exactly once at t = 1 s.
        let mut coarse = GccController::new(watchdog_config(8e6));
        coarse.poll_watchdog(SimTime::ZERO); // anchor
        coarse.poll_watchdog(SimTime::from_secs_f64(1.0));
        assert_eq!(fine.estimate_bps(), coarse.estimate_bps());
        assert_eq!(fine.watchdog_fallbacks(), 5);
        assert_eq!(coarse.watchdog_fallbacks(), 5);
        assert!((fine.estimate_bps() - 8e6 * 0.7f64.powi(5)).abs() < 1.0);
        assert!(fine.is_silent() && fine.in_fallback());
    }

    #[test]
    fn watchdog_decay_floors_at_min_bps() {
        let mut cc = GccController::new(watchdog_config(1e6));
        cc.poll_watchdog(SimTime::ZERO);
        cc.poll_watchdog(SimTime::from_secs_f64(600.0));
        assert_eq!(cc.estimate_bps(), MIN_BPS);
    }

    #[test]
    fn first_post_silence_report_starts_the_ramp_instead_of_punishing() {
        let mut cc = GccController::new(watchdog_config(8e6));
        cc.poll_watchdog(SimTime::ZERO);
        cc.poll_watchdog(SimTime::from_millis(600)); // 2 decays
        let fallen = cc.estimate_bps();
        assert!(fallen < 8e6);
        // First feedback after the outage is all-lost (it describes the dead interval) —
        // the estimate must RISE (ramp step), not take the all-lost beta hit.
        feed(&mut cc, 30, 20, 20, 700);
        assert!(cc.estimate_bps() > fallen);
        assert!(!cc.is_silent());
        assert!(cc.in_fallback(), "still below the pre-fallback estimate");
    }

    #[test]
    fn ramp_recovers_to_pre_fallback_estimate_then_stops() {
        let mut cc = GccController::new(watchdog_config(8e6));
        cc.poll_watchdog(SimTime::ZERO);
        cc.poll_watchdog(SimTime::from_millis(800)); // 3 decays
        let mut prev = cc.estimate_bps();
        let mut t = 900u64;
        // Clean feedback reports ramp the estimate monotonically back up.
        while cc.in_fallback() {
            feed(&mut cc, 30, 50, 0, t);
            assert!(cc.estimate_bps() >= prev, "ramp must be monotone");
            prev = cc.estimate_bps();
            t += 100;
            assert!(t < 10_000, "ramp must terminate");
        }
        assert!(cc.estimate_bps() >= 8e6 * 0.7f64.powi(3) * 1.25);
    }

    #[test]
    fn congestion_pushback_cancels_the_ramp() {
        let mut cc = GccController::new(watchdog_config(8e6));
        cc.poll_watchdog(SimTime::ZERO);
        cc.poll_watchdog(SimTime::from_millis(400));
        feed(&mut cc, 30, 50, 0, 500); // leaves silence
        assert!(cc.in_fallback());
        // Heavy loss while ramping: real congestion wins, ramp ends.
        let before = cc.estimate_bps();
        feed(&mut cc, 30, 50, 15, 600);
        assert!(!cc.in_fallback());
        assert!(cc.estimate_bps() < before);
    }

    #[test]
    fn force_fallback_backs_off_without_silence_or_watchdog_counts() {
        let mut cc = controller(4e6);
        cc.force_fallback();
        assert!((cc.estimate_bps() - 4e6 * 0.7).abs() < 1.0);
        assert!(cc.in_fallback(), "ramp target must be armed");
        assert!(!cc.is_silent(), "external fallback is not channel silence");
        assert_eq!(cc.watchdog_fallbacks(), 0, "caller owns the accounting");
        // Repeated forcing keeps the original recovery target and floors at MIN_BPS.
        for _ in 0..100 {
            cc.force_fallback();
        }
        assert_eq!(cc.estimate_bps(), MIN_BPS);
        // Clean feedback then ramps back toward the remembered 4 Mbps.
        let mut t = 100u64;
        let mut prev = cc.estimate_bps();
        while cc.in_fallback() {
            feed(&mut cc, 30, 50, 0, t);
            assert!(cc.estimate_bps() >= prev);
            prev = cc.estimate_bps();
            t += 100;
            assert!(t < 100_000, "ramp must terminate");
        }
    }

    #[test]
    fn feedback_keeps_resetting_the_watchdog_deadline() {
        let mut cc = GccController::new(watchdog_config(5e6));
        for round in 0..20u64 {
            let t = round * 150; // every 150 ms < 200 ms timeout
            feed(&mut cc, 30, 50, 0, t);
            assert!(!cc.poll_watchdog(SimTime::from_millis(t + 100)));
        }
        assert_eq!(cc.watchdog_fallbacks(), 0);
        assert!(!cc.in_fallback());
    }

    #[test]
    fn loss_estimate_tracks_observed_loss_up_and_down() {
        let mut cc = controller(5e6);
        assert_eq!(cc.loss_estimate(), 0.0);
        for round in 0..30u64 {
            feed(&mut cc, 30, 100, 20, round * 100); // 20% loss
        }
        assert!((cc.loss_estimate() - 0.2).abs() < 0.01);
        for round in 30..80u64 {
            feed(&mut cc, 30, 100, 0, round * 100); // clean again
        }
        assert!(cc.loss_estimate() < 0.01);
    }
}
