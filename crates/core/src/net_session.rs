//! The network-in-the-loop turn's vocabulary: [`NetSessionOptions`] in, [`NetTurnReport`]
//! out.
//!
//! A chat turn is the whole §2.2 loop — the compute the paper's frame budget asks about
//! (CLIP, Eq. 2, encode, decode, MLLM) *and* the network question of Figure 3: what happens
//! to a turn when its packets traverse a real (emulated) uplink whose capacity varies over
//! time. Every frame of a turn closes the loop
//!
//! ```text
//! BandwidthTrace ──► Link ──► per-packet feedback ──► GccController ──► AbrPolicy
//!       ▲                                                                  │
//!       └── FEC/NACK recovery ◄── packetize ◄── encode to target / fps ◄───┘
//! ```
//!
//! so the target bitrate, per-frame transmission latency, the set of frames (and frame
//! *fractions*) that reach the decoder, and ultimately the MLLM's answer accuracy are all
//! functions of the network — which is exactly the regime in which the paper argues for
//! `AiOriented` over `Traditional` ABR.
//!
//! The event loop lives in the turn engine (`net_turn`, an [`aivc_sim::Actor`] over the
//! `aivc-sim` kernel) and is driven by [`crate::Conversation`]: one persistent timeline
//! per conversation, on which a single turn is just the first. Identical options and
//! seeds reproduce bit-identical [`NetTurnReport`]s, which the scenario engine
//! ([`crate::scenarios`]) relies on for its golden regression fixtures.

use crate::session::StreamingMode;
use aivc_mllm::Answer;
use aivc_netsim::{LinkConfig, LossModel, PathConfig};
use aivc_rtc::cc::GccConfig;
use aivc_rtc::fec::{AdaptiveFecConfig, FecConfig};
use aivc_rtc::nack::NackConfig;
use aivc_rtc::rtp::DEFAULT_MTU_BYTES;
use aivc_rtc::AbrPolicy;
use aivc_sim::{SimDuration, SimTime};
use serde::{Serialize, Value};

/// Options of one networked chat session.
#[derive(Debug, Clone, Serialize)]
pub struct NetSessionOptions {
    /// Seed for every stochastic component (network loss, jitter, MLLM answer draws).
    pub seed: u64,
    /// The network path; the uplink's [`aivc_netsim::BandwidthTrace`] + loss model are what
    /// the turn adapts to.
    pub path: PathConfig,
    /// The sender's rate objective (the Figure 3 grey-vs-yellow-region choice).
    pub abr: AbrPolicy,
    /// The sender's encoding method: context-aware Eq. 2 QP allocation (the paper's
    /// system) or the uniform-QP WebRTC baseline.
    pub mode: StreamingMode,
    /// Congestion-controller parameters.
    pub gcc: GccConfig,
    /// Forward error correction on media packets.
    pub fec: FecConfig,
    /// NACK/retransmission behaviour.
    pub nack: NackConfig,
    /// Whether lost packets are retransmitted.
    pub enable_retransmission: bool,
    /// Deadline-aware NACK suppression: when true, the receiver drops (never sends) a
    /// retransmission request whose expected arrival — RTT estimate plus a pacing guard —
    /// lands past the turn's conversational deadline; such an RTX is wasted uplink that
    /// competes with the next frame's media. Off by default (the behaviour the
    /// single-turn scenario fixtures pin); conversation scenarios enable it.
    pub deadline_aware_nack: bool,
    /// Capture rate of the turn window in frames per second.
    pub capture_fps: f64,
    /// How long after the last capture the receiver keeps collecting in-flight packets
    /// before the MLLM must answer (the conversational deadline).
    pub drain_secs: f64,
    /// Adaptive FEC: parity group size driven by the live loss estimate, with the media
    /// budget shaved so media + parity never exceeds the ABR target. Disabled by default
    /// (the static [`NetSessionOptions::fec`] group size rules, bit for bit).
    pub adaptive_fec: AdaptiveFecConfig,
    /// The graceful-degradation ladder (outage capture suppression, probing, frame
    /// shedding). Disabled by default.
    pub degradation: DegradationConfig,
    /// Coalesced delivery: a burst of back-to-back pacer departures (a capture's media +
    /// parity, a feedback event's retransmissions) rides **one** timeline event that
    /// re-fires per departure, instead of one slab slot per packet. Provably
    /// order-identical to per-packet scheduling (the run re-arms under its original
    /// insertion sequence; see `net_turn::reschedule_run`) and pinned
    /// bit-for-bit by the equivalence property suite, so this is on by default; the flag
    /// exists so that suite can run both modes against each other.
    pub coalesce_delivery: bool,
}

impl NetSessionOptions {
    /// AI-oriented defaults: context-aware encoding with the ABR at the paper's ~430 Kbps
    /// accuracy floor, FEC protecting every 4-packet group, NACK recovery on.
    pub fn ai_oriented(seed: u64, path: PathConfig) -> Self {
        Self {
            seed,
            path,
            abr: AbrPolicy::ai_oriented(430_000.0),
            mode: StreamingMode::ContextAware,
            gcc: GccConfig::default(),
            fec: FecConfig::with_group_size(4),
            nack: NackConfig::default(),
            enable_retransmission: true,
            deadline_aware_nack: false,
            capture_fps: 12.0,
            // The conversational response budget (§1's 300 ms): frames still in flight
            // this long after the question was asked miss the answer.
            drain_secs: 0.3,
            adaptive_fec: AdaptiveFecConfig::disabled(),
            degradation: DegradationConfig::disabled(),
            coalesce_delivery: true,
        }
    }

    /// Turns the full outage-resilience stack on: the GCC feedback watchdog (200 ms
    /// timeout), loss-driven adaptive FEC, and the graceful-degradation ladder. Fault
    /// scenarios opt in through this; everything else keeps the off-by-default behaviour
    /// the golden fixtures pin.
    pub fn with_resilience(mut self) -> Self {
        self.gcc.watchdog_timeout = SimDuration::from_millis(200);
        self.adaptive_fec.enabled = true;
        self.degradation.enabled = true;
        self
    }

    /// Traditional WebRTC-style defaults: uniform-QP encoding riding the bandwidth
    /// estimate at 85 % utilization, same recovery machinery as
    /// [`NetSessionOptions::ai_oriented`].
    pub fn traditional(seed: u64, path: PathConfig) -> Self {
        Self {
            abr: AbrPolicy::traditional(),
            mode: StreamingMode::Baseline,
            ..Self::ai_oriented(seed, path)
        }
    }

    /// Checks every field a caller can set to a value the engine cannot run on.
    /// [`crate::Conversation::new`] and [`crate::run_contention`] call this and panic with
    /// the error's message, so a bad value fails at construction instead of overflowing
    /// the clock or panicking inside `f64::clamp` in the middle of a turn. The structs are
    /// destructured without `..`: a new field does not compile until its check (or its
    /// reason for needing none) is written here.
    pub fn validate(&self) -> Result<(), NetSessionOptionsError> {
        use NetSessionOptionsError as E;
        let &NetSessionOptions {
            seed: _,
            path: PathConfig {
                ref uplink,
                ref downlink,
            },
            abr,
            mode: _,
            gcc:
                GccConfig {
                    initial_estimate_bps,
                    min_bps,
                    max_bps,
                    watchdog_timeout,
                },
            // Any group size runs: 0 is FEC off, `u32::MAX` one parity packet per frame.
            fec: FecConfig { group_size: _ },
            nack: NackConfig { reorder_guard },
            enable_retransmission: _,
            deadline_aware_nack: _,
            capture_fps,
            drain_secs,
            adaptive_fec: AdaptiveFecConfig { enabled: _ },
            degradation: DegradationConfig { enabled: _ },
            coalesce_delivery: _,
        } = self;
        if !capture_fps_is_valid(capture_fps) {
            return Err(E::CaptureFps(capture_fps));
        }
        if !(0.0..=MAX_TIMER_SECS).contains(&drain_secs) {
            return Err(E::DrainSecs(drain_secs));
        }
        let rate = |field, value: f64| {
            if rate_bps_is_valid(value) {
                Ok(())
            } else {
                Err(E::Rate { field, value })
            }
        };
        match abr {
            AbrPolicy::Traditional => {}
            AbrPolicy::AiOriented { accuracy_floor_bps } => {
                rate("abr.accuracy_floor_bps", accuracy_floor_bps)?
            }
            AbrPolicy::Held { bitrate_bps } => rate("abr.bitrate_bps", bitrate_bps)?,
        }
        rate("gcc.initial_estimate_bps", initial_estimate_bps)?;
        if !(0.0 < min_bps && min_bps <= max_bps && max_bps <= MAX_RATE_BPS) {
            return Err(E::GccBounds { min_bps, max_bps });
        }
        let max_timer = SimDuration::from_secs_f64(MAX_TIMER_SECS);
        if watchdog_timeout != SimDuration::ZERO
            && !(SimDuration::from_millis(1)..=max_timer).contains(&watchdog_timeout)
        {
            return Err(E::WatchdogTimeout(watchdog_timeout));
        }
        if reorder_guard > max_timer {
            return Err(E::ReorderGuard(reorder_guard));
        }
        validate_link("path.uplink", uplink)?;
        validate_link("path.downlink", downlink)
    }
}

/// Checks the fields of a link the engine is about to send packets over that no constructor
/// saw (its trace and fault schedule were checked when they were built), naming it `link`
/// in the error: what [`NetSessionOptions::validate`] holds both directions of `path` to,
/// and [`crate::run_contention`] its `shared_uplink`.
pub(crate) fn validate_link(link: &'static str, config: &LinkConfig) -> Result<(), NetSessionOptionsError> {
    use NetSessionOptionsError as E;
    let LinkConfig {
        bandwidth: _,
        propagation_delay,
        queue_capacity_bytes,
        loss,
        max_jitter,
        faults: _,
    } = config;
    let max_timer = SimDuration::from_secs_f64(MAX_TIMER_SECS);
    for (field, value) in [
        ("propagation_delay", *propagation_delay),
        ("max_jitter", *max_jitter),
    ] {
        if value > max_timer {
            return Err(E::LinkDelay { link, field, value });
        }
    }
    if *queue_capacity_bytes < u64::from(DEFAULT_MTU_BYTES) {
        return Err(E::LinkQueue {
            link,
            queue_capacity_bytes: *queue_capacity_bytes,
        });
    }
    let probability = |field, value: f64| {
        // `contains` is false for NaN, which `f64::clamp` would hand to the draw as it is.
        if (0.0..=1.0).contains(&value) {
            Ok(())
        } else {
            Err(E::LinkLoss { link, field, value })
        }
    };
    match *loss {
        LossModel::None => {}
        LossModel::Iid { rate } => probability("loss.rate", rate)?,
        LossModel::GilbertElliott {
            p_good_to_bad,
            p_bad_to_good,
            loss_good,
            loss_bad,
        } => {
            probability("loss.p_good_to_bad", p_good_to_bad)?;
            probability("loss.p_bad_to_good", p_bad_to_good)?;
            probability("loss.loss_good", loss_good)?;
            probability("loss.loss_bad", loss_bad)?;
        }
    }
    Ok(())
}

/// Longest deadline or timer the options may ask for, in seconds: 1e12 µs, so a clock
/// that has run for millennia still adds one without overflowing its `u64`. A scenario's
/// think and join times, and a conversation's or tenant's, are held to it too.
pub(crate) const MAX_TIMER_SECS: f64 = 1e6;
/// Largest bitrate the options may carry, in bits per second: far past any link, and small
/// enough that a turn's sum of per-frame targets (`f64::MAX` held for two frames is `inf`
/// in the report) and the pacer's 2.5× stay finite.
pub(crate) const MAX_RATE_BPS: f64 = 1e12;

/// Whether the µs turn clock can step by `fps`. `contains` is false for NaN; the bounds keep
/// `1e6 / fps` between the clock's 1 µs resolution and 1e12 µs, far from overflowing a
/// turn's last capture. Also what the offline [`crate::Streamer::encode_at_bitrate`] holds
/// its `fps` to.
pub(crate) fn capture_fps_is_valid(fps: f64) -> bool {
    (1e-6..=1e6).contains(&fps)
}

/// Whether `bps` is a positive bitrate up to [`MAX_RATE_BPS`], written so that NaN fails the
/// comparison.
pub(crate) fn rate_bps_is_valid(bps: f64) -> bool {
    bps > 0.0 && bps <= MAX_RATE_BPS
}

/// Why [`NetSessionOptions::validate`] rejected a set of options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NetSessionOptionsError {
    /// `capture_fps` is not a rate the µs turn clock can step by. The clock advances
    /// `1e6 / capture_fps` µs per capture: zero (or a vanishing rate) overflows it; a
    /// negative, NaN or infinite rate collapses the window to a point and reports
    /// bitrates over a zero-length turn.
    CaptureFps(f64),
    /// `drain_secs` is not a deadline the turn plan can add to the last capture: an
    /// infinite one saturates the µs conversion and wraps the horizon; a negative or NaN
    /// one used to mean "immediate" silently — `0.0` says that.
    DrainSecs(f64),
    /// A bitrate (the ABR's accuracy floor or held rate, the congestion controller's
    /// starting estimate) is not a positive number of bits per second up to 1e12: NaN
    /// panics inside `f64::clamp`, zero or a negative rate asks the encoder for nothing,
    /// and an astronomical one sums to `inf` in the turn report.
    Rate {
        /// The option, as a path from [`NetSessionOptions`].
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// The congestion controller's bounds are not `0 < min_bps ≤ max_bps ≤ 1e12`: every
    /// estimate update clamps into them, and `f64::clamp` panics on an inverted or NaN
    /// pair.
    GccBounds {
        /// `gcc.min_bps` as given.
        min_bps: f64,
        /// `gcc.max_bps` as given.
        max_bps: f64,
    },
    /// `gcc.watchdog_timeout` is neither zero (watchdog off) nor a step the watchdog can
    /// count silence in: it decays once per elapsed timeout, so a microsecond timeout
    /// spins through a think gap and a huge one overflows the clock it is added to.
    WatchdogTimeout(SimDuration),
    /// `nack.reorder_guard` is longer than any deadline and overflows the clock it is
    /// added to.
    ReorderGuard(SimDuration),
    /// A link's `propagation_delay` or `max_jitter` is longer than any deadline and
    /// overflows the arrival time it is added to.
    LinkDelay {
        /// The link, as a path from the options (`path.uplink`, `path.downlink`) or the
        /// contention configuration (`shared_uplink`).
        link: &'static str,
        /// `propagation_delay` or `max_jitter`.
        field: &'static str,
        /// The rejected value.
        value: SimDuration,
    },
    /// A link's drop-tail queue holds less than one MTU packet, so it drops everything it
    /// is offered and no turn can deliver a frame.
    LinkQueue {
        /// The link, as in [`NetSessionOptionsError::LinkDelay`].
        link: &'static str,
        /// The rejected capacity.
        queue_capacity_bytes: u64,
    },
    /// A probability of a link's loss model is NaN or outside `[0, 1]`: a NaN one ran as a
    /// loss-free link and one above 1 as a dead one, silently.
    LinkLoss {
        /// The link, as in [`NetSessionOptionsError::LinkDelay`].
        link: &'static str,
        /// The probability, as a path from the link (`loss.rate`, `loss.p_good_to_bad`, …).
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
}

impl core::fmt::Display for NetSessionOptionsError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("session options invalid: ")?;
        match self {
            NetSessionOptionsError::CaptureFps(fps) => write!(
                f,
                "capture_fps must be within 1e-6..=1e6 frames per second (the turn clock \
                 steps 1e6 / capture_fps µs per capture), got {fps}"
            ),
            NetSessionOptionsError::DrainSecs(secs) => write!(
                f,
                "drain_secs must be within 0..=1e6 seconds (0 is an immediate deadline), \
                 got {secs}"
            ),
            NetSessionOptionsError::Rate { field, value } => {
                write!(
                    f,
                    "{field} must be positive and at most 1e12 bits per second, got {value}"
                )
            }
            NetSessionOptionsError::GccBounds { min_bps, max_bps } => write!(
                f,
                "gcc.min_bps and gcc.max_bps must satisfy 0 < min_bps <= max_bps <= 1e12 \
                 bits per second, got {min_bps} and {max_bps}"
            ),
            NetSessionOptionsError::WatchdogTimeout(timeout) => write!(
                f,
                "gcc.watchdog_timeout must be zero (off) or within 1 ms..=1e6 s, got {} µs",
                timeout.as_micros()
            ),
            NetSessionOptionsError::ReorderGuard(guard) => write!(
                f,
                "nack.reorder_guard must be at most 1e6 s, got {} µs",
                guard.as_micros()
            ),
            NetSessionOptionsError::LinkDelay { link, field, value } => write!(
                f,
                "{link}.{field} must be at most 1e6 s, got {} µs",
                value.as_micros()
            ),
            NetSessionOptionsError::LinkQueue {
                link,
                queue_capacity_bytes,
            } => write!(
                f,
                "{link}.queue_capacity_bytes must hold at least one {DEFAULT_MTU_BYTES}-byte packet, got \
                 {queue_capacity_bytes}"
            ),
            NetSessionOptionsError::LinkLoss { link, field, value } => {
                write!(
                    f,
                    "{link}.{field} must be a probability within 0..=1, got {value}"
                )
            }
        }
    }
}

/// The graceful-degradation ladder's switch. When enabled, the turn engine steps down
/// under stress instead of failing abruptly: a watchdog-declared outage suppresses
/// captures (sending tiny probes instead, so the first post-outage feedback can return);
/// a send backlog deeper than 150 ms sheds whole late frames before their parity is even
/// built; after recovery the congestion controller's ramp stages the climb back. Disabled
/// by default — the ladder never engages and the pre-ladder behaviour is preserved bit for
/// bit.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct DegradationConfig {
    /// Master switch for the ladder.
    pub enabled: bool,
}

impl DegradationConfig {
    /// Ladder off (the default).
    pub fn disabled() -> Self {
        Self { enabled: false }
    }
}

impl Default for DegradationConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

/// Fault/resilience telemetry of one turn. All-zero (["quiet"](FaultTelemetry::is_quiet))
/// whenever fault injection and the resilience stack are off, in which case it is omitted
/// from the serialized report — the off-by-default contract that keeps the pre-fault
/// golden fixtures byte-for-byte identical.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct FaultTelemetry {
    /// Scheduled uplink outage time overlapping the turn window, in ms.
    pub outage_ms: f64,
    /// Time from the last outage-dropped send to the first frame completing after it, in
    /// ms — finite iff the session provably re-converged. `None` when no outage was seen
    /// or nothing completed afterwards (recovery may land in a later turn).
    pub time_to_recover_ms: Option<f64>,
    /// Degradation-ladder level changes during the turn.
    pub degradation_events: u64,
    /// Frames shed whole by the ladder (backlog past the shed threshold).
    pub frames_shed: u64,
    /// Capture ticks suppressed while the watchdog held the session silent.
    pub captures_suppressed: u64,
    /// Keep-alive probes sent on suppressed capture ticks.
    pub probes_sent: u64,
    /// Watchdog decay steps the congestion controller took during the turn.
    pub watchdog_fallbacks: u64,
    /// Uplink packets duplicated by a fault episode during the turn.
    pub packets_duplicated: u64,
    /// Uplink packets reordered by a fault episode during the turn.
    pub packets_reordered: u64,
    /// Uplink packets dropped by outage episodes during the turn.
    pub outage_drops: u64,
}

impl FaultTelemetry {
    /// True when nothing fault-related happened (every field at its default) — the
    /// serialization-omission condition.
    pub fn is_quiet(&self) -> bool {
        self == &Self::default()
    }

    /// Accumulates another telemetry snapshot into this one: counters and outage time
    /// add up; the first finite `time_to_recover_ms` wins (the earliest proof of
    /// re-convergence is the one a conversation- or fleet-level rollup reports).
    pub fn absorb(&mut self, other: &FaultTelemetry) {
        self.outage_ms += other.outage_ms;
        if self.time_to_recover_ms.is_none() {
            self.time_to_recover_ms = other.time_to_recover_ms;
        }
        self.degradation_events += other.degradation_events;
        self.frames_shed += other.frames_shed;
        self.captures_suppressed += other.captures_suppressed;
        self.probes_sent += other.probes_sent;
        self.watchdog_fallbacks += other.watchdog_fallbacks;
        self.packets_duplicated += other.packets_duplicated;
        self.packets_reordered += other.packets_reordered;
        self.outage_drops += other.outage_drops;
    }
}

/// One frame the receiver completed before its turn's deadline, in capture order — what
/// [`crate::Conversation::last_turn_deliveries`] lists. Times are on the conversation's
/// timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameDelivery {
    /// When the frame was captured, in µs.
    pub capture_ts_us: u64,
    /// When its first media packet left the pacer.
    pub send_start: SimTime,
    /// When its last missing byte arrived.
    pub completed_at: SimTime,
}

impl FrameDelivery {
    /// Transmission latency, send start → complete reception: the Figure 3 metric.
    pub fn latency(&self) -> SimDuration {
        self.completed_at.saturating_since(self.send_start)
    }
}

/// The report of one networked chat turn — plain values only, so server slots can replace
/// reports in place.
///
/// Serialization note: `Serialize` is implemented by hand (not derived) so the `resilience`
/// block is **omitted** when quiet. The pre-fault golden fixtures never contained the
/// field; emitting an all-zero block would change every fixture byte stream, and the
/// vendored serde derive has no field-skipping attribute support.
#[derive(Debug, Clone, PartialEq)]
pub struct NetTurnReport {
    /// The MLLM's answer over everything the receiver could decode before the deadline.
    pub answer: Answer,
    /// Frames handed to the transport.
    pub frames_sent: usize,
    /// Frames completely received before the deadline.
    pub frames_delivered: usize,
    /// Frames the decoder produced output for (at least one packet arrived; incomplete
    /// frames decode with concealment on the missing blocks).
    pub frames_decoded: usize,
    /// Mean per-frame ABR target over the turn, in bits per second.
    pub mean_target_bitrate_bps: f64,
    /// Mean encoded media bitrate actually produced, in bits per second.
    pub achieved_bitrate_bps: f64,
    /// Unique media payload bits that reached the receiver, per second of turn window.
    pub goodput_bps: f64,
    /// Median per-frame transmission latency (send start → complete reception) in ms.
    pub p50_frame_latency_ms: f64,
    /// 95th-percentile per-frame transmission latency in ms.
    pub p95_frame_latency_ms: f64,
    /// Uplink packets that did not reach the receiver (random loss + queue drops).
    pub packets_lost: u64,
    /// Frames with at least one FEC-recovered packet.
    pub fec_recovered_frames: u64,
    /// Retransmission packets sent.
    pub retransmissions_sent: u64,
    /// The congestion controller's bandwidth estimate when the turn ended.
    pub final_estimate_bps: f64,
    /// Fault/resilience telemetry; all-zero (and unserialized) when faults and the
    /// resilience stack are off.
    pub resilience: FaultTelemetry,
}

impl Serialize for NetTurnReport {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("answer".to_string(), self.answer.to_value()),
            ("frames_sent".to_string(), self.frames_sent.to_value()),
            ("frames_delivered".to_string(), self.frames_delivered.to_value()),
            ("frames_decoded".to_string(), self.frames_decoded.to_value()),
            (
                "mean_target_bitrate_bps".to_string(),
                self.mean_target_bitrate_bps.to_value(),
            ),
            (
                "achieved_bitrate_bps".to_string(),
                self.achieved_bitrate_bps.to_value(),
            ),
            ("goodput_bps".to_string(), self.goodput_bps.to_value()),
            (
                "p50_frame_latency_ms".to_string(),
                self.p50_frame_latency_ms.to_value(),
            ),
            (
                "p95_frame_latency_ms".to_string(),
                self.p95_frame_latency_ms.to_value(),
            ),
            ("packets_lost".to_string(), self.packets_lost.to_value()),
            (
                "fec_recovered_frames".to_string(),
                self.fec_recovered_frames.to_value(),
            ),
            (
                "retransmissions_sent".to_string(),
                self.retransmissions_sent.to_value(),
            ),
            (
                "final_estimate_bps".to_string(),
                self.final_estimate_bps.to_value(),
            ),
        ];
        if !self.resilience.is_quiet() {
            fields.push(("resilience".to_string(), self.resilience.to_value()));
        }
        Value::Object(fields)
    }
}

impl NetTurnReport {
    /// The all-zero report server slots start from.
    pub fn placeholder() -> Self {
        Self {
            answer: Answer::default(),
            frames_sent: 0,
            frames_delivered: 0,
            frames_decoded: 0,
            mean_target_bitrate_bps: 0.0,
            achieved_bitrate_bps: 0.0,
            goodput_bps: 0.0,
            p50_frame_latency_ms: 0.0,
            p95_frame_latency_ms: 0.0,
            packets_lost: 0,
            fec_recovered_frames: 0,
            retransmissions_sent: 0,
            final_estimate_bps: 0.0,
            resilience: FaultTelemetry::default(),
        }
    }
}

/// A convenience used by the scenario engine: a queue sized to `queue_ms` of buffering at
/// `nominal_bps` — how testbeds provision the bottleneck buffer for a trace whose rates
/// vary around a nominal capacity.
pub fn queue_bytes_for(nominal_bps: f64, queue_ms: u64) -> u64 {
    ((nominal_bps / 8.0) * (queue_ms as f64 / 1_000.0)).max(3_000.0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Conversation;
    use aivc_mllm::{Question, QuestionFormat};
    use aivc_netsim::fault::FaultScheduleError;
    use aivc_netsim::{
        BandwidthTrace, BandwidthTraceError, FaultEpisode, FaultKind, FaultSchedule, LinkConfig, LossModel,
        SimDuration, SimTime,
    };
    use aivc_scene::templates::basketball_game;
    use aivc_scene::{Frame, SourceConfig, VideoSource};

    /// The first turn of a fresh conversation: clock at zero, empty queue, cold GCC.
    fn run_one_turn(options: NetSessionOptions, frames: &[Frame]) -> NetTurnReport {
        Conversation::with_defaults(options, SimDuration::ZERO).run_turn(frames, &question())
    }

    fn window(fps: f64, secs: f64) -> Vec<Frame> {
        VideoSource::new(basketball_game(1), SourceConfig::fps30(6.0)).window(6.0 - secs, secs, fps)
    }

    fn question() -> Question {
        Question::from_fact(&basketball_game(1).facts[1], QuestionFormat::FreeResponse)
    }

    fn good_path() -> PathConfig {
        PathConfig::paper_section_2_2(0.01)
    }

    fn stepdown_path() -> PathConfig {
        PathConfig {
            uplink: LinkConfig {
                bandwidth: BandwidthTrace::step(8e6, 1.2e6, SimTime::from_secs_f64(1.5)),
                propagation_delay: SimDuration::from_millis(30),
                queue_capacity_bytes: queue_bytes_for(8e6, 300),
                loss: LossModel::Iid { rate: 0.01 },
                max_jitter: SimDuration::ZERO,
                faults: FaultSchedule::none(),
            },
            downlink: LinkConfig::constant(100e6, SimDuration::from_millis(30), 300, LossModel::None),
        }
    }

    /// Zero used to overflow `TurnPlan::new`; -1, NaN and inf ran and serialized 1e13-bps
    /// reports. Each now fails `validate` — and therefore `Conversation::new`, in debug
    /// and release alike — with a message naming the field and the value.
    #[test]
    fn capture_fps_the_turn_clock_cannot_step_by_is_rejected_at_construction() {
        let options = |capture_fps: f64| NetSessionOptions {
            capture_fps,
            ..NetSessionOptions::ai_oriented(1, good_path())
        };
        let inf = f64::INFINITY;
        for fps in [0.0, -1.0, f64::NAN, inf, -inf, 1e-300, 1e300] {
            let error = options(fps).validate().expect_err("must be rejected");
            let message = error.to_string();
            assert!(message.contains("capture_fps"), "{message}");
            assert!(message.ends_with(&format!("got {fps}")), "{message}");
            let panic =
                std::panic::catch_unwind(|| Conversation::with_defaults(options(fps), SimDuration::ZERO))
                    .expect_err("an invalid capture_fps must not build a conversation");
            assert_eq!(panic.downcast_ref::<String>(), Some(&message));
        }
        for fps in [1e-6, 0.5, 12.0, 240.0, 1e6] {
            assert_eq!(options(fps).validate(), Ok(()), "{fps}");
        }
        // `0.0` is the explicit immediate deadline; NaN, a negative or an infinite one —
        // which used to mean "immediate" silently, or wrap the horizon — is an error.
        let drain = |drain_secs: f64| NetSessionOptions {
            drain_secs,
            ..options(12.0)
        };
        for secs in [0.0, 0.3, 1e6] {
            assert_eq!(drain(secs).validate(), Ok(()), "{secs}");
        }
        for secs in [f64::NAN, -1.0, inf, -inf, 1.1e6] {
            assert_eq!(
                drain(secs)
                    .validate()
                    .map_err(|e| e.to_string().ends_with(&format!("got {secs}"))),
                Err(true),
                "{secs}"
            );
        }
    }

    /// `link` with its (constant) rate replaced by `rate_bps`, or why `BandwidthTrace` refuses it.
    fn link_with_rate(link: &LinkConfig, rate_bps: f64) -> Result<LinkConfig, BandwidthTraceError> {
        let segments = || vec![(SimTime::ZERO, rate_bps)];
        let bandwidth = built_by_both(
            || BandwidthTrace::try_from_segments(segments()),
            || BandwidthTrace::from_segments(segments()),
        )?;
        Ok(LinkConfig {
            bandwidth,
            ..link.clone()
        })
    }

    /// `link` with a 100 ms burst-loss episode whose rate is `loss_rate`, or why
    /// `FaultSchedule` refuses it.
    fn link_with_burst_loss(link: &LinkConfig, loss_rate: f64) -> Result<LinkConfig, FaultScheduleError> {
        let episodes = || {
            vec![FaultEpisode {
                start: SimTime::ZERO,
                duration: SimDuration::from_millis(100),
                kind: FaultKind::BurstLoss { loss_rate },
            }]
        };
        let faults = built_by_both(
            || FaultSchedule::try_new(episodes()),
            || FaultSchedule::new(episodes()),
        )?;
        Ok(LinkConfig {
            faults,
            ..link.clone()
        })
    }

    /// What a constructor's two forms agree on: `try_build`'s value, or its error, whose
    /// words `build` must panic with.
    fn built_by_both<T: PartialEq + std::fmt::Debug, E: std::fmt::Display>(
        try_build: impl FnOnce() -> Result<T, E>,
        build: impl FnOnce() -> T + std::panic::UnwindSafe,
    ) -> Result<T, E> {
        let tried = try_build();
        match (&tried, std::panic::catch_unwind(build)) {
            (Ok(value), Ok(built)) => assert_eq!(value, &built),
            (Err(error), Err(panic)) => assert_eq!(panic.downcast_ref::<String>(), Some(&error.to_string())),
            (_, built) => panic!("try_build and build disagree: build panicked {}", built.is_err()),
        }
        tried
    }

    /// `path` used to be skipped: an over-long delay overflowed an arrival time, a queue
    /// under one MTU dropped every packet of every turn, and a NaN loss probability ran
    /// loss-free (1.5 lost everything). Each now fails `validate` — and `Conversation::new`
    /// with the same words — naming link and field. A 0 / −1 / subnormal / NaN / ±∞ / MAX
    /// rate, which overflowed the link's clock or never queued, and a NaN or out-of-range
    /// burst-loss probability are refused by name before a link can hold them, by the
    /// trace's and the fault schedule's constructors.
    #[test]
    fn a_path_the_links_cannot_run_is_rejected_at_construction() {
        let (link, inf) = (good_path().uplink, f64::INFINITY);
        for rate in [0.0, -1.0, 5e-324, f64::NAN, inf, -inf, f64::MAX] {
            assert_eq!(
                link_with_rate(&link, rate).map(drop).map_err(|e| e.to_string()),
                Err(format!(
                    "bandwidth trace invalid: segment 0's rate must be within 1..=1e12 bits per second, got {rate}"
                ))
            );
        }
        for value in [f64::NAN, -0.1, 1.5, inf] {
            assert_eq!(
                link_with_burst_loss(&link, value)
                    .map(drop)
                    .map_err(|e| e.to_string()),
                Err(format!(
                    "fault schedule invalid: episode 0's probability must be within 0..=1, got {value}"
                ))
            );
        }
        type Edit = Box<dyn Fn(&mut PathConfig)>;
        let mut cases: Vec<(Edit, String)> = Vec::new();
        let too_long = SimDuration::from_secs_f64(1e6) + SimDuration::from_micros(1);
        cases.push((
            Box::new(move |p| p.uplink.propagation_delay = too_long),
            "path.uplink.propagation_delay must be at most 1e6 s, got 1000000000001 µs".into(),
        ));
        cases.push((
            Box::new(|p| p.downlink.max_jitter = SimDuration::from_micros(u64::MAX)),
            format!(
                "path.downlink.max_jitter must be at most 1e6 s, got {} µs",
                u64::MAX
            ),
        ));
        for bytes in [0, 1_399] {
            cases.push((
                Box::new(move |p| p.uplink.queue_capacity_bytes = bytes),
                format!(
                    "path.uplink.queue_capacity_bytes must hold at least one 1400-byte packet, got {bytes}"
                ),
            ));
        }
        for value in [f64::NAN, -0.1, 1.5, f64::INFINITY] {
            cases.push((
                Box::new(move |p| p.uplink.loss = LossModel::Iid { rate: value }),
                format!("path.uplink.loss.rate must be a probability within 0..=1, got {value}"),
            ));
            cases.push((
                Box::new(move |p| {
                    p.downlink.loss = LossModel::GilbertElliott {
                        p_good_to_bad: 0.01,
                        p_bad_to_good: value,
                        loss_good: 0.0,
                        loss_bad: 1.0,
                    }
                }),
                format!("path.downlink.loss.p_bad_to_good must be a probability within 0..=1, got {value}"),
            ));
        }
        for (edit, rule) in cases {
            let mut options = NetSessionOptions::ai_oriented(1, good_path());
            edit(&mut options.path);
            let message = options.validate().expect_err(&rule).to_string();
            assert_eq!(message, format!("session options invalid: {rule}"));
            let panic = std::panic::catch_unwind(|| Conversation::with_defaults(options, SimDuration::ZERO))
                .expect_err("an invalid path must not build a conversation");
            assert_eq!(panic.downcast_ref::<String>(), Some(&message));
        }
        // The bounds themselves are accepted.
        let mut options = NetSessionOptions::ai_oriented(1, good_path());
        options.path.uplink = link_with_rate(&options.path.uplink, 1.0).unwrap();
        options.path.downlink =
            link_with_burst_loss(&link_with_rate(&options.path.downlink, 1e12).unwrap(), 1.0).unwrap();
        options.path.uplink.propagation_delay = SimDuration::from_secs_f64(1e6);
        options.path.uplink.queue_capacity_bytes = 1_400;
        options.path.uplink.loss = LossModel::Iid { rate: 1.0 };
        options.path.downlink.loss = LossModel::GilbertElliott {
            p_good_to_bad: 0.0,
            p_bad_to_good: 1.0,
            loss_good: 0.0,
            loss_bad: 1.0,
        };
        assert_eq!(options.validate(), Ok(()));
    }

    #[test]
    fn degradation_ladder_sheds_late_frames_under_deep_backlog() {
        // A 400 kbps pipe with a cold controller that believes 4 Mbps: the pacer floods
        // the bottleneck queue far past the 150 ms shed threshold, so the SoftFallback rung
        // must shed whole late frames instead of encoding into a standing queue.
        let path = PathConfig {
            uplink: LinkConfig::constant(400e3, SimDuration::from_millis(30), 300, LossModel::None),
            downlink: LinkConfig::constant(100e6, SimDuration::from_millis(30), 300, LossModel::None),
        };
        let mut options = NetSessionOptions::traditional(11, path).with_resilience();
        options.capture_fps = 12.0;
        options.gcc.initial_estimate_bps = 4_000_000.0;
        let frames = window(12.0, 2.0);
        let report = run_one_turn(options, &frames);
        assert_eq!(report.frames_sent, frames.len(), "shed frames still occupy slots");
        assert!(
            report.resilience.frames_shed > 0,
            "deep backlog must shed frames: {:?}",
            report.resilience
        );
        assert!(report.resilience.degradation_events > 0);
        // No outage was injected, so no outage telemetry may appear.
        assert_eq!(report.resilience.outage_ms, 0.0);
        assert_eq!(report.resilience.outage_drops, 0);
        assert_eq!(report.resilience.time_to_recover_ms, None);
    }

    #[test]
    fn networked_turn_completes_and_answers_on_a_good_link() {
        let frames = window(12.0, 3.0);
        let report = run_one_turn(NetSessionOptions::ai_oriented(3, good_path()), &frames);
        assert_eq!(report.frames_sent, frames.len());
        assert!(report.frames_delivered > frames.len() * 9 / 10);
        assert!(
            report.answer.probability_correct > 0.7,
            "p {}",
            report.answer.probability_correct
        );
        // AI-oriented stays near the accuracy floor, far below the 10 Mbps capacity.
        assert!(report.mean_target_bitrate_bps < 1_000_000.0);
        assert!(report.p50_frame_latency_ms >= 30.0);
        assert!(
            report.p95_frame_latency_ms < 120.0,
            "p95 {}",
            report.p95_frame_latency_ms
        );
    }

    #[test]
    fn turns_are_deterministic() {
        let run = || {
            run_one_turn(
                NetSessionOptions::ai_oriented(7, stepdown_path()),
                &window(12.0, 3.0),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn traditional_abr_rides_the_estimate_higher_than_ai_oriented() {
        let frames = window(12.0, 3.0);
        let trad_report = run_one_turn(NetSessionOptions::traditional(5, good_path()), &frames);
        let ai_report = run_one_turn(NetSessionOptions::ai_oriented(5, good_path()), &frames);
        assert!(
            trad_report.mean_target_bitrate_bps > ai_report.mean_target_bitrate_bps * 2.0,
            "trad {} vs ai {}",
            trad_report.mean_target_bitrate_bps,
            ai_report.mean_target_bitrate_bps
        );
    }

    #[test]
    fn step_down_punishes_traditional_more_than_ai_oriented() {
        let frames = window(12.0, 3.0);
        let mut trad_opts = NetSessionOptions::traditional(11, stepdown_path());
        trad_opts.gcc.initial_estimate_bps = 2_500_000.0;
        let mut ai_opts = NetSessionOptions::ai_oriented(11, stepdown_path());
        ai_opts.gcc.initial_estimate_bps = 2_500_000.0;
        let trad_report = run_one_turn(trad_opts, &frames);
        let ai_report = run_one_turn(ai_opts, &frames);
        // The paper's §3.2 / Figure 3 contract: the accuracy floor *maintains* answer
        // accuracy while the estimate-rider loses frames to the collapsed link...
        assert!(u8::from(ai_report.answer.correct) >= u8::from(trad_report.answer.correct));
        assert!(
            ai_report.answer.probability_correct >= trad_report.answer.probability_correct - 0.005,
            "ai {} vs trad {}",
            ai_report.answer.probability_correct,
            trad_report.answer.probability_correct
        );
        assert!(ai_report.frames_delivered > trad_report.frames_delivered);
        // ...at an order of magnitude lower tail latency and less than half the bits.
        assert!(
            ai_report.p95_frame_latency_ms < trad_report.p95_frame_latency_ms / 3.0,
            "ai p95 {} vs trad p95 {}",
            ai_report.p95_frame_latency_ms,
            trad_report.p95_frame_latency_ms
        );
        assert!(ai_report.goodput_bps < trad_report.goodput_bps / 2.0);
    }

    #[test]
    fn fec_recovers_frames_under_loss() {
        let mut path = good_path();
        path.uplink.loss = LossModel::Iid { rate: 0.06 };
        let report = run_one_turn(NetSessionOptions::ai_oriented(17, path), &window(12.0, 3.0));
        assert!(report.packets_lost > 0);
        assert!(
            report.fec_recovered_frames > 0 || report.retransmissions_sent > 0,
            "loss must engage a recovery mechanism"
        );
        assert!(report.frames_decoded > 0);
    }
}
