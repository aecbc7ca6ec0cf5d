//! The end-to-end response-latency budget (§1).
//!
//! The paper's bound: a fluent conversation needs the response within ~300 ms, MLLM
//! inference alone costs ≥232 ms, so everything else — capture, client-side CLIP, encoding,
//! transmission, decoding — must fit in the remaining ≤68 ms. [`LatencyBudget`] itemizes a
//! chat turn so experiments can report exactly where the time went and whether the turn
//! would feel "like a real person"; [`LatencyBudget::of_last_turn`] reads one off a
//! [`Conversation`] turn.

use crate::conversation::Conversation;
use crate::session::StreamingMode;
use aivc_mllm::InferenceLatencyModel;
use aivc_rtc::jitter::{JitterBuffer, JitterBufferConfig};
use aivc_scene::Frame;
use aivc_videocodec::encoder::ENCODE_LATENCY_US;

/// The conversational response-latency target in milliseconds (§1, citing \[18\]).
pub const RESPONSE_LATENCY_TARGET_MS: f64 = 300.0;

/// Millisecond breakdown of one AI Video Chat turn.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencyBudget {
    /// Camera capture / sensor latency.
    pub capture_ms: f64,
    /// Client-side context-awareness compute (Mobile-CLIP pass); zero for the baseline.
    pub context_compute_ms: f64,
    /// Video encoding latency.
    pub encode_ms: f64,
    /// Network transmission latency (send start → frame completely received).
    pub transmission_ms: f64,
    /// Jitter-buffer residency (zero in AI mode, §2.1).
    pub jitter_buffer_ms: f64,
    /// Video decoding latency at the receiver.
    pub decode_ms: f64,
    /// MLLM inference latency up to the first response token.
    pub inference_ms: f64,
}

impl LatencyBudget {
    /// The budget of `conversation`'s most recent turn, which ran over `frames`.
    ///
    /// Capture, CLIP, encode and decode are the stage models' figures for the turn's
    /// geometry. Transmission is the mean completion latency of the frames that made the
    /// deadline ([`Conversation::last_turn_deliveries`]). The jitter-buffer term is the
    /// mean extra residency a receiver-side `jitter_buffer` adds when replayed over those
    /// arrivals — the engine's receiver has none (§2.1: an MLLM reads capture
    /// timestamps), so a traditional receiver is priced after the fact and
    /// [`JitterBufferConfig::disabled`] costs exactly zero. Inference is the response-time
    /// critical path only: a streaming MLLM prefills earlier frames as they arrive, so at
    /// question time the pending work is the fixed prefill, the newest frame's visual
    /// tokens and the first decode step (the full figure stays in `answer.latency`).
    ///
    /// # Panics
    ///
    /// Panics when the conversation has not run a turn or `frames` is empty.
    pub fn of_last_turn(
        conversation: &Conversation,
        frames: &[Frame],
        jitter_buffer: JitterBufferConfig,
    ) -> Self {
        let compute = &conversation.member.compute;
        let answer = &conversation.turns().last().expect("a turn has run").answer;
        let deliveries = conversation.last_turn_deliveries();
        let delivered = deliveries.len().max(1) as f64;
        let mut buffer = JitterBuffer::new(jitter_buffer);
        let (mut transmission_ms, mut buffered_ms) = (0.0, 0.0);
        for d in deliveries {
            transmission_ms += d.latency().as_millis_f64();
            let release = buffer.on_frame(d.completed_at, d.capture_ts_us);
            buffered_ms += (release - d.completed_at).as_millis_f64();
        }
        let clip_us = match conversation.options().mode {
            StreamingMode::ContextAware => compute
                .sender
                .clip_model()
                .inference_latency_us(frames[0].width, frames[0].height),
            StreamingMode::Baseline => 0,
        };
        let tokens_per_frame = answer
            .visual_tokens
            .checked_div(answer.frames_ingested as u32)
            .unwrap_or(0);
        Self {
            capture_ms: 1_000.0 / conversation.options().capture_fps / 2.0,
            context_compute_ms: clip_us as f64 / 1_000.0,
            encode_ms: ENCODE_LATENCY_US as f64 / 1_000.0,
            transmission_ms: transmission_ms / delivered,
            jitter_buffer_ms: buffered_ms / delivered,
            decode_ms: 2.0,
            inference_ms: InferenceLatencyModel::new(compute.responder.config())
                .typical(tokens_per_frame)
                .time_to_first_token_ms,
        }
    }

    /// Total response latency in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.capture_ms
            + self.context_compute_ms
            + self.encode_ms
            + self.transmission_ms
            + self.jitter_buffer_ms
            + self.decode_ms
            + self.inference_ms
    }

    /// Whether the turn meets the 300 ms conversational bound.
    pub fn meets_target(&self) -> bool {
        self.total_ms() <= RESPONSE_LATENCY_TARGET_MS
    }

    /// Renders a one-line breakdown, used by the examples and the experiment harness.
    pub fn to_line(&self) -> String {
        format!(
            "capture {:.1} + clip {:.1} + encode {:.1} + net {:.1} + jitter {:.1} + decode {:.1} + mllm {:.1} = {:.1} ms ({})",
            self.capture_ms,
            self.context_compute_ms,
            self.encode_ms,
            self.transmission_ms,
            self.jitter_buffer_ms,
            self.decode_ms,
            self.inference_ms,
            self.total_ms(),
            if self.meets_target() { "meets 300 ms" } else { "misses 300 ms" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net_session::{NetSessionOptions, NetTurnReport};
    use aivc_mllm::{Question, QuestionFormat};
    use aivc_netsim::PathConfig;
    use aivc_scene::templates::basketball_game;
    use aivc_scene::{SourceConfig, VideoSource};
    use aivc_sim::SimDuration;

    fn options(seed: u64) -> NetSessionOptions {
        let mut options = NetSessionOptions::ai_oriented(seed, PathConfig::paper_section_2_2(0.01));
        options.capture_fps = 30.0;
        options
    }

    /// One chat turn — a fresh conversation's first — about fact `fact`, over the clip's
    /// last four seconds, priced with or without a traditional jitter buffer.
    fn turn(options: NetSessionOptions, fact: usize, buffered: bool) -> (NetTurnReport, LatencyBudget) {
        let scene = basketball_game(1);
        let question = Question::from_fact(&scene.facts[fact], QuestionFormat::FreeResponse);
        let frames = VideoSource::new(scene, SourceConfig::fps30(6.0)).window(2.0, 4.0, options.capture_fps);
        let mut conversation = Conversation::with_defaults(options, SimDuration::ZERO);
        let report = conversation.run_turn(&frames, &question);
        let jitter_buffer = if buffered {
            JitterBufferConfig::traditional()
        } else {
            JitterBufferConfig::disabled()
        };
        let latency = LatencyBudget::of_last_turn(&conversation, &frames, jitter_buffer);
        (report, latency)
    }

    const SCORE: usize = 0;
    const LOGO: usize = 1;

    #[test]
    fn context_aware_turn_completes_and_answers_well() {
        let (report, latency) = turn(options(3), SCORE, false);
        assert!(report.frames_sent > 0);
        assert!(report.frames_delivered > 0);
        let p = report.answer.probability_correct;
        assert!(p > 0.7, "p {p}");
        assert!(latency.total_ms() > 200.0);
        assert!(latency.transmission_ms < 100.0, "net {}", latency.transmission_ms);
        // The Mobile-CLIP pass is a few milliseconds of client compute.
        let clip_ms = latency.context_compute_ms;
        assert!(clip_ms > 1.0 && clip_ms < 30.0, "clip {clip_ms}");
        // Ultra-low bitrate: well below 1 Mbps.
        assert!(report.achieved_bitrate_bps < 1_000_000.0);
    }

    #[test]
    fn context_aware_beats_baseline_on_detail_question_at_same_bitrate() {
        let (ours, ours_latency) = turn(options(5), LOGO, false);
        let mut baseline_options = options(5);
        baseline_options.mode = StreamingMode::Baseline;
        let (baseline, baseline_latency) = turn(baseline_options, LOGO, false);
        // Comparable achieved bitrates...
        let ratio = ours.achieved_bitrate_bps / baseline.achieved_bitrate_bps;
        assert!(ratio > 0.5 && ratio < 2.0, "bitrate ratio {ratio}");
        // ...but much better evidence quality / answer probability for ours.
        let (p_ours, p_baseline) = (
            ours.answer.probability_correct,
            baseline.answer.probability_correct,
        );
        assert!(
            p_ours > p_baseline + 0.2,
            "ours {p_ours} vs baseline {p_baseline}"
        );
        // Only the context-aware sender pays for a CLIP pass.
        assert!(ours_latency.context_compute_ms > 0.0);
        assert_eq!(baseline_latency.context_compute_ms, 0.0);
    }

    #[test]
    fn jitter_buffer_adds_latency_but_not_accuracy() {
        let (with_jb, with_jb_latency) = turn(options(7), SCORE, true);
        let (without_jb, without_jb_latency) = turn(options(7), SCORE, false);
        assert!(with_jb_latency.jitter_buffer_ms > without_jb_latency.jitter_buffer_ms);
        assert_eq!(without_jb_latency.jitter_buffer_ms, 0.0);
        // The MLLM's probability of answering correctly is unchanged (jitter is irrelevant
        // to MLLM perception, §2.1).
        assert!((with_jb.answer.probability_correct - without_jb.answer.probability_correct).abs() < 0.05);
    }

    #[test]
    fn turns_are_deterministic() {
        assert_eq!(turn(options(9), SCORE, true), turn(options(9), SCORE, true));
    }

    #[test]
    fn a_turn_that_delivered_nothing_has_no_network_terms() {
        // A 1 kbps uplink: not one frame completes before the deadline.
        let mut starved = options(1);
        starved.path.uplink.bandwidth = aivc_netsim::BandwidthTrace::constant(1e3);
        let (report, latency) = turn(starved, SCORE, true);
        assert_eq!(report.frames_delivered, 0);
        assert_eq!(latency.transmission_ms, 0.0);
        assert_eq!(latency.jitter_buffer_ms, 0.0);
        assert!(latency.total_ms().is_finite());
    }

    fn budget() -> LatencyBudget {
        LatencyBudget {
            capture_ms: 8.0,
            context_compute_ms: 9.0,
            encode_ms: 4.0,
            transmission_ms: 35.0,
            jitter_buffer_ms: 3.0,
            decode_ms: 2.0,
            inference_ms: 238.0,
        }
    }

    #[test]
    fn totals_and_target() {
        let b = budget();
        // Every one of the seven terms, named so a new field must join the sum here too.
        let LatencyBudget {
            capture_ms,
            context_compute_ms,
            encode_ms,
            transmission_ms,
            jitter_buffer_ms,
            decode_ms,
            inference_ms,
        } = b;
        let sum = capture_ms
            + context_compute_ms
            + encode_ms
            + transmission_ms
            + jitter_buffer_ms
            + decode_ms
            + inference_ms;
        assert_eq!(b.total_ms(), sum);
        assert_eq!(b.total_ms(), 299.0);
        assert!(b.meets_target());
        // The part outside the MLLM, which RTC research can optimize.
        assert_eq!(b.total_ms() - inference_ms, 61.0);
    }

    #[test]
    fn exceeding_target_detected() {
        let mut b = budget();
        b.transmission_ms = 120.0;
        assert!(!b.meets_target());
    }

    #[test]
    fn line_rendering_mentions_target() {
        assert!(budget().to_line().contains("meets 300 ms"));
    }
}
