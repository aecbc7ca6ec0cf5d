//! The end-to-end AI Video Chat turn, in two forms:
//!
//! * [`AiVideoChatSession`] — the *experiment* session: capture → (context-aware) encode →
//!   RTC over the emulated uplink → decode → MLLM answer, with a per-stage latency budget
//!   (Figure 1's loop).
//! * [`ChatSession`] — the *hot-path* session: one long-lived object owning every reuse
//!   buffer of the per-frame compute pipeline (CLIP scratch, QP-map buffer, encode/decode
//!   scratches, packet buffer, MLLM sampling scratch), so repeated turns perform zero
//!   post-warmup heap allocations. This is the `pipeline_turn_1080p` hot path guarded by
//!   `crates/bench/tests/zero_alloc.rs` and `BENCH_hotpaths.json`.

use crate::allocator::QpAllocator;
use crate::baseline::ContextAgnosticBaseline;
use crate::context_aware::{ContextAwareStreamer, StreamerConfig};
use crate::latency::LatencyBudget;
use aivc_mllm::{Answer, InferenceLatencyModel, MllmChat, MllmScratch, Question};
use aivc_netsim::PathConfig;
use aivc_rtc::jitter::JitterBufferConfig;
use aivc_rtc::nack::NackConfig;
use aivc_rtc::pacer::PacerConfig;
use aivc_rtc::packetizer::Packetizer;
use aivc_rtc::rtp::RtpPacket;
use aivc_rtc::{FecConfig, JitterBuffer, OutgoingFrame, SessionConfig, SessionStats, VideoSession};
use aivc_scene::{Frame, VideoSource};
use aivc_semantics::{ClipModel, ClipScratch, TextQuery};
use aivc_videocodec::{DecodeScratch, DecodedFrame, Decoder, EncodeScratch, EncodedFrame, Encoder, QpMap};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Which streaming method the session uses on the uplink.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StreamingMode {
    /// Context-aware QP allocation (the paper's contribution).
    ContextAware,
    /// Uniform-QP baseline at the same target bitrate.
    Baseline,
}

/// Options of one chat session.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SessionOptions {
    /// Seed for all stochastic components.
    pub seed: u64,
    /// Network path between client and cloud.
    pub path: PathConfig,
    /// Streaming method.
    pub mode: StreamingMode,
    /// Target uplink video bitrate in bits per second.
    pub target_bitrate_bps: f64,
    /// How many seconds of video precede (and are relevant to) the question.
    pub window_secs: f64,
    /// Capture frames per second actually pushed into the transport for this turn.
    ///
    /// Kept moderate by default so a single turn stays cheap to simulate; the redundancy
    /// analysis of Figure 2 uses the full camera rate separately.
    pub capture_fps: f64,
    /// Whether the receiver runs a traditional jitter buffer (AI mode removes it, §2.1).
    pub use_jitter_buffer: bool,
}

impl SessionOptions {
    /// A good-network default: the paper's 10 Mbps / 30 ms path, context-aware streaming at
    /// ~430 Kbps, no jitter buffer.
    pub fn default_context_aware(seed: u64) -> Self {
        Self {
            seed,
            path: PathConfig::paper_section_2_2(0.01),
            mode: StreamingMode::ContextAware,
            target_bitrate_bps: 430_000.0,
            window_secs: 4.0,
            capture_fps: 30.0,
            use_jitter_buffer: false,
        }
    }

    /// The corresponding baseline configuration at the same bitrate.
    pub fn default_baseline(seed: u64) -> Self {
        Self {
            mode: StreamingMode::Baseline,
            ..Self::default_context_aware(seed)
        }
    }
}

/// The report of one chat turn.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChatTurnReport {
    /// The MLLM's answer (correctness, probability, inference latency, tokens).
    pub answer: Answer,
    /// The per-stage latency budget of the turn.
    pub latency: LatencyBudget,
    /// Achieved uplink video bitrate in bits per second.
    pub achieved_bitrate_bps: f64,
    /// Frames handed to the transport.
    pub frames_sent: usize,
    /// Frames that were completely received.
    pub frames_delivered: usize,
    /// Transport-level statistics.
    pub transport: SessionStats,
}

/// One end-to-end AI Video Chat session.
#[derive(Debug, Clone)]
pub struct AiVideoChatSession {
    options: SessionOptions,
    streamer: ContextAwareStreamer,
    baseline: ContextAgnosticBaseline,
    responder: MllmChat,
    decoder: Decoder,
}

impl AiVideoChatSession {
    /// Creates a session.
    pub fn new(options: SessionOptions) -> Self {
        Self {
            responder: MllmChat::responder(options.seed ^ 0x5EED),
            streamer: ContextAwareStreamer::default(),
            baseline: ContextAgnosticBaseline::default(),
            decoder: Decoder::new(),
            options,
        }
    }

    /// The session options.
    pub fn options(&self) -> &SessionOptions {
        &self.options
    }

    /// Runs one chat turn: the user asks `question` about the last `window_secs` of `source`.
    pub fn run_turn(&self, source: &VideoSource, question: &Question) -> ChatTurnReport {
        let opts = &self.options;
        // --- Capture: the frames of the question window, at the turn's capture rate.
        let window_start = (source.duration_secs() - opts.window_secs).max(0.0);
        let frame_count = (opts.window_secs * opts.capture_fps).floor().max(1.0) as usize;
        let frames: Vec<_> = (0..frame_count)
            .map(|i| source.frame_at(window_start + i as f64 / opts.capture_fps))
            .collect();
        let fps = opts.capture_fps;

        // --- Encode with the selected method at the target bitrate.
        let (encoded, achieved_bitrate, context_compute_ms): (Vec<EncodedFrame>, f64, f64) = match opts.mode {
            StreamingMode::ContextAware => {
                let query = self.streamer.query_for_question(question);
                let enc = self
                    .streamer
                    .encode_at_bitrate(&frames, &query, fps, opts.target_bitrate_bps);
                let clip_ms =
                    self.streamer.clip_latency_us(frames[0].width, frames[0].height) as f64 / 1_000.0;
                (enc.encoded, enc.achieved_bitrate_bps, clip_ms)
            }
            StreamingMode::Baseline => {
                let enc = self
                    .baseline
                    .encode_at_bitrate(&frames, fps, opts.target_bitrate_bps);
                (enc.encoded, enc.achieved_bitrate_bps, 0.0)
            }
        };

        // --- Transport over the emulated uplink.
        let outgoing: Vec<OutgoingFrame> = encoded
            .iter()
            .map(|e| OutgoingFrame {
                frame_id: e.frame_index,
                capture_ts_us: e.capture_ts_us,
                size_bytes: e.total_bytes(),
                is_keyframe: e.frame_type == aivc_videocodec::FrameType::Intra,
            })
            .collect();
        let transport_config = SessionConfig {
            path: opts.path.clone(),
            seed: opts.seed,
            fec: FecConfig::disabled(),
            nack: NackConfig::default(),
            enable_retransmission: true,
            pacer: PacerConfig::from_target_bitrate(opts.target_bitrate_bps, 2.5),
            jitter_buffer: if opts.use_jitter_buffer {
                JitterBufferConfig::traditional()
            } else {
                JitterBufferConfig::disabled()
            },
            encode_latency_us: self.streamer.encoder().encode_latency_us(),
            feedback_packet_bytes: 80,
        };
        let transport = VideoSession::new(transport_config).run(&outgoing).stats;

        // --- Decode what arrived.
        let mut decoded: Vec<DecodedFrame> = Vec::new();
        for (enc, record) in encoded.iter().zip(&transport.frames) {
            if record.received_ranges.is_empty() {
                continue;
            }
            let received_at = record.completed_at.map(|t| t.as_micros());
            decoded.push(
                self.decoder
                    .decode_with_received(enc, &record.received_ranges, received_at),
            );
        }

        // --- MLLM answers.
        let answer = self.responder.respond(question, &decoded, opts.seed);

        // --- Latency budget. Transmission is the completion latency of the frames that
        // actually made it; the jitter-buffer term is the extra release delay (zero in AI mode).
        let mut jb = JitterBuffer::new(if opts.use_jitter_buffer {
            JitterBufferConfig::traditional()
        } else {
            JitterBufferConfig::disabled()
        });
        let mut jitter_extra_ms = 0.0;
        let mut completed = 0usize;
        for record in &transport.frames {
            if let Some(done) = record.completed_at {
                let release = jb.on_frame(done, record.capture_ts_us);
                jitter_extra_ms += release.saturating_since(done).as_millis_f64();
                completed += 1;
            }
        }
        // The response-time critical path pays the prefill of the *newest* frame only:
        // streaming MLLM services prefill earlier frames as they arrive (while the user is
        // still speaking), so at question time the pending work is the fixed prefill, the
        // latest frame's visual tokens and the first decode step. The full (non-incremental)
        // latency is still available in `answer.latency`.
        let per_frame_tokens = if answer.frames_ingested == 0 {
            0
        } else {
            answer.visual_tokens / answer.frames_ingested as u32
        };
        let incremental_inference_ms = InferenceLatencyModel::new(self.responder.config())
            .typical(per_frame_tokens)
            .time_to_first_token_ms;
        let latency = LatencyBudget {
            capture_ms: 1_000.0 / fps / 2.0,
            context_compute_ms,
            encode_ms: self.streamer.encoder().encode_latency_us() as f64 / 1_000.0,
            transmission_ms: transport.mean_transmission_latency_ms(),
            jitter_buffer_ms: if completed == 0 {
                0.0
            } else {
                jitter_extra_ms / completed as f64
            },
            decode_ms: 2.0,
            inference_ms: incremental_inference_ms,
        };

        ChatTurnReport {
            answer,
            latency,
            achieved_bitrate_bps: achieved_bitrate,
            frames_sent: outgoing.len(),
            frames_delivered: transport.completed_frames(),
            transport,
        }
    }
}

/// The report of one [`ChatSession::run_turn`] — plain values only, so producing it
/// allocates nothing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineTurnReport {
    /// The MLLM's answer over the turn's decoded frames.
    pub answer: Answer,
    /// Frames pushed through the pipeline this turn.
    pub frames_processed: usize,
    /// Total coded bytes produced by the encoder this turn.
    pub encoded_bytes: u64,
    /// Total RTP media packets the packetizer produced this turn.
    pub packets: usize,
    /// Mean encoded recognition quality across the turn's frames.
    pub mean_encoded_quality: f64,
}

/// One long-lived AI Video Chat pipeline owning every per-frame scratch buffer.
///
/// A turn runs the full sender + receiver *compute* path per frame — user words → CLIP
/// correlation (Eq. 1, incremental across frames via temporal coherence) → Eq. 2 QP
/// allocation (threshold table) → ROI encode → RTP packetization → decode — and then the
/// MLLM response over the turn's decoded frames. Every stage writes into buffers owned by
/// the session, so after a warmup turn the whole pipeline performs **zero heap
/// allocations** (proven by `crates/bench/tests/zero_alloc.rs`).
///
/// The emulated network of [`AiVideoChatSession`] is deliberately absent here: transport
/// emulation models *simulated time*, not per-frame compute, and stays in the experiment
/// session. `ChatSession` answers the question the paper's frame budget asks — how much
/// client/server work one conversational turn costs.
#[derive(Debug, Clone)]
pub struct ChatSession {
    seed: u64,
    /// Immutable after `new`, so a server builds one and its sessions share it.
    clip_model: Arc<ClipModel>,
    allocator: QpAllocator,
    encoder: Encoder,
    decoder: Decoder,
    packetizer: Packetizer,
    responder: MllmChat,
    // --- reusable per-frame state, one of each per session ---
    clip: ClipScratch,
    qp_map: QpMap,
    /// One encode scratch per frame slot of the turn window: the coverage cache inside each
    /// scratch then tracks the *same* (or, in a sliding window, an adjacent) frame across
    /// turns, keeping its hit rate high.
    encode_scratches: Vec<EncodeScratch>,
    encoded: EncodedFrame,
    packets: Vec<RtpPacket>,
    decode_scratch: DecodeScratch,
    decoded: Vec<DecodedFrame>,
    mllm: MllmScratch,
    /// The question whose [`TextQuery`] is currently memoized (rebuilt only on change, so
    /// multi-turn conversations about the same question stay allocation-free).
    cached_question: Option<Question>,
    query: TextQuery,
}

impl ChatSession {
    /// Creates a session with explicit streamer configuration and CLIP model — a
    /// [`ClipModel`] by value, or an `Arc<ClipModel>` handle shared with other sessions.
    pub fn new(config: StreamerConfig, clip_model: impl Into<Arc<ClipModel>>, seed: u64) -> Self {
        Self {
            seed,
            allocator: QpAllocator::new(config.allocator),
            encoder: Encoder::new(config.encoder),
            decoder: Decoder::new(),
            packetizer: Packetizer::default(),
            responder: MllmChat::responder(seed ^ 0x5EED),
            clip_model: clip_model.into(),
            clip: ClipScratch::new(),
            qp_map: QpMap::empty(),
            encode_scratches: Vec::new(),
            encoded: EncodedFrame::placeholder(),
            packets: Vec::new(),
            decode_scratch: DecodeScratch::new(),
            decoded: Vec::new(),
            mllm: MllmScratch::new(),
            cached_question: None,
            query: TextQuery::from_concepts("", std::iter::empty::<String>()),
        }
    }

    /// A session with the paper's defaults (γ = 3 allocator, medium-preset encoder,
    /// Mobile-CLIP-class model).
    pub fn with_defaults(seed: u64) -> Self {
        Self::new(StreamerConfig::default(), ClipModel::mobile_default(), seed)
    }

    /// The encoder in use.
    pub fn encoder(&self) -> &Encoder {
        &self.encoder
    }

    /// The CLIP model in use.
    pub fn clip_model(&self) -> &ClipModel {
        &self.clip_model
    }

    /// Runs one chat turn over a window of captured frames.
    ///
    /// Per frame: incremental CLIP correlation → Eq. 2 QP map → ROI encode → packetize →
    /// decode; then one MLLM response over everything the turn decoded. All intermediate
    /// state lives in the session's scratch buffers; after the first turn of a given shape,
    /// the call performs no heap allocation. Stage outputs are bit-identical to the
    /// allocating convenience APIs (see the equivalence tests).
    pub fn run_turn(&mut self, frames: &[Frame], question: &Question) -> PipelineTurnReport {
        assert!(!frames.is_empty(), "a chat turn needs at least one frame");
        // Re-derive the text query only when the question changes.
        if self.cached_question.as_ref() != Some(question) {
            self.query = TextQuery::from_words_and_concepts(
                &question.text,
                self.clip_model.ontology(),
                question.query_concepts.iter().cloned(),
            );
            self.cached_question = Some(question.clone());
        }
        let mut encoded_bytes = 0u64;
        let mut packets = 0usize;
        let mut quality_sum = 0.0f64;
        for (i, frame) in frames.iter().enumerate() {
            // --- Eq. 1: semantic correlation, recomputing only patches object motion dirtied.
            let importance = self
                .clip_model
                .correlation_map_coherent(frame, &self.query, &mut self.clip);
            // --- Eq. 2: ρ → QP through the threshold table.
            self.allocator
                .allocate_into(importance, self.encoder.grid_for(frame), &mut self.qp_map);
            // --- ROI encode into the session's frame buffer, via this slot's scratch.
            if self.encode_scratches.len() <= i {
                self.encode_scratches.push(EncodeScratch::new());
            }
            self.encoder.encode_into(
                frame,
                &self.qp_map,
                &mut self.encode_scratches[i],
                &mut self.encoded,
            );
            let total_bytes = self.encoded.total_bytes();
            encoded_bytes += total_bytes;
            quality_sum += self.encoded.mean_encoded_quality();
            // --- Packetize for the uplink.
            let outgoing = OutgoingFrame {
                frame_id: self.encoded.frame_index,
                capture_ts_us: self.encoded.capture_ts_us,
                size_bytes: total_bytes,
                is_keyframe: self.encoded.frame_type == aivc_videocodec::FrameType::Intra,
            };
            self.packetizer.packetize_into(&outgoing, &mut self.packets);
            packets += self.packets.len();
            // --- Decode into this turn slot's frame buffer (grown once, then reused).
            if self.decoded.len() <= i {
                self.decoded.push(DecodedFrame::placeholder());
            }
            self.decoder.decode_into(
                &self.encoded,
                &[(0, total_bytes)],
                None,
                &mut self.decode_scratch,
                &mut self.decoded[i],
            );
        }
        // --- The MLLM answers over everything the turn decoded.
        let answer =
            self.responder
                .respond_with(question, &self.decoded[..frames.len()], self.seed, &mut self.mllm);
        PipelineTurnReport {
            answer,
            frames_processed: frames.len(),
            encoded_bytes,
            packets,
            mean_encoded_quality: quality_sum / frames.len() as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aivc_mllm::QuestionFormat;
    use aivc_scene::templates::basketball_game;
    use aivc_scene::SourceConfig;

    fn source() -> VideoSource {
        VideoSource::new(basketball_game(1), SourceConfig::fps30(6.0))
    }

    fn score_question() -> Question {
        Question::from_fact(&basketball_game(1).facts[0], QuestionFormat::FreeResponse)
    }

    fn logo_question() -> Question {
        Question::from_fact(&basketball_game(1).facts[1], QuestionFormat::FreeResponse)
    }

    #[test]
    fn context_aware_turn_completes_and_answers_well() {
        let session = AiVideoChatSession::new(SessionOptions::default_context_aware(3));
        let report = session.run_turn(&source(), &score_question());
        assert!(report.frames_sent > 0);
        assert!(report.frames_delivered > 0);
        assert!(
            report.answer.probability_correct > 0.7,
            "p {}",
            report.answer.probability_correct
        );
        assert!(report.latency.total_ms() > 200.0);
        assert!(
            report.latency.transmission_ms < 100.0,
            "net {}",
            report.latency.transmission_ms
        );
        // Ultra-low bitrate: well below 1 Mbps.
        assert!(report.achieved_bitrate_bps < 1_000_000.0);
    }

    #[test]
    fn context_aware_beats_baseline_on_detail_question_at_same_bitrate() {
        let ours = AiVideoChatSession::new(SessionOptions::default_context_aware(5));
        let baseline = AiVideoChatSession::new(SessionOptions::default_baseline(5));
        let q = logo_question();
        let ours_report = ours.run_turn(&source(), &q);
        let base_report = baseline.run_turn(&source(), &q);
        // Comparable achieved bitrates...
        let ratio = ours_report.achieved_bitrate_bps / base_report.achieved_bitrate_bps;
        assert!(ratio > 0.5 && ratio < 2.0, "bitrate ratio {ratio}");
        // ...but much better evidence quality / answer probability for ours.
        assert!(
            ours_report.answer.probability_correct > base_report.answer.probability_correct + 0.2,
            "ours {} vs baseline {}",
            ours_report.answer.probability_correct,
            base_report.answer.probability_correct
        );
    }

    #[test]
    fn jitter_buffer_adds_latency_but_not_accuracy() {
        let mut with_jb_opts = SessionOptions::default_context_aware(7);
        with_jb_opts.use_jitter_buffer = true;
        let with_jb = AiVideoChatSession::new(with_jb_opts).run_turn(&source(), &score_question());
        let without_jb = AiVideoChatSession::new(SessionOptions::default_context_aware(7))
            .run_turn(&source(), &score_question());
        assert!(with_jb.latency.jitter_buffer_ms > without_jb.latency.jitter_buffer_ms);
        assert_eq!(without_jb.latency.jitter_buffer_ms, 0.0);
        // The MLLM's probability of answering correctly is unchanged (jitter is irrelevant
        // to MLLM perception, §2.1).
        assert!((with_jb.answer.probability_correct - without_jb.answer.probability_correct).abs() < 0.05);
    }

    #[test]
    fn chat_session_pipeline_matches_the_allocating_stages() {
        let source = source();
        let frames: Vec<Frame> = (0..4).map(|i| source.frame(i * 15)).collect();
        let question = score_question();
        let mut session = ChatSession::with_defaults(11);
        let report = session.run_turn(&frames, &question);
        // Compose the same turn from the allocating convenience APIs.
        let streamer = ContextAwareStreamer::default();
        let decoder = Decoder::new();
        let responder = MllmChat::responder(11 ^ 0x5EED);
        let query = streamer.query_for_question(&question);
        let mut expected_bytes = 0u64;
        let decoded: Vec<DecodedFrame> = frames
            .iter()
            .map(|f| {
                let encoded = streamer
                    .encoder()
                    .encode_with_qp_map(f, &streamer.qp_map_for(f, &query));
                expected_bytes += encoded.total_bytes();
                decoder.decode_complete(&encoded, None)
            })
            .collect();
        let expected_answer = responder.respond(&question, &decoded, 11);
        assert_eq!(report.answer, expected_answer);
        assert_eq!(report.encoded_bytes, expected_bytes);
        assert_eq!(report.frames_processed, 4);
        assert!(report.packets > 0);
        assert!(report.mean_encoded_quality > 0.0);
    }

    #[test]
    fn chat_session_turns_are_reproducible_through_reused_buffers() {
        let source = source();
        let frames: Vec<Frame> = (0..4).map(|i| source.frame(i * 15)).collect();
        let question = score_question();
        let mut session = ChatSession::with_defaults(13);
        let first = session.run_turn(&frames, &question);
        // Same turn repeated (warm buffers) and after an interleaved different window.
        assert_eq!(session.run_turn(&frames, &question), first);
        let other_frames: Vec<Frame> = (0..2).map(|i| source.frame(60 + i * 15)).collect();
        let _ = session.run_turn(&other_frames, &question);
        assert_eq!(session.run_turn(&frames, &question), first);
    }

    #[test]
    fn chat_session_handles_question_switches() {
        let source = source();
        let frames: Vec<Frame> = (0..3).map(|i| source.frame(i * 20)).collect();
        let mut session = ChatSession::with_defaults(17);
        let score = session.run_turn(&frames, &score_question());
        let logo = session.run_turn(&frames, &logo_question());
        // A fresh session asked the logo question directly agrees with the switched one.
        let mut fresh = ChatSession::with_defaults(17);
        assert_eq!(fresh.run_turn(&frames, &logo_question()), logo);
        // And the two questions genuinely produce different QP decisions downstream.
        assert_ne!(score.encoded_bytes, logo.encoded_bytes);
    }

    #[test]
    fn turns_are_deterministic() {
        let a = AiVideoChatSession::new(SessionOptions::default_context_aware(9))
            .run_turn(&source(), &score_question());
        let b = AiVideoChatSession::new(SessionOptions::default_context_aware(9))
            .run_turn(&source(), &score_question());
        assert_eq!(a.answer, b.answer);
        assert_eq!(a.frames_delivered, b.frames_delivered);
        assert!((a.latency.total_ms() - b.latency.total_ms()).abs() < 1e-9);
    }
}
