//! The compute-only chat turn: [`ChatSession`], one long-lived object owning every reuse
//! buffer of the per-frame pipeline (CLIP scratch, QP-map buffer, encode/decode scratches,
//! packet buffer, MLLM sampling scratch), so repeated turns perform zero post-warmup heap
//! allocations. This is the `pipeline_turn_1080p` hot path guarded by
//! `crates/bench/tests/zero_alloc.rs` and `BENCH_hotpaths.json`. The networked turn —
//! the same pipeline with the emulated uplink in the loop — is [`crate::Conversation`];
//! the two share [`StreamingMode`], which is defined here.

use crate::allocator::QpAllocator;
use crate::context_aware::StreamerConfig;
use aivc_mllm::{Answer, MllmChat, MllmScratch, Question};
use aivc_rtc::packetizer::Packetizer;
use aivc_rtc::rtp::RtpPacket;
use aivc_rtc::OutgoingFrame;
use aivc_scene::Frame;
use aivc_semantics::{ClipModel, ClipScratch, TextQuery};
use aivc_videocodec::{DecodeScratch, DecodedFrame, Decoder, EncodeScratch, EncodedFrame, Encoder, QpMap};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Which streaming method a session uses on the uplink.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StreamingMode {
    /// Context-aware QP allocation (the paper's contribution).
    ContextAware,
    /// Uniform-QP baseline at the same target bitrate.
    Baseline,
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
/// The emulated network of [`crate::Conversation`] is deliberately absent here: transport
/// emulation models *simulated time*, not per-frame compute. `ChatSession` answers the
/// question the paper's frame budget asks — how much client/server work one
/// conversational turn costs.
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
    use crate::context_aware::ContextAwareStreamer;
    use aivc_mllm::QuestionFormat;
    use aivc_scene::templates::basketball_game;
    use aivc_scene::{SourceConfig, VideoSource};

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
}
