//! Context-Aware Video Streaming (§3.2): user words → CLIP correlation → Eq. 2 QP map →
//! ROI encode, at a bitrate matched to the baseline.
//!
//! The streamer reproduces the paper's procedure:
//!
//! 1. run (Mobile-)CLIP over the latest frame and the current user words to get the
//!    per-patch semantic correlation ρ_mn (Eq. 1);
//! 2. map ρ_mn to per-CTU QPs with Eq. 2 (γ = 3);
//! 3. encode with region-wise QP control;
//! 4. because the raw Eq. 2 map lands at whatever bitrate it lands at, apply a uniform QP
//!    *offset* found by trial and error so the actual bitrate matches the experiment's
//!    target (this is the paper's footnote about matching ours and baseline bitrates).
//!
//! Step 4 is the one search the turn engine also runs ([`Encoder::search_rate_plans`] over
//! prepared [`RatePlan`]s); what differs is the unit matched. Here — the offline Figure 9 /
//! Figure 10 form — one offset serves a whole set of frames so their *mean* rate hits the
//! target; a [`crate::Conversation`] matches every capture to its own per-frame budget.

use crate::allocator::{QpAllocator, QpAllocatorConfig};
use aivc_mllm::Question;
use aivc_scene::{Frame, VideoSource};
use aivc_semantics::{ClipModel, ClipScratch, ImportanceMap, TextQuery};
use aivc_videocodec::{
    DecodedFrame, Decoder, EncodeScratch, EncodedFrame, Encoder, EncoderConfig, QpMap, RatePlan,
};
use serde::{Deserialize, Serialize};

/// Configuration of the context-aware streamer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StreamerConfig {
    /// Eq. 2 allocation parameters.
    pub allocator: QpAllocatorConfig,
    /// Encoder settings (CTU size, GOP, preset).
    pub encoder: EncoderConfig,
}

impl Default for StreamerConfig {
    fn default() -> Self {
        Self {
            allocator: QpAllocatorConfig::paper(),
            encoder: EncoderConfig::default(),
        }
    }
}

/// Result of a context-aware encode of a set of frames.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ContextAwareEncode {
    /// The QP offset applied on top of the Eq. 2 map to match the target bitrate.
    pub qp_offset: i32,
    /// Achieved mean bitrate in bits per second.
    pub achieved_bitrate_bps: f64,
    /// The encoded frames.
    pub encoded: Vec<EncodedFrame>,
}

/// The context-aware streamer.
#[derive(Debug, Clone)]
pub struct ContextAwareStreamer {
    config: StreamerConfig,
    clip_model: ClipModel,
    allocator: QpAllocator,
    encoder: Encoder,
    decoder: Decoder,
}

impl Default for ContextAwareStreamer {
    fn default() -> Self {
        Self::new(StreamerConfig::default(), ClipModel::mobile_default())
    }
}

impl ContextAwareStreamer {
    /// Creates a streamer.
    pub fn new(config: StreamerConfig, clip_model: ClipModel) -> Self {
        Self {
            allocator: QpAllocator::new(config.allocator),
            encoder: Encoder::new(config.encoder),
            decoder: Decoder::new(),
            clip_model,
            config,
        }
    }

    /// The configuration.
    pub fn config(&self) -> StreamerConfig {
        self.config
    }

    /// The underlying encoder (shared with the baseline for fairness).
    pub fn encoder(&self) -> &Encoder {
        &self.encoder
    }

    /// The CLIP model in use.
    pub fn clip_model(&self) -> &ClipModel {
        &self.clip_model
    }

    /// Builds the text query for a question (explicit query concepts merged with the words).
    pub fn query_for_question(&self, question: &Question) -> TextQuery {
        TextQuery::from_words_and_concepts(
            &question.text,
            self.clip_model.ontology(),
            question.query_concepts.iter().cloned(),
        )
    }

    /// Step 1: the Eq. 1 correlation map for a frame and user words.
    pub fn correlation_map(&self, frame: &Frame, query: &TextQuery) -> ImportanceMap {
        self.clip_model.correlation_map(frame, query)
    }

    /// Steps 1–2: the CLIP-informed QP map for a frame (the Figure 10(c) artifact).
    pub fn qp_map_for(&self, frame: &Frame, query: &TextQuery) -> QpMap {
        let importance = self.correlation_map(frame, query);
        self.allocator.allocate(&importance, self.encoder.grid_for(frame))
    }

    /// Encodes `frames` so the actual mean bitrate matches `target_bitrate_bps`, by finding
    /// a uniform QP offset on top of the per-frame Eq. 2 maps (trial and error, §3.2).
    pub fn encode_at_bitrate(
        &self,
        frames: &[Frame],
        query: &TextQuery,
        fps: f64,
        target_bitrate_bps: f64,
    ) -> ContextAwareEncode {
        assert!(!frames.is_empty());
        // One scratch across the set: the query is encoded exactly once, the per-patch
        // CLIP loop reuses its buffers from the second frame on, and consecutive frames
        // recompute only the patches object motion dirtied (bit-identical to the full
        // recompute — see the `correlation_map_coherent` equivalence tests).
        let mut clip_scratch = ClipScratch::new();
        let maps: Vec<QpMap> = frames
            .iter()
            .map(|f| {
                let importance = self
                    .clip_model
                    .correlation_map_coherent(f, query, &mut clip_scratch);
                self.allocator.allocate(importance, self.encoder.grid_for(f))
            })
            .collect();
        // One rate plan per frame on its Eq. 2 map, one offset for the whole set (coded
        // bits are monotone decreasing in the offset), then one real encode per frame from
        // the plan the probes summed — so the rate the search predicted is the rate coded.
        let plans: Vec<RatePlan> = frames
            .iter()
            .zip(&maps)
            .map(|(f, map)| self.encoder.rate_plan_for(f, Some(map)))
            .collect();
        let qp_offset = self
            .encoder
            .search_rate_plans(&plans, fps, target_bitrate_bps, None)
            .level;
        let mut scratch = EncodeScratch::new();
        let encoded: Vec<EncodedFrame> = frames
            .iter()
            .zip(&maps)
            .zip(&plans)
            .map(|((f, map), plan)| {
                let mut out = EncodedFrame::placeholder();
                self.encoder
                    .encode_into_planned(f, &map.offset_all(qp_offset), plan, &mut scratch, &mut out);
                out
            })
            .collect();
        let achieved_bitrate_bps =
            encoded.iter().map(|e| e.total_bits()).sum::<u64>() as f64 / encoded.len() as f64 * fps;
        ContextAwareEncode {
            qp_offset,
            achieved_bitrate_bps,
            encoded,
        }
    }

    /// Offline convenience mirroring [`crate::baseline::ContextAgnosticBaseline::offline_decode`]:
    /// sample, encode at a matched bitrate, decode losslessly.
    pub fn offline_decode(
        &self,
        source: &VideoSource,
        question: &Question,
        target_bitrate_bps: f64,
        max_frames: usize,
    ) -> (Vec<DecodedFrame>, ContextAwareEncode) {
        let frames = source.sample_frames(max_frames);
        let query = self.query_for_question(question);
        let encode = self.encode_at_bitrate(&frames, &query, source.config().fps, target_bitrate_bps);
        let decoded = encode
            .encoded
            .iter()
            .map(|e| self.decoder.decode_complete(e, None))
            .collect();
        (decoded, encode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::ContextAgnosticBaseline;
    use aivc_mllm::QuestionFormat;
    use aivc_scene::templates::basketball_game;
    use aivc_scene::SourceConfig;

    fn source() -> VideoSource {
        VideoSource::new(basketball_game(1), SourceConfig::fps30(10.0))
    }

    fn logo_question() -> Question {
        Question::from_fact(&basketball_game(1).facts[1], QuestionFormat::FreeResponse)
    }

    #[test]
    fn qp_map_is_low_on_evidence_and_high_on_background() {
        let streamer = ContextAwareStreamer::default();
        let frame = source().frame(0);
        let question = logo_question();
        let query = streamer.query_for_question(&question);
        let qp_map = streamer.qp_map_for(&frame, &query);
        let grid = streamer.encoder().grid_for(&frame);
        // The jersey-logo evidence region (object 3) sits around (880, 420, 90, 60).
        let logo_cell = (420 / 64, 880 / 64);
        let background_cell = (1000 / 64, 1800 / 64);
        let qp_logo = qp_map.get(logo_cell.0, logo_cell.1).value();
        let qp_bg = qp_map.get(background_cell.0, background_cell.1).value();
        assert!(
            qp_logo + 12 <= qp_bg,
            "logo QP {qp_logo} vs background QP {qp_bg}"
        );
        assert!(
            qp_logo < 20,
            "evidence region should get a near-lossless QP, got {qp_logo}"
        );
        assert_eq!(qp_map.dims(), grid);
    }

    #[test]
    fn bitrate_matching_reaches_target() {
        let streamer = ContextAwareStreamer::default();
        let frames = source().sample_frames(6);
        let query = streamer.query_for_question(&logo_question());
        for target in [430_000.0, 850_000.0] {
            let encode = streamer.encode_at_bitrate(&frames, &query, 30.0, target);
            let err = (encode.achieved_bitrate_bps - target).abs() / target;
            assert!(
                err < 0.5,
                "target {target}: achieved {}",
                encode.achieved_bitrate_bps
            );
        }
    }

    #[test]
    fn at_matched_bitrate_evidence_region_gets_more_bits_than_baseline() {
        // The Figure 10 claim: similar total bitrate, but ours concentrates bits on the
        // chat-important regions.
        let streamer = ContextAwareStreamer::default();
        let baseline = ContextAgnosticBaseline::default();
        let frames = source().sample_frames(4);
        let question = logo_question();
        let query = streamer.query_for_question(&question);
        let target = 450_000.0;
        let ours = streamer.encode_at_bitrate(&frames, &query, 30.0, target);
        let theirs = baseline.encode_at_bitrate(&frames, 30.0, target);
        // Bits spent on the logo object (id 3) in the first frame.
        let ours_logo = ours.encoded[0].bits_on_object(3, 0.05);
        let theirs_logo = theirs.encoded[0].bits_on_object(3, 0.05);
        assert!(
            ours_logo > theirs_logo * 2,
            "ours {ours_logo} bits vs baseline {theirs_logo} bits on the logo"
        );
        // And total bitrates stay comparable.
        let ratio = ours.achieved_bitrate_bps / theirs.achieved_bitrate_bps;
        assert!(ratio > 0.6 && ratio < 1.7, "bitrate ratio {ratio}");
    }

    #[test]
    fn empty_query_degrades_to_near_uniform_map() {
        let streamer = ContextAwareStreamer::default();
        let frame = source().frame(0);
        let query = TextQuery::from_words("xyzzy", streamer.clip_model().ontology());
        let qp_map = streamer.qp_map_for(&frame, &query);
        assert_eq!(qp_map.min_qp(), qp_map.max_qp());
    }

    #[test]
    fn offline_decode_is_deterministic() {
        let streamer = ContextAwareStreamer::default();
        let question = logo_question();
        let a = streamer.offline_decode(&source(), &question, 500_000.0, 4);
        let b = streamer.offline_decode(&source(), &question, 500_000.0, 4);
        assert_eq!(a.0, b.0);
        assert_eq!(a.1.qp_offset, b.1.qp_offset);
    }
}
