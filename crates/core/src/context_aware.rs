//! The §3.2 sender: user words → CLIP correlation (Eq. 1) → Eq. 2 QP map → trial-and-error
//! bitrate match → ROI encode, with "no context" — one uniform QP chosen by the same match —
//! as its degenerate case ([`StreamingMode::Baseline`], the method Figures 9 and 10 compare
//! against).
//!
//! [`Streamer`] is the only sender in the tree, and its two steps are the only places that
//! branch on the mode:
//!
//! 1. `plan_frame` — context-aware: run (Mobile-)CLIP over the frame and the user's words
//!    for the per-patch correlation ρ_mn (Eq. 1), map it to per-CTU QPs with Eq. 2 (γ = 3)
//!    and prepare the frame's [`RatePlan`] on that map; baseline: prepare the plan alone;
//! 2. `encode_at_level` — because the raw Eq. 2 map lands at whatever bitrate it lands at,
//!    the match finds one *level* (a uniform offset on the map; for the baseline the
//!    uniform QP itself) and the frame is coded once at it, from the plan the match probed.
//!
//! Between the two sits the one search of the tree ([`Encoder::search_rate_plans`]); what
//! differs between callers is the unit matched. A [`crate::Conversation`] runs the steps per
//! capture around [`Encoder::search_rate_plan`], so every frame meets its own budget;
//! [`Streamer::encode_at_bitrate`] — the offline Figure 9 / Figure 10 form — runs them
//! around one search over a whole frame set, so the set's *mean* rate hits the target.

use crate::allocator::{QpAllocator, QpAllocatorConfig};
use crate::net_session::{capture_fps_is_valid, rate_bps_is_valid};
use crate::net_turn::EMPTY_TURN_WINDOW;
use crate::session::StreamingMode;
use aivc_mllm::Question;
use aivc_scene::{Frame, VideoSource};
use aivc_semantics::{ClipConfig, ClipModel, ClipScratch, TextQuery};
use aivc_videocodec::{
    DecodedFrame, Decoder, EncodeScratch, EncodedFrame, Encoder, EncoderConfig, Qp, QpMap, RatePlan,
};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Configuration of the sender. With the [`ClipModel`] handed to [`Streamer::new`] it is
/// everything a sender is built from, and two values in all: γ here, the patch size there
/// (DESIGN.md §3c, "what a sender can be built with").
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct StreamerConfig {
    /// Eq. 2's temperature (default: the paper's γ = 3).
    pub allocator: QpAllocatorConfig,
    /// Field-less: the encoder's settings are constants of `aivc_videocodec`.
    pub encoder: EncoderConfig,
}

/// A set of frames coded at one matched level.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatchedEncode {
    /// What the trial-and-error match settled on: the uniform offset applied on top of the
    /// Eq. 2 maps (context-aware, `-51..=51`) or the uniform QP itself (baseline, `0..=51`).
    pub level: i32,
    /// Achieved mean bitrate over the encoded frames, in bits per second.
    pub achieved_bitrate_bps: f64,
    /// The encoded frames.
    pub encoded: Vec<EncodedFrame>,
}

/// The two QP maps a frame passes through on its way to the encoder.
#[derive(Debug, Clone)]
pub(crate) struct QpMaps {
    /// The frame's Eq. 2 map — what `plan_frame` leaves (untouched in baseline mode).
    eq2: QpMap,
    /// The map the one real encode runs on, refilled by `encode_at_level`.
    at_level: QpMap,
}

impl Default for QpMaps {
    fn default() -> Self {
        Self {
            eq2: QpMap::empty(),
            at_level: QpMap::empty(),
        }
    }
}

/// The §3.2 sender, in either mode.
#[derive(Debug, Clone)]
pub struct Streamer {
    mode: StreamingMode,
    /// Immutable after construction, so a fleet or contention run builds one and shares it.
    clip_model: Arc<ClipModel>,
    allocator: QpAllocator,
    encoder: Encoder,
}

impl Streamer {
    /// Creates a sender.
    ///
    /// # Panics
    ///
    /// Panics with [`QpAllocator::try_new`]'s error when γ is not finite and positive. (The
    /// other value, the patch size, was checked when the model was built.)
    pub fn new(mode: StreamingMode, config: StreamerConfig, clip_model: Arc<ClipModel>) -> Self {
        // Everything a sender can be built with, destructured without `..`: a new field does
        // not compile until DESIGN.md §3c's sender table names the two callers that need it
        // to differ.
        let StreamerConfig {
            allocator: allocator @ QpAllocatorConfig { gamma: _ },
            encoder: encoder @ EncoderConfig {},
        } = config;
        let ClipConfig { patch_size: _ } = clip_model.config();
        Self {
            mode,
            clip_model,
            allocator: QpAllocator::new(allocator),
            encoder: Encoder::new(encoder),
        }
    }

    /// A sender with the paper's defaults: γ = 3 allocator, Mobile-CLIP at 64-px patches.
    pub fn with_defaults(mode: StreamingMode) -> Self {
        Self::new(
            mode,
            StreamerConfig::default(),
            Arc::new(ClipModel::mobile_default()),
        )
    }

    /// The mode.
    pub fn mode(&self) -> StreamingMode {
        self.mode
    }

    /// The encoder (the same in both modes, for fairness).
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

    /// Eq. 1 then Eq. 2: the CLIP-informed QP map of `frame` on the encoder's grid.
    fn eq2_map_into(&self, frame: &Frame, query: &TextQuery, clip: &mut ClipScratch, out: &mut QpMap) {
        let importance = self.clip_model.correlation_map_coherent(frame, query, clip);
        self.allocator
            .allocate_into(importance, self.encoder.grid_for(frame), out);
    }

    /// The CLIP-informed QP map a context-aware sender starts from (the Figure 10(c)
    /// artifact), before any bitrate match.
    pub fn qp_map_for(&self, frame: &Frame, query: &TextQuery) -> QpMap {
        let mut map = QpMap::empty();
        self.eq2_map_into(frame, query, &mut ClipScratch::new(), &mut map);
        map
    }

    /// Step 1: prepares `plan` for `frame` — on the frame's Eq. 2 map (left in `maps`) when
    /// context-aware, bare otherwise. `clip` and `plan` may carry the previous capture; both
    /// then refresh only what moved, to the same bits as fresh ones. The baseline reads
    /// neither `query` nor `clip`.
    pub(crate) fn plan_frame(
        &self,
        frame: &Frame,
        query: &TextQuery,
        clip: &mut ClipScratch,
        maps: &mut QpMaps,
        plan: &mut RatePlan,
    ) {
        match self.mode {
            StreamingMode::ContextAware => {
                self.eq2_map_into(frame, query, clip, &mut maps.eq2);
                self.encoder.prepare_rate_plan(frame, Some(&maps.eq2), plan);
            }
            StreamingMode::Baseline => self.encoder.prepare_rate_plan(frame, None, plan),
        }
    }

    /// Step 2: the one real encode of a planned frame, at the `level` the match over `plan`
    /// settled on. `encode_into_planned` reuses the raster the plan holds for this frame —
    /// bit-identical to `encode_into`, one rasterization cheaper.
    pub(crate) fn encode_at_level(
        &self,
        frame: &Frame,
        level: i32,
        maps: &mut QpMaps,
        plan: &RatePlan,
        scratch: &mut EncodeScratch,
        out: &mut EncodedFrame,
    ) {
        match self.mode {
            StreamingMode::ContextAware => maps.eq2.offset_all_into(level, &mut maps.at_level),
            StreamingMode::Baseline => maps.at_level.fill_uniform(plan.dims(), Qp::new(level)),
        }
        self.encoder
            .encode_into_planned(frame, &maps.at_level, plan, scratch, out);
    }

    /// Encodes `frames` at the one level at which their actual mean bitrate at `fps` best
    /// matches `target_bitrate_bps` (trial and error, §3.2): one plan per frame, one search
    /// over the set (coded bits never grow with the level), one encode per frame from the
    /// plan the probes summed — so the rate the search predicted is the rate coded.
    ///
    /// # Panics
    ///
    /// Panics, before any plan is built, on an empty frame set, an `fps` outside
    /// `1e-6..=1e6` or a target that is not a positive rate up to 1e12 bps — the bounds
    /// [`crate::NetSessionOptions::validate`] holds `capture_fps` and the ABR's rates to.
    pub fn encode_at_bitrate(
        &self,
        frames: &[Frame],
        query: &TextQuery,
        fps: f64,
        target_bitrate_bps: f64,
    ) -> MatchedEncode {
        assert!(!frames.is_empty(), "{EMPTY_TURN_WINDOW}");
        assert!(
            capture_fps_is_valid(fps),
            "fps must be within 1e-6..=1e6 frames per second, got {fps}"
        );
        assert!(
            rate_bps_is_valid(target_bitrate_bps),
            "target_bitrate_bps must be positive and at most 1e12 bits per second, got {target_bitrate_bps}"
        );
        // One CLIP scratch across the set: the query is encoded once and consecutive frames
        // recompute only the patches object motion dirtied.
        let mut clip = ClipScratch::new();
        let mut maps = vec![QpMaps::default(); frames.len()];
        let mut plans = vec![RatePlan::new(); frames.len()];
        for ((frame, maps), plan) in frames.iter().zip(&mut maps).zip(&mut plans) {
            self.plan_frame(frame, query, &mut clip, maps, plan);
        }
        let level = self
            .encoder
            .search_rate_plans(&plans, fps, target_bitrate_bps, None)
            .level;
        let mut scratch = EncodeScratch::new();
        let encoded: Vec<EncodedFrame> = frames
            .iter()
            .zip(&mut maps)
            .zip(&plans)
            .map(|((frame, maps), plan)| {
                let mut out = EncodedFrame::placeholder();
                self.encode_at_level(frame, level, maps, plan, &mut scratch, &mut out);
                out
            })
            .collect();
        let achieved_bitrate_bps =
            encoded.iter().map(|e| e.total_bits()).sum::<u64>() as f64 / encoded.len() as f64 * fps;
        MatchedEncode {
            level,
            achieved_bitrate_bps,
            encoded,
        }
    }

    /// Encodes the MLLM-visible frames of a clip (≤ `max_frames`, spread over the clip) at a
    /// matched bitrate and decodes them losslessly (no transport), for offline evaluation.
    pub fn offline_decode(
        &self,
        source: &VideoSource,
        question: &Question,
        target_bitrate_bps: f64,
        max_frames: usize,
    ) -> (Vec<DecodedFrame>, MatchedEncode) {
        let frames = source.sample_frames(max_frames);
        let query = self.query_for_question(question);
        let encode = self.encode_at_bitrate(&frames, &query, source.config().fps, target_bitrate_bps);
        let decoder = Decoder::new();
        let decoded = encode
            .encoded
            .iter()
            .map(|e| decoder.decode_complete(e, None))
            .collect();
        (decoded, encode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aivc_mllm::QuestionFormat;
    use aivc_scene::templates::basketball_game;
    use aivc_scene::SourceConfig;
    use StreamingMode::{Baseline, ContextAware};

    fn source() -> VideoSource {
        VideoSource::new(basketball_game(1), SourceConfig::fps30(10.0))
    }

    fn question(fact: usize) -> Question {
        Question::from_fact(&basketball_game(1).facts[fact], QuestionFormat::FreeResponse)
    }

    /// The jersey-logo question: a small evidence region (object 3).
    fn logo_question() -> Question {
        question(1)
    }

    /// Both senders on one model, context-aware first.
    fn both_modes() -> [Streamer; 2] {
        let model = Arc::new(ClipModel::mobile_default());
        [ContextAware, Baseline]
            .map(|mode| Streamer::new(mode, StreamerConfig::default(), Arc::clone(&model)))
    }

    #[test]
    fn qp_map_is_low_on_evidence_and_high_on_background() {
        let streamer = Streamer::with_defaults(ContextAware);
        let frame = source().frame(0);
        let query = streamer.query_for_question(&logo_question());
        let qp_map = streamer.qp_map_for(&frame, &query);
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
        assert_eq!(qp_map.dims(), streamer.encoder().grid_for(&frame));
    }

    #[test]
    fn empty_query_degrades_to_near_uniform_map() {
        let streamer = Streamer::with_defaults(ContextAware);
        let query = TextQuery::from_words("xyzzy", streamer.clip_model().ontology());
        let qp_map = streamer.qp_map_for(&source().frame(0), &query);
        assert_eq!(qp_map.min_qp(), qp_map.max_qp());
    }

    #[test]
    fn bitrate_matching_reaches_target_in_both_modes() {
        let frames = source().sample_frames(6);
        for streamer in both_modes() {
            let query = streamer.query_for_question(&logo_question());
            for target in [430_000.0, 850_000.0, 2_000_000.0] {
                let encode = streamer.encode_at_bitrate(&frames, &query, 30.0, target);
                let err = (encode.achieved_bitrate_bps - target).abs() / target;
                assert!(
                    err < 0.5,
                    "{:?} target {target}: achieved {}",
                    streamer.mode(),
                    encode.achieved_bitrate_bps
                );
            }
        }
    }

    #[test]
    fn lower_bitrate_means_a_higher_level_and_lower_quality_in_both_modes() {
        let frames = source().sample_frames(6);
        for streamer in both_modes() {
            let query = streamer.query_for_question(&logo_question());
            let low = streamer.encode_at_bitrate(&frames, &query, 30.0, 430_000.0);
            let high = streamer.encode_at_bitrate(&frames, &query, 30.0, 1_700_000.0);
            assert!(low.level > high.level, "{:?}", streamer.mode());
            assert!(
                low.encoded[0].mean_encoded_quality() < high.encoded[0].mean_encoded_quality(),
                "{:?}",
                streamer.mode()
            );
        }
    }

    #[test]
    fn offline_decode_is_complete_and_deterministic_in_both_modes() {
        for streamer in both_modes() {
            let (decoded, encode) = streamer.offline_decode(&source(), &logo_question(), 850_000.0, 6);
            assert_eq!(decoded.len(), 6);
            assert_eq!(decoded.len(), encode.encoded.len());
            assert!(decoded.iter().all(|d| d.received_fraction() == 1.0));
            let again = streamer.offline_decode(&source(), &logo_question(), 850_000.0, 6);
            assert_eq!((decoded, encode), again, "{:?}", streamer.mode());
        }
    }

    #[test]
    fn at_matched_bitrate_evidence_region_gets_more_bits_than_baseline() {
        // The Figure 10 claim: similar total bitrate, but ours concentrates bits on the
        // chat-important regions.
        let [streamer, baseline] = both_modes();
        let frames = source().sample_frames(4);
        let query = streamer.query_for_question(&logo_question());
        let target = 450_000.0;
        let ours = streamer.encode_at_bitrate(&frames, &query, 30.0, target);
        let theirs = baseline.encode_at_bitrate(&frames, &query, 30.0, target);
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

    /// What lets the Figure 9 loop decode the baseline once per clip: the baseline's encode
    /// is a function of the frames and the rate alone — the query changes no byte of it,
    /// and its CLIP scratch is never written — while the context-aware encode follows it.
    #[test]
    fn the_baseline_ignores_the_query_and_never_touches_its_clip_scratch() {
        let [streamer, baseline] = both_modes();
        let frames = source().sample_frames(3);
        let [score, logo] = [0, 1].map(|fact| baseline.query_for_question(&question(fact)));
        assert_ne!(score, logo);
        assert_eq!(
            baseline.encode_at_bitrate(&frames, &score, 30.0, 430_000.0),
            baseline.encode_at_bitrate(&frames, &logo, 30.0, 430_000.0)
        );
        assert_ne!(
            streamer.encode_at_bitrate(&frames, &score, 30.0, 430_000.0),
            streamer.encode_at_bitrate(&frames, &logo, 30.0, 430_000.0)
        );
        let untouched = format!("{:?}", ClipScratch::new());
        let (mut clip, mut maps, mut plan) = (ClipScratch::new(), QpMaps::default(), RatePlan::new());
        for frame in &frames {
            baseline.plan_frame(frame, &logo, &mut clip, &mut maps, &mut plan);
            assert_eq!(format!("{clip:?}"), untouched);
        }
        streamer.plan_frame(&frames[0], &logo, &mut clip, &mut maps, &mut plan);
        assert_ne!(format!("{clip:?}"), untouched);
    }

    /// The offline entry checks its inputs once, before any plan is built, in both modes:
    /// each of these used to code at the top of the bracket, report a NaN or negative
    /// achieved rate, or fail without a message from inside the search.
    #[test]
    fn encode_at_bitrate_rejects_an_empty_set_and_rates_it_cannot_match() {
        let frames = source().sample_frames(2);
        let (nan, inf) = (f64::NAN, f64::INFINITY);
        let mut cases: Vec<(&[Frame], f64, f64, String)> = vec![
            (&[], 30.0, 430_000.0, EMPTY_TURN_WINDOW.to_string()),
            (&[], nan, nan, EMPTY_TURN_WINDOW.to_string()),
        ];
        cases.extend([nan, -30.0, 0.0, inf, 1.1e6].map(|fps| {
            let message = format!("fps must be within 1e-6..=1e6 frames per second, got {fps}");
            (&frames[..], fps, 430_000.0, message)
        }));
        cases.extend([nan, 0.0, -1.0, inf, 1.1e12].map(|bps| {
            let message =
                format!("target_bitrate_bps must be positive and at most 1e12 bits per second, got {bps}");
            (&frames[..], 30.0, bps, message)
        }));
        for streamer in both_modes() {
            let query = streamer.query_for_question(&logo_question());
            for (frames, fps, target, message) in &cases {
                let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    streamer.encode_at_bitrate(frames, &query, *fps, *target)
                }))
                .expect_err("invalid input must be rejected");
                assert_eq!(
                    panic.downcast_ref::<String>(),
                    Some(message),
                    "{:?} fps {fps} target {target}",
                    streamer.mode()
                );
            }
            // The bounds themselves are accepted, and what comes back is finite.
            for (fps, target) in [(1e-6, 1.0), (1e6, 1e12), (30.0, 5e-324)] {
                let encode = streamer.encode_at_bitrate(&frames, &query, fps, target);
                assert!(encode.achieved_bitrate_bps.is_finite() && encode.achieved_bitrate_bps > 0.0);
            }
        }
    }
}
