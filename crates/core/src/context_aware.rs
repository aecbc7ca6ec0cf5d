//! The §3.2 sender: user words → CLIP correlation (Eq. 1) → Eq. 2 QP map → trial-and-error
//! bitrate match → ROI encode, with "no context" — one uniform QP chosen by the same match —
//! as its degenerate case ([`StreamingMode::Baseline`], the method Figures 9 and 10 compare
//! against).
//!
//! [`Streamer`] is the only sender in the tree, and its first step is the only place that
//! branches on the mode:
//!
//! 1. `plan_frame` — prepare the frame's [`RatePlan`] (which rasterizes the capture onto
//!    the CTU grid); context-aware, also run (Mobile-)CLIP over that raster and the user's
//!    words for the per-patch correlation ρ_mn (Eq. 1) — N = 64, so patches are CTUs — map
//!    it to per-CTU QPs with Eq. 2 (γ = 3) and set that map as the plan's base;
//! 2. [`Encoder::encode_at_level`] — because the raw Eq. 2 map lands at whatever bitrate it
//!    lands at, the match finds one *level* (a uniform offset on the plan's base; for the
//!    baseline, whose plan has none, the uniform QP itself) and the frame is coded once at
//!    it, from the plan the match probed. The plan alone knows which, so this step does not
//!    branch on the mode.
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
use aivc_scene::grid_content::GridContent;
use aivc_scene::{Frame, VideoSource};
use aivc_semantics::{ClipConfig, ClipMemo, ClipModel, ClipWork, TextQuery};
use aivc_videocodec::encoder::BLOCK_SIZE;
use aivc_videocodec::{DecodedFrame, Decoder, EncodedFrame, Encoder, EncoderConfig, QpMap, RatePlan};
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

/// What a context-aware sender carries from one capture to the next besides its rate plan:
/// the Eq. 1 memo, and the patch-grid raster of a model whose patches are not the CTUs —
/// never built for the paper's 64-px model, which reads the plan's raster.
#[derive(Debug, Clone, Default)]
pub(crate) struct ClipState {
    memo: ClipMemo,
    patch_raster: Option<Box<GridContent>>,
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

    /// A copy of this sender in `mode`. A server or contention run builds one sender (its
    /// model handle and Eq. 2 table) and every member copies it in its own mode.
    pub(crate) fn clone_in_mode(&self, mode: StreamingMode) -> Self {
        Self { mode, ..self.clone() }
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

    /// The CLIP-informed QP map a context-aware sender starts from (the Figure 10(c)
    /// artifact), before any bitrate match.
    pub fn qp_map_for(&self, frame: &Frame, query: &TextQuery) -> QpMap {
        let mut map = QpMap::empty();
        let importance = self.clip_model.correlation_map(frame, query);
        self.allocator
            .allocate_into(&importance, self.encoder.grid_for(frame), &mut map);
        map
    }

    /// Step 1: prepares `plan` for `frame` and, when context-aware, writes the frame's
    /// Eq. 2 QPs into the plan's base. The plan's raster is the one raster of the capture:
    /// Eq. 1 reads it when the model's patches are the CTUs (the paper's N = 64); a model
    /// on another patch grid reads `clip`'s own raster instead, which a 64-px sender never
    /// builds. `clip` and `plan` may carry the previous capture;
    /// both then refresh only what moved, to the same bits as fresh ones. The baseline
    /// reads none of `query`, `clip` and `work`.
    pub(crate) fn plan_frame(
        &self,
        frame: &Frame,
        query: &TextQuery,
        clip: &mut ClipState,
        work: &mut ClipWork,
        plan: &mut RatePlan,
    ) {
        self.encoder.prepare_rate_plan(frame, None, plan);
        match self.mode {
            StreamingMode::ContextAware => {
                let patch_size = self.clip_model.config().patch_size;
                let raster = if patch_size == BLOCK_SIZE {
                    plan.raster()
                } else {
                    let raster = clip.patch_raster.get_or_insert_with(Box::default);
                    raster.update(frame, patch_size);
                    raster
                };
                let importance =
                    self.clip_model
                        .correlation_map_on_raster(raster, frame, query, &mut clip.memo, work);
                let dims = plan.dims();
                plan.set_base_qps(|qps| {
                    self.allocator
                        .qps_into(importance, dims, |qp| qps.push(qp.value()))
                });
            }
            StreamingMode::Baseline => {}
        }
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
        // One plan brought forward across the set and copied out per frame, and one CLIP
        // memo reading its raster: the query is encoded once and consecutive frames
        // recompute only the patches object motion dirtied.
        let (mut clip, mut work) = (ClipState::default(), ClipWork::new());
        let mut running = RatePlan::new();
        let plans: Vec<RatePlan> = frames
            .iter()
            .map(|frame| {
                self.plan_frame(frame, query, &mut clip, &mut work, &mut running);
                running.clone()
            })
            .collect();
        let level = self
            .encoder
            .search_rate_plans(&plans, fps, target_bitrate_bps, None)
            .level;
        let encoded: Vec<EncodedFrame> = frames
            .iter()
            .zip(&plans)
            .map(|(frame, plan)| {
                let mut out = EncodedFrame::placeholder();
                self.encoder.encode_at_level(frame, plan, level, &mut out);
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
    use crate::{Conversation, NetSessionOptions};
    use aivc_mllm::QuestionFormat;
    use aivc_netsim::PathConfig;
    use aivc_scene::templates::basketball_game;
    use aivc_scene::{Ontology, SourceConfig};
    use aivc_sim::SimDuration;
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
    /// and its CLIP state and work buffers are never written — while the context-aware
    /// encode follows it.
    #[test]
    fn the_baseline_ignores_the_query_and_never_touches_its_clip_state() {
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
        let untouched = format!("{:?}", (ClipState::default(), ClipWork::new()));
        let (mut clip, mut work) = (ClipState::default(), ClipWork::new());
        let mut plan = RatePlan::new();
        for frame in &frames {
            baseline.plan_frame(frame, &logo, &mut clip, &mut work, &mut plan);
            assert_eq!(format!("{:?}", (&clip, &work)), untouched);
        }
        streamer.plan_frame(&frames[0], &logo, &mut clip, &mut work, &mut plan);
        assert_ne!(format!("{:?}", (&clip, &work)), untouched);
    }

    /// The one-raster rule: a capture planned by a 64-px sender updates the plan's raster
    /// exactly once and no other — CLIP reads it, and the sender's own patch raster is never
    /// built — while a 32-px sender updates its patch raster once next to it. Either way the
    /// plan's base is the Eq. 2 map a fresh scratch computes: coded at level 0, every block
    /// carries that map's QP.
    #[test]
    fn a_64_px_capture_updates_one_raster_and_a_32_px_capture_two() {
        let model = |patch_size| Arc::new(ClipModel::new(ClipConfig { patch_size }, Ontology::standard()));
        let frames = source().sample_frames(6);
        for patch_size in [64, 32] {
            let streamer = Streamer::new(ContextAware, StreamerConfig::default(), model(patch_size));
            let query = streamer.query_for_question(&logo_question());
            let (mut clip, mut work) = (ClipState::default(), ClipWork::new());
            let (mut plan, mut encoded) = (RatePlan::new(), EncodedFrame::placeholder());
            for (index, frame) in frames.iter().enumerate() {
                // A raster not built yet reads as generation 0, as a fresh one does.
                let patch = clip.patch_raster.as_ref().map_or(0, |raster| raster.generation());
                let before = (plan.raster().generation(), patch);
                streamer.plan_frame(frame, &query, &mut clip, &mut work, &mut plan);
                let what = format!("{patch_size} px, frame {index}");
                assert!(plan.raster().follows(before.0), "{what}: plan raster");
                if patch_size == BLOCK_SIZE {
                    assert!(clip.patch_raster.is_none(), "{what}: patch raster built");
                } else {
                    let raster = clip.patch_raster.as_ref().expect("a 32-px sender's raster");
                    assert!(raster.follows(before.1), "{what}: patch raster");
                }
                streamer.encoder().encode_at_level(frame, &plan, 0, &mut encoded);
                let base: Vec<_> = encoded.blocks.iter().map(|block| block.qp).collect();
                assert_eq!(
                    base,
                    streamer.qp_map_for(frame, &query).values(),
                    "{what}: Eq. 2 map"
                );
            }
        }
    }

    /// FNV-1a of a conversation report's `Debug` rendering.
    fn report_digest(report: &crate::ConversationReport) -> u64 {
        format!("{report:?}")
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325, |hash, b| {
                (hash ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
            })
    }

    /// Three lossy turns of a 32-px and a 64-px conversation report exactly what they did
    /// while CLIP owned a raster of its own (digests taken at that commit): sharing the
    /// plan's raster moved no bit, on the shared grid or off it.
    #[test]
    fn conversations_at_either_patch_size_report_what_they_did_with_two_rasters() {
        for (patch_size, digest) in [(32, 0x1aaa_0fc4_b1d3_34bd), (64, 0xe23b_f854_212a_1cf3)] {
            let model = ClipModel::new(ClipConfig { patch_size }, Ontology::standard());
            let mut options = NetSessionOptions::ai_oriented(5, PathConfig::paper_section_2_2(0.01));
            options.capture_fps = 8.0;
            let mut conversation = Conversation::new(
                options,
                StreamerConfig::default(),
                model,
                SimDuration::from_millis(300),
            );
            let clip = source();
            for turn in 0..3usize {
                let frames: Vec<Frame> = (0..4)
                    .map(|i| clip.frame(((turn * 4 + i) * 11 % 290) as u64))
                    .collect();
                conversation.run_turn(&frames, &question(turn % 2));
            }
            assert_eq!(report_digest(&conversation.report()), digest, "{patch_size} px");
        }
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
