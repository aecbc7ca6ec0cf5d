//! The encoder: scene frame + QP map → [`EncodedFrame`].
//!
//! Mirrors the one Kvazaar configuration the paper's prototype runs — 64-px CTUs, a
//! periodic GOP, the medium preset — and the one control its experiments turn: an
//! externally supplied per-CTU QP map (Kvazaar's `--roi` style control), which is how
//! Context-Aware Video Streaming injects its CLIP-informed allocation (§3.2).

use crate::frame::{EncodedBlock, EncodedFrame};
use crate::gop;
use crate::qp::{Qp, QpMap};
use crate::rate_plan::{plan_chunk_bytes, RatePlan, RATE_LANES};
use crate::rd;
use aivc_scene::{Frame, GridDims};
use serde::{Deserialize, Serialize};

/// Number of distinct QP values ([`Qp`] is clamped to `0..=51`), i.e. the size of the
/// per-encoder QP-factor lookup table.
const QP_TABLE: usize = 52;

/// CTU edge length in pixels (HEVC's default).
pub const BLOCK_SIZE: u32 = 64;
/// Per-frame header overhead in bytes (SPS/PPS amortized + slice headers).
pub const HEADER_BYTES: u32 = 120;
/// Per-frame encode latency on the reference device, in microseconds (1080p
/// hardware-assisted encode is a few milliseconds) — read by the latency budget.
pub const ENCODE_LATENCY_US: u64 = 4_000;

/// What an [`Encoder`] is built from: nothing — block size, GOP, header size, encode latency
/// and the rate–distortion model are constants ([`BLOCK_SIZE`], [`gop::GOP_LENGTH`],
/// [`HEADER_BYTES`], [`ENCODE_LATENCY_US`], [`crate::rd`]). The type remains because the
/// benchmark's replay builds `Encoder::new(config.encoder)`.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct EncoderConfig {}

/// Reusable buffers for [`Encoder::encode_into`].
///
/// Every encode walks a [`RatePlan`]; [`Encoder::encode_into`], which is not handed one,
/// prepares this scratch-owned plan, whose buffers (and the caller's output frame) are
/// refilled in place, so after one encode of a frame geometry the encode path performs no
/// heap allocation.
#[derive(Debug, Clone, Default)]
pub struct EncodeScratch {
    /// The plan [`Encoder::encode_into`] prepares for its frame, built by its first call.
    /// [`Encoder::encode_into_planned`] walks its caller's instead, so a scratch only ever
    /// handed to it stays empty.
    plan: Option<Box<RatePlan>>,
}

impl EncodeScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The encoder.
#[derive(Debug, Clone)]
pub struct Encoder {
    /// `qp_factors[qp] == rd::qp_factor(qp)` for every representable QP — the rate law's
    /// only transcendental, hoisted out of the per-block loop into a 52-entry table.
    qp_factors: [f64; QP_TABLE],
}

impl Encoder {
    /// Creates the encoder.
    pub fn new(_config: EncoderConfig) -> Self {
        let mut qp_factors = [0.0; QP_TABLE];
        for (qp, factor) in qp_factors.iter_mut().enumerate() {
            *factor = rd::qp_factor(Qp::new(qp as i32));
        }
        Self { qp_factors }
    }

    /// The hoisted 52-entry `qp_factors` table (`qp_factors[qp] == rd::qp_factor(qp)`),
    /// read by every rate-plan probe and by the encode walk.
    pub(crate) fn qp_factor_table(&self) -> &[f64; QP_TABLE] {
        &self.qp_factors
    }

    /// The CTU grid an encode of `frame` will use.
    pub fn grid_for(&self, frame: &Frame) -> GridDims {
        GridDims::for_frame(frame.width, frame.height, BLOCK_SIZE)
    }

    /// Encodes `frame` with a per-CTU QP map (whose grid must match [`Encoder::grid_for`])
    /// into a caller-owned frame buffer: prepares the scratch's plan for `frame` and walks
    /// it as [`Encoder::encode_into_planned`] does. `out` is refilled in place (its block vector
    /// and coverage table keep their capacity), so after warmup — one encode of each frame
    /// geometry — an encode performs zero heap allocations, whether or not the frame's
    /// content moved.
    pub fn encode_into(
        &self,
        frame: &Frame,
        qp_map: &QpMap,
        scratch: &mut EncodeScratch,
        out: &mut EncodedFrame,
    ) {
        let plan = scratch.plan.get_or_insert_with(Box::default);
        self.prepare_rate_plan(frame, None, plan);
        self.encode_map(frame, qp_map, plan, out);
    }

    /// Encodes `frame` with `qp_map` from the [`RatePlan`] a rate-control caller already
    /// prepared for it ([`Encoder::prepare_rate_plan`]): content descriptors and the
    /// coverage table come from the plan's raster, and every block's byte count from the
    /// plan's rate coefficients through the kernel the probes sum — so the size a probe
    /// predicted for this map is the size this encode produces. The plan must be the one
    /// prepared for this very frame. The scratch is not read.
    pub fn encode_into_planned(
        &self,
        frame: &Frame,
        qp_map: &QpMap,
        plan: &RatePlan,
        _scratch: &mut EncodeScratch,
        out: &mut EncodedFrame,
    ) {
        self.encode_map(frame, qp_map, plan, out);
    }

    /// The walk at the QPs of `qp_map`.
    fn encode_map(&self, frame: &Frame, qp_map: &QpMap, plan: &RatePlan, out: &mut EncodedFrame) {
        assert_eq!(
            qp_map.dims(),
            self.grid_for(frame),
            "QP map grid does not match frame grid"
        );
        let qps = qp_map.values();
        self.encode_walk(frame, plan, |index| qps[index], out);
    }

    /// Encodes `frame` from its prepared `plan` at the `level` a rate search over that plan
    /// settled on: every block at its base QP plus `level`, clamped, when the plan has a
    /// base map ([`RatePlan::set_base_qps`]), or at the uniform QP `level` without one —
    /// the assignments [`Encoder::predict_plan_offset_size`] and
    /// [`Encoder::predict_plan_uniform_size`] price, so the encode is the size its probe
    /// predicted, and no QP map is built.
    pub fn encode_at_level(&self, frame: &Frame, plan: &RatePlan, level: i32, out: &mut EncodedFrame) {
        match plan.base_qps() {
            Some(base) => self.encode_walk(frame, plan, |index| Qp::new(base[index] as i32 + level), out),
            None => {
                let qp = Qp::new(level);
                self.encode_walk(frame, plan, |_| qp, out)
            }
        }
    }

    /// The one block walk behind every encode entry point: block `index` is coded at
    /// `qp_at(index)`.
    fn encode_walk(
        &self,
        frame: &Frame,
        plan: &RatePlan,
        qp_at: impl Fn(usize) -> Qp,
        out: &mut EncodedFrame,
    ) {
        let dims = self.grid_for(frame);
        let frame_type = gop::frame_type(frame.index);
        assert_eq!(
            plan.dims(),
            dims,
            "rate plan was prepared for a different frame grid"
        );
        assert_eq!(
            plan.stamp(),
            (frame.index, frame.capture_ts_us, frame_type),
            "rate plan is stale: it was prepared for another frame"
        );
        let grid = plan.raster();
        let detail = grid.detail();

        out.coverage.copy_from(grid.coverage_table());
        out.blocks.clear();
        out.blocks.reserve(dims.len());
        let mut qps = [Qp::new(0); RATE_LANES];
        let mut factors = [0.0f64; RATE_LANES];
        let mut bytes = [0u32; RATE_LANES];
        for first in (0..dims.len()).step_by(RATE_LANES) {
            let width = RATE_LANES.min(dims.len() - first);
            for lane in 0..width {
                qps[lane] = qp_at(first + lane);
                factors[lane] = self.qp_factors[qps[lane].value() as usize];
            }
            plan_chunk_bytes(plan, first, &factors[..width], &mut bytes);
            out.blocks.extend((0..width).map(|lane| EncodedBlock {
                byte_len: bytes[lane],
                qp: qps[lane],
                detail: detail[first + lane],
            }));
        }

        out.frame_index = frame.index;
        out.capture_ts_us = frame.capture_ts_us;
        out.frame_type = frame_type;
        out.width = frame.width;
        out.height = frame.height;
        out.block_size = BLOCK_SIZE;
        out.grid_cols = dims.cols;
        out.grid_rows = dims.rows;
        out.header_bytes = HEADER_BYTES;
    }

    /// Encodes a frame at a single, uniform QP (the context-agnostic baseline) into a fresh
    /// [`EncodedFrame`] — the one-shot form for offline callers; per-frame loops hold an
    /// [`EncodeScratch`] and an output buffer and call [`Encoder::encode_into`].
    pub fn encode_uniform(&self, frame: &Frame, qp: Qp) -> EncodedFrame {
        let mut out = EncodedFrame::placeholder();
        let map = QpMap::uniform(self.grid_for(frame), qp);
        self.encode_into(frame, &map, &mut EncodeScratch::new(), &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameType;
    use aivc_scene::templates::basketball_game;
    use aivc_scene::{SourceConfig, VideoSource};

    /// `encode_into` through a fresh scratch and output.
    fn encode(enc: &Encoder, frame: &Frame, map: &QpMap) -> EncodedFrame {
        let mut out = EncodedFrame::placeholder();
        enc.encode_into(frame, map, &mut EncodeScratch::new(), &mut out);
        out
    }

    fn test_frame() -> Frame {
        let source = VideoSource::new(basketball_game(1), SourceConfig::fps30(10.0));
        source.frame(0)
    }

    #[test]
    fn encode_produces_one_block_per_grid_cell() {
        let enc = Encoder::new(EncoderConfig::default());
        let frame = test_frame();
        let dims = enc.grid_for(&frame);
        let encoded = enc.encode_uniform(&frame, Qp::new(32));
        assert_eq!(encoded.blocks.len(), dims.len());
        assert_eq!(encoded.grid_cols, dims.cols);
        assert_eq!(encoded.grid_rows, dims.rows);
    }

    #[test]
    fn higher_qp_means_smaller_frame_and_lower_quality() {
        let enc = Encoder::new(EncoderConfig::default());
        let frame = test_frame();
        let q20 = enc.encode_uniform(&frame, Qp::new(20));
        let q40 = enc.encode_uniform(&frame, Qp::new(40));
        assert!(q20.total_bytes() > q40.total_bytes() * 3);
        assert!(q20.mean_encoded_quality() > q40.mean_encoded_quality());
    }

    #[test]
    fn intra_frame_is_larger_than_inter_frame() {
        let enc = Encoder::new(EncoderConfig::default());
        let source = VideoSource::new(basketball_game(1), SourceConfig::fps30(10.0));
        let intra = enc.encode_uniform(&source.frame(0), Qp::new(32));
        let inter = enc.encode_uniform(&source.frame(1), Qp::new(32));
        assert_eq!(intra.frame_type, FrameType::Intra);
        assert_eq!(inter.frame_type, FrameType::Inter);
        assert!(intra.total_bytes() > inter.total_bytes() * 2);
    }

    #[test]
    fn roi_qp_map_shifts_bits_not_total() {
        let enc = Encoder::new(EncoderConfig::default());
        let frame = test_frame();
        let dims = enc.grid_for(&frame);
        // Build a map: left half QP 24 (good), right half QP 45 (poor).
        let mut map = QpMap::uniform(dims, Qp::new(45));
        for row in 0..dims.rows {
            for col in 0..dims.cols / 2 {
                map.set(row, col, Qp::new(24));
            }
        }
        let roi = encode(&enc, &frame, &map);
        let uniform = enc.encode_uniform(&frame, Qp::new(32));
        // Left-half blocks should hold far more bytes than right-half blocks.
        let left: u64 = roi
            .blocks
            .iter()
            .enumerate()
            .filter(|(index, _)| (*index as u32 % dims.cols) < dims.cols / 2)
            .map(|(_, b)| b.byte_len as u64)
            .sum();
        let right: u64 = roi
            .blocks
            .iter()
            .enumerate()
            .filter(|(index, _)| (*index as u32 % dims.cols) >= dims.cols / 2)
            .map(|(_, b)| b.byte_len as u64)
            .sum();
        assert!(left > right * 4, "left {left} right {right}");
        // And total size should land in the same order of magnitude as the uniform encode.
        let ratio = roi.total_bytes() as f64 / uniform.total_bytes() as f64;
        assert!(ratio > 0.4 && ratio < 2.5, "ratio {ratio}");
    }

    #[test]
    fn capture_timestamp_is_propagated() {
        let enc = Encoder::new(EncoderConfig::default());
        let source = VideoSource::new(basketball_game(1), SourceConfig::fps30(10.0));
        let frame = source.frame(17);
        let encoded = enc.encode_uniform(&frame, Qp::new(32));
        assert_eq!(encoded.capture_ts_us, frame.capture_ts_us);
        assert_eq!(encoded.frame_index, 17);
    }

    #[test]
    fn encode_into_through_a_reused_scratch_equals_a_fresh_encode() {
        let enc = Encoder::new(EncoderConfig::default());
        let source = VideoSource::new(basketball_game(1), SourceConfig::fps30(10.0));
        let mut scratch = EncodeScratch::new();
        let mut out = EncodedFrame::placeholder();
        // Consecutive frames, a jump and a revisit through the same scratch/buffer match
        // an encode through fresh ones.
        for i in [0u64, 1, 2, 30, 0] {
            let frame = source.frame(i);
            let dims = enc.grid_for(&frame);
            let map = QpMap::uniform(dims, Qp::new(31));
            enc.encode_into(&frame, &map, &mut scratch, &mut out);
            assert_eq!(out, encode(&enc, &frame, &map), "frame {i}");
        }
    }

    #[test]
    fn encode_into_survives_geometry_changes() {
        // The scratch's plan and the output's coverage table are refilled in place;
        // switching to a different frame size must leave nothing of the previous one.
        let enc = Encoder::new(EncoderConfig::default());
        let big = VideoSource::new(basketball_game(1), SourceConfig::fps30(5.0)).frame(0);
        let mut small_scene = aivc_scene::Scene::new("small", 256, 192).with_background(0.3, 0.1, vec![]);
        small_scene.add_object(
            aivc_scene::SceneObject::new(1, "thing", aivc_scene::Rect::new(10, 10, 100, 100))
                .with_concept("player", 1.0)
                .with_detail(0.5)
                .with_texture(0.5),
        );
        let small = Frame::sample(&small_scene, 0, 0, 0.0);
        let mut scratch = EncodeScratch::new();
        let mut out = EncodedFrame::placeholder();
        for frame in [&big, &small, &big] {
            let map = QpMap::uniform(enc.grid_for(frame), Qp::new(33));
            enc.encode_into(frame, &map, &mut scratch, &mut out);
            assert_eq!(out, encode(&enc, frame, &map));
        }
    }

    /// Recomputes every block of `encoded` the naive way — a per-cell
    /// [`Frame::region_content_into`] walk feeding scalar R-D calls — and asserts exact
    /// equality of every field, and of the complexity and motion the block's bytes were
    /// priced from in the plan's raster. This is the ground-truth check that the grid
    /// raster, the per-frame coverage table and the plan's rate kernel changed the encode's
    /// speed and nothing else.
    fn assert_blocks_match_scalar_walk(enc: &Encoder, frame: &Frame, map: &QpMap, encoded: &EncodedFrame) {
        let dims = enc.grid_for(frame);
        assert_eq!(encoded.blocks.len(), dims.len());
        let plan = enc.rate_plan_for(frame, None);
        let (complexity, motion) = (plan.raster().complexity(), plan.raster().motion());
        let frame_type = gop::frame_type(frame.index);
        let mut content = aivc_scene::RegionContent::empty();
        for (idx, block) in encoded.blocks.iter().enumerate() {
            let (row, col) = dims.position(idx);
            let rect = dims.cell_rect(row, col, frame.width, frame.height);
            frame.region_content_into(&rect, &mut content);
            let qp = map.get_index(idx);
            let bits = rd::block_bits(qp, rect.area(), content.complexity, content.motion, frame_type);
            let bytes = ((bits as f64 / 8.0).ceil() as u32).max(1);
            assert_eq!(block.byte_len, bytes, "bytes {idx}");
            assert_eq!(block.qp, qp, "qp {idx}");
            assert_eq!(
                block.encoded_quality(),
                rd::block_quality(qp, content.detail),
                "quality {idx}"
            );
            assert_eq!(block.detail, content.detail, "detail {idx}");
            assert_eq!(complexity[idx], content.complexity, "complexity {idx}");
            assert_eq!(motion[idx], content.motion, "motion {idx}");
            assert_eq!(
                encoded.coverage(idx),
                &content.object_coverage[..],
                "coverage {idx}"
            );
        }
    }

    #[test]
    fn batched_encode_matches_scalar_walk_for_every_tail_length() {
        // Frame sizes chosen so the CTU-grid length sweeps every batch-tail case: below one
        // batch (1, 4, 6 blocks), exactly one (8), multiples (16), and non-multiples with
        // every partial-edge-cell flavour (510 blocks at 1080p, 12, 35).
        let cases = [
            (64u32, 64u32), // 1 block
            (256, 64),      // 4
            (130, 170),     // 3×2 = 6, partial edges both axes
            (512, 64),      // 8, exactly one batch
            (1024, 64),     // 16
            (256, 192),     // 4×3 = 12
            (448, 320),     // 7×5 = 35
            (1920, 1080),   // 30×17 = 510
        ];
        for (w, h) in cases {
            let mut scene = basketball_game(1);
            scene.width = w;
            scene.height = h;
            let source = VideoSource::new(scene, SourceConfig::fps30(2.0));
            let enc = Encoder::new(EncoderConfig::default());
            for i in [0u64, 1] {
                let frame = source.frame(i);
                let dims = enc.grid_for(&frame);
                let values: Vec<Qp> = (0..dims.len())
                    .map(|idx| Qp::new(20 + (idx as i32 * 7) % 28))
                    .collect();
                let map = QpMap::from_values(dims, values);
                let encoded = encode(&enc, &frame, &map);
                assert_blocks_match_scalar_walk(&enc, &frame, &map, &encoded);
            }
        }
    }

    #[test]
    fn predict_map_size_matches_actual_encode_for_roi_maps() {
        let enc = Encoder::new(EncoderConfig::default());
        let source = VideoSource::new(basketball_game(1), SourceConfig::fps30(10.0));
        for i in [0u64, 1, 7] {
            let frame = source.frame(i);
            let dims = enc.grid_for(&frame);
            let mut map = QpMap::uniform(dims, Qp::new(42));
            for row in 0..dims.rows {
                for col in 0..dims.cols / 2 {
                    map.set(row, col, Qp::new(23));
                }
            }
            let predicted = enc.predict_plan_map_size(&enc.rate_plan_for(&frame, None), &map);
            let actual = encode(&enc, &frame, &map).total_bytes();
            assert_eq!(predicted, actual, "frame {i}");
        }
    }

    #[test]
    #[should_panic(expected = "rate plan is stale")]
    fn plan_prepared_for_the_previous_frame_rejected() {
        let enc = Encoder::new(EncoderConfig::default());
        let source = VideoSource::new(basketball_game(1), SourceConfig::fps30(10.0));
        let mut plan = RatePlan::new();
        enc.prepare_rate_plan(&source.frame(4), None, &mut plan);
        let frame = source.frame(5);
        let map = QpMap::uniform(enc.grid_for(&frame), Qp::new(30));
        let mut out = EncodedFrame::placeholder();
        enc.encode_into_planned(&frame, &map, &plan, &mut EncodeScratch::new(), &mut out);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn mismatched_qp_map_rejected() {
        let enc = Encoder::new(EncoderConfig::default());
        let frame = test_frame();
        let wrong = QpMap::uniform(GridDims::for_frame(64, 64, 64), Qp::new(30));
        let _ = encode(&enc, &frame, &wrong);
    }
}
