//! The decoder: encoded frame + received byte ranges → per-block decoded quality.
//!
//! The decoder's job in this simulator is bookkeeping rather than pixel reconstruction: a
//! block that arrived intact keeps its encoded recognition quality, a block that did not is
//! concealed at a much lower quality. The result, a [`DecodedFrame`], is what the MLLM
//! simulator "sees".

use crate::frame::{EncodedFrame, FrameType};
use crate::qp::Qp;
use crate::rd;
use aivc_scene::{CoverageTable, GridDims};

/// One decoded block; its flat raster index is its position in [`DecodedFrame::blocks`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecodedBlock {
    /// Whether the block's bytes all arrived.
    pub received: bool,
    /// The QP the block was encoded with (meaningful even when the block was lost).
    pub qp: Qp,
    /// Detail requirement of the block's content.
    pub detail: f64,
}

impl DecodedBlock {
    /// Recognition quality after decode: the encoded quality if the block arrived, the
    /// concealment quality otherwise.
    fn quality(&self) -> f64 {
        if self.received {
            rd::block_quality(self.qp, self.detail)
        } else {
            rd::concealment_quality(self.detail)
        }
    }
}

/// A decoded frame, the MLLM-facing representation of what survived encoding + transport.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedFrame {
    /// Source frame index.
    pub frame_index: u64,
    /// Capture timestamp in microseconds (drives MLLM positional encoding).
    pub capture_ts_us: u64,
    /// Time the frame became fully available at the receiver, in microseconds of simulated
    /// time (`None` when decoded offline, e.g. in benchmark preprocessing).
    pub received_at_us: Option<u64>,
    /// Frame type.
    pub frame_type: FrameType,
    /// Frame width in pixels.
    pub width: u32,
    /// Frame height in pixels.
    pub height: u32,
    /// Block grid edge length.
    pub block_size: u32,
    /// Decoded blocks in raster order.
    pub blocks: Vec<DecodedBlock>,
    /// Object coverage of each block, copied from the encoded frame's table (read through
    /// [`DecodedFrame::coverage`]).
    pub coverage: CoverageTable,
}

impl DecodedFrame {
    /// An empty placeholder frame — the natural initial state for reusable output buffers
    /// passed to [`Decoder::decode_into`].
    pub fn placeholder() -> Self {
        Self {
            frame_index: 0,
            capture_ts_us: 0,
            received_at_us: None,
            frame_type: FrameType::Intra,
            width: 0,
            height: 0,
            block_size: 1,
            blocks: Vec::new(),
            coverage: CoverageTable::default(),
        }
    }

    /// Coverage of block `idx` by scene objects: `(object_id, fraction of block area)`.
    pub fn coverage(&self, idx: usize) -> &[(u32, f64)] {
        self.coverage.cell(idx)
    }

    /// The block grid of this frame.
    pub fn grid(&self) -> GridDims {
        GridDims::for_frame(self.width, self.height, self.block_size)
    }

    /// Mean decoded quality over all blocks.
    pub fn mean_quality(&self) -> f64 {
        if self.blocks.is_empty() {
            return 0.0;
        }
        self.blocks.iter().map(DecodedBlock::quality).sum::<f64>() / self.blocks.len() as f64
    }

    /// Question-conditioned decoded quality of the blocks covering an object.
    ///
    /// Unlike [`DecodedFrame::mean_quality`] (which scores each block against its
    /// *content's* detail level), this asks: "how well would content requiring `detail` of fine detail be
    /// perceived from these blocks?" — the quantity the MLLM accuracy model needs, because a
    /// coarse question about a detailed object is still easy at high QP.
    pub fn object_quality_for_detail(&self, object_id: u32, min_cover: f64, detail: f64) -> Option<f64> {
        let mut weighted = 0.0;
        let mut weight = 0.0;
        for (idx, frac) in self.coverage.cells_covered_by(object_id, min_cover) {
            let b = &self.blocks[idx];
            let q = if b.received {
                rd::block_quality(b.qp, detail)
            } else {
                rd::concealment_quality(detail)
            };
            weighted += frac * q;
            weight += frac;
        }
        if weight == 0.0 {
            None
        } else {
            Some(weighted / weight)
        }
    }

    /// Question-conditioned mean quality over the whole frame (see
    /// [`DecodedFrame::object_quality_for_detail`]).
    pub fn mean_quality_for_detail(&self, detail: f64) -> f64 {
        if self.blocks.is_empty() {
            return 0.0;
        }
        self.blocks
            .iter()
            .map(|b| {
                if b.received {
                    rd::block_quality(b.qp, detail)
                } else {
                    rd::concealment_quality(detail)
                }
            })
            .sum::<f64>()
            / self.blocks.len() as f64
    }
}

/// Reusable buffers for [`Decoder::decode_into`]: the per-block coverage verdicts
/// (concealment state) computed from the received byte ranges.
#[derive(Debug, Clone, Default)]
pub struct DecodeScratch {
    /// Which blocks arrived intact (filled by [`EncodedFrame::blocks_covered_into`]).
    covered: Vec<bool>,
}

impl DecodeScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The decoder.
#[derive(Debug, Clone, Default)]
pub struct Decoder;

impl Decoder {
    /// Creates a decoder.
    pub fn new() -> Self {
        Self
    }

    /// Decodes a frame that arrived completely (no transport loss).
    pub fn decode_complete(&self, encoded: &EncodedFrame, received_at_us: Option<u64>) -> DecodedFrame {
        let total = encoded.total_bytes();
        self.decode_with_received(encoded, &[(0, total)], received_at_us)
    }

    /// Decodes a frame given the byte ranges that actually arrived.
    ///
    /// `received` must be sorted by start offset and non-overlapping (the RTC depacketizer
    /// produces it in that form).
    ///
    /// Allocates a fresh [`DecodedFrame`] per call; per-frame loops should hold a
    /// [`DecodeScratch`] and an output buffer and call [`Decoder::decode_into`] instead,
    /// which is allocation-free after warmup.
    pub fn decode_with_received(
        &self,
        encoded: &EncodedFrame,
        received: &[(u64, u64)],
        received_at_us: Option<u64>,
    ) -> DecodedFrame {
        let mut scratch = DecodeScratch::new();
        let mut out = DecodedFrame::placeholder();
        self.decode_into(encoded, received, received_at_us, &mut scratch, &mut out);
        out
    }

    /// [`Decoder::decode_with_received`] into a caller-owned frame buffer.
    ///
    /// `out` is refilled in place (its block vector and coverage table keep their capacity),
    /// so once the buffers have grown to the frame's size a decode performs zero heap
    /// allocations.
    /// Output is bit-identical to [`Decoder::decode_with_received`] (see the equivalence
    /// tests).
    pub fn decode_into(
        &self,
        encoded: &EncodedFrame,
        received: &[(u64, u64)],
        received_at_us: Option<u64>,
        scratch: &mut DecodeScratch,
        out: &mut DecodedFrame,
    ) {
        encoded.blocks_covered_into(received, &mut scratch.covered);
        out.blocks.clear();
        out.blocks.reserve(encoded.blocks.len());
        out.blocks.extend(
            encoded
                .blocks
                .iter()
                .zip(&scratch.covered)
                .map(|(b, &ok)| DecodedBlock {
                    received: ok,
                    qp: b.qp,
                    detail: b.detail,
                }),
        );
        out.coverage.copy_from(&encoded.coverage);
        out.frame_index = encoded.frame_index;
        out.capture_ts_us = encoded.capture_ts_us;
        out.received_at_us = received_at_us;
        out.frame_type = encoded.frame_type;
        out.width = encoded.width;
        out.height = encoded.height;
        out.block_size = encoded.block_size;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::{Encoder, EncoderConfig};
    use crate::qp::Qp;
    use aivc_scene::templates::basketball_game;
    use aivc_scene::{SourceConfig, VideoSource};

    /// Mean recognition quality of the frame's blocks as encoded (before any loss).
    fn mean_encoded_quality(e: &EncodedFrame) -> f64 {
        e.blocks
            .iter()
            .map(|b| rd::block_quality(b.qp, b.detail))
            .sum::<f64>()
            / e.blocks.len() as f64
    }

    fn encoded() -> EncodedFrame {
        let source = VideoSource::new(basketball_game(1), SourceConfig::fps30(10.0));
        Encoder::new(EncoderConfig::default()).encode_uniform(&source.frame(0), Qp::new(30))
    }

    /// A frame holds one block record per CTU and a turn window a frame per capture, so a
    /// field added back to either record grows every window: make it fail here first.
    #[test]
    fn block_records_stay_lean() {
        assert_eq!(std::mem::size_of::<crate::EncodedBlock>(), 16);
        assert_eq!(std::mem::size_of::<DecodedBlock>(), 16);
    }

    #[test]
    fn complete_decode_preserves_encoded_quality() {
        let e = encoded();
        let d = Decoder::new().decode_complete(&e, Some(123));
        assert_eq!(d.blocks.len(), e.blocks.len());
        assert!(d.blocks.iter().all(|b| b.received));
        assert!((d.mean_quality() - mean_encoded_quality(&e)).abs() < 1e-12);
        assert_eq!(d.received_at_us, Some(123));
    }

    #[test]
    fn missing_bytes_reduce_quality() {
        let e = encoded();
        let half = e.total_bytes() / 2;
        let d = Decoder::new().decode_with_received(&e, &[(0, half)], None);
        assert!(!d.blocks.iter().all(|b| b.received));
        assert!(d.mean_quality() < mean_encoded_quality(&e));
    }

    #[test]
    fn localized_loss_degrades_the_bottom_rows_not_the_top() {
        let e = encoded();
        // Drop the last third of the bitstream: the bottom rows of the frame lose quality,
        // the top row does not.
        let cutoff = e.total_bytes() * 2 / 3;
        let d = Decoder::new().decode_with_received(&e, &[(0, cutoff)], None);
        let cols = d.grid().cols as usize;
        let mean =
            |row: &[DecodedBlock]| row.iter().map(DecodedBlock::quality).sum::<f64>() / row.len() as f64;
        let top = mean(&d.blocks[..cols]);
        let bottom = mean(&d.blocks[d.blocks.len() - cols..]);
        assert!(top > bottom, "top {top} bottom {bottom}");
    }

    #[test]
    fn object_quality_found_for_visible_objects() {
        let e = encoded();
        let d = Decoder::new().decode_complete(&e, None);
        // Object 1 is the scoreboard in the basketball template.
        let q = d.object_quality_for_detail(1, 0.05, 0.5);
        assert!(q.is_some());
        assert!(q.unwrap() > 0.0);
        assert!(d.object_quality_for_detail(9_999, 0.05, 0.5).is_none());
    }

    #[test]
    fn empty_received_set_conceals_everything() {
        let e = encoded();
        let d = Decoder::new().decode_with_received(&e, &[], None);
        assert!(!d.blocks.iter().any(|b| b.received));
        assert!(d.mean_quality() < 0.3);
    }

    #[test]
    fn decode_into_is_identical_to_decode_with_received() {
        let e = encoded();
        let total = e.total_bytes();
        let dec = Decoder::new();
        let mut scratch = DecodeScratch::new();
        let mut out = DecodedFrame::placeholder();
        for (received, at) in [
            (vec![(0, total)], Some(5u64)),
            (vec![(0, total / 2)], None),
            (vec![], Some(9)),
            (vec![(0, total / 3), (total / 2, total)], None),
            (vec![(0, total)], None),
        ] {
            dec.decode_into(&e, &received, at, &mut scratch, &mut out);
            assert_eq!(out, dec.decode_with_received(&e, &received, at), "{received:?}");
        }
    }

    /// Moving, odd-geometry and object-free frames.
    fn flat_frame_cases() -> Vec<aivc_scene::Frame> {
        let mut cases = Vec::new();
        let game = VideoSource::new(basketball_game(3), SourceConfig::fps30(3.0));
        for t in [0.0, 0.37, 1.9] {
            cases.push(game.frame_at(t));
        }
        let mut odd = basketball_game(2);
        odd.width = 1000;
        odd.height = 700;
        let odd = VideoSource::new(odd, SourceConfig::fps30(3.0));
        cases.push(odd.frame_at(0.5));
        cases.push(odd.frame_at(1.1));
        let empty = aivc_scene::Scene::new("empty", 640, 384).with_background(0.3, 0.1, vec![]);
        cases.push(aivc_scene::Frame::sample(&empty, 0, 0, 0.0));
        cases
    }

    #[test]
    fn flat_frame_coverage_matches_region_content_through_encode_and_decode() {
        let mut content = aivc_scene::RegionContent::empty();
        for frame in flat_frame_cases() {
            let enc = Encoder::new(EncoderConfig::default());
            let dims = enc.grid_for(&frame);
            let e = enc.encode_uniform(&frame, Qp::new(33));
            // Half the bytes lost: coverage is carried for concealed blocks too.
            let d = Decoder::new().decode_with_received(&e, &[(0, e.total_bytes() / 2)], None);
            assert_eq!(e.coverage.cells(), dims.len());
            assert_eq!(d.coverage.cells(), dims.len());
            for idx in 0..dims.len() {
                let (row, col) = dims.position(idx);
                let cell = dims.cell_rect(row, col, frame.width, frame.height);
                frame.region_content_into(&cell, &mut content);
                assert_eq!(e.coverage(idx), &content.object_coverage[..], "encoded {idx}");
                assert_eq!(d.coverage(idx), &content.object_coverage[..], "decoded {idx}");
            }
        }
    }
}
