//! Encoded-frame representation.
//!
//! An [`EncodedFrame`] is the unit handed to the RTC packetizer: a byte length, a frame
//! type and a list of [`EncodedBlock`]s laid out contiguously in raster order. Blocks carry
//! what downstream stages read (byte count, QP, detail) as plain `Copy` data — a block's
//! offset is the running sum of the lengths before it, and its encoded quality a pure
//! function of its QP and detail, so neither is stored — and the frame carries one
//! [`CoverageTable`] of per-block object coverage, which keeps the decoder and the MLLM
//! simulator independent of the original scene.

use crate::qp::Qp;
use crate::rd;
use aivc_scene::CoverageTable;
use serde::{Deserialize, Serialize};

/// Whether a frame was coded without reference (intra/IDR) or predicted (inter/P).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FrameType {
    /// Intra-coded (keyframe).
    Intra,
    /// Inter-coded (predicted from previous frames).
    Inter,
}

/// One coded CTU/block; its flat raster index is its position in [`EncodedFrame::blocks`].
/// Only what the decoder and the MLLM read is kept: a frame holds one per CTU, and every
/// turn window holds a frame per capture.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EncodedBlock {
    /// Payload size of this block in bytes (≥ 1: every CTU costs at least a header).
    pub byte_len: u32,
    /// QP the block was coded with.
    pub qp: Qp,
    /// Detail requirement of the content in the block (copied from the scene descriptor).
    pub detail: f64,
}

impl EncodedBlock {
    /// Recognition quality of the block *as encoded* (before any transport loss).
    pub fn encoded_quality(&self) -> f64 {
        rd::block_quality(self.qp, self.detail)
    }
}

/// A complete encoded frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EncodedFrame {
    /// Source frame index.
    pub frame_index: u64,
    /// Capture timestamp in microseconds (propagated end-to-end; the MLLM's positional
    /// encoding uses this, §2.1).
    pub capture_ts_us: u64,
    /// Frame type.
    pub frame_type: FrameType,
    /// Frame width in pixels.
    pub width: u32,
    /// Frame height in pixels.
    pub height: u32,
    /// CTU edge length in pixels.
    pub block_size: u32,
    /// Number of block columns.
    pub grid_cols: u32,
    /// Number of block rows.
    pub grid_rows: u32,
    /// Coded blocks in raster order, laid out contiguously from `header_bytes` on.
    pub blocks: Vec<EncodedBlock>,
    /// Coverage of each block by scene objects — `(object_id, fraction of block area)`
    /// lists, one cell per block (read through [`EncodedFrame::coverage`]).
    pub coverage: CoverageTable,
    /// Frame-level header/parameter-set overhead in bytes.
    pub header_bytes: u32,
}

impl EncodedFrame {
    /// An empty placeholder frame — the natural initial state for reusable output buffers
    /// passed to `Encoder::encode_into`.
    pub fn placeholder() -> Self {
        Self {
            frame_index: 0,
            capture_ts_us: 0,
            frame_type: FrameType::Intra,
            width: 0,
            height: 0,
            block_size: 1,
            grid_cols: 0,
            grid_rows: 0,
            blocks: Vec::new(),
            coverage: CoverageTable::default(),
            header_bytes: 0,
        }
    }

    /// Coverage of block `idx` by scene objects: `(object_id, fraction of block area)`.
    pub fn coverage(&self, idx: usize) -> &[(u32, f64)] {
        self.coverage.cell(idx)
    }

    /// Total coded size of the frame in bytes (header + all block payloads).
    pub fn total_bytes(&self) -> u64 {
        self.header_bytes as u64 + self.blocks.iter().map(|b| b.byte_len as u64).sum::<u64>()
    }

    /// Total coded size in bits.
    pub fn total_bits(&self) -> u64 {
        self.total_bytes() * 8
    }

    /// Mean encoded quality over blocks, weighted by block pixel share (uniform blocks, so a
    /// plain mean).
    pub fn mean_encoded_quality(&self) -> f64 {
        if self.blocks.is_empty() {
            return 0.0;
        }
        self.blocks.iter().map(EncodedBlock::encoded_quality).sum::<f64>() / self.blocks.len() as f64
    }

    /// Mean QP over blocks.
    pub fn mean_qp(&self) -> f64 {
        if self.blocks.is_empty() {
            return 0.0;
        }
        self.blocks.iter().map(|b| b.qp.as_f64()).sum::<f64>() / self.blocks.len() as f64
    }

    /// Which blocks have byte ranges fully contained in the received byte set, written into
    /// a caller-owned buffer (cleared first) so per-frame decode loops stay allocation-free
    /// after warmup.
    ///
    /// `received` is a sorted, non-overlapping list of `[start, end)` ranges produced by the
    /// RTC depacketizer. Blocks not fully covered are considered lost (HEVC cannot decode a
    /// truncated CTU) and will be concealed by the decoder.
    ///
    /// A block's byte range starts at the running sum of the lengths before it, from
    /// `header_bytes` on.
    pub fn blocks_covered_into(&self, received: &[(u64, u64)], out: &mut Vec<bool>) {
        out.clear();
        out.reserve(self.blocks.len());
        let mut start = self.header_bytes as u64;
        out.extend(self.blocks.iter().map(|b| {
            let end = start + b.byte_len as u64;
            let covered = range_covered(start, end, received);
            start = end;
            covered
        }));
    }

    /// Bits allocated to blocks whose object coverage includes `object_id` (≥ `min_cover`).
    pub fn bits_on_object(&self, object_id: u32, min_cover: f64) -> u64 {
        self.coverage
            .cells_covered_by(object_id, min_cover)
            .map(|(idx, _)| self.blocks[idx].byte_len as u64 * 8)
            .sum()
    }
}

/// True when `[start, end)` is fully covered by the union of the sorted ranges in `received`.
fn range_covered(start: u64, end: u64, received: &[(u64, u64)]) -> bool {
    let mut cursor = start;
    for &(s, e) in received {
        if e <= cursor {
            continue;
        }
        if s > cursor {
            return false;
        }
        cursor = e;
        if cursor >= end {
            return true;
        }
    }
    cursor >= end
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`EncodedFrame::blocks_covered_into`] into a fresh buffer.
    fn covered_by(f: &EncodedFrame, received: &[(u64, u64)]) -> Vec<bool> {
        let mut covered = Vec::new();
        f.blocks_covered_into(received, &mut covered);
        covered
    }

    /// A 100-byte header and blocks of the given lengths (QP 30, detail 0.5); block 0 is
    /// covered by object 7.
    fn frame_with_blocks(lens: &[u32]) -> EncodedFrame {
        let mut coverage = CoverageTable::default();
        let blocks = lens
            .iter()
            .enumerate()
            .map(|(i, len)| {
                coverage.push_cell(if i == 0 { &[(7, 1.0)] } else { &[] });
                EncodedBlock {
                    byte_len: *len,
                    qp: Qp::new(30),
                    detail: 0.5,
                }
            })
            .collect();
        EncodedFrame {
            frame_index: 0,
            capture_ts_us: 0,
            frame_type: FrameType::Intra,
            width: 256,
            height: 64,
            block_size: 64,
            grid_cols: lens.len() as u32,
            grid_rows: 1,
            blocks,
            coverage,
            header_bytes: 100,
        }
    }

    #[test]
    fn total_bytes_includes_header() {
        let f = frame_with_blocks(&[200, 300, 150]);
        assert_eq!(f.total_bytes(), 100 + 650);
        assert_eq!(f.total_bits(), (100 + 650) * 8);
    }

    #[test]
    fn full_coverage_marks_all_blocks_received() {
        let f = frame_with_blocks(&[200, 300, 150]);
        let covered = covered_by(&f, &[(0, f.total_bytes())]);
        assert!(covered.iter().all(|c| *c));
    }

    #[test]
    fn missing_middle_range_loses_only_middle_block() {
        let f = frame_with_blocks(&[200, 300, 150]);
        // Received: [0, 300) and [600, 750) — the middle block [300, 600) is missing.
        let covered = covered_by(&f, &[(0, 300), (600, 750)]);
        assert_eq!(covered, vec![true, false, true]);
    }

    #[test]
    fn partial_block_coverage_counts_as_lost() {
        let f = frame_with_blocks(&[200, 300, 150]);
        let covered = covered_by(&f, &[(0, 500)]); // second block only half received
        assert_eq!(covered, vec![true, false, false]);
    }

    #[test]
    fn adjacent_ranges_union_correctly() {
        let f = frame_with_blocks(&[200, 300, 150]);
        let covered = covered_by(&f, &[(0, 250), (250, 400), (400, 750)]);
        assert!(covered.iter().all(|c| *c));
    }

    #[test]
    fn bits_on_object_filters_by_coverage() {
        let f = frame_with_blocks(&[200, 300, 150]);
        assert_eq!(f.bits_on_object(7, 0.5), 200 * 8);
        assert_eq!(f.bits_on_object(8, 0.5), 0);
    }

    #[test]
    fn mean_quality_and_qp() {
        let f = frame_with_blocks(&[200, 300]);
        assert_eq!(f.mean_encoded_quality(), rd::block_quality(Qp::new(30), 0.5));
        assert!((f.mean_qp() - 30.0).abs() < 1e-12);
    }
}
