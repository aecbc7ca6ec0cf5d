//! Encoded-frame representation.
//!
//! An [`EncodedFrame`] is the unit handed to the RTC packetizer: a byte length, a frame
//! type and a list of [`EncodedBlock`]s laid out contiguously in raster order. Blocks carry
//! everything downstream stages need (QP, encoded quality, detail) as plain `Copy` data and
//! the frame carries one [`CoverageTable`] of per-block object coverage, which keeps the
//! decoder and the MLLM simulator independent of the original scene.

use crate::qp::Qp;
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
    /// Byte offset of this block's payload within the frame's bitstream.
    pub byte_offset: u64,
    /// Payload size of this block in bytes (≥ 1: every CTU costs at least a header).
    pub byte_len: u32,
    /// QP the block was coded with.
    pub qp: Qp,
    /// Recognition quality of the block *as encoded* (before any transport loss).
    pub encoded_quality: f64,
    /// Detail requirement of the content in the block (copied from the scene descriptor).
    pub detail: f64,
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
    /// Coded blocks in raster order. Offsets are contiguous and start at `header_bytes`.
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
        self.blocks.iter().map(|b| b.encoded_quality).sum::<f64>() / self.blocks.len() as f64
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
    pub fn blocks_covered_into(&self, received: &[(u64, u64)], out: &mut Vec<bool>) {
        out.clear();
        out.reserve(self.blocks.len());
        out.extend(self.blocks.iter().map(|b| {
            let start = b.byte_offset;
            let end = b.byte_offset + b.byte_len as u64;
            range_covered(start, end, received)
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
        cursor = cursor.max(s).max(cursor);
        cursor = e.max(cursor);
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

    fn frame_with_blocks(lens: &[u32]) -> EncodedFrame {
        let mut offset = 100u64; // header
        let mut coverage = CoverageTable::default();
        let blocks = lens
            .iter()
            .enumerate()
            .map(|(i, len)| {
                let b = EncodedBlock {
                    byte_offset: offset,
                    byte_len: *len,
                    qp: Qp::new(30),
                    encoded_quality: 0.8,
                    detail: 0.5,
                };
                coverage.push_cell(if i == 0 { &[(7, 1.0)] } else { &[] });
                offset += *len as u64;
                b
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
        assert!((f.mean_encoded_quality() - 0.8).abs() < 1e-12);
        assert!((f.mean_qp() - 30.0).abs() < 1e-12);
    }
}
