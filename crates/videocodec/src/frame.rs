//! Encoded-frame representation.
//!
//! An [`EncodedFrame`] is the unit handed to the RTC packetizer: a byte length, a frame
//! type and a list of [`EncodedBlock`]s laid out contiguously in raster order. Blocks carry
//! what downstream stages read (byte count, QP, detail) as plain `Copy` data — a block's
//! offset is the running sum of the lengths before it, and its encoded quality a pure
//! function of its QP and detail, so neither is stored — and the frame carries its
//! per-block object coverage as a [`FrameCoverage`] (the few object placements it is
//! worked out from), which keeps the decoder and the MLLM simulator independent of the
//! original scene.

use crate::qp::Qp;
use aivc_scene::FrameCoverage;

/// Whether a frame was coded without reference (intra/IDR) or predicted (inter/P).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameType {
    /// Intra-coded (keyframe).
    Intra,
    /// Inter-coded (predicted from previous frames).
    Inter,
}

/// One coded CTU/block; its flat raster index is its position in [`EncodedFrame::blocks`].
/// Only what the decoder and the MLLM read is kept: a frame holds one per CTU, and every
/// turn window holds a frame per capture.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EncodedBlock {
    /// Payload size of this block in bytes (≥ 1: every CTU costs at least a header).
    pub byte_len: u32,
    /// QP the block was coded with.
    pub qp: Qp,
    /// Detail requirement of the content in the block (copied from the scene descriptor).
    pub detail: f64,
}

/// A complete encoded frame.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedFrame {
    /// Source frame index.
    pub frame_index: u64,
    /// Capture timestamp in microseconds (propagated end-to-end; the MLLM's positional
    /// encoding uses this, §2.1).
    pub capture_ts_us: u64,
    /// Frame type.
    pub frame_type: FrameType,
    /// Coded blocks in raster order, laid out contiguously from `header_bytes` on.
    pub blocks: Vec<EncodedBlock>,
    /// Coverage of each block by scene objects: `coverage.cell(idx)` lists block `idx`'s
    /// `(object_id, fraction of block area)` pairs. It also holds the frame's geometry, the
    /// frame size and CTU grid ([`FrameCoverage::geometry`]).
    pub coverage: FrameCoverage,
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
            blocks: Vec::new(),
            coverage: FrameCoverage::default(),
            header_bytes: 0,
        }
    }

    /// Total coded size of the frame in bytes (header + all block payloads).
    pub fn total_bytes(&self) -> u64 {
        self.header_bytes as u64 + self.blocks.iter().map(|b| b.byte_len as u64).sum::<u64>()
    }

    /// Total coded size in bits.
    pub fn total_bits(&self) -> u64 {
        self.total_bytes() * 8
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
    /// `header_bytes` on. One merge walk over the blocks and the received bytes' runs of
    /// touching ranges: a block is covered when the run holding its first byte reaches its
    /// end.
    pub fn blocks_covered_into(&self, received: &[(u64, u64)], out: &mut Vec<bool>) {
        out.clear();
        let header = self.header_bytes as u64;
        if received
            .first()
            .is_some_and(|&(s, e)| s <= header && e >= self.total_bytes())
        {
            out.resize(self.blocks.len(), true);
            return;
        }
        let mut at = 0;
        let mut runs = std::iter::from_fn(|| {
            let &(first, mut reach) = received.get(at)?;
            at += 1;
            while let Some(&(_, e)) = received.get(at).filter(|&&(s, _)| s <= reach) {
                reach = reach.max(e);
                at += 1;
            }
            Some((first, reach))
        });
        let mut run = runs.next();
        let mut start = header;
        out.reserve(self.blocks.len());
        out.extend(self.blocks.iter().map(|b| {
            let end = start + b.byte_len as u64;
            while run.is_some_and(|(_, reach)| reach <= start) {
                run = runs.next();
            }
            let covered = run.is_some_and(|(first, reach)| first <= start && end <= reach);
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

/// True when `[start, end)` is fully covered by the union of the sorted ranges in `received`:
/// the per-block scan [`EncodedFrame::blocks_covered_into`]'s merge walk is held to.
#[cfg(test)]
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
    use crate::rd;
    use aivc_scene::grid_content::GridContent;
    use aivc_scene::{Rect, Scene, SceneObject, SourceConfig, VideoSource};

    /// [`EncodedFrame::blocks_covered_into`] into a fresh buffer.
    fn covered_by(f: &EncodedFrame, received: &[(u64, u64)]) -> Vec<bool> {
        let mut covered = Vec::new();
        f.blocks_covered_into(received, &mut covered);
        covered
    }

    /// A 100-byte header and blocks of the given lengths (QP 30, detail 0.5), one row of
    /// 64-px blocks; block 0 is covered by object 7.
    fn frame_with_blocks(lens: &[u32]) -> EncodedFrame {
        let width = 64 * lens.len().max(1) as u32;
        let mut scene = Scene::new("row", width, 64);
        scene.add_object(SceneObject::new(7, "block zero", Rect::new(0, 0, 64, 64)));
        let mut grid = GridContent::new();
        grid.fill(&VideoSource::new(scene, SourceConfig::fps30(1.0)).frame(0), 64);
        let blocks = lens
            .iter()
            .map(|len| EncodedBlock {
                byte_len: *len,
                qp: Qp::new(30),
                detail: 0.5,
            })
            .collect();
        EncodedFrame {
            blocks,
            coverage: grid.coverage().clone(),
            header_bytes: 100,
            ..EncodedFrame::placeholder()
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
        let quality = rd::block_quality(Qp::new(30), 0.5);
        assert!(f
            .blocks
            .iter()
            .all(|b| rd::block_quality(b.qp, b.detail) == quality && b.qp == Qp::new(30)));
    }

    #[test]
    fn merge_walk_matches_the_per_block_oracle_on_random_frames() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut draw = |bound: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % bound
        };
        let mut covered = Vec::new();
        let mut shapes = [0usize; 3];
        for case in 0..3000 {
            // Blocks of at least one byte (every CTU costs a header); none at all sometimes.
            let lens: Vec<u32> = (0..draw(24)).map(|_| 1 + draw(300) as u32).collect();
            let frame = frame_with_blocks(&lens);
            let total = frame.total_bytes();
            // Every block boundary, the header's included: where a hole may start or end.
            let boundaries: Vec<u64> = std::iter::once(100)
                .chain(lens.iter().scan(100u64, |at, &len| {
                    *at += len as u64;
                    Some(*at)
                }))
                .collect();
            let snap = |at: u64, to_boundary: bool| match to_boundary {
                true => boundaries.iter().copied().find(|&b| b >= at).unwrap_or(at),
                false => at,
            };
            let mut received = Vec::new();
            match case % 5 {
                // Nothing arrived.
                0 => {}
                // One range holding the whole frame (the fast path), or just short of it.
                1 => {
                    let start = draw(101);
                    received.push((start, (total + draw(3)).max(start + 2) - 1));
                }
                // Sorted, disjoint ranges — touching or not — with holes often exactly on
                // block boundaries.
                _ => {
                    let mut at = draw(150);
                    while at < total + 50 {
                        let start = snap(at + draw(3) * draw(200), draw(3) == 0);
                        let end = snap(start + 1 + draw(250), draw(3) == 0);
                        received.push((start, end));
                        at = end;
                    }
                }
            }
            frame.blocks_covered_into(&received, &mut covered);
            let mut start = 100;
            let expected: Vec<bool> = lens
                .iter()
                .map(|&len| {
                    let end = start + len as u64;
                    let ok = range_covered(start, end, &received);
                    start = end;
                    ok
                })
                .collect();
            assert_eq!(
                covered, expected,
                "case {case}: lens {lens:?}, received {received:?}"
            );
            let lost = expected.iter().filter(|&&ok| !ok).count();
            shapes[if lost == 0 {
                0
            } else if lost == expected.len() {
                1
            } else {
                2
            }] += 1;
        }
        assert!(
            shapes.iter().all(|&n| n > 100),
            "all, none and some blocks covered: {shapes:?}"
        );
    }
}
