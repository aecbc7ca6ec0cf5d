//! Whole-frame rasterization of per-cell content descriptors.
//!
//! [`Frame::region_content_into`] answers "what is in this rectangle?" for one region at a
//! time by scanning every placement — fine for a handful of queries, quadratic in spirit
//! when a consumer walks an entire CTU/patch grid (hundreds of cells × every placement).
//! [`GridContent`] inverts the loop: each placement is rasterized once onto the range of
//! grid cells it overlaps, producing the exact per-cell descriptors of a cell-by-cell
//! `region_content_into` walk in O(placements × cells-touched) instead of
//! O(cells × placements).
//!
//! **Bit-identity.** For every cell, the placements contributing to it are visited in
//! placement order (the outer loop ascends placements, and a placement touches a cell at
//! most once), each contribution uses the same `coverage_by` value on the same operands,
//! and the background/clamp finalization applies the same expressions in the same order —
//! so every per-cell f64 accumulation sequence is *identical* to the scalar walk's, not
//! merely close (property-tested in this module and relied on by the encoder and CLIP
//! golden fixtures).

use crate::frame::Frame;
use crate::geometry::{GridDims, Rect};
use serde::{Deserialize, Serialize};

/// Per-cell `(object_id, fraction)` coverage lists for a whole grid in one CSR table: cell
/// `i`'s list is `entries[offsets[i]..offsets[i + 1]]`, in placement order — exactly
/// `RegionContent::object_coverage` for that cell's rectangle. One table per frame is
/// what the codec's frames carry instead of a list per block, so handing coverage from
/// the raster to an encoded frame to a decoded frame is two slice copies.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CoverageTable {
    /// `cells + 1` prefix offsets into `entries` (empty for a table of no cells).
    offsets: Vec<u32>,
    /// Every cell's entries, concatenated in cell order.
    entries: Vec<(u32, f64)>,
}

impl CoverageTable {
    /// Number of cells in the table.
    pub fn cells(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Cell `idx`'s coverage list.
    pub fn cell(&self, idx: usize) -> &[(u32, f64)] {
        &self.entries[self.offsets[idx] as usize..self.offsets[idx + 1] as usize]
    }

    /// Every cell's coverage list, in cell order.
    pub fn iter(&self) -> impl Iterator<Item = &[(u32, f64)]> + '_ {
        self.offsets
            .windows(2)
            .map(|w| &self.entries[w[0] as usize..w[1] as usize])
    }

    /// The cells `object_id` covers by at least `min_cover`, in cell order, each with the
    /// covering fraction of its first such entry — `cell(i).iter().find(..)` for every
    /// `i`, but scanning the entries (a few per object) rather than the cells.
    pub fn cells_covered_by(
        &self,
        object_id: u32,
        min_cover: f64,
    ) -> impl Iterator<Item = (usize, f64)> + '_ {
        let mut previous = usize::MAX;
        self.entries
            .iter()
            .enumerate()
            .filter(move |(_, (id, frac))| *id == object_id && *frac >= min_cover)
            .filter_map(move |(at, &(_, frac))| {
                let cell = self.offsets.partition_point(|&start| start as usize <= at) - 1;
                (std::mem::replace(&mut previous, cell) != cell).then_some((cell, frac))
            })
    }

    /// Appends one cell with the given coverage list.
    pub fn push_cell(&mut self, coverage: &[(u32, f64)]) {
        if self.offsets.is_empty() {
            self.offsets.push(0);
        }
        self.entries.extend_from_slice(coverage);
        self.offsets.push(self.entries.len() as u32);
    }

    /// Makes this table a copy of `other`, keeping its own buffers (no allocation once
    /// they have grown to the frame's size).
    pub fn copy_from(&mut self, other: &CoverageTable) {
        self.offsets.clear();
        self.offsets.extend_from_slice(&other.offsets);
        self.entries.clear();
        self.entries.extend_from_slice(&other.entries);
    }
}

/// Per-cell content descriptors for a whole frame grid, stored as structure-of-arrays so
/// downstream per-block kernels walk unit-stride memory.
#[derive(Debug, Clone)]
pub struct GridContent {
    dims: GridDims,
    /// Area-weighted spatial complexity per cell (same value as `RegionContent::complexity`).
    complexity: Vec<f64>,
    /// Area-weighted motion per cell.
    motion: Vec<f64>,
    /// Area-weighted detail per cell.
    detail: Vec<f64>,
    /// Background fraction per cell.
    background_fraction: Vec<f64>,
    /// Pixel area of each (possibly edge-clipped) cell.
    area: Vec<u64>,
    /// Per-cell `(object_id, fraction)` coverage lists.
    coverage: CoverageTable,
    /// Per-cell write cursor (pass 1: entry counts; pass 2: entries written so far).
    cursor: Vec<u32>,
    /// Per-cell running coverage total before the `min(1.0)` cap.
    covered: Vec<f64>,
}

impl Default for GridContent {
    fn default() -> Self {
        Self::new()
    }
}

/// Grid-cell range `(row0, col0, row1, col1)` (inclusive) overlapped by a non-empty rect
/// already clipped to the frame.
fn cell_range(dims: GridDims, clipped: &Rect) -> (u32, u32, u32, u32) {
    let cell = dims.cell as i64;
    let col0 = (clipped.x / cell) as u32;
    let row0 = (clipped.y / cell) as u32;
    let col1 = (((clipped.right() - 1) / cell) as u32).min(dims.cols - 1);
    let row1 = (((clipped.bottom() - 1) / cell) as u32).min(dims.rows - 1);
    (row0, col0, row1, col1)
}

impl GridContent {
    /// Creates an empty grid (refilled in place by [`GridContent::fill`]).
    pub fn new() -> Self {
        Self {
            dims: GridDims {
                cols: 0,
                rows: 0,
                cell: 1,
            },
            complexity: Vec::new(),
            motion: Vec::new(),
            detail: Vec::new(),
            background_fraction: Vec::new(),
            area: Vec::new(),
            coverage: CoverageTable::default(),
            cursor: Vec::new(),
            covered: Vec::new(),
        }
    }

    /// Rasterizes `frame` onto the `cell`-sized grid, reusing every buffer. After the first
    /// fill of a given geometry, refills perform no heap allocation unless the total
    /// coverage-entry count grows past the retained capacity.
    pub fn fill(&mut self, frame: &Frame, cell: u32) {
        let dims = GridDims::for_frame(frame.width, frame.height, cell);
        self.dims = dims;
        let n = dims.len();
        for buf in [
            &mut self.complexity,
            &mut self.motion,
            &mut self.detail,
            &mut self.covered,
            &mut self.background_fraction,
        ] {
            buf.clear();
            buf.resize(n, 0.0);
        }
        self.cursor.clear();
        self.cursor.resize(n, 0);
        self.area.clear();
        self.area.reserve(n);
        for row in 0..dims.rows {
            for col in 0..dims.cols {
                self.area
                    .push(dims.cell_rect(row, col, frame.width, frame.height).area());
            }
        }
        let frame_rect = frame.rect();
        // Pass 1: per-cell entry counts plus the ordered scalar accumulations (coverage
        // totals and frac-weighted content), placement-outer so each cell sees its
        // contributors in placement order.
        for placement in &frame.placements {
            let Some(obj) = frame.object(placement.object_id) else {
                continue;
            };
            let clipped = placement.region.intersect(&frame_rect);
            if clipped.is_empty() {
                continue;
            }
            let (row0, col0, row1, col1) = cell_range(dims, &clipped);
            for row in row0..=row1 {
                for col in col0..=col1 {
                    let idx = dims.index(row, col);
                    let rect = dims.cell_rect(row, col, frame.width, frame.height);
                    let frac = rect.coverage_by(&placement.region);
                    if frac <= 0.0 {
                        continue;
                    }
                    self.cursor[idx] += 1;
                    self.covered[idx] += frac;
                    self.complexity[idx] += frac * obj.texture_complexity;
                    self.motion[idx] += frac * obj.motion;
                    self.detail[idx] += frac * obj.detail;
                }
            }
        }
        // Prefix-sum the counts into offsets, then replay the placements to fill entries.
        let CoverageTable { offsets, entries } = &mut self.coverage;
        offsets.clear();
        offsets.reserve(n + 1);
        let mut total = 0u32;
        offsets.push(0);
        for &count in &self.cursor {
            total += count;
            offsets.push(total);
        }
        entries.clear();
        entries.resize(total as usize, (0, 0.0));
        self.cursor.fill(0);
        for placement in &frame.placements {
            if frame.object(placement.object_id).is_none() {
                continue;
            }
            let clipped = placement.region.intersect(&frame_rect);
            if clipped.is_empty() {
                continue;
            }
            let (row0, col0, row1, col1) = cell_range(dims, &clipped);
            for row in row0..=row1 {
                for col in col0..=col1 {
                    let idx = dims.index(row, col);
                    let rect = dims.cell_rect(row, col, frame.width, frame.height);
                    let frac = rect.coverage_by(&placement.region);
                    if frac <= 0.0 {
                        continue;
                    }
                    let slot = offsets[idx] as usize + self.cursor[idx] as usize;
                    entries[slot] = (placement.object_id, frac);
                    self.cursor[idx] += 1;
                }
            }
        }
        // Finalize: the exact background/clamp epilogue of `region_content_into`.
        for idx in 0..n {
            let covered = self.covered[idx].min(1.0);
            let background_fraction = (1.0 - covered).max(0.0);
            self.complexity[idx] =
                (self.complexity[idx] + background_fraction * frame.background_complexity).clamp(0.0, 1.0);
            self.motion[idx] =
                (self.motion[idx] + background_fraction * frame.background_motion).clamp(0.0, 1.0);
            self.detail[idx] = self.detail[idx].clamp(0.0, 1.0);
            self.background_fraction[idx] = background_fraction;
        }
    }

    /// The grid this content was rasterized for.
    pub fn dims(&self) -> GridDims {
        self.dims
    }

    /// Per-cell complexity, row-major.
    pub fn complexity(&self) -> &[f64] {
        &self.complexity
    }

    /// Per-cell motion, row-major.
    pub fn motion(&self) -> &[f64] {
        &self.motion
    }

    /// Per-cell detail, row-major.
    pub fn detail(&self) -> &[f64] {
        &self.detail
    }

    /// Per-cell background fraction, row-major.
    pub fn background_fraction(&self) -> &[f64] {
        &self.background_fraction
    }

    /// Per-cell pixel area, row-major.
    pub fn area(&self) -> &[u64] {
        &self.area
    }

    /// Cell `idx`'s `(object_id, fraction)` coverage list, in placement order — the same
    /// entries `region_content_into` would report for that cell's rectangle.
    pub fn coverage(&self, idx: usize) -> &[(u32, f64)] {
        self.coverage.cell(idx)
    }

    /// Every cell's coverage list as one table (see [`CoverageTable`]).
    pub fn coverage_table(&self) -> &CoverageTable {
        &self.coverage
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concept::Concept;
    use crate::frame::{Frame, ObjectPlacement, RegionContent};
    use crate::object::SceneObject;
    use crate::scene::Scene;

    fn assert_matches_scalar_walk(frame: &Frame, cell: u32) {
        let mut grid = GridContent::new();
        grid.fill(frame, cell);
        let dims = grid.dims();
        assert_eq!(dims, GridDims::for_frame(frame.width, frame.height, cell));
        let mut content = RegionContent::empty();
        let mut rebuilt = CoverageTable::default();
        for row in 0..dims.rows {
            for col in 0..dims.cols {
                let idx = dims.index(row, col);
                let rect = dims.cell_rect(row, col, frame.width, frame.height);
                frame.region_content_into(&rect, &mut content);
                rebuilt.push_cell(&content.object_coverage);
                let at = |v: &[f64]| v[idx];
                assert_eq!(
                    at(grid.complexity()),
                    content.complexity,
                    "complexity {row},{col}"
                );
                assert_eq!(at(grid.motion()), content.motion, "motion {row},{col}");
                assert_eq!(at(grid.detail()), content.detail, "detail {row},{col}");
                assert_eq!(
                    at(grid.background_fraction()),
                    content.background_fraction,
                    "bg {row},{col}"
                );
                assert_eq!(
                    grid.coverage(idx),
                    &content.object_coverage[..],
                    "coverage {row},{col}"
                );
                assert_eq!(grid.area()[idx], rect.area(), "area {row},{col}");
            }
        }
        // The table as a whole: cell-by-cell construction and an in-place copy over stale
        // contents both reproduce it.
        assert_eq!(grid.coverage_table().cells(), dims.len());
        assert_eq!(&rebuilt, grid.coverage_table());
        let mut copy = CoverageTable::default();
        copy.push_cell(&[(9, 0.5)]);
        copy.copy_from(grid.coverage_table());
        assert_eq!(&copy, grid.coverage_table());
        assert!(copy.iter().eq((0..dims.len()).map(|idx| grid.coverage(idx))));
        // The per-object query is the per-cell `find`, for present and absent objects.
        for object_id in frame.placements.iter().map(|p| p.object_id).chain([4_242]) {
            for min_cover in [0.0, 0.02, 0.5, 1.0] {
                let by_cell: Vec<(usize, f64)> = (0..dims.len())
                    .filter_map(|idx| {
                        grid.coverage(idx)
                            .iter()
                            .find(|(id, f)| *id == object_id && *f >= min_cover)
                            .map(|&(_, f)| (idx, f))
                    })
                    .collect();
                let by_entry: Vec<(usize, f64)> = copy.cells_covered_by(object_id, min_cover).collect();
                assert_eq!(by_entry, by_cell, "object {object_id}, min cover {min_cover}");
            }
        }
    }

    #[test]
    fn coverage_query_reports_a_cell_once_for_its_first_matching_entry() {
        let mut table = CoverageTable::default();
        assert_eq!(table.cells(), 0);
        table.push_cell(&[]);
        table.push_cell(&[(7, 0.01), (7, 0.4), (3, 0.2), (7, 0.9)]);
        table.push_cell(&[]);
        table.push_cell(&[(3, 1.0)]);
        assert_eq!(table.cells(), 4);
        assert_eq!(
            table.cells_covered_by(7, 0.05).collect::<Vec<_>>(),
            vec![(1, 0.4)]
        );
        assert_eq!(
            table.cells_covered_by(3, 0.0).collect::<Vec<_>>(),
            vec![(1, 0.2), (3, 1.0)]
        );
        assert_eq!(table.cells_covered_by(7, f64::NAN).count(), 0);
    }

    fn busy_scene() -> Scene {
        let mut s =
            Scene::new("busy", 1920, 1080).with_background(0.25, 0.05, vec![(Concept::new("court"), 1.0)]);
        s.add_object(
            SceneObject::new(1, "scoreboard", Rect::new(100, 40, 320, 160))
                .with_concept("scoreboard", 1.0)
                .with_detail(0.9)
                .with_texture(0.8),
        );
        s.add_object(
            SceneObject::new(2, "player", Rect::new(600, 300, 400, 500))
                .with_concept("player", 1.0)
                .with_detail(0.4)
                .with_texture(0.6)
                .with_motion(0.7, (0.0, 0.0)),
        );
        // Overlapping the player, and hanging off the right/bottom frame edge.
        s.add_object(
            SceneObject::new(3, "banner", Rect::new(1800, 1000, 300, 300))
                .with_concept("logo", 1.0)
                .with_detail(0.6)
                .with_texture(0.5),
        );
        s.add_object(
            SceneObject::new(4, "ball", Rect::new(700, 400, 64, 64))
                .with_concept("ball", 1.0)
                .with_detail(0.3)
                .with_texture(0.4)
                .with_motion(0.9, (0.0, 0.0)),
        );
        s
    }

    #[test]
    fn rasterized_grid_is_bit_identical_to_the_scalar_walk() {
        let frame = Frame::sample(&busy_scene(), 0, 0, 0.0);
        for cell in [32, 64, 100] {
            assert_matches_scalar_walk(&frame, cell);
        }
    }

    #[test]
    fn rasterized_grid_matches_on_odd_geometries_and_moving_frames() {
        let mut scene = busy_scene();
        scene.width = 1000;
        scene.height = 700;
        for t in [0.0, 0.37, 1.9] {
            let frame = Frame::sample(&scene, 0, 0, t);
            assert_matches_scalar_walk(&frame, 64);
        }
    }

    #[test]
    fn rasterized_grid_handles_empty_frames_and_stray_placements() {
        // No objects at all: pure background everywhere.
        let empty = Frame::sample(
            &Scene::new("empty", 640, 384).with_background(0.3, 0.1, vec![]),
            0,
            0,
            0.0,
        );
        assert_matches_scalar_walk(&empty, 64);
        // A placement fully outside the frame, and one whose object is missing: both are
        // skipped by the scalar walk and must be skipped here too.
        let mut frame = Frame::sample(&busy_scene(), 0, 0, 0.0);
        frame.placements.push(ObjectPlacement {
            object_id: 1,
            region: Rect::new(5_000, 5_000, 64, 64),
        });
        frame.placements.push(ObjectPlacement {
            object_id: 999, // no such object
            region: Rect::new(10, 10, 500, 500),
        });
        assert_matches_scalar_walk(&frame, 64);
    }

    #[test]
    fn refill_reuses_buffers_across_geometries() {
        let big = Frame::sample(&busy_scene(), 0, 0, 0.0);
        let small = Frame::sample(
            &Scene::new("small", 256, 192).with_background(0.2, 0.0, vec![]),
            0,
            0,
            0.0,
        );
        let mut grid = GridContent::new();
        grid.fill(&big, 64);
        grid.fill(&small, 64);
        assert_eq!(grid.dims(), GridDims::for_frame(256, 192, 64));
        grid.fill(&big, 64);
        assert_matches_scalar_walk(&big, 64);
    }
}
