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
//! Consecutive captures differ in a few placements' rects, so [`GridContent::update`]
//! recomputes only the cells those moves can have changed and reports them to whoever
//! derives per-cell state from the raster (see [`GridContent`]). A raster may have several
//! such readers — the encoder's rate plan owns one and CLIP reads it — so every `fill` and
//! `update` stamps it with a new [`GridContent::generation`], and a reader that missed one
//! can tell ([`GridContent::follows`]).
//!
//! The raster stores per-cell scalars only. Which objects cover a cell, and by how much,
//! is read off the few placements themselves ([`FrameCoverage`]), so no update rewrites a
//! per-cell list.
//!
//! **Bit-identity.** For every cell, the placements contributing to it are visited in
//! placement order (the outer loop ascends placements, and a placement touches a cell at
//! most once), each contribution uses the same `coverage_by` value on the same operands,
//! and the background/clamp finalization applies the same expressions in the same order —
//! so every per-cell f64 accumulation sequence is *identical* to the scalar walk's, not
//! merely close (property-tested in this module and relied on by the encoder and CLIP
//! golden fixtures). An update keeps that: a clean cell's inputs are bit-equal, a dirty
//! cell runs the same sequence, so an updated raster equals a fresh fill in every array.
//! A [`FrameCoverage`] cell list evaluates the same `coverage_by` over the same placements
//! in the same order, so it is the walk's `object_coverage` bit for bit too.

use crate::frame::Frame;
use crate::geometry::{GridDims, Rect};
use crate::object::SceneObject;
use std::sync::atomic::{AtomicU64, Ordering};

/// Source of [`GridContent::generation`]s: one process-wide sequence, so two rasters share
/// a generation only when one is a clone of the other — holding the same content.
static NEXT_GENERATION: AtomicU64 = AtomicU64::new(1);

/// Inclusive cell range `(row0, col0, row1, col1)`.
type CellRange = (u32, u32, u32, u32);

fn contains(cells: &CellRange, row: u32, col: u32) -> bool {
    let &(row0, col0, row1, col1) = cells;
    (row0..=row1).contains(&row) && (col0..=col1).contains(&col)
}

/// A frame's per-cell object coverage, kept as the placements that produce it: the frame
/// size, the grid, and every placement that covers some cell (its object is in the frame,
/// its rect overlaps the frame) as `(object_id, rect, inclusive cell range)`, in placement
/// order. A cell's list is worked out on read, by the expression
/// [`Frame::region_content_into`] uses over the same placements in the same order, so it
/// equals that walk's `object_coverage` bit for bit. A handful of placements is what the
/// codec's frames carry, so handing coverage from the raster to an encoded frame to a
/// decoded frame copies a few rects (`clone_from` reuses the target's buffer).
#[derive(Debug, PartialEq)]
pub struct FrameCoverage {
    size: (u32, u32),
    dims: GridDims,
    placed: Vec<(u32, Rect, CellRange)>,
}

impl Default for FrameCoverage {
    fn default() -> Self {
        Self {
            size: (0, 0),
            dims: GridDims {
                cols: 0,
                rows: 0,
                cell: 1,
            },
            placed: Vec::new(),
        }
    }
}

impl Clone for FrameCoverage {
    fn clone(&self) -> Self {
        Self {
            size: self.size,
            dims: self.dims,
            placed: self.placed.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.size = source.size;
        self.dims = source.dims;
        self.placed.clone_from(&source.placed);
    }
}

impl FrameCoverage {
    /// The geometry of the frame this coverage was rasterized from: its size
    /// `(width, height)` and the cell grid laid on it.
    pub fn geometry(&self) -> ((u32, u32), GridDims) {
        (self.size, self.dims)
    }

    /// Cell `idx`'s `(object_id, fraction)` coverage list, in placement order.
    pub fn cell(&self, idx: usize) -> impl Iterator<Item = (u32, f64)> + '_ {
        let (row, col) = self.dims.position(idx);
        let rect = self.dims.cell_rect(row, col, self.size.0, self.size.1);
        self.placed
            .iter()
            .filter(move |(_, _, cells)| contains(cells, row, col))
            .map(move |(object_id, region, _)| (*object_id, rect.coverage_by(region)))
    }

    /// The cells `object_id` covers by at least `min_cover`, ascending, each with the
    /// fraction of the first of that object's placements that reaches it — `cell(i)`'s
    /// first such entry for every `i`, walking only the cells the object's placements span.
    pub fn cells_covered_by(
        &self,
        object_id: u32,
        min_cover: f64,
    ) -> impl Iterator<Item = (usize, f64)> + '_ {
        let own = move || self.placed.iter().filter(move |(id, _, _)| *id == object_id);
        let span = own()
            .map(|(_, _, cells)| *cells)
            .reduce(|a, b| (a.0.min(b.0), a.1.min(b.1), a.2.max(b.2), a.3.max(b.3)));
        span.into_iter()
            .flat_map(|(row0, col0, row1, col1)| {
                (row0..=row1).flat_map(move |row| (col0..=col1).map(move |col| (row, col)))
            })
            .filter_map(move |(row, col)| {
                let rect = self.dims.cell_rect(row, col, self.size.0, self.size.1);
                own()
                    .filter(|(_, _, cells)| contains(cells, row, col))
                    .map(|(_, region, _)| rect.coverage_by(region))
                    .find(|&frac| frac >= min_cover)
                    .map(|frac| (self.dims.index(row, col), frac))
            })
    }
}

/// One placement of the remembered capture, resolved for rasterization.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Placed {
    object_id: u32,
    region: Rect,
    /// `[texture_complexity, motion, detail]` of the frame object the id names (the first
    /// such object, as [`Frame::object`] finds it); `None` when the frame has none.
    content: Option<[f64; 3]>,
    /// Inclusive cell range `(row0, col0, row1, col1)` the region overlaps once clipped to
    /// the frame — every cell in it is covered by a positive fraction. `None` when the
    /// placement contributes nothing: no such object, or wholly off the frame.
    cells: Option<CellRange>,
}

/// What a rasterization reads of one frame object, and of the frame's background.
fn object_key(object: &SceneObject) -> (u32, [u64; 3]) {
    let content = [object.texture_complexity, object.motion, object.detail];
    (object.id, content.map(f64::to_bits))
}

fn background_key(frame: &Frame) -> [u64; 2] {
    [frame.background_complexity, frame.background_motion].map(f64::to_bits)
}

impl Placed {
    fn cells_of(&self, dims: GridDims, frame_rect: &Rect) -> Option<CellRange> {
        let clipped = self.region.intersect(frame_rect);
        (self.content.is_some() && !clipped.is_empty()).then(|| cell_range(dims, &clipped))
    }
}

/// Per-cell content descriptors for a whole frame grid, stored as structure-of-arrays so
/// downstream per-block kernels walk unit-stride memory.
///
/// **Incremental form.** The raster remembers everything [`GridContent::fill`] read from
/// the capture it last rasterized — frame size and cell, background complexity and motion,
/// every object's id / `texture_complexity` / `motion` / `detail` in order, and every
/// placement's `(object id, rect)` in order. [`GridContent::update`] compares the next
/// capture against that key: if only rects differ it recomputes just the cells a moved
/// placement can have changed (see `mark_moved`); any other difference — or no previous
/// capture — is a full `fill`. Either way
/// [`GridContent::dirty_cells`] then lists the cells whose descriptors were recomputed, so
/// a consumer holding per-cell state derived from the raster refreshes exactly those.
///
/// **Generations.** The dirty set is relative to the raster's previous content only. A
/// consumer that reads the raster after some calls but not all (a borrowed raster) records
/// the [`GridContent::generation`] it read and, next time, trusts `dirty_cells` only if
/// [`GridContent::follows`] that generation — otherwise something it never saw changed,
/// and it refreshes every cell.
#[derive(Debug, Clone)]
pub struct GridContent {
    dims: GridDims,
    /// Area-weighted spatial complexity per cell (same value as `RegionContent::complexity`).
    complexity: Vec<f64>,
    /// Area-weighted motion per cell.
    motion: Vec<f64>,
    /// Area-weighted detail per cell.
    detail: Vec<f64>,
    /// Background fraction per cell (during a fill: the running coverage total before the
    /// `min(1.0)` cap, converted by the finalize pass).
    background_fraction: Vec<f64>,
    /// Per-cell object coverage: the placements below that cover some cell.
    coverage: FrameCoverage,
    /// Of the remembered capture: frame `(width, height)` (`dims` holds the cell) and the
    /// bits of its background complexity and motion.
    size: (u32, u32),
    background: [u64; 2],
    /// `(id, bits of [texture_complexity, motion, detail])` of its objects, in order.
    objects: Vec<(u32, [u64; 3])>,
    /// Its placements, in order.
    prev_placements: Vec<Placed>,
    /// One bit per cell: recomputed by the last `fill` (all) or `update`.
    dirty: Vec<u64>,
    /// Stamp of the current content, drawn by every `fill` and `update` (0: never filled).
    generation: u64,
    /// The stamp the last `fill` or `update` started from — what `dirty` is relative to.
    base_generation: u64,
}

impl Default for GridContent {
    fn default() -> Self {
        Self::new()
    }
}

/// Grid-cell range `(row0, col0, row1, col1)` (inclusive) overlapped by a non-empty rect
/// already clipped to the frame.
fn cell_range(dims: GridDims, clipped: &Rect) -> CellRange {
    let cell = dims.cell as i64;
    let col0 = (clipped.x / cell) as u32;
    let row0 = (clipped.y / cell) as u32;
    let col1 = (((clipped.right() - 1) / cell) as u32).min(dims.cols - 1);
    let row1 = (((clipped.bottom() - 1) / cell) as u32).min(dims.rows - 1);
    (row0, col0, row1, col1)
}

/// Sets bits `start..end`.
fn set_bit_range(words: &mut [u64], start: usize, end: usize) {
    if start >= end {
        return;
    }
    let (first, last) = (start / 64, (end - 1) / 64);
    let head = u64::MAX << (start % 64);
    let tail = u64::MAX >> (63 - (end - 1) % 64);
    if first == last {
        words[first] |= head & tail;
    } else {
        words[first] |= head;
        words[first + 1..last].fill(u64::MAX);
        words[last] |= tail;
    }
}

/// Marks the cells whose coverage can differ after one placement moved from `old` to
/// `new`: every cell overlapping either rect, minus the cells lying fully inside both —
/// the object covers those at exactly 1.0 before and after, and any *other* placement
/// that changed over them marks them itself. Works a row of the grid at a time: the cells
/// inside both rects form one cell rectangle, cut out of each rect's cell range.
fn mark_moved(dims: GridDims, size: (u32, u32), old: &Rect, new: &Rect, dirty: &mut [u64]) {
    let (width, height) = size;
    let both = old.intersect(new);
    // Cells `lo..=hi` along one axis whose (frame-clipped) span lies inside `from..to`.
    let inside = |from: i64, to: i64, extent: u32, cells: u32| {
        let cell = dims.cell as i64;
        let lo = if from <= 0 { 0 } else { (from + cell - 1) / cell };
        let hi = if to >= extent as i64 {
            cells as i64 - 1
        } else {
            to.div_euclid(cell) - 1
        };
        (lo, hi)
    };
    let (keep_col0, keep_col1) = inside(both.x, both.right(), width, dims.cols);
    let (keep_row0, keep_row1) = inside(both.y, both.bottom(), height, dims.rows);
    let keeps = !both.is_empty() && keep_col0 <= keep_col1;
    for rect in [old, new] {
        let clipped = rect.intersect(&Rect::new(0, 0, width, height));
        if clipped.is_empty() {
            continue;
        }
        let (row0, col0, row1, col1) = cell_range(dims, &clipped);
        for row in row0..=row1 {
            let at = |col: i64| dims.index(row, 0) + col as usize;
            if keeps && (keep_row0..=keep_row1).contains(&(row as i64)) {
                set_bit_range(dirty, at(col0 as i64), at(keep_col0));
                set_bit_range(dirty, at(keep_col1 + 1), at(col1 as i64 + 1));
            } else {
                set_bit_range(dirty, at(col0 as i64), at(col1 as i64 + 1));
            }
        }
    }
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
            coverage: FrameCoverage::default(),
            size: (0, 0),
            background: [0; 2],
            objects: Vec::new(),
            prev_placements: Vec::new(),
            dirty: Vec::new(),
            generation: 0,
            base_generation: 0,
        }
    }

    /// Stamps the content about to be written with a new generation. `Relaxed` suffices:
    /// the counter publishes no other data, and a read-modify-write hands each value out
    /// once under any ordering.
    fn next_generation(&mut self) {
        self.base_generation = self.generation;
        self.generation = NEXT_GENERATION.fetch_add(1, Ordering::Relaxed);
    }

    /// Rasterizes `frame` onto the `cell`-sized grid from scratch, reusing every buffer,
    /// remembers it as the capture the next [`GridContent::update`] is relative to, and
    /// marks every cell dirty. After the first fill of a given geometry, refills perform
    /// no heap allocation unless the capture has more objects or placements than before.
    pub fn fill(&mut self, frame: &Frame, cell: u32) {
        self.next_generation();
        self.rasterize(frame, cell);
    }

    /// The body of [`GridContent::fill`], without the new generation. Kept out of `update`:
    /// inlined there it slowed the incremental path ≈ 12 % (`grid_content_update_10pct_dirty`).
    #[inline(never)]
    fn rasterize(&mut self, frame: &Frame, cell: u32) {
        let dims = GridDims::for_frame(frame.width, frame.height, cell);
        self.dims = dims;
        let n = dims.len();
        self.remember(frame);
        for buf in [
            &mut self.complexity,
            &mut self.motion,
            &mut self.detail,
            &mut self.background_fraction,
        ] {
            buf.clear();
            buf.resize(n, 0.0);
        }
        // The ordered scalar accumulations (coverage totals and frac-weighted content),
        // placement-outer so each cell sees its contributors in placement order.
        for placed in &self.prev_placements {
            let (Some((row0, col0, row1, col1)), Some([texture, motion, detail])) =
                (placed.cells, placed.content)
            else {
                continue;
            };
            for row in row0..=row1 {
                for col in col0..=col1 {
                    let idx = dims.index(row, col);
                    let rect = dims.cell_rect(row, col, frame.width, frame.height);
                    // Positive: the range holds exactly the cells the region overlaps.
                    let frac = rect.coverage_by(&placed.region);
                    self.background_fraction[idx] += frac;
                    self.complexity[idx] += frac * texture;
                    self.motion[idx] += frac * motion;
                    self.detail[idx] += frac * detail;
                }
            }
        }
        // Finalize: the exact background/clamp epilogue of `region_content_into`.
        for idx in 0..n {
            self.finalize_cell(idx, frame);
        }
        self.dirty.clear();
        self.dirty.resize(n.div_ceil(64), 0);
        set_bit_range(&mut self.dirty, 0, n);
    }

    /// The background/clamp epilogue of `region_content_into` for cell `idx`, whose
    /// `background_fraction` slot holds the running coverage total.
    fn finalize_cell(&mut self, idx: usize, frame: &Frame) {
        let covered = self.background_fraction[idx].min(1.0);
        let background_fraction = (1.0 - covered).max(0.0);
        self.complexity[idx] =
            (self.complexity[idx] + background_fraction * frame.background_complexity).clamp(0.0, 1.0);
        self.motion[idx] = (self.motion[idx] + background_fraction * frame.background_motion).clamp(0.0, 1.0);
        self.detail[idx] = self.detail[idx].clamp(0.0, 1.0);
        self.background_fraction[idx] = background_fraction;
    }

    /// Records everything a rasterization of `frame` on `self.dims` reads.
    fn remember(&mut self, frame: &Frame) {
        self.size = (frame.width, frame.height);
        self.background = background_key(frame);
        self.objects.clear();
        self.objects.extend(frame.objects.iter().map(object_key));
        let (dims, frame_rect) = (self.dims, frame.rect());
        self.prev_placements.clear();
        self.prev_placements.extend(frame.placements.iter().map(|p| {
            let mut placed = Placed {
                object_id: p.object_id,
                region: p.region,
                content: frame
                    .object(p.object_id)
                    .map(|o| [o.texture_complexity, o.motion, o.detail]),
                cells: None,
            };
            placed.cells = placed.cells_of(dims, &frame_rect);
            placed
        }));
        self.place_coverage();
    }

    /// Rebuilds `coverage` from the remembered placements that cover some cell.
    fn place_coverage(&mut self) {
        let coverage = &mut self.coverage;
        (coverage.size, coverage.dims) = (self.size, self.dims);
        coverage.placed.clear();
        coverage.placed.extend(
            self.prev_placements
                .iter()
                .filter_map(|placed| Some((placed.object_id, placed.region, placed.cells?))),
        );
    }

    /// Whether `frame` differs from the remembered capture in placement rects at most.
    fn same_but_for_rects(&self, frame: &Frame, cell: u32) -> bool {
        let (objects, placements) = (&self.objects, &self.prev_placements);
        self.dims == GridDims::for_frame(frame.width, frame.height, cell)
            && self.size == (frame.width, frame.height)
            && self.background == background_key(frame)
            && objects.len() == frame.objects.len()
            && placements.len() == frame.placements.len()
            && objects
                .iter()
                .zip(frame.objects.iter())
                .all(|(key, o)| *key == object_key(o))
            && placements
                .iter()
                .zip(&frame.placements)
                .all(|(placed, p)| placed.object_id == p.object_id)
    }

    /// Brings the raster to `frame` at the cost of what changed since the capture it holds:
    /// when the two differ in placement rects only, exactly the cells `mark_moved` marks
    /// are recomputed — by `fill`'s own expression sequence, so the result equals a fresh
    /// `fill` bit for bit; otherwise this is [`GridContent::fill`]. Either way — nothing
    /// moved included — the raster gets a new generation. Allocation-free once the buffers
    /// have grown.
    pub fn update(&mut self, frame: &Frame, cell: u32) {
        self.next_generation();
        if !self.same_but_for_rects(frame, cell) {
            return self.rasterize(frame, cell);
        }
        let (dims, frame_rect) = (self.dims, frame.rect());
        self.dirty.fill(0);
        for (placed, placement) in self.prev_placements.iter_mut().zip(&frame.placements) {
            if placed.region != placement.region {
                if placed.content.is_some() {
                    mark_moved(
                        dims,
                        self.size,
                        &placed.region,
                        &placement.region,
                        &mut self.dirty,
                    );
                }
                placed.region = placement.region;
                placed.cells = placed.cells_of(dims, &frame_rect);
            }
        }
        self.place_coverage();
        // `row` follows the ascending dirty cells without dividing. A plain word loop:
        // driving this body from the `dirty_cells()` iterator measured ≈ 20 % slower per
        // update.
        let (cols, mut row, mut row_start) = (dims.cols as usize, 0u32, 0usize);
        for word in 0..self.dirty.len() {
            let mut bits = self.dirty[word];
            while bits != 0 {
                let idx = word * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                while idx >= row_start + cols {
                    row += 1;
                    row_start += cols;
                }
                self.recompute_cell(idx, row, (idx - row_start) as u32, frame);
            }
        }
    }

    /// Recomputes cell `idx` = `(row, col)` from the remembered placements — `fill`'s
    /// accumulation and epilogue for one cell.
    fn recompute_cell(&mut self, idx: usize, row: u32, col: u32, frame: &Frame) {
        let rect = self.dims.cell_rect(row, col, frame.width, frame.height);
        let (mut covered, mut complexity, mut motion, mut detail) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        for placed in &self.prev_placements {
            let (Some(cells), Some(content)) = (placed.cells, placed.content) else {
                continue;
            };
            if !contains(&cells, row, col) {
                continue;
            }
            let frac = rect.coverage_by(&placed.region);
            debug_assert!(frac > 0.0, "a cell of the range is covered");
            covered += frac;
            complexity += frac * content[0];
            motion += frac * content[1];
            detail += frac * content[2];
        }
        self.background_fraction[idx] = covered;
        self.complexity[idx] = complexity;
        self.motion[idx] = motion;
        self.detail[idx] = detail;
        self.finalize_cell(idx, frame);
    }

    /// The cells whose descriptors the last [`GridContent::fill`] (every cell) or
    /// [`GridContent::update`] recomputed, ascending; all others hold what they held
    /// before that call.
    pub fn dirty_cells(&self) -> impl Iterator<Item = usize> + Clone + '_ {
        self.dirty.iter().enumerate().flat_map(|(at, &word)| {
            let rest = |w: u64| (w != 0).then_some(w);
            std::iter::successors(rest(word), move |&w| rest(w & (w - 1)))
                .map(move |w| at * 64 + w.trailing_zeros() as usize)
        })
    }

    /// The stamp of the raster's current content: new after every [`GridContent::fill`] and
    /// [`GridContent::update`], unique to this raster and its clones (0 before the first).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Whether the last `fill` or `update` started from the content stamped `generation` —
    /// i.e. whether [`GridContent::dirty_cells`] lists every cell that may differ from what
    /// a reader saw at that generation.
    pub fn follows(&self, generation: u64) -> bool {
        self.base_generation == generation
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

    /// Per-cell object coverage: `coverage().cell(idx)` is the list `region_content_into`
    /// would report for that cell's rectangle.
    pub fn coverage(&self) -> &FrameCoverage {
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
    use crate::source::{SourceConfig, VideoSource};
    use std::sync::Arc;

    fn assert_matches_scalar_walk(frame: &Frame, cell: u32) {
        let mut grid = GridContent::new();
        grid.fill(frame, cell);
        let dims = grid.dims();
        assert_eq!(dims, GridDims::for_frame(frame.width, frame.height, cell));
        let mut content = RegionContent::empty();
        for row in 0..dims.rows {
            for col in 0..dims.cols {
                let idx = dims.index(row, col);
                let rect = dims.cell_rect(row, col, frame.width, frame.height);
                frame.region_content_into(&rect, &mut content);
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
                    grid.coverage().cell(idx).collect::<Vec<_>>(),
                    content.object_coverage,
                    "coverage {row},{col}"
                );
            }
        }
        // A copy made in place over a stale one reads the same lists.
        let mut stale = GridContent::new();
        stale.fill(
            &VideoSource::new(busy_scene(), SourceConfig::fps30(1.0)).frame_at(0.9),
            32,
        );
        let mut copy = stale.coverage().clone();
        copy.clone_from(grid.coverage());
        assert_eq!(&copy, grid.coverage());
        // The per-object query is the per-cell `find`, for present and absent objects.
        for object_id in frame.placements.iter().map(|p| p.object_id).chain([4_242]) {
            for min_cover in [0.0, 0.02, 0.5, 1.0, f64::NAN] {
                assert_eq!(
                    copy.cells_covered_by(object_id, min_cover).collect::<Vec<_>>(),
                    covered_by_cell(&copy, dims, object_id, min_cover),
                    "object {object_id}, min cover {min_cover}"
                );
            }
        }
    }

    /// [`FrameCoverage::cells_covered_by`] the slow way: every cell's list, searched.
    fn covered_by_cell(
        coverage: &FrameCoverage,
        dims: GridDims,
        object_id: u32,
        min_cover: f64,
    ) -> Vec<(usize, f64)> {
        (0..dims.len())
            .filter_map(|idx| {
                coverage
                    .cell(idx)
                    .find(|&(id, f)| id == object_id && f >= min_cover)
                    .map(|(_, f)| (idx, f))
            })
            .collect()
    }

    #[test]
    fn coverage_query_reports_a_cell_once_for_its_first_matching_entry() {
        // Four 10-px cells in a row. Object 7 is placed three times: a sliver of cell 1
        // (1 %), all of cells 1–2 (a second entry in cell 1), and cell 1 again; object 3
        // covers a fifth of cell 1 and all of cell 3; object 5 has no placement.
        let mut scene = Scene::new("row", 40, 10).with_background(0.1, 0.0, vec![]);
        for id in [7, 3, 5] {
            scene.add_object(SceneObject::new(id, "o", Rect::new(0, 0, 1, 1)));
        }
        let mut frame = VideoSource::new(scene, SourceConfig::fps30(1.0)).frame(0);
        frame.placements = [
            (7, Rect::new(10, 0, 1, 1)),
            (7, Rect::new(14, 0, 16, 10)),
            (3, Rect::new(18, 0, 2, 10)),
            (7, Rect::new(10, 0, 10, 10)),
            (3, Rect::new(30, 0, 50, 10)),
        ]
        .map(|(object_id, region)| ObjectPlacement { object_id, region })
        .into();
        let mut grid = GridContent::new();
        grid.fill(&frame, 10);
        let coverage = grid.coverage();
        let list = |idx| coverage.cell(idx).collect::<Vec<_>>();
        assert_eq!(list(0), vec![]);
        assert_eq!(list(1), vec![(7, 0.01), (7, 0.6), (3, 0.2), (7, 1.0)]);
        let query = |id, min_cover| coverage.cells_covered_by(id, min_cover).collect::<Vec<_>>();
        assert_eq!(query(7, 0.05), vec![(1, 0.6), (2, 1.0)]);
        assert_eq!(query(7, 0.8), vec![(1, 1.0), (2, 1.0)]);
        assert_eq!(query(3, 0.0), vec![(1, 0.2), (3, 1.0)]);
        assert_eq!(query(5, 0.0), vec![]);
        assert_eq!(query(7, f64::NAN), vec![]);
        for (id, min_cover) in [(7, 0.0), (7, 0.05), (7, 0.8), (3, 0.5), (5, 0.0)] {
            assert_eq!(
                query(id, min_cover),
                covered_by_cell(coverage, grid.dims(), id, min_cover)
            );
        }
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
        let frame = VideoSource::new(busy_scene(), SourceConfig::fps30(1.0)).frame(0);
        for cell in [32, 64, 100] {
            assert_matches_scalar_walk(&frame, cell);
        }
    }

    #[test]
    fn rasterized_grid_matches_on_odd_geometries_and_moving_frames() {
        let mut scene = busy_scene();
        scene.width = 1000;
        scene.height = 700;
        let source = VideoSource::new(
            scene,
            SourceConfig {
                fps: 100.0,
                duration_secs: 2.0,
            },
        );
        for t in [0.0, 0.37, 1.9] {
            assert_matches_scalar_walk(&source.frame_at(t), 64);
        }
    }

    #[test]
    fn rasterized_grid_handles_empty_frames_and_stray_placements() {
        // No objects at all: pure background everywhere.
        let empty = VideoSource::new(
            Scene::new("empty", 640, 384).with_background(0.3, 0.1, vec![]),
            SourceConfig::fps30(1.0),
        )
        .frame(0);
        assert_matches_scalar_walk(&empty, 64);
        // A placement fully outside the frame, and one whose object is missing: both are
        // skipped by the scalar walk and must be skipped here too.
        let mut frame = VideoSource::new(busy_scene(), SourceConfig::fps30(1.0)).frame(0);
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
        let big = VideoSource::new(busy_scene(), SourceConfig::fps30(1.0)).frame(0);
        let small = VideoSource::new(
            Scene::new("small", 256, 192).with_background(0.2, 0.0, vec![]),
            SourceConfig::fps30(1.0),
        )
        .frame(0);
        let mut grid = GridContent::new();
        grid.fill(&big, 64);
        grid.fill(&small, 64);
        assert_eq!(grid.dims(), GridDims::for_frame(256, 192, 64));
        grid.fill(&big, 64);
        assert_matches_scalar_walk(&big, 64);
    }

    /// Deterministic generator for the motion-sequence tests.
    struct Lcg(u64);

    impl Lcg {
        /// A value in `lo..hi`.
        fn range(&mut self, lo: i64, hi: i64) -> i64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            lo + ((self.0 >> 33) % (hi - lo) as u64) as i64
        }

        fn unit(&mut self) -> f64 {
            self.range(0, 1001) as f64 / 1000.0
        }
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Every cell's coverage list, with its fractions' bits.
    fn coverage_bits(grid: &GridContent) -> Vec<Vec<(u32, u64)>> {
        (0..grid.dims().len())
            .map(|idx| {
                grid.coverage()
                    .cell(idx)
                    .map(|(id, f)| (id, f.to_bits()))
                    .collect()
            })
            .collect()
    }

    /// Every array and every cell's coverage list, bit for bit.
    fn assert_same_raster(updated: &GridContent, fresh: &GridContent, what: &str) {
        assert_eq!(updated.dims(), fresh.dims(), "{what}: dims");
        assert_eq!(
            bits(updated.complexity()),
            bits(fresh.complexity()),
            "{what}: complexity"
        );
        assert_eq!(bits(updated.motion()), bits(fresh.motion()), "{what}: motion");
        assert_eq!(bits(updated.detail()), bits(fresh.detail()), "{what}: detail");
        assert_eq!(
            bits(updated.background_fraction()),
            bits(fresh.background_fraction()),
            "{what}: background"
        );
        assert_eq!(coverage_bits(updated), coverage_bits(fresh), "{what}: coverage");
    }

    /// The tight rule cell by cell: overlapping the old or the new rect of a placement
    /// that moved (`union`), minus — per moved placement — the cells inside both (`tight`).
    /// Placements of unknown objects contribute nothing and mark nothing.
    fn dirty_rule_oracle(dims: GridDims, before: &Frame, after: &Frame) -> (Vec<bool>, Vec<bool>) {
        let (mut tight, mut union) = (vec![false; dims.len()], vec![false; dims.len()]);
        for (old, new) in before.placements.iter().zip(&after.placements) {
            if old.region == new.region || after.object(new.object_id).is_none() {
                continue;
            }
            let both = old.region.intersect(&new.region);
            for idx in 0..dims.len() {
                let (row, col) = dims.position(idx);
                let cell = dims.cell_rect(row, col, after.width, after.height);
                if [old, new].iter().any(|p| !cell.intersect(&p.region).is_empty()) {
                    union[idx] = true;
                    tight[idx] |= cell.intersect(&both) != cell;
                }
            }
        }
        (tight, union)
    }

    #[test]
    fn updated_raster_equals_a_fresh_fill_after_every_step_of_random_motion() {
        let (mut incremental_steps, mut tight_total, mut union_total) = (0usize, 0usize, 0usize);
        for seed in 0..12u64 {
            let mut rng = Lcg(seed);
            let mut scene = busy_scene();
            scene.width = 700 + 37 * seed as u32;
            scene.height = 410 + 23 * seed as u32;
            let mut frame = VideoSource::new(scene, SourceConfig::fps30(1.0)).frame(0);
            // A placement naming no object, and a second placement of object 2.
            frame.placements.push(ObjectPlacement {
                object_id: 999,
                region: Rect::new(10, 10, 300, 200),
            });
            frame.placements.push(ObjectPlacement {
                object_id: 2,
                region: Rect::new(50, 60, 130, 90),
            });
            let mut cell = 64;
            let mut grid = GridContent::new();
            let mut fresh = GridContent::new();
            grid.update(&frame, cell);
            assert_eq!(grid.dirty_cells().count(), grid.dims().len(), "first capture");
            for step in 0..80 {
                let before = frame.clone();
                let (width, height) = (frame.width as i64, frame.height as i64);
                let count = frame.placements.len() as i64;
                match rng.range(0, 16) {
                    // Background, an object's content, the object list, frame size, cell.
                    0 => frame.background_complexity = rng.unit(),
                    1 => frame.background_motion = rng.unit(),
                    2 => {
                        let object = &mut Arc::make_mut(&mut frame.objects)[rng.range(0, 4) as usize];
                        match rng.range(0, 3) {
                            0 => object.texture_complexity = rng.unit(),
                            1 => object.motion = rng.unit(),
                            _ => object.detail = rng.unit(),
                        }
                    }
                    3 => {
                        // A duplicate id: `Frame::object` keeps finding the first.
                        let mut twin = frame.objects[0].clone();
                        twin.texture_complexity = rng.unit();
                        let mut objects = frame.objects.to_vec();
                        objects.push(twin);
                        frame.objects = objects.into();
                    }
                    4 if frame.objects.len() > 4 => {
                        frame.objects = frame.objects[..frame.objects.len() - 1].into();
                    }
                    5 => {
                        frame.width = (width + rng.range(-40, 41)) as u32;
                        frame.height = (height + rng.range(-30, 31)) as u32;
                    }
                    6 => cell = [32, 48, 64, 200][rng.range(0, 4) as usize],
                    7 => frame.placements.swap(0, 1),
                    // Everything else moves one to three placements.
                    _ => {
                        for _ in 0..rng.range(1, 4) {
                            let at = rng.range(0, count) as usize;
                            let other = rng.range(0, count) as usize;
                            let r = frame.placements[at].region;
                            frame.placements[at].region = match rng.range(0, 6) {
                                // Sub-cell move.
                                0 => Rect::new(r.x + rng.range(-20, 21), r.y + rng.range(-20, 21), r.w, r.h),
                                // Jump anywhere, including off the frame.
                                1 => Rect::new(
                                    rng.range(-500, width + 200),
                                    rng.range(-400, height + 200),
                                    r.w,
                                    r.h,
                                ),
                                // Resize in place (possibly to nothing).
                                2 => Rect::new(r.x, r.y, rng.range(0, 500) as u32, rng.range(0, 400) as u32),
                                // Cross another placement: land on top of it.
                                3 => {
                                    let o = frame.placements[other].region;
                                    Rect::new(o.x + rng.range(-30, 31), o.y + rng.range(-30, 31), o.w, o.h)
                                }
                                // Leave the frame; come back covering all of it.
                                4 => Rect::new(width + 10, r.y, r.w, r.h),
                                _ => Rect::new(-5, -5, frame.width + 10, frame.height + 10),
                            };
                        }
                    }
                }
                let same_key = frame.objects == before.objects
                    && (frame.width, frame.height) == (before.width, before.height)
                    && frame.background_complexity.to_bits() == before.background_complexity.to_bits()
                    && frame.background_motion.to_bits() == before.background_motion.to_bits()
                    && grid.dims().cell == cell
                    && frame
                        .placements
                        .iter()
                        .zip(&before.placements)
                        .all(|(a, b)| a.object_id == b.object_id);
                grid.update(&frame, cell);
                fresh.fill(&frame, cell);
                let what = format!("seed {seed} step {step}");
                assert_same_raster(&grid, &fresh, &what);
                let dims = grid.dims();
                let marked: Vec<usize> = grid.dirty_cells().collect();
                if same_key {
                    let (tight, union) = dirty_rule_oracle(dims, &before, &frame);
                    let expected: Vec<usize> = (0..dims.len()).filter(|&idx| tight[idx]).collect();
                    assert_eq!(marked, expected, "{what}: dirty set");
                    assert!(
                        marked.iter().all(|&idx| union[idx]),
                        "{what}: beyond the rect rule"
                    );
                    incremental_steps += 1;
                    tight_total += marked.len();
                    union_total += union.iter().filter(|&&u| u).count();
                } else {
                    assert_eq!(marked.len(), dims.len(), "{what}: a changed key marks everything");
                }
                // The same capture again marks nothing and changes nothing.
                grid.update(&frame, cell);
                assert_eq!(grid.dirty_cells().count(), 0, "{what}: repeated frame");
                assert_same_raster(&grid, &fresh, &what);
            }
        }
        assert!(incremental_steps > 400, "{incremental_steps} incremental steps");
        assert!(
            tight_total < union_total,
            "moves should have skipped interior cells: {tight_total} vs {union_total}"
        );
    }

    #[test]
    fn every_fill_and_update_draws_a_generation_that_only_clones_share() {
        let source = VideoSource::new(busy_scene(), SourceConfig::fps30(1.0));
        let frames: Vec<Frame> = [0.0, 0.2, 0.2].map(|t| source.frame_at(t)).into();
        let mut grid = GridContent::new();
        assert_eq!(grid.generation(), 0);
        let mut seen = vec![0];
        for (step, frame) in frames.iter().enumerate() {
            // An update of an unchanged capture (the third) marks nothing yet still counts.
            grid.update(frame, 64);
            assert!(grid.follows(seen[step]), "step {step}: follows the one before");
            assert!(
                step == 0 || !grid.follows(seen[step - 1]),
                "step {step}: skipped one"
            );
            assert!(
                !seen.contains(&grid.generation()),
                "step {step}: a generation repeats"
            );
            seen.push(grid.generation());
        }
        assert_eq!(grid.dirty_cells().count(), 0);
        // A clone is the same content under the same stamp; an independent raster filled
        // with the same frame is not.
        let clone = grid.clone();
        assert_eq!(clone.generation(), grid.generation());
        let mut twin = GridContent::new();
        twin.fill(&frames[2], 64);
        assert_ne!(twin.generation(), grid.generation());
        // Two clones brought forward from one state both follow it.
        let (mut a, mut b) = (grid.clone(), grid);
        a.update(&frames[0], 64);
        b.fill(&frames[1], 64);
        assert!(a.follows(clone.generation()) && b.follows(clone.generation()));
        assert_ne!(a.generation(), b.generation());
    }
}
