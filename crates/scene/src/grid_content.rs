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
//! **Bit-identity.** For every cell, the placements contributing to it are visited in
//! placement order (the outer loop ascends placements, and a placement touches a cell at
//! most once), each contribution uses the same `coverage_by` value on the same operands,
//! and the background/clamp finalization applies the same expressions in the same order —
//! so every per-cell f64 accumulation sequence is *identical* to the scalar walk's, not
//! merely close (property-tested in this module and relied on by the encoder and CLIP
//! golden fixtures). An update keeps that: a clean cell's inputs are bit-equal, a dirty
//! cell runs the same sequence, so an updated raster equals a fresh fill in every array.

use crate::frame::Frame;
use crate::geometry::{GridDims, Rect};
use crate::object::SceneObject;
use std::sync::atomic::{AtomicU64, Ordering};

/// Source of [`GridContent::generation`]s: one process-wide sequence, so two rasters share
/// a generation only when one is a clone of the other — holding the same content.
static NEXT_GENERATION: AtomicU64 = AtomicU64::new(1);

/// Per-cell `(object_id, fraction)` coverage lists for a whole grid in one CSR table: cell
/// `i`'s list is `entries[offsets[i]..offsets[i + 1]]`, in placement order — exactly
/// `RegionContent::object_coverage` for that cell's rectangle. One table per frame is
/// what the codec's frames carry instead of a list per block, so handing coverage from
/// the raster to an encoded frame to a decoded frame is two slice copies.
#[derive(Debug, Clone, Default, PartialEq)]
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

    /// Copies cells `range` of this table into `next` (sized already), whose entries up to
    /// `written` hold the cells before them; returns where the cell after them starts.
    fn carry_cells(&self, range: std::ops::Range<usize>, next: &mut CoverageTable, written: usize) -> usize {
        let (from, to) = (
            self.offsets[range.start] as usize,
            self.offsets[range.end] as usize,
        );
        let end = written + (to - from);
        for (new, old) in next.entries[written..end].iter_mut().zip(&self.entries[from..to]) {
            *new = *old;
        }
        let shift = (written as u32).wrapping_sub(from as u32);
        let carried = range.start + 1..=range.end;
        for (new, old) in next.offsets[carried.clone()]
            .iter_mut()
            .zip(&self.offsets[carried])
        {
            *new = old.wrapping_add(shift);
        }
        end
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
    cells: Option<(u32, u32, u32, u32)>,
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
    fn cells_of(&self, dims: GridDims, frame_rect: &Rect) -> Option<(u32, u32, u32, u32)> {
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
/// placement can have changed (see `mark_moved`) and splices their coverage lists into
/// the table; any other difference — or no previous capture — is a full `fill`. Either way
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
    /// Pixel area of each (possibly edge-clipped) cell.
    area: Vec<u64>,
    /// Per-cell `(object_id, fraction)` coverage lists.
    coverage: CoverageTable,
    /// The table an update splices into before swapping it with `coverage`; a fill uses
    /// its offsets as the per-cell write cursor. Entries reserved to the exact total.
    spare: CoverageTable,
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
fn cell_range(dims: GridDims, clipped: &Rect) -> (u32, u32, u32, u32) {
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
            area: Vec::new(),
            coverage: CoverageTable::default(),
            spare: CoverageTable::default(),
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
    /// no heap allocation unless the total coverage-entry count grows past the retained
    /// capacity.
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
        let cursor = &mut self.spare.offsets;
        cursor.clear();
        cursor.resize(n + 1, 0);
        self.area.clear();
        self.area.reserve(n);
        for row in 0..dims.rows {
            for col in 0..dims.cols {
                self.area
                    .push(dims.cell_rect(row, col, frame.width, frame.height).area());
            }
        }
        // Pass 1: per-cell entry counts plus the ordered scalar accumulations (coverage
        // totals and frac-weighted content), placement-outer so each cell sees its
        // contributors in placement order.
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
                    cursor[idx] += 1;
                    self.background_fraction[idx] += frac;
                    self.complexity[idx] += frac * texture;
                    self.motion[idx] += frac * motion;
                    self.detail[idx] += frac * detail;
                }
            }
        }
        // Prefix-sum the counts into offsets, then replay the placements to fill entries.
        let CoverageTable { offsets, entries } = &mut self.coverage;
        offsets.clear();
        offsets.reserve_exact(n + 1);
        let mut total = 0u32;
        offsets.push(0);
        for &count in &cursor[..n] {
            total += count;
            offsets.push(total);
        }
        entries.clear();
        entries.reserve_exact(total as usize);
        entries.resize(total as usize, (0, 0.0));
        cursor.fill(0);
        for placed in &self.prev_placements {
            let Some((row0, col0, row1, col1)) = placed.cells else {
                continue;
            };
            for row in row0..=row1 {
                for col in col0..=col1 {
                    let idx = dims.index(row, col);
                    let rect = dims.cell_rect(row, col, frame.width, frame.height);
                    let frac = rect.coverage_by(&placed.region);
                    let slot = offsets[idx] as usize + cursor[idx] as usize;
                    entries[slot] = (placed.object_id, frac);
                    cursor[idx] += 1;
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
    /// `fill` bit for bit — and their coverage lists spliced into the table; otherwise this
    /// is [`GridContent::fill`]. Either way — nothing moved included — the raster gets a new
    /// generation. Allocation-free once the buffers have grown.
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
        if self.dirty.iter().all(|&word| word == 0) {
            return;
        }
        // Every cell of a placement's range holds one entry for it, so the new table's
        // size is known before it is built.
        let total: usize = self
            .prev_placements
            .iter()
            .filter_map(|placed| placed.cells)
            .map(|(row0, col0, row1, col1)| ((row1 - row0 + 1) * (col1 - col0 + 1)) as usize)
            .sum();
        let n = dims.len();
        let mut next = std::mem::take(&mut self.spare);
        next.offsets.clear();
        next.offsets.reserve_exact(n + 1);
        next.offsets.resize(n + 1, 0);
        next.entries.clear();
        next.entries.reserve_exact(total);
        next.entries.resize(total, (0, 0.0));
        // `carried` cells and `written` entries of the new table are in place; `row`
        // follows the ascending dirty cells without dividing. A plain word loop: driving
        // this body from the `dirty_cells()` iterator measured ≈ 20 % slower per update.
        let (mut carried, mut written) = (0usize, 0usize);
        let (cols, mut row, mut row_start) = (dims.cols as usize, 0u32, 0usize);
        for word in 0..self.dirty.len() {
            let mut bits = self.dirty[word];
            while bits != 0 {
                let idx = word * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                written = self.coverage.carry_cells(carried..idx, &mut next, written);
                while idx >= row_start + cols {
                    row += 1;
                    row_start += cols;
                }
                written = self.recompute_cell(idx, row, (idx - row_start) as u32, frame, &mut next, written);
                carried = idx + 1;
            }
        }
        written = self.coverage.carry_cells(carried..n, &mut next, written);
        debug_assert_eq!(written, total);
        self.spare = std::mem::replace(&mut self.coverage, next);
    }

    /// Recomputes cell `idx` = `(row, col)` from the remembered placements — `fill`'s
    /// accumulation and epilogue for one cell — writing its coverage list to `next` from
    /// entry `written` on; returns where the next cell's list starts.
    fn recompute_cell(
        &mut self,
        idx: usize,
        row: u32,
        col: u32,
        frame: &Frame,
        next: &mut CoverageTable,
        mut written: usize,
    ) -> usize {
        let rect = self.dims.cell_rect(row, col, frame.width, frame.height);
        let (mut covered, mut complexity, mut motion, mut detail) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        for placed in &self.prev_placements {
            let (Some((row0, col0, row1, col1)), Some(content)) = (placed.cells, placed.content) else {
                continue;
            };
            if row < row0 || row > row1 || col < col0 || col > col1 {
                continue;
            }
            let frac = rect.coverage_by(&placed.region);
            debug_assert!(frac > 0.0, "a cell of the range is covered");
            next.entries[written] = (placed.object_id, frac);
            written += 1;
            covered += frac;
            complexity += frac * content[0];
            motion += frac * content[1];
            detail += frac * content[2];
        }
        next.offsets[idx + 1] = written as u32;
        self.background_fraction[idx] = covered;
        self.complexity[idx] = complexity;
        self.motion[idx] = motion;
        self.detail[idx] = detail;
        self.finalize_cell(idx, frame);
        written
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
    use std::sync::Arc;

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

    fn table_bits(table: &CoverageTable) -> (&[u32], Vec<(u32, u64)>) {
        (
            &table.offsets,
            table.entries.iter().map(|&(id, f)| (id, f.to_bits())).collect(),
        )
    }

    /// Every array, `area` and the whole coverage table, bit for bit.
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
        assert_eq!(updated.area(), fresh.area(), "{what}: area");
        assert_eq!(
            table_bits(updated.coverage_table()),
            table_bits(fresh.coverage_table()),
            "{what}: coverage table"
        );
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
            let mut frame = Frame::sample(&scene, 0, 0, 0.0);
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
        let scene = busy_scene();
        let frames: Vec<Frame> = [0.0, 0.2, 0.2].map(|t| Frame::sample(&scene, 0, 0, t)).into();
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
