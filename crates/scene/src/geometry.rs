//! Pixel-space geometry primitives shared by the scene generator, the codec simulator
//! (CTU grids) and the CLIP-like patch encoder (patch grids).

/// An axis-aligned rectangle in pixel coordinates.
///
/// The rectangle covers pixels `[x, x + w) x [y, y + h)`. Width/height of zero denote an
/// empty rectangle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rect {
    /// Left edge in pixels.
    pub x: i64,
    /// Top edge in pixels.
    pub y: i64,
    /// Width in pixels.
    pub w: u32,
    /// Height in pixels.
    pub h: u32,
}

impl Rect {
    /// Creates a new rectangle.
    pub const fn new(x: i64, y: i64, w: u32, h: u32) -> Self {
        Self { x, y, w, h }
    }

    /// Area in pixels.
    pub fn area(&self) -> u64 {
        self.w as u64 * self.h as u64
    }

    /// True when the rectangle covers no pixels.
    pub fn is_empty(&self) -> bool {
        self.w == 0 || self.h == 0
    }

    /// Right edge (exclusive).
    pub fn right(&self) -> i64 {
        self.x + self.w as i64
    }

    /// Bottom edge (exclusive).
    pub fn bottom(&self) -> i64 {
        self.y + self.h as i64
    }

    /// Intersection of two rectangles, or an empty rect when they do not overlap.
    pub fn intersect(&self, other: &Rect) -> Rect {
        let x0 = self.x.max(other.x);
        let y0 = self.y.max(other.y);
        let x1 = self.right().min(other.right());
        let y1 = self.bottom().min(other.bottom());
        if x1 <= x0 || y1 <= y0 {
            Rect::new(x0, y0, 0, 0)
        } else {
            Rect::new(x0, y0, (x1 - x0) as u32, (y1 - y0) as u32)
        }
    }

    /// Fraction of `self`'s area covered by `other`, in `[0, 1]`.
    pub fn coverage_by(&self, other: &Rect) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.intersect(other).area() as f64 / self.area() as f64
    }

    /// Clamps the rectangle so that it stays fully inside a `width x height` canvas,
    /// preserving its size where possible.
    pub fn clamped_to(&self, width: u32, height: u32) -> Rect {
        let w = self.w.min(width);
        let h = self.h.min(height);
        let max_x = width as i64 - w as i64;
        let max_y = height as i64 - h as i64;
        Rect::new(self.x.clamp(0, max_x.max(0)), self.y.clamp(0, max_y.max(0)), w, h)
    }

    /// Center point of the rectangle.
    pub fn center(&self) -> (f64, f64) {
        (
            self.x as f64 + self.w as f64 / 2.0,
            self.y as f64 + self.h as f64 / 2.0,
        )
    }
}

/// Dimensions of a regular grid of `cell x cell` tiles covering a `width x height` canvas.
///
/// Both the codec (CTUs, usually 64x64) and the CLIP patch encoder (patches, usually 32..64)
/// tile frames this way; partial cells at the right/bottom edges are included.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridDims {
    /// Number of columns.
    pub cols: u32,
    /// Number of rows.
    pub rows: u32,
    /// Cell edge length in pixels.
    pub cell: u32,
}

impl GridDims {
    /// Computes the grid covering `width x height` with `cell`-sized tiles (ceil division).
    pub fn for_frame(width: u32, height: u32, cell: u32) -> Self {
        assert!(cell > 0, "grid cell size must be positive");
        Self {
            cols: width.div_ceil(cell),
            rows: height.div_ceil(cell),
            cell,
        }
    }

    /// Total number of cells.
    pub fn len(&self) -> usize {
        self.cols as usize * self.rows as usize
    }

    /// True when the grid has no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pixel rectangle of the cell at `(row, col)`, clipped to the frame.
    pub fn cell_rect(&self, row: u32, col: u32, width: u32, height: u32) -> Rect {
        let x = (col * self.cell) as i64;
        let y = (row * self.cell) as i64;
        let w = (width as i64 - x).clamp(0, self.cell as i64) as u32;
        let h = (height as i64 - y).clamp(0, self.cell as i64) as u32;
        Rect::new(x, y, w, h)
    }

    /// Flat index of `(row, col)`.
    pub fn index(&self, row: u32, col: u32) -> usize {
        row as usize * self.cols as usize + col as usize
    }

    /// Inverse of [`GridDims::index`].
    pub fn position(&self, index: usize) -> (u32, u32) {
        (
            (index / self.cols as usize) as u32,
            (index % self.cols as usize) as u32,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rect_area_and_empty() {
        assert_eq!(Rect::new(0, 0, 10, 5).area(), 50);
        assert!(Rect::new(3, 3, 0, 7).is_empty());
        assert!(!Rect::new(3, 3, 1, 7).is_empty());
    }

    #[test]
    fn rect_intersection_overlapping() {
        let a = Rect::new(0, 0, 100, 100);
        let b = Rect::new(50, 50, 100, 100);
        let i = a.intersect(&b);
        assert_eq!(i, Rect::new(50, 50, 50, 50));
        assert!((a.coverage_by(&b) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn rect_intersection_disjoint_is_empty() {
        let a = Rect::new(0, 0, 10, 10);
        let b = Rect::new(20, 20, 10, 10);
        assert!(a.intersect(&b).is_empty());
        assert_eq!(a.coverage_by(&b), 0.0);
    }

    #[test]
    fn rect_clamp_keeps_inside_canvas() {
        let r = Rect::new(-20, 1900, 100, 300).clamped_to(1920, 1080);
        assert!(r.x >= 0 && r.y >= 0);
        assert!(r.right() <= 1920 && r.bottom() <= 1080);
        assert_eq!(r.w, 100);
        assert_eq!(r.h, 300);
    }

    #[test]
    fn grid_covers_frame_with_partial_cells() {
        let g = GridDims::for_frame(1920, 1080, 64);
        assert_eq!(g.cols, 30);
        assert_eq!(g.rows, 17); // 1080 / 64 = 16.875 -> 17
        let last = g.cell_rect(16, 29, 1920, 1080);
        assert_eq!(last.h, 1080 - 16 * 64);
        assert_eq!(last.w, 64);
        assert_eq!(g.len(), 30 * 17);
    }

    #[test]
    fn grid_index_roundtrip() {
        let g = GridDims::for_frame(640, 480, 32);
        for row in 0..g.rows {
            for col in 0..g.cols {
                let idx = g.index(row, col);
                assert_eq!(g.position(idx), (row, col));
            }
        }
    }
}
