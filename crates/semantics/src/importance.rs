//! Importance maps: the per-patch semantic correlation ρ_mn of Eq. 1, as a grid.
//!
//! The map is produced by [`crate::ClipModel::correlation_map`] and consumed by the
//! context-aware QP allocator (Eq. 2 in `aivchat-core`). It also provides the ASCII heat map
//! of the Figure 5 harness and nearest-center sampling onto the encoder's CTU grid when the
//! patch size and CTU size differ.

use aivc_scene::GridDims;

/// A per-patch semantic correlation map with values in `[-1, 1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct ImportanceMap {
    dims: GridDims,
    width: u32,
    height: u32,
    rho: Vec<f64>,
}

impl ImportanceMap {
    /// Builds a map; `rho` must be row-major and match the grid size.
    pub fn new(dims: GridDims, width: u32, height: u32, rho: Vec<f64>) -> Self {
        assert_eq!(rho.len(), dims.len(), "importance map size mismatch");
        assert!(rho.iter().all(|r| (-1.0..=1.0).contains(r)), "rho out of [-1, 1]");
        Self {
            dims,
            width,
            height,
            rho,
        }
    }

    /// A map with uniform correlation (used when no user words are available — the paper's
    /// "proactive context-aware" open question, §4).
    pub fn uniform(dims: GridDims, width: u32, height: u32, rho: f64) -> Self {
        Self::new(dims, width, height, vec![rho.clamp(-1.0, 1.0); dims.len()])
    }

    /// An empty placeholder map (used as the initial state of reusable scratch buffers).
    pub(crate) fn empty() -> Self {
        Self {
            dims: GridDims::for_frame(1, 1, 1),
            width: 0,
            height: 0,
            rho: Vec::new(),
        }
    }

    /// Starts an in-place refill: sets the geometry and zero-fills the values (the
    /// empty-query map), keeping the allocation. Callers then overwrite the cells they
    /// evaluate with [`ImportanceMap::set_value`].
    pub(crate) fn begin_refill(&mut self, dims: GridDims, width: u32, height: u32) {
        self.dims = dims;
        self.width = width;
        self.height = height;
        self.rho.clear();
        self.rho.resize(dims.len(), 0.0);
    }

    /// Overwrites one value in place.
    pub(crate) fn set_value(&mut self, index: usize, rho: f64) {
        debug_assert!((-1.0..=1.0).contains(&rho), "rho out of [-1, 1]");
        self.rho[index] = rho;
    }

    /// The patch grid.
    pub fn dims(&self) -> GridDims {
        self.dims
    }

    /// Frame width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Frame height in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Correlation of the patch at `(row, col)`.
    pub fn get(&self, row: u32, col: u32) -> f64 {
        self.rho[self.dims.index(row, col)]
    }

    /// All correlations in row-major order.
    pub fn values(&self) -> &[f64] {
        &self.rho
    }

    /// Maximum correlation in the map.
    fn max_rho(&self) -> f64 {
        self.rho.iter().copied().fold(-1.0, f64::max)
    }

    /// Minimum correlation in the map.
    fn min_rho(&self) -> f64 {
        self.rho.iter().copied().fold(1.0, f64::min)
    }

    /// The value a resample onto `target`, another grid over the same frame, would place at
    /// the target cell `(row, col)` (nearest-center sampling) — how the Eq. 2 allocator's
    /// `allocate_into` in `aivchat-core` reads a map whose patch size differs from the CTU
    /// size without materializing the resampled map.
    pub fn nearest_value_for_cell(&self, target: GridDims, row: u32, col: u32) -> f64 {
        let rect = target.cell_rect(row, col, self.width, self.height);
        let (cx, cy) = rect.center();
        let src_col = ((cx / self.dims.cell as f64) as u32).min(self.dims.cols - 1);
        let src_row = ((cy / self.dims.cell as f64) as u32).min(self.dims.rows - 1);
        self.get(src_row, src_col)
    }

    /// Renders a coarse ASCII heat map (`.` low, `#` high) for terminal inspection
    /// (the Figure 5 visualization substitute).
    pub fn to_ascii(&self) -> String {
        const RAMP: &[u8] = b".:-=+*%#";
        let lo = self.min_rho();
        let hi = self.max_rho();
        let span = (hi - lo).max(1e-9);
        let mut out = String::new();
        for row in 0..self.dims.rows {
            for col in 0..self.dims.cols {
                let t = (self.get(row, col) - lo) / span;
                let idx = ((t * (RAMP.len() - 1) as f64).round() as usize).min(RAMP.len() - 1);
                out.push(RAMP[idx] as char);
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map() -> ImportanceMap {
        let dims = GridDims::for_frame(256, 128, 64); // 4 x 2
        ImportanceMap::new(dims, 256, 128, vec![0.9, 0.1, -0.2, 0.4, 0.0, 0.7, 0.3, -0.5])
    }

    #[test]
    fn statistics() {
        let m = map();
        assert_eq!(m.max_rho(), 0.9);
        assert_eq!(m.min_rho(), -0.5);
    }

    #[test]
    fn resample_to_finer_grid_preserves_values() {
        let m = map();
        // The finer (8 x 4) grid's cell (r, c) falls inside the original cell (r / 2, c / 2).
        let finer = GridDims::for_frame(256, 128, 32);
        assert_eq!(finer.cols, 8);
        for row in 0..finer.rows {
            for col in 0..finer.cols {
                assert_eq!(m.nearest_value_for_cell(finer, row, col), m.get(row / 2, col / 2));
            }
        }
    }

    #[test]
    fn resample_to_same_grid_is_identity() {
        let m = map();
        let dims = m.dims();
        for row in 0..dims.rows {
            for col in 0..dims.cols {
                assert_eq!(m.nearest_value_for_cell(dims, row, col), m.get(row, col));
            }
        }
    }

    #[test]
    fn ascii_has_row_per_line_and_marks_extremes() {
        let m = map();
        let art = m.to_ascii();
        assert_eq!(art.lines().count(), 2);
        assert!(art.contains('#'));
        assert!(art.contains('.'));
    }

    #[test]
    #[should_panic(expected = "out of [-1, 1]")]
    fn out_of_range_rho_rejected() {
        let dims = GridDims::for_frame(64, 64, 64);
        let _ = ImportanceMap::new(dims, 64, 64, vec![1.5]);
    }

    #[test]
    fn uniform_map() {
        let dims = GridDims::for_frame(128, 128, 64);
        let m = ImportanceMap::uniform(dims, 128, 128, 0.5);
        assert!(m.values().iter().all(|v| *v == 0.5));
    }
}
