//! Quantization parameters and per-CTU QP maps.
//!
//! H.265 QPs range from 0 (near lossless) to 51 (coarsest). The paper's Eq. 2 maps semantic
//! correlation ρ ∈ [−1, 1] to a per-region QP; this module provides the QP value type and
//! the grid container the encoder consumes.

use aivc_scene::GridDims;
use serde::{Deserialize, Serialize};

/// Minimum legal H.265 QP.
pub const QP_MIN: u8 = 0;
/// Maximum legal H.265 QP.
pub const QP_MAX: u8 = 51;

/// A quantization parameter, guaranteed to lie in `[0, 51]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Qp(u8);

impl Qp {
    /// Creates a QP, clamping into the legal range.
    pub fn new(value: i32) -> Self {
        Qp(value.clamp(QP_MIN as i32, QP_MAX as i32) as u8)
    }

    /// Creates a QP from a float, rounding then clamping.
    pub fn from_f64(value: f64) -> Self {
        Qp::new(value.round() as i32)
    }

    /// The numeric QP value.
    pub fn value(self) -> u8 {
        self.0
    }

    /// The QP as `f64` (convenient for R-D math).
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// Returns this QP offset by `delta`, clamped to the legal range.
    pub fn offset(self, delta: i32) -> Qp {
        Qp::new(self.0 as i32 + delta)
    }
}

impl std::fmt::Display for Qp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "QP{}", self.0)
    }
}

/// A per-CTU QP map over a frame's block grid (row-major).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QpMap {
    dims: GridDims,
    values: Vec<Qp>,
}

impl QpMap {
    /// A uniform QP map (the context-agnostic baseline).
    pub fn uniform(dims: GridDims, qp: Qp) -> Self {
        Self {
            values: vec![qp; dims.len()],
            dims,
        }
    }

    /// Builds a map from per-cell values; the length must match the grid size.
    pub fn from_values(dims: GridDims, values: Vec<Qp>) -> Self {
        assert_eq!(values.len(), dims.len(), "QP map size mismatch");
        Self { dims, values }
    }

    /// An empty placeholder map — the natural initial state for reusable buffers that are
    /// later refilled in place via [`QpMap::begin_refill`] (e.g. the Eq. 2 allocator's
    /// `allocate_into` in `aivchat-core`).
    pub fn empty() -> Self {
        Self {
            dims: GridDims::for_frame(1, 1, 1),
            values: Vec::new(),
        }
    }

    /// Starts an in-place refill: sets the grid and clears the values, keeping the
    /// allocation. Callers push exactly `dims.len()` values with [`QpMap::push_value`] and
    /// then call [`QpMap::finish_refill`]. Once the buffer has grown to the largest grid it
    /// sees, further refills perform no heap allocation.
    pub fn begin_refill(&mut self, dims: GridDims) {
        self.dims = dims;
        self.values.clear();
        self.values.reserve(dims.len());
    }

    /// Appends one value during an in-place refill.
    pub fn push_value(&mut self, qp: Qp) {
        self.values.push(qp);
    }

    /// Finishes an in-place refill, enforcing the same invariant as [`QpMap::from_values`].
    pub fn finish_refill(&self) {
        assert_eq!(self.values.len(), self.dims.len(), "QP map size mismatch");
    }

    /// The grid dimensions.
    pub fn dims(&self) -> GridDims {
        self.dims
    }

    /// The QP of the cell at `(row, col)`.
    pub fn get(&self, row: u32, col: u32) -> Qp {
        self.values[self.dims.index(row, col)]
    }

    /// The QP of the cell at a flat index.
    pub fn get_index(&self, index: usize) -> Qp {
        self.values[index]
    }

    /// Sets the QP of the cell at `(row, col)`.
    pub fn set(&mut self, row: u32, col: u32, qp: Qp) {
        let i = self.dims.index(row, col);
        self.values[i] = qp;
    }

    /// All QP values in row-major order.
    pub fn values(&self) -> &[Qp] {
        &self.values
    }

    /// Mean QP across the map.
    pub fn mean_qp(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().map(|q| q.as_f64()).sum::<f64>() / self.values.len() as f64
    }

    /// Minimum QP in the map.
    pub fn min_qp(&self) -> Qp {
        self.values
            .iter()
            .copied()
            .min()
            .unwrap_or(Qp::new(QP_MAX as i32))
    }

    /// Maximum QP in the map.
    pub fn max_qp(&self) -> Qp {
        self.values
            .iter()
            .copied()
            .max()
            .unwrap_or(Qp::new(QP_MIN as i32))
    }

    /// Applies a uniform offset to every cell (clamped per cell).
    pub fn offset_all(&self, delta: i32) -> QpMap {
        QpMap {
            dims: self.dims,
            values: self.values.iter().map(|q| q.offset(delta)).collect(),
        }
    }

    /// [`QpMap::offset_all`] into a caller-owned map — the reuse form for per-frame rate
    /// control loops that probe many offsets (once `out` has grown to the grid size,
    /// refills perform no heap allocation). Output is identical to [`QpMap::offset_all`].
    pub fn offset_all_into(&self, delta: i32, out: &mut QpMap) {
        out.begin_refill(self.dims);
        for q in &self.values {
            out.push_value(q.offset(delta));
        }
        out.finish_refill();
    }

    /// Refills this map as a uniform map in place — the reuse form of [`QpMap::uniform`].
    pub fn fill_uniform(&mut self, dims: GridDims, qp: Qp) {
        self.begin_refill(dims);
        for _ in 0..dims.len() {
            self.push_value(qp);
        }
        self.finish_refill();
    }

    /// Renders the map as a compact ASCII grid (one row per line, values space-separated) —
    /// used by the Figure 10 harness to "visualize" the CLIP-informed QP map.
    pub fn to_ascii(&self) -> String {
        let mut out = String::new();
        for row in 0..self.dims.rows {
            for col in 0..self.dims.cols {
                if col > 0 {
                    out.push(' ');
                }
                out.push_str(&format!("{:2}", self.get(row, col).value()));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dims() -> GridDims {
        GridDims::for_frame(256, 128, 64)
    }

    #[test]
    fn in_place_refill_forms_match_their_allocating_counterparts() {
        let mut base = QpMap::uniform(dims(), Qp::new(30));
        base.set(0, 1, Qp::new(5));
        base.set(1, 0, Qp::new(48));
        let mut out = QpMap::empty();
        for delta in [-51, -7, 0, 9, 51] {
            base.offset_all_into(delta, &mut out);
            assert_eq!(out, base.offset_all(delta), "delta {delta}");
        }
        let mut uniform = QpMap::empty();
        uniform.fill_uniform(dims(), Qp::new(23));
        assert_eq!(uniform, QpMap::uniform(dims(), Qp::new(23)));
        // Shrinking to a smaller grid reuses the buffer and stays consistent.
        let small = GridDims::for_frame(128, 64, 64);
        uniform.fill_uniform(small, Qp::new(11));
        assert_eq!(uniform, QpMap::uniform(small, Qp::new(11)));
    }

    #[test]
    fn qp_clamps_to_legal_range() {
        assert_eq!(Qp::new(-5).value(), 0);
        assert_eq!(Qp::new(200).value(), 51);
        assert_eq!(Qp::from_f64(31.6).value(), 32);
        assert_eq!(Qp::new(30).offset(100).value(), 51);
        assert_eq!(Qp::new(30).offset(-100).value(), 0);
    }

    #[test]
    fn uniform_map_statistics() {
        let m = QpMap::uniform(dims(), Qp::new(30));
        assert_eq!(m.mean_qp(), 30.0);
        assert_eq!(m.min_qp(), Qp::new(30));
        assert_eq!(m.max_qp(), Qp::new(30));
        assert_eq!(m.values().len(), dims().len());
    }

    #[test]
    fn set_and_get_roundtrip() {
        let mut m = QpMap::uniform(dims(), Qp::new(40));
        m.set(1, 2, Qp::new(10));
        assert_eq!(m.get(1, 2), Qp::new(10));
        assert_eq!(m.get_index(dims().index(1, 2)), Qp::new(10));
        assert_eq!(m.min_qp(), Qp::new(10));
    }

    #[test]
    fn offset_all_clamps() {
        let m = QpMap::uniform(dims(), Qp::new(48)).offset_all(10);
        assert!(m.values().iter().all(|q| q.value() == 51));
    }

    #[test]
    fn ascii_rendering_has_one_line_per_row() {
        let m = QpMap::uniform(dims(), Qp::new(7));
        let ascii = m.to_ascii();
        assert_eq!(ascii.lines().count(), dims().rows as usize);
        assert!(ascii.contains(" 7"));
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn from_values_checks_length() {
        let _ = QpMap::from_values(dims(), vec![Qp::new(1); 3]);
    }
}
