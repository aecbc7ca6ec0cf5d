//! Eq. 2: mapping semantic correlation to per-CTU quantization parameters.
//!
//! The paper's allocation rule is
//!
//! ```text
//! QP_mn = 51 · ( 1 − ((ρ_mn + 1) / 2)^γ )          with γ = 3
//! ```
//!
//! so a perfectly correlated patch (ρ = 1) gets QP 0 (near lossless), an anti-correlated
//! patch (ρ = −1) gets QP 51 (coarsest), and the temperature γ "aggressively penalizes
//! irrelevant regions" by bending the curve so that moderately correlated patches already
//! receive fairly high QP.
//!
//! ## The threshold table
//!
//! The produced QP is quantized to an integer in `0..=51`, so evaluating the transcendental
//! `powf` once per CTU (≈ 8k calls per 1080p frame at 32-px patches) is wasted work: the ρ
//! axis partitions into at most 52 intervals, one per output QP. [`QpAllocator::new`]
//! computes the exact interval boundaries once per configuration — each boundary is refined
//! to the *exact* `f64` where the reference `powf` expression changes its rounded output —
//! and [`QpAllocator::qp_for_rho`] then answers through a 256-bucket jump index over the
//! segment table (constant-time bucket lookup plus a scan of the few segments sharing the
//! bucket), bit-identical to the reference path (see the exhaustive sweep in the tests and
//! the property tests in `tests/model_properties.rs`).

use aivc_scene::GridDims;
use aivc_semantics::ImportanceMap;
use aivc_videocodec::{Qp, QpMap};
use serde::{Deserialize, Serialize};

/// Configuration of the Eq. 2 allocator.
///
/// ## Clamp semantics
///
/// `min_qp`/`max_qp` clamp the *raw* Eq. 2 value before rounding, so at the extremes the
/// clamps win over the curve: ρ = 1 produces exactly `min_qp` and ρ = −1 produces exactly
/// `max_qp`, for every temperature γ > 0 (including γ < 1, which bends the curve the other
/// way but keeps the same endpoints). Values above 51 are saturated to 51 by [`Qp`] itself.
/// A configuration with `min_qp > max_qp` has no consistent meaning and is rejected by
/// [`QpAllocator::new`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QpAllocatorConfig {
    /// Temperature coefficient γ (paper: 3).
    pub gamma: f64,
    /// Optional lower clamp on the produced QP (0 = disabled). Useful for ablations: the
    /// paper's rule allows QP 0, which spends extreme bitrate on tiny regions.
    pub min_qp: u8,
    /// Optional upper clamp on the produced QP (51 = disabled).
    pub max_qp: u8,
}

impl Default for QpAllocatorConfig {
    fn default() -> Self {
        Self {
            gamma: 3.0,
            min_qp: 0,
            max_qp: 51,
        }
    }
}

impl QpAllocatorConfig {
    /// The paper's exact setting (γ = 3, no extra clamping).
    pub fn paper() -> Self {
        Self::default()
    }

    /// A variant with a different temperature (for the γ ablation).
    pub fn with_gamma(gamma: f64) -> Self {
        Self {
            gamma,
            ..Self::default()
        }
    }
}

/// One entry of the precomputed ρ-threshold table: the QP produced for every
/// ρ ∈ `[start_rho, next entry's start_rho)`.
#[derive(Debug, Clone, Copy)]
struct Segment {
    /// Smallest ρ (after clamping into `[-1, 1]`) that produces `qp`.
    start_rho: f64,
    /// The quantized Eq. 2 output over this segment.
    qp: Qp,
}

/// Buckets of the uniform jump index over `[-1, 1]` (see [`ThresholdTable::bucket_start`]).
const LUT_BUCKETS: usize = 256;

/// The precomputed ρ-threshold table plus its jump index.
#[derive(Debug, Clone)]
struct ThresholdTable {
    /// Threshold segments, ascending in `start_rho` (QP descending, since Eq. 2 is monotone
    /// non-increasing in ρ for γ > 0).
    segments: Vec<Segment>,
    /// For each uniform bucket of `[-1, 1]`: the index of the segment containing the
    /// bucket's left edge. A lookup jumps here and scans forward at most the couple of
    /// segments that share the bucket — O(1) with no data-dependent binary search.
    bucket_start: [u32; LUT_BUCKETS],
}

impl ThresholdTable {
    fn lookup(&self, rho: f64) -> Qp {
        // rho is clamped to [-1, 1] by the caller, so the bucket index is in range after
        // the min (rho = 1.0 maps to LUT_BUCKETS and is pulled back).
        let bucket = (((rho + 1.0) * (LUT_BUCKETS as f64 / 2.0)) as usize).min(LUT_BUCKETS - 1);
        let mut i = self.bucket_start[bucket] as usize;
        while i + 1 < self.segments.len() && self.segments[i + 1].start_rho <= rho {
            i += 1;
        }
        // Ulp-safety backstep: float rounding in the bucket computation can land one
        // segment ahead at an exact boundary. Rarely (if ever) taken.
        while i > 0 && self.segments[i].start_rho > rho {
            i -= 1;
        }
        self.segments[i].qp
    }
}

/// The Eq. 2 QP allocator.
#[derive(Debug, Clone)]
pub struct QpAllocator {
    config: QpAllocatorConfig,
    /// `None` when the configuration is outside the monotone regime (γ ≤ 0 or non-finite)
    /// — then every call falls back to the reference `powf` path.
    table: Option<ThresholdTable>,
}

impl Default for QpAllocator {
    fn default() -> Self {
        Self::new(QpAllocatorConfig::default())
    }
}

/// Maps an `f64` to a totally ordered `u64` (monotone bijection over all non-NaN values),
/// so boundary refinement can bisect at `f64` resolution.
fn ordered_bits(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits & (1 << 63) != 0 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

/// Inverse of [`ordered_bits`].
fn from_ordered_bits(o: u64) -> f64 {
    if o & (1 << 63) != 0 {
        f64::from_bits(o & !(1 << 63))
    } else {
        f64::from_bits(!o)
    }
}

impl QpAllocator {
    /// Creates an allocator, precomputing the ρ-threshold table for its configuration.
    ///
    /// Panics when `min_qp > max_qp` (see [`QpAllocatorConfig`]'s clamp semantics).
    pub fn new(config: QpAllocatorConfig) -> Self {
        assert!(
            config.min_qp <= config.max_qp,
            "QpAllocatorConfig: min_qp ({}) must not exceed max_qp ({})",
            config.min_qp,
            config.max_qp
        );
        Self {
            table: Self::build_table(config),
            config,
        }
    }

    /// The configuration.
    pub fn config(&self) -> QpAllocatorConfig {
        self.config
    }

    /// Eq. 2 for a single correlation value.
    ///
    /// Answers from the precomputed threshold table — a constant-time bucket jump plus a
    /// short scan instead of a `powf` — bit-identical to
    /// [`QpAllocator::qp_for_rho_reference`].
    pub fn qp_for_rho(&self, rho: f64) -> Qp {
        let Some(table) = &self.table else {
            return self.qp_for_rho_reference(rho);
        };
        if rho.is_nan() {
            return self.qp_for_rho_reference(rho);
        }
        table.lookup(rho.clamp(-1.0, 1.0))
    }

    /// The original transcendental evaluation of Eq. 2, kept as the reference the threshold
    /// table is constructed from and proven bit-identical against.
    #[doc(hidden)]
    pub fn qp_for_rho_reference(&self, rho: f64) -> Qp {
        reference_qp(self.config, rho)
    }

    /// Builds the ρ-threshold table: walk the (monotone non-increasing) quantized curve from
    /// ρ = −1 to ρ = 1, bisecting each output transition down to the exact `f64` boundary.
    /// Returns `None` outside the monotone regime or if a verification sweep finds any
    /// disagreement with the reference (e.g. a hypothetical non-monotone `powf` wobble).
    fn build_table(config: QpAllocatorConfig) -> Option<ThresholdTable> {
        if !config.gamma.is_finite() || config.gamma <= 0.0 {
            return None;
        }
        let reference = |rho: f64| reference_qp(config, rho);
        let mut segments = vec![Segment {
            start_rho: -1.0,
            qp: reference(-1.0),
        }];
        let final_qp = reference(1.0);
        while segments.last().unwrap().qp != final_qp {
            // 52 distinct outputs at most; more transitions would mean non-monotonicity.
            if segments.len() > 52 {
                return None;
            }
            let last = *segments.last().unwrap();
            // Bisect for the smallest rho in (last.start_rho, 1] whose output differs.
            let mut lo = ordered_bits(last.start_rho);
            let mut hi = ordered_bits(1.0);
            while hi - lo > 1 {
                let mid = lo + (hi - lo) / 2;
                if reference(from_ordered_bits(mid)) == last.qp {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            let boundary = from_ordered_bits(hi);
            segments.push(Segment {
                start_rho: boundary,
                qp: reference(boundary),
            });
        }
        // The jump index: for each uniform bucket, the segment containing its left edge.
        let mut bucket_start = [0u32; LUT_BUCKETS];
        for (bucket, start) in bucket_start.iter_mut().enumerate() {
            let left_edge = -1.0 + 2.0 * bucket as f64 / LUT_BUCKETS as f64;
            *start = (segments.partition_point(|s| s.start_rho <= left_edge) - 1) as u32;
        }
        let table = ThresholdTable {
            segments,
            bucket_start,
        };
        // Verification sweep: the table must reproduce the reference everywhere, including
        // one ulp on either side of every boundary. Bisection alone guarantees this only if
        // the reference is perfectly monotone, which IEEE `powf` does not promise.
        for i in 0..=4096u32 {
            let rho = -1.0 + 2.0 * i as f64 / 4096.0;
            if table.lookup(rho) != reference(rho) {
                return None;
            }
        }
        for s in &table.segments[1..] {
            let before = from_ordered_bits(ordered_bits(s.start_rho) - 1);
            for rho in [before, s.start_rho] {
                if table.lookup(rho) != reference(rho) {
                    return None;
                }
            }
        }
        Some(table)
    }

    /// Converts a per-patch importance map into a per-CTU QP map on the encoder's grid.
    ///
    /// When the CLIP patch grid and the encoder CTU grid differ, the importance map is
    /// resampled first (nearest-center), exactly as a real implementation would feed
    /// Kvazaar's ROI interface.
    pub fn allocate(&self, importance: &ImportanceMap, encoder_grid: GridDims) -> QpMap {
        let mut out = QpMap::empty();
        self.allocate_into(importance, encoder_grid, &mut out);
        out
    }

    /// [`QpAllocator::allocate`] into a caller-owned map. Resampling happens on the fly
    /// (nearest-center per target cell, identical values to [`ImportanceMap::resample`]), so
    /// once `out` has grown to the encoder grid the call performs no heap allocation.
    ///
    /// Raster-order neighbours of one patch class share their ρ bit for bit (a 1080p frame
    /// holds ≈ 23 classes over 510 cells), so the table is consulted once per run of equal
    /// ρ: a one-entry `(ρ bits → QP)` memo, exact because Eq. 2 is a pure function of ρ.
    pub fn allocate_into(&self, importance: &ImportanceMap, encoder_grid: GridDims, out: &mut QpMap) {
        let mut run: Option<(u64, Qp)> = None;
        let mut qp_for = |rho: f64| match run {
            Some((bits, qp)) if bits == rho.to_bits() => qp,
            _ => {
                let qp = self.qp_for_rho(rho);
                run = Some((rho.to_bits(), qp));
                qp
            }
        };
        out.begin_refill(encoder_grid);
        if importance.dims() == encoder_grid {
            for &rho in importance.values() {
                out.push_value(qp_for(rho));
            }
        } else {
            for row in 0..encoder_grid.rows {
                for col in 0..encoder_grid.cols {
                    out.push_value(qp_for(importance.nearest_value_for_cell(encoder_grid, row, col)));
                }
            }
        }
        out.finish_refill();
    }
}

/// The transcendental Eq. 2 evaluation (clamp ρ → normalize → `powf` → clamp → round).
fn reference_qp(config: QpAllocatorConfig, rho: f64) -> Qp {
    let rho = rho.clamp(-1.0, 1.0);
    let normalized = (rho + 1.0) / 2.0;
    let raw = 51.0 * (1.0 - normalized.powf(config.gamma));
    Qp::from_f64(raw.clamp(config.min_qp as f64, config.max_qp as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_endpoints() {
        let a = QpAllocator::new(QpAllocatorConfig::paper());
        assert_eq!(a.qp_for_rho(1.0).value(), 0);
        assert_eq!(a.qp_for_rho(-1.0).value(), 51);
        // ρ = 0 -> 51 * (1 - 0.5^3) = 44.625 -> 45.
        assert_eq!(a.qp_for_rho(0.0).value(), 45);
    }

    #[test]
    fn qp_is_monotone_decreasing_in_rho() {
        let a = QpAllocator::new(QpAllocatorConfig::paper());
        let mut prev = 52i32;
        for i in 0..=200 {
            let rho = -1.0 + 2.0 * i as f64 / 200.0;
            let qp = a.qp_for_rho(rho).value() as i32;
            assert!(qp <= prev, "qp increased at rho {rho}");
            prev = qp;
        }
    }

    #[test]
    fn higher_gamma_penalizes_moderate_rho_more() {
        let soft = QpAllocator::new(QpAllocatorConfig::with_gamma(1.0));
        let hard = QpAllocator::new(QpAllocatorConfig::with_gamma(5.0));
        // At a moderate correlation the aggressive temperature should assign a higher QP.
        assert!(hard.qp_for_rho(0.2).value() > soft.qp_for_rho(0.2).value());
        // At the extremes both agree.
        assert_eq!(hard.qp_for_rho(1.0).value(), soft.qp_for_rho(1.0).value());
        assert_eq!(hard.qp_for_rho(-1.0).value(), soft.qp_for_rho(-1.0).value());
    }

    #[test]
    fn clamping_limits_the_range() {
        let a = QpAllocator::new(QpAllocatorConfig {
            gamma: 3.0,
            min_qp: 20,
            max_qp: 46,
        });
        assert_eq!(a.qp_for_rho(1.0).value(), 20);
        assert_eq!(a.qp_for_rho(-1.0).value(), 46);
    }

    #[test]
    fn clamps_win_at_the_extremes_for_every_temperature() {
        // The documented contract: ρ = 1 ⇒ exactly min_qp, ρ = −1 ⇒ exactly max_qp,
        // regardless of γ — including γ < 1, which flattens the curve near ρ = −1.
        for gamma in [0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 10.0] {
            for (min_qp, max_qp) in [(0, 51), (10, 40), (26, 26), (0, 1), (50, 51)] {
                let a = QpAllocator::new(QpAllocatorConfig {
                    gamma,
                    min_qp,
                    max_qp,
                });
                assert_eq!(a.qp_for_rho(1.0).value(), min_qp, "gamma {gamma}");
                assert_eq!(a.qp_for_rho(-1.0).value(), max_qp, "gamma {gamma}");
                // And every value in between respects both clamps.
                for i in 0..=100 {
                    let qp = a.qp_for_rho(-1.0 + 2.0 * i as f64 / 100.0).value();
                    assert!((min_qp..=max_qp).contains(&qp));
                }
            }
        }
    }

    #[test]
    fn clamps_above_51_saturate() {
        // Qp itself clamps to the H.265 legal range, so an out-of-range max_qp behaves as 51.
        let a = QpAllocator::new(QpAllocatorConfig {
            gamma: 3.0,
            min_qp: 0,
            max_qp: 200,
        });
        assert_eq!(a.qp_for_rho(-1.0).value(), 51);
        let reference = QpAllocator::new(QpAllocatorConfig::paper());
        for i in 0..=100 {
            let rho = -1.0 + 2.0 * i as f64 / 100.0;
            assert_eq!(a.qp_for_rho(rho), reference.qp_for_rho(rho));
        }
    }

    #[test]
    #[should_panic(expected = "min_qp")]
    fn inverted_clamp_is_rejected() {
        let _ = QpAllocator::new(QpAllocatorConfig {
            gamma: 3.0,
            min_qp: 40,
            max_qp: 20,
        });
    }

    #[test]
    fn lut_is_bit_identical_to_reference_on_a_dense_sweep() {
        // Exhaustive equivalence over a fine ρ grid for the paper γ, the ablation γs and
        // sub-1 temperatures, with and without clamps.
        for gamma in [0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0] {
            for (min_qp, max_qp) in [(0, 51), (12, 44), (26, 26)] {
                let a = QpAllocator::new(QpAllocatorConfig {
                    gamma,
                    min_qp,
                    max_qp,
                });
                assert!(a.table.is_some(), "gamma {gamma} should use the table");
                for i in 0..=100_000u32 {
                    let rho = -1.0 + 2.0 * i as f64 / 100_000.0;
                    assert_eq!(
                        a.qp_for_rho(rho),
                        a.qp_for_rho_reference(rho),
                        "gamma {gamma} clamp ({min_qp},{max_qp}) rho {rho}"
                    );
                }
            }
        }
    }

    #[test]
    fn lut_has_at_most_52_entries() {
        let a = QpAllocator::new(QpAllocatorConfig::paper());
        let segments = &a.table.as_ref().unwrap().segments;
        assert!(segments.len() <= 52, "{} segments", segments.len());
        // The paper configuration produces the full QP range, so all 52 values appear.
        assert_eq!(segments.len(), 52);
    }

    #[test]
    fn non_monotone_gamma_falls_back_to_reference() {
        // γ ≤ 0 makes Eq. 2 non-decreasing (or constant) in ρ; the table builder declines
        // and the allocator answers through the reference path.
        for gamma in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let a = QpAllocator::new(QpAllocatorConfig::with_gamma(gamma));
            assert!(a.table.is_none(), "gamma {gamma}");
            for rho in [-1.0, -0.3, 0.0, 0.7, 1.0] {
                assert_eq!(a.qp_for_rho(rho), a.qp_for_rho_reference(rho));
            }
        }
    }

    #[test]
    fn out_of_range_and_non_finite_rho_match_reference() {
        let a = QpAllocator::new(QpAllocatorConfig::paper());
        for rho in [7.0, -7.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            assert_eq!(a.qp_for_rho(rho), a.qp_for_rho_reference(rho), "rho {rho}");
        }
    }

    #[test]
    fn allocate_resamples_and_maps() {
        let patch_grid = GridDims::for_frame(256, 128, 64);
        let importance = ImportanceMap::new(
            patch_grid,
            256,
            128,
            vec![1.0, 0.5, 0.0, -0.5, -1.0, 0.9, -0.9, 0.1],
        );
        let allocator = QpAllocator::new(QpAllocatorConfig::paper());
        // Same grid: direct mapping.
        let map = allocator.allocate(&importance, patch_grid);
        assert_eq!(map.get(0, 0).value(), 0);
        assert_eq!(map.get(1, 0).value(), 51);
        // Finer encoder grid: values are replicated onto sub-cells.
        let fine_grid = GridDims::for_frame(256, 128, 32);
        let fine = allocator.allocate(&importance, fine_grid);
        assert_eq!(fine.dims(), fine_grid);
        assert_eq!(fine.get(0, 0).value(), 0);
        assert_eq!(fine.get(0, 1).value(), 0);
    }

    #[test]
    fn allocate_into_matches_allocate_and_reuses_the_buffer() {
        let patch_grid = GridDims::for_frame(256, 128, 64);
        let importance = ImportanceMap::new(
            patch_grid,
            256,
            128,
            vec![1.0, 0.5, 0.0, -0.5, -1.0, 0.9, -0.9, 0.1],
        );
        let allocator = QpAllocator::new(QpAllocatorConfig::paper());
        let mut out = QpMap::empty();
        // Same grid and a finer grid, interleaved, through the same reused buffer.
        for grid in [
            patch_grid,
            GridDims::for_frame(256, 128, 32),
            patch_grid,
            GridDims::for_frame(256, 128, 16),
        ] {
            allocator.allocate_into(&importance, grid, &mut out);
            assert_eq!(out, allocator.allocate(&importance, grid));
        }
    }

    #[test]
    fn out_of_range_rho_is_clamped() {
        let a = QpAllocator::new(QpAllocatorConfig::paper());
        assert_eq!(a.qp_for_rho(7.0).value(), 0);
        assert_eq!(a.qp_for_rho(-7.0).value(), 51);
    }

    #[test]
    fn allocate_into_matches_the_per_cell_reference_on_runs_and_edge_values() {
        // Long runs, alternating values, signed zeros (equal values, different bits) and the
        // endpoints — on the equal-grid branch and on the resampled one. (A map cannot hold
        // NaN or |ρ| > 1: `ImportanceMap::new` rejects them.)
        let patch_grid = GridDims::for_frame(640, 384, 64);
        let edge = [0.0, -0.0, 1.0, -1.0, 0.3, -0.3, 1.0, 1.0];
        let patterns: [Box<dyn Fn(usize) -> f64>; 4] = [
            Box::new(|i| if i < 37 { 0.25 } else { -0.75 }),
            Box::new(|i| if i % 2 == 0 { 0.6 } else { -0.6 }),
            Box::new(move |i| edge[i % edge.len()]),
            Box::new(move |i| edge[(i / 5) % edge.len()]),
        ];
        for config in [
            QpAllocatorConfig::paper(),
            QpAllocatorConfig::with_gamma(0.5),
            QpAllocatorConfig::with_gamma(-1.0), // no table: the reference path, memoized
        ] {
            let allocator = QpAllocator::new(config);
            for pattern in &patterns {
                let values: Vec<f64> = (0..patch_grid.len()).map(pattern).collect();
                let importance = ImportanceMap::new(patch_grid, 640, 384, values);
                let mut out = QpMap::empty();
                for cell in [64, 32, 48, 200] {
                    let grid = GridDims::for_frame(640, 384, cell);
                    allocator.allocate_into(&importance, grid, &mut out);
                    assert_eq!(out.dims(), grid);
                    for row in 0..grid.rows {
                        for col in 0..grid.cols {
                            let rho = importance.nearest_value_for_cell(grid, row, col);
                            assert_eq!(
                                out.get(row, col),
                                allocator.qp_for_rho_reference(rho),
                                "cell {cell} ({row}, {col}) rho {rho}"
                            );
                        }
                    }
                }
            }
        }
    }
}
