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
//! receive fairly high QP. γ is the one value a caller chooses (`ablation_gamma` sweeps it);
//! it must be finite and positive — Eq. 2 is monotone non-increasing in ρ exactly then.
//!
//! ## The threshold table
//!
//! The produced QP is quantized to an integer in `0..=51`, so evaluating the transcendental
//! `powf` once per CTU (≈ 8k calls per 1080p frame at 32-px patches) is wasted work: the ρ
//! axis partitions into at most 52 intervals, one per output QP. [`QpAllocator::new`]
//! computes the exact interval boundaries once — each boundary is refined to the *exact*
//! `f64` where the `powf` expression changes its rounded output — and
//! [`QpAllocator::qp_for_rho`] answers through a 256-bucket jump index over the segment
//! table (constant-time bucket lookup plus a scan of the few segments sharing the bucket).
//! The table is the only production path; the `powf` expression
//! ([`QpAllocator::qp_for_rho_reference`]) is what it is built from and the oracle the
//! tests compare it against, bit for bit (the exhaustive sweep below and the property
//! tests in `tests/model_properties.rs`).

use aivc_scene::GridDims;
use aivc_semantics::ImportanceMap;
use aivc_videocodec::{Qp, QpMap};
use serde::{Deserialize, Serialize};

/// Configuration of the Eq. 2 allocator: the temperature. The produced QP spans the whole
/// `0..=51` range — ρ = 1 gives exactly 0 and ρ = −1 exactly 51 for every γ.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QpAllocatorConfig {
    /// Temperature coefficient γ (paper: 3). Finite and positive.
    pub gamma: f64,
}

impl Default for QpAllocatorConfig {
    fn default() -> Self {
        Self { gamma: 3.0 }
    }
}

impl QpAllocatorConfig {
    /// The paper's exact setting (γ = 3).
    pub fn paper() -> Self {
        Self::default()
    }

    /// A variant with a different temperature (for the γ ablation).
    pub fn with_gamma(gamma: f64) -> Self {
        Self { gamma }
    }
}

/// Why [`QpAllocator::try_new`] rejected a configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QpAllocatorConfigError {
    /// γ is not a finite positive number: at γ ≤ 0 Eq. 2 stops decreasing in ρ (a constant,
    /// or a curve that rewards irrelevance) and a NaN or infinite γ has no curve at all, so
    /// there is no threshold table to build.
    Gamma(f64),
}

impl core::fmt::Display for QpAllocatorConfigError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            QpAllocatorConfigError::Gamma(gamma) => write!(
                f,
                "allocator config invalid: gamma must be finite and positive (Eq. 2 is monotone in \
                 rho only then), got {gamma}"
            ),
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
    /// The QP of the segment holding `rho`, which the caller clamped into `[-1, 1]`. A NaN
    /// — which no [`ImportanceMap`] holds — fails every comparison below and answers as
    /// ρ = −1, the irrelevant end.
    // Out of line on purpose: `qps` gets here once per run of equal ρ (≈ 23 times
    // for a 1080p frame's 510 cells), and inlined the scan loops crowd its per-cell loop
    // (`eq2_qp_allocation` 1.19 µs against 0.92 µs).
    #[inline(never)]
    fn lookup(&self, rho: f64) -> Qp {
        // The bucket index is in range after the min (rho = 1.0 maps to LUT_BUCKETS and is
        // pulled back; a NaN casts to 0).
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
    gamma: f64,
    table: ThresholdTable,
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
    /// Creates an allocator, precomputing the ρ-threshold table for its temperature.
    ///
    /// # Panics
    ///
    /// Panics with [`QpAllocator::try_new`]'s error when γ is not finite and positive.
    pub fn new(config: QpAllocatorConfig) -> Self {
        Self::try_new(config).unwrap_or_else(|error| panic!("{error}"))
    }

    /// [`QpAllocator::new`], returning the rejection instead of panicking with it.
    pub fn try_new(config: QpAllocatorConfig) -> Result<Self, QpAllocatorConfigError> {
        let QpAllocatorConfig { gamma } = config;
        if !(gamma.is_finite() && gamma > 0.0) {
            return Err(QpAllocatorConfigError::Gamma(gamma));
        }
        Ok(Self {
            gamma,
            table: Self::build_table(gamma),
        })
    }

    /// Eq. 2 for a single correlation value, from the precomputed threshold table — a
    /// constant-time bucket jump plus a short scan instead of a `powf`.
    pub fn qp_for_rho(&self, rho: f64) -> Qp {
        self.table.lookup(rho.clamp(-1.0, 1.0))
    }

    /// The transcendental evaluation of Eq. 2: what the threshold table is constructed from,
    /// and the oracle the tests prove it bit-identical against.
    #[doc(hidden)]
    pub fn qp_for_rho_reference(&self, rho: f64) -> Qp {
        reference_qp(self.gamma, rho)
    }

    /// Builds the ρ-threshold table for a finite positive γ: walk the (monotone
    /// non-increasing) quantized curve from ρ = −1 to ρ = 1, bisecting each output
    /// transition down to the exact `f64` boundary, then check the result against the
    /// `powf` expression it was built from.
    ///
    /// # Panics
    ///
    /// Panics if that check fails. Bisection finds every boundary exactly when `powf` is
    /// monotone across each rounding step, which IEEE 754 recommends and libm delivers but
    /// neither promises; a table that disagreed with its own definition must not be served.
    fn build_table(gamma: f64) -> ThresholdTable {
        let reference = |rho: f64| reference_qp(gamma, rho);
        let mut segments = vec![Segment {
            start_rho: -1.0,
            qp: reference(-1.0),
        }];
        let final_qp = reference(1.0);
        while segments.last().unwrap().qp != final_qp {
            // 52 distinct outputs at most; more transitions would mean non-monotonicity.
            assert!(
                segments.len() <= 52,
                "Eq. 2 at gamma {gamma} steps more than 52 times: powf is not monotone here"
            );
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
        // The table must reproduce the expression everywhere, including one ulp on either
        // side of every boundary.
        let sweep = (0..=4096u32).map(|i| -1.0 + 2.0 * i as f64 / 4096.0);
        let edges = table.segments[1..]
            .iter()
            .flat_map(|s| [from_ordered_bits(ordered_bits(s.start_rho) - 1), s.start_rho]);
        for rho in sweep.chain(edges) {
            assert!(
                table.lookup(rho) == reference(rho),
                "Eq. 2 threshold table at gamma {gamma} disagrees with powf at rho {rho}: powf is not \
                 monotone here"
            );
        }
        table
    }

    /// Converts a per-patch importance map into a per-CTU QP map on the encoder's grid,
    /// written into a caller-owned map: [`QpAllocator::qps_into`] pushed into it, so once
    /// `out` has grown to the encoder grid the call performs no heap allocation.
    pub fn allocate_into(&self, importance: &ImportanceMap, encoder_grid: GridDims, out: &mut QpMap) {
        out.begin_refill(encoder_grid);
        self.qps_into(importance, encoder_grid, |qp| out.push_value(qp));
        out.finish_refill();
    }

    /// Eq. 2 per cell of `encoder_grid`, in raster order, handed to `push` — what the §3.2
    /// sender writes straight into its rate plan's base.
    ///
    /// When the CLIP patch grid and the encoder CTU grid differ, the importance map is
    /// resampled on the fly (nearest-center per target cell, identical values to
    /// [`ImportanceMap::resample`]), exactly as a real implementation would feed Kvazaar's
    /// ROI interface.
    ///
    /// Raster-order neighbours of one patch class share their ρ bit for bit (a 1080p frame
    /// holds ≈ 23 classes over 510 cells), so the table is consulted once per run of equal
    /// ρ: a one-entry `(ρ bits → QP)` memo, exact because Eq. 2 is a pure function of ρ.
    pub fn qps_into(&self, importance: &ImportanceMap, encoder_grid: GridDims, mut push: impl FnMut(Qp)) {
        let mut run: Option<(u64, Qp)> = None;
        let mut qp_for = |rho: f64| match run {
            Some((bits, qp)) if bits == rho.to_bits() => qp,
            _ => {
                let qp = self.qp_for_rho(rho);
                run = Some((rho.to_bits(), qp));
                qp
            }
        };
        if importance.dims() == encoder_grid {
            for &rho in importance.values() {
                push(qp_for(rho));
            }
        } else {
            for row in 0..encoder_grid.rows {
                for col in 0..encoder_grid.cols {
                    push(qp_for(importance.nearest_value_for_cell(encoder_grid, row, col)));
                }
            }
        }
    }
}

/// The transcendental Eq. 2 evaluation (clamp ρ → normalize → `powf` → round). The raw
/// value lies in `[0, 51]` for every ρ and every γ > 0, so rounding lands on a legal QP.
fn reference_qp(gamma: f64, rho: f64) -> Qp {
    let rho = rho.clamp(-1.0, 1.0);
    let normalized = (rho + 1.0) / 2.0;
    Qp::from_f64(51.0 * (1.0 - normalized.powf(gamma)))
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
    fn a_gamma_eq2_is_not_monotone_for_is_rejected_by_name() {
        for gamma in [f64::NAN, 0.0, -0.0, -1.0, f64::INFINITY, f64::NEG_INFINITY] {
            let config = QpAllocatorConfig::with_gamma(gamma);
            let error = QpAllocator::try_new(config).expect_err("must be rejected");
            let message = error.to_string();
            assert!(message.contains("gamma"), "{message}");
            assert!(message.ends_with(&format!("got {gamma}")), "{message}");
            let panic =
                std::panic::catch_unwind(|| QpAllocator::new(config)).expect_err("new must refuse it too");
            assert_eq!(panic.downcast_ref::<String>(), Some(&message));
        }
        // The extremes of what is accepted still build a table that is Eq. 2.
        for gamma in [5e-324, 1e-9, 1e9, f64::MAX] {
            let a = QpAllocator::new(QpAllocatorConfig::with_gamma(gamma));
            for i in 0..=1000 {
                let rho = -1.0 + 2.0 * i as f64 / 1000.0;
                assert_eq!(
                    a.qp_for_rho(rho),
                    a.qp_for_rho_reference(rho),
                    "gamma {gamma} rho {rho}"
                );
            }
        }
    }

    #[test]
    fn lut_is_bit_identical_to_reference_on_a_dense_sweep() {
        // Exhaustive equivalence over a fine ρ grid for the paper γ, the ablation γs and
        // sub-1 temperatures.
        for gamma in [0.05, 0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 12.0] {
            let a = QpAllocator::new(QpAllocatorConfig::with_gamma(gamma));
            for i in 0..=100_000u32 {
                let rho = -1.0 + 2.0 * i as f64 / 100_000.0;
                assert_eq!(
                    a.qp_for_rho(rho),
                    a.qp_for_rho_reference(rho),
                    "gamma {gamma} rho {rho}"
                );
            }
        }
    }

    #[test]
    fn lut_has_at_most_52_entries() {
        let a = QpAllocator::new(QpAllocatorConfig::paper());
        let segments = &a.table.segments;
        assert!(segments.len() <= 52, "{} segments", segments.len());
        // The paper configuration produces the full QP range, so all 52 values appear.
        assert_eq!(segments.len(), 52);
    }

    #[test]
    fn out_of_range_and_non_finite_rho_match_reference() {
        let a = QpAllocator::new(QpAllocatorConfig::paper());
        for rho in [7.0, -7.0, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(a.qp_for_rho(rho), a.qp_for_rho_reference(rho), "rho {rho}");
        }
        // No map holds a NaN; one handed in directly answers as the irrelevant end.
        assert_eq!(a.qp_for_rho(f64::NAN), a.qp_for_rho(-1.0));
    }

    /// `allocate_into` a fresh map.
    fn allocate(allocator: &QpAllocator, importance: &ImportanceMap, grid: GridDims) -> QpMap {
        let mut out = QpMap::empty();
        allocator.allocate_into(importance, grid, &mut out);
        out
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
        let map = allocate(&allocator, &importance, patch_grid);
        assert_eq!(map.get(0, 0).value(), 0);
        assert_eq!(map.get(1, 0).value(), 51);
        // Finer encoder grid: values are replicated onto sub-cells.
        let fine_grid = GridDims::for_frame(256, 128, 32);
        let fine = allocate(&allocator, &importance, fine_grid);
        assert_eq!(fine.dims(), fine_grid);
        assert_eq!(fine.get(0, 0).value(), 0);
        assert_eq!(fine.get(0, 1).value(), 0);
    }

    #[test]
    fn allocate_into_a_reused_buffer_matches_a_fresh_one() {
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
            assert_eq!(out, allocate(&allocator, &importance, grid));
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
        // The paper γ, the ablation set and the ends of the property tests' range.
        for gamma in [3.0, 0.5, 1.0, 2.0, 5.0, 8.0, 0.05, 12.0] {
            let allocator = QpAllocator::new(QpAllocatorConfig::with_gamma(gamma));
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
