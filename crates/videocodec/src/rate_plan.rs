//! Per-frame rate plan: the QP-independent half of the rate law, computed once per frame,
//! plus the one rate kernel that probes *and* encodes from it and the one budget search
//! that runs on it.
//!
//! A [`RatePlan`] holds the frame's [`GridContent`] raster and everything of the rate law
//! ([`crate::rd::block_bits_with_factor`]) that does not depend on QP, folded into
//! per-block coefficients:
//!
//! * `lead[b]  = INTRA_BPP_AT_REF * content_factor(b)` — the rate law's first product,
//! * `tail[b]  = type_factor(b)` (exactly `1.0` on intra frames),
//! * `pixels[b]` as `f64`, and the frame's base QP per block when probing offsets.
//!
//! A block's coded size is then `((lead · qp_factor) · tail).max(MIN_BPP)`,
//! `ceil(· pixels)`, `ceil(· / 8)`, `max(1)` — the scalar rate law's exact expression
//! sequence (multiplying by a `tail` of exactly `1.0` is an IEEE identity, so collapsing
//! the intra/inter split into one expression is lossless). Rate-control probes **sum**
//! that per-block count over a candidate QP assignment
//! ([`Encoder::predict_plan_offset_size`], [`Encoder::predict_plan_uniform_size`]); the
//! encode **writes** it per block at the level the search settled on
//! ([`Encoder::encode_at_level`], or [`Encoder::encode_into_planned`] for an explicit QP
//! map). Both go through the same kernel, so the size a probe predicts is the size the
//! encode produces by construction; the equivalence tests below pin every block at every
//! level against the scalar rate law.
//!
//! **A capture costs what changed.** The plan remembers the capture it was last prepared
//! for: its raster is brought forward with [`GridContent::update`], and only the blocks
//! that call recomputed get new coefficients (`tail` for every block when the GOP flips
//! intra ↔ inter). It equals a freshly built plan field for field (tests below).
//!
//! **The conversation's one raster.** The plan owns the raster because the encode reads
//! it; everyone else borrows it ([`RatePlan::raster`]). The §3.2 sender's CLIP patches are
//! the CTUs, so the context-aware step prepares the plan *first*, scores Eq. 1 on the
//! plan's raster, and only then writes the Eq. 2 QPs into the plan's base
//! ([`RatePlan::set_base_qps`]) — the coefficients never depended on it. One `update` per
//! capture serves the rate law, the encode and CLIP.
//!
//! **The kernel stays in `f64`.** The scalar expression calls `ceil` twice and casts
//! `f64 → u64 → f64 → u32` per block; the kernel instead walks the plan in
//! [`RATE_LANES`]-wide chunks and rounds up with `r = (x + 2^52) − 2^52; r + (r < x)`:
//! for `0 ≤ x < 2^51` the first sum lands where the `f64` grid spacing is exactly 1, so
//! `r` is `x` rounded to the nearest integer and the compare restores the ceiling — no
//! libm call, no integer cast, straight-line SIMD. That domain is an arithmetic fact of the
//! model's constants: the raster clamps complexity and motion into `[0, 1]`, so
//! `lead ∈ [0.024, 0.30]`, `tail ≤ 1`, `pixels ≤ 4096` and the largest QP factor is
//! `2^(22/6) ≈ 12.7` — a block is at most ≈ 15.6 kbit, under 2 kB. Probes sum the per-block
//! byte counts per lane in `f64`; every partial sum is an integer below `2^53` for any plan
//! of up to `2^42` blocks (≈ 100 TiB of coefficients — no allocator hands one out), hence
//! exact and independent of summation order. The one thing a frame can bring that the
//! constants do not bound — a NaN content descriptor, which the raster's clamp passes
//! through — is refused where the frame enters, [`Encoder::prepare_rate_plan`].
//!
//! **One search.** [`Encoder::search_rate_plan`] finds the boundary level `T` — the
//! first level of the bracket whose predicted size fits the budget — and returns
//! whichever of `T − 1`, `T` lands closer. That result is a pure function of
//! `(plan, budget)`; the caller's hint (the previous frame's `T`) only decides where
//! probing starts. The turn engine matches every capture to its own budget this way; the
//! offline whole-clip match of §3.2 (one level for a set of frames, so their *mean* rate
//! hits the target) is the same search over the summed plans
//! ([`Encoder::search_rate_plans`]), of which the per-frame search is the one-plan case.
//! No other module bisects a level against a budget.

use crate::encoder::{Encoder, BLOCK_SIZE, HEADER_BYTES};
use crate::frame::FrameType;
use crate::gop;
use crate::qp::{Qp, QpMap, QP_MAX, QP_MIN};
use crate::rd::{INTER_BASE_FRACTION, INTER_MOTION_FRACTION, INTRA_BPP_AT_REF, MIN_BPP};
use aivc_scene::grid_content::GridContent;
use aivc_scene::{Frame, GridDims};

/// Lane count of the rate kernel: eight f64 lanes span two AVX2 registers (or four
/// SSE2/NEON ones), enough for LLVM to keep the whole rate law in vector registers.
pub(crate) const RATE_LANES: usize = 8;
/// `2^52`: adding it to `0 ≤ x < 2^51` rounds `x` to an integer (see the module docs).
const ROUND_TO_INT: f64 = 4_503_599_627_370_496.0;

/// Reusable per-frame rate state: what rate-control probes sum and what the encode of the
/// same frame writes its blocks from. Buffers retain capacity across frames, so a warm
/// conversation prepares plans without touching the allocator, and the state of the
/// previous capture is kept so the next one refreshes only the blocks that changed.
#[derive(Debug, Clone)]
pub struct RatePlan {
    dims: GridDims,
    /// `(index, capture_ts_us, frame_type)` of the frame the plan was prepared for:
    /// an encode takes its raster and bytes from the plan, so it refuses a plan that was
    /// prepared for another frame.
    stamp: (u64, u64, FrameType),
    /// `INTRA_BPP_AT_REF * content_factor` per block (the rate law's first product).
    lead: Vec<f64>,
    /// `type_factor` per block — exactly `1.0` on intra frames.
    tail: Vec<f64>,
    /// Block pixel counts, pre-converted to `f64`.
    pixels: Vec<f64>,
    /// The base QP per block that offset probes and the level encode apply their level to
    /// (empty when the plan has no base, i.e. for uniform levels only).
    base_qp: Vec<u8>,
    /// Whether the plan was prepared with a base map: selects the offset bracket
    /// `[-51, 51]` over the uniform bracket `[0, 51]` in [`Encoder::search_rate_plan`].
    has_base: bool,
    /// The frame's content raster, updated from capture to capture: source of the
    /// coefficients above and of the encode's block descriptors and coverage table.
    grid: GridContent,
}

impl Default for RatePlan {
    fn default() -> Self {
        Self::new()
    }
}

impl RatePlan {
    /// Creates an empty plan.
    pub fn new() -> Self {
        Self {
            dims: GridDims {
                cols: 0,
                rows: 0,
                cell: 1,
            },
            stamp: (0, 0, FrameType::Intra),
            lead: Vec::new(),
            tail: Vec::new(),
            pixels: Vec::new(),
            base_qp: Vec::new(),
            has_base: false,
            grid: GridContent::default(),
        }
    }

    /// Grid geometry of the prepared frame.
    pub fn dims(&self) -> GridDims {
        self.dims
    }

    pub(crate) fn stamp(&self) -> (u64, u64, FrameType) {
        self.stamp
    }

    /// The prepared frame's content raster on the CTU grid ([`crate::encoder::BLOCK_SIZE`]):
    /// the conversation's one raster, which CLIP reads when its patches are CTUs.
    pub fn raster(&self) -> &GridContent {
        &self.grid
    }

    /// Sets the per-block base QP, in raster order, that the plan's offset probes
    /// ([`Encoder::predict_plan_offset_size`]) and [`Encoder::encode_at_level`] apply their
    /// level to, and selects the offset bracket. The rate coefficients do not depend on it,
    /// so a plan is prepared first and its base — computed from the plan's own raster —
    /// written afterwards, straight from the allocator: `fill` pushes one [`Qp::value`] per
    /// block, in raster order, into the cleared base.
    ///
    /// # Panics
    ///
    /// Panics when `fill` does not push one QP per block of the prepared frame's grid.
    pub fn set_base_qps(&mut self, fill: impl FnOnce(&mut Vec<u8>)) {
        self.base_qp.clear();
        fill(&mut self.base_qp);
        assert_eq!(
            self.base_qp.len(),
            self.dims.len(),
            "base QP count does not match plan grid"
        );
        self.has_base = true;
    }

    /// The per-block base QPs, or `None` when the plan has no base (uniform levels only).
    pub(crate) fn base_qps(&self) -> Option<&[u8]> {
        self.has_base.then_some(&self.base_qp[..])
    }
}

/// What [`Encoder::search_rate_plan`] settled on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateSearch {
    /// The level to encode at: whichever of `boundary − 1`, `boundary` predicts a size
    /// closer to the budget (a tie goes to `boundary`; a candidate outside the bracket
    /// is not considered).
    pub level: i32,
    /// `T`: the first level of the bracket whose predicted size fits the budget, one
    /// past the bracket when none does. The next frame's hint.
    pub boundary: i32,
    /// Probes the search evaluated.
    pub probes: u32,
}

impl Encoder {
    /// Prepares `plan` for rate-control probes over `frame`: brings the content raster to
    /// the frame and folds every QP-independent term of the rate law into per-block
    /// coefficients — for the blocks the raster recomputed (every `tail` too when the frame
    /// type flipped). With `base` supplied, the plan also snapshots its values as the
    /// per-block base QP ([`RatePlan::set_base_qps`]) so [`Encoder::predict_plan_offset_size`]
    /// can probe uniform offsets on top of it (the context-aware search); without it only
    /// [`Encoder::predict_plan_uniform_size`] is valid (the baseline search) until a base is
    /// set.
    ///
    /// # Panics
    ///
    /// This is where a frame enters the codec, so it is where one the rate kernel cannot
    /// code is refused: a block whose complexity, motion or detail is NaN (an object's or
    /// the background's descriptor was not finite). Panics too when `base` is not on the
    /// frame's grid.
    pub fn prepare_rate_plan(&self, frame: &Frame, base: Option<&QpMap>, plan: &mut RatePlan) {
        let dims = self.grid_for(frame);
        let blocks = dims.len();
        let frame_type = gop::frame_type(frame.index);
        let flipped = plan.stamp.2 != frame_type;
        plan.dims = dims;
        plan.stamp = (frame.index, frame.capture_ts_us, frame_type);
        plan.grid.update(frame, BLOCK_SIZE);
        let RatePlan {
            grid,
            lead,
            tail,
            pixels,
            ..
        } = &mut *plan;
        // A raster of another geometry comes back all dirty, so every slot is rewritten.
        lead.resize(blocks, 0.0);
        tail.resize(blocks, 0.0);
        pixels.resize(blocks, 0.0);
        // The identical clamp + content/type factor expressions of the scalar rate law
        // (`rd::block_bits_with_factor`).
        let tail_of = |idx: usize| match frame_type {
            FrameType::Intra => 1.0,
            FrameType::Inter => {
                INTER_BASE_FRACTION + INTER_MOTION_FRACTION * grid.motion()[idx].clamp(0.0, 1.0)
            }
        };
        for idx in grid.dirty_cells() {
            let (complexity, motion, detail) =
                (grid.complexity()[idx], grid.motion()[idx], grid.detail()[idx]);
            assert!(
                !(complexity.is_nan() || motion.is_nan() || detail.is_nan()),
                "frame {} cannot be coded: block {idx} has a NaN content descriptor (complexity \
                 {complexity}, motion {motion}, detail {detail}) — every object's and the background's \
                 texture_complexity, motion and detail must be finite",
                frame.index
            );
            let content_factor = 0.08 + 0.92 * complexity.clamp(0.0, 1.0);
            lead[idx] = INTRA_BPP_AT_REF * content_factor;
            tail[idx] = tail_of(idx);
            pixels[idx] = grid.area()[idx] as f64;
        }
        if flipped {
            for (idx, tail) in tail.iter_mut().enumerate() {
                *tail = tail_of(idx);
            }
        }
        plan.has_base = false;
        plan.base_qp.clear();
        if let Some(base) = base {
            assert_eq!(base.dims(), dims, "base QP map grid does not match plan grid");
            plan.set_base_qps(|qps| qps.extend(base.values().iter().map(|qp| qp.value())));
        }
    }

    /// A fresh plan prepared for `frame` — the allocating form of
    /// [`Encoder::prepare_rate_plan`] for one-shot (offline) callers.
    pub fn rate_plan_for(&self, frame: &Frame, base: Option<&QpMap>) -> RatePlan {
        let mut plan = RatePlan::new();
        self.prepare_rate_plan(frame, base, &mut plan);
        plan
    }

    /// Predicted total size in bytes of encoding the planned frame with its base QPs
    /// offset uniformly by `level` — the size of [`Encoder::encode_at_level`] at that level.
    pub fn predict_plan_offset_size(&self, plan: &RatePlan, level: i32) -> u64 {
        assert!(
            plan.has_base,
            "offset probes need a plan prepared with a base QP map"
        );
        let table = self.qp_factor_table();
        plan_total_bytes(plan, |first, factors| {
            let base_qp = &plan.base_qp[first..first + factors.len()];
            for (factor, &qp) in factors.iter_mut().zip(base_qp) {
                *factor = table[(qp as i32 + level).clamp(QP_MIN as i32, QP_MAX as i32) as usize];
            }
        })
    }

    /// Predicted total size in bytes of encoding the planned frame at a single uniform
    /// `qp`.
    pub fn predict_plan_uniform_size(&self, plan: &RatePlan, qp: Qp) -> u64 {
        let factor = self.qp_factor_table()[qp.value() as usize];
        plan_total_bytes(plan, |_, factors| factors.fill(factor))
    }

    /// Predicted total size in bytes of encoding the planned frame with `qp_map`.
    #[cfg(test)]
    pub(crate) fn predict_plan_map_size(&self, plan: &RatePlan, qp_map: &QpMap) -> u64 {
        let table = self.qp_factor_table();
        plan_total_bytes(plan, |first, factors| {
            let qps = &qp_map.values()[first..first + factors.len()];
            for (factor, qp) in factors.iter_mut().zip(qps) {
                *factor = table[qp.value() as usize];
            }
        })
    }

    /// Finds the level of the plan's bracket — uniform offsets `-51..=51` on the base map
    /// the plan was prepared with, uniform QPs `0..=51` without one — whose predicted size
    /// best matches `budget_bits` (§3.2's trial-and-error bitrate matching).
    ///
    /// Predicted size never grows with the level, so there is one boundary `T`: the first
    /// level that fits the budget. The search returns whichever of `T − 1`, `T` predicts
    /// closer to the budget (see [`RateSearch`]) — a pure function of `(plan,
    /// budget_bits)`. `hint`, normally the previous frame's [`RateSearch::boundary`], only
    /// chooses the probes: the search gallops 1, 2, 4… away from it until the boundary is
    /// bracketed, then bisects; without a hint it bisects the whole bracket. On a
    /// stationary link consecutive frames share their boundary and two probes settle it.
    pub fn search_rate_plan(&self, plan: &RatePlan, budget_bits: f64, hint: Option<i32>) -> RateSearch {
        // A one-frame set at one frame per second: its mean rate is the frame's size in
        // bits (`x / 1.0 * 1.0` is `x` exactly).
        self.search_rate_plans(std::slice::from_ref(plan), 1.0, budget_bits, hint)
    }

    /// [`Encoder::search_rate_plan`] for a whole set of frames: finds the **one** level —
    /// applied to every plan of the set — at which the set's mean bitrate at `fps`,
    /// `Σ predicted bits / plans.len() · fps`, best matches `target_bitrate_bps`. This is
    /// the paper's whole-clip match (§3.2's footnote; Figure 9 compares at matched *mean*
    /// rates), where the per-frame search above gives every capture its own level. The
    /// plans must all have been prepared with a base map or all without.
    pub fn search_rate_plans(
        &self,
        plans: &[RatePlan],
        fps: f64,
        target_bitrate_bps: f64,
        hint: Option<i32>,
    ) -> RateSearch {
        let has_base = plans.first().expect("need at least one rate plan").has_base;
        assert!(
            plans.iter().all(|plan| plan.has_base == has_base),
            "a set is searched on offsets or on uniform QPs, not a mix"
        );
        let count = plans.len() as f64;
        let mean_rate = |bytes: u64| (bytes * 8) as f64 / count * fps;
        if has_base {
            let (lo, hi) = (-(QP_MAX as i32), QP_MAX as i32);
            search_boundary(lo, hi, target_bitrate_bps, hint, |level| {
                mean_rate(
                    plans
                        .iter()
                        .map(|plan| self.predict_plan_offset_size(plan, level))
                        .sum(),
                )
            })
        } else {
            search_boundary(QP_MIN as i32, QP_MAX as i32, target_bitrate_bps, hint, |qp| {
                mean_rate(
                    plans
                        .iter()
                        .map(|plan| self.predict_plan_uniform_size(plan, Qp::new(qp)))
                        .sum(),
                )
            })
        }
    }
}

/// The highest level known to exceed the budget and the lowest known to fit it, with the
/// sizes probed there. Both start just outside the bracket and close in until adjacent, at
/// which point `under` is the boundary.
struct Bracket {
    over: i32,
    over_bits: f64,
    under: i32,
    under_bits: f64,
    probes: u32,
}

impl Bracket {
    fn is_open(&self) -> bool {
        self.under - self.over > 1
    }

    /// Probes `level`, tightens the side it falls on, and reports whether it fits.
    fn probe(&mut self, level: i32, budget_bits: f64, bits_at: &mut impl FnMut(i32) -> f64) -> bool {
        let bits = bits_at(level);
        self.probes += 1;
        if bits > budget_bits {
            (self.over, self.over_bits) = (level, bits);
            false
        } else {
            (self.under, self.under_bits) = (level, bits);
            true
        }
    }
}

/// The boundary search behind [`Encoder::search_rate_plan`] over `lo..=hi`; `bits_at` must
/// not grow with the level.
fn search_boundary(
    lo: i32,
    hi: i32,
    budget_bits: f64,
    hint: Option<i32>,
    mut bits_at: impl FnMut(i32) -> f64,
) -> RateSearch {
    debug_assert!(lo <= hi);
    let mut b = Bracket {
        over: lo - 1,
        over_bits: f64::INFINITY,
        under: hi + 1,
        under_bits: f64::NEG_INFINITY,
        probes: 0,
    };
    if let Some(hint) = hint {
        // Gallop from the hint towards the boundary — down while probes fit, up while
        // they do not — until one lands on the other side.
        let fits = b.probe(hint.clamp(lo, hi), budget_bits, &mut bits_at);
        let mut step = 1;
        while b.is_open() {
            let level = if fits {
                (b.under - step).max(b.over + 1)
            } else {
                (b.over + step).min(b.under - 1)
            };
            if b.probe(level, budget_bits, &mut bits_at) != fits {
                break;
            }
            step *= 2;
        }
    }
    while b.is_open() {
        b.probe(b.over + (b.under - b.over) / 2, budget_bits, &mut bits_at);
    }
    let level = if b.over < lo {
        b.under
    } else if b.under > hi || (b.over_bits - budget_bits).abs() < (b.under_bits - budget_bits).abs() {
        b.over
    } else {
        b.under
    };
    RateSearch {
        level,
        boundary: b.under,
        probes: b.probes,
    }
}

/// Coded byte counts of blocks `first..first + factors.len()` of `plan` (at most one
/// [`RATE_LANES`]-wide chunk) at the given QP factors, written to the front of `out` — what
/// the probes sum, block for block.
#[inline]
pub(crate) fn plan_chunk_bytes(plan: &RatePlan, first: usize, factors: &[f64], out: &mut [u32; RATE_LANES]) {
    let end = first + factors.len();
    let coefficients = plan.lead[first..end]
        .iter()
        .zip(factors)
        .zip(&plan.tail[first..end])
        .zip(&plan.pixels[first..end]);
    // Branch-free over unit-stride slices: the loop LLVM turns into SIMD.
    for (bytes, (((&lead, &factor), &tail), &pixels)) in out.iter_mut().zip(coefficients) {
        *bytes = plan_block_bytes_f64(lead, factor, tail, pixels) as u32;
    }
}

/// Header plus every block's byte count. `factors_from(first, out)` writes the QP factors
/// of blocks `first..first + out.len()`; the plan is walked in [`RATE_LANES`]-wide chunks.
#[inline]
fn plan_total_bytes(plan: &RatePlan, factors_from: impl Fn(usize, &mut [f64])) -> u64 {
    let blocks = plan.lead.len();
    let (lead, tail, pixels) = (&plan.lead[..], &plan.tail[..blocks], &plan.pixels[..blocks]);
    let mut factor = [0.0f64; RATE_LANES];
    let mut lanes = [0.0f64; RATE_LANES];
    let whole = blocks - blocks % RATE_LANES;
    for first in (0..whole).step_by(RATE_LANES) {
        factors_from(first, &mut factor);
        let (lead, tail, pixels) = (
            &lead[first..first + RATE_LANES],
            &tail[first..first + RATE_LANES],
            &pixels[first..first + RATE_LANES],
        );
        // Fixed-width and branch-free: the loop LLVM turns into SIMD.
        for lane in 0..RATE_LANES {
            lanes[lane] += plan_block_bytes_f64(lead[lane], factor[lane], tail[lane], pixels[lane]);
        }
    }
    factors_from(whole, &mut factor[..blocks - whole]);
    for b in whole..blocks {
        lanes[b - whole] += plan_block_bytes_f64(lead[b], factor[b - whole], tail[b], pixels[b]);
    }
    HEADER_BYTES as u64 + lanes.iter().sum::<f64>() as u64
}

/// One block's coded byte count from plan coefficients, without leaving `f64`: the exact
/// expression sequence of the scalar rate law — `bpp = ((lead·qp_factor)·tail).max(MIN_BPP)`
/// (left-assoc, matching `intra_bpp·content·qp_factor·type`), `bits = ceil(bpp·pixels)`,
/// `bytes = ceil(bits / 8).max(1)` — inside the domain the module docs establish.
#[inline(always)]
fn plan_block_bytes_f64(lead: f64, qp_factor: f64, tail: f64, pixels: f64) -> f64 {
    // Nothing is NaN inside the domain, where these selects equal `f64::max` and lower to
    // a bare vector max.
    let bpp = (lead * qp_factor) * tail;
    let bpp = if bpp > MIN_BPP { bpp } else { MIN_BPP };
    let bits = ceil_in_domain(bpp * pixels);
    let bytes = ceil_in_domain(bits / 8.0);
    if bytes > 1.0 {
        bytes
    } else {
        1.0
    }
}

/// `x.ceil()` for `0 ≤ x < 2^51`, branch-free (module docs).
#[inline(always)]
fn ceil_in_domain(x: f64) -> f64 {
    let rounded = (x + ROUND_TO_INT) - ROUND_TO_INT;
    rounded + if rounded < x { 1.0 } else { 0.0 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::{EncodeScratch, EncoderConfig};
    use crate::rd;
    use aivc_scene::templates::{basketball_game, lecture_slides};
    use aivc_scene::{SourceConfig, VideoSource};
    use std::sync::Arc;

    /// The scalar rate law for one block of the plan's raster: [`rd::block_bits_with_factor`]
    /// followed by the `ceil`/`max(1)` byte epilogue — what every planned byte count must
    /// equal.
    fn scalar_block_bytes(enc: &Encoder, plan: &RatePlan, idx: usize, qp: Qp) -> u32 {
        let grid = plan.raster();
        let bits = rd::block_bits_with_factor(
            enc.qp_factor_table()[qp.value() as usize],
            grid.area()[idx],
            grid.complexity()[idx],
            grid.motion()[idx],
            plan.stamp().2,
        );
        ((bits as f64 / 8.0).ceil() as u32).max(1)
    }

    /// One block's coded byte count from plan coefficients by the scalar expression
    /// sequence — `ceil` twice, `f64 → u64 → f64 → u32` — the oracle
    /// [`plan_block_bytes_f64`] is tested against on coefficients no frame produces.
    fn plan_block_bytes(lead: f64, qp_factor: f64, tail: f64, pixels: f64) -> u32 {
        let bpp = ((lead * qp_factor) * tail).max(MIN_BPP);
        let bits = (bpp * pixels).ceil() as u64;
        ((bits as f64 / 8.0).ceil() as u32).max(1)
    }

    /// Encodes `frame` with `map` from `plan` and checks every block's `byte_len` against
    /// the scalar rate law; returns the encode's total size.
    fn planned_encode_matches_scalar_law(enc: &Encoder, frame: &Frame, map: &QpMap, plan: &RatePlan) -> u64 {
        let mut out = crate::frame::EncodedFrame::placeholder();
        enc.encode_into_planned(frame, map, plan, &mut EncodeScratch::new(), &mut out);
        let mut total = HEADER_BYTES as u64;
        for (idx, block) in out.blocks.iter().enumerate() {
            let expected = scalar_block_bytes(enc, plan, idx, map.get_index(idx));
            assert_eq!(block.byte_len, expected, "block {idx} of frame {}", frame.index);
            total += expected as u64;
        }
        assert_eq!(out.total_bytes(), total);
        total
    }

    /// At every offset level and every uniform QP: each planned block equals the scalar
    /// rate law, and the probe equals the encode's size.
    fn check_frame_all_levels(enc: &Encoder, frame: &Frame, base: &QpMap) -> RatePlan {
        let mut plan = RatePlan::new();
        enc.prepare_rate_plan(frame, Some(base), &mut plan);
        let mut map = QpMap::empty();
        for level in -51..=51 {
            base.offset_all_into(level, &mut map);
            let encoded = planned_encode_matches_scalar_law(enc, frame, &map, &plan);
            assert_eq!(
                enc.predict_plan_offset_size(&plan, level),
                encoded,
                "offset level {level} diverges for frame {}",
                frame.index
            );
            assert_eq!(
                enc.predict_plan_map_size(&plan, &map),
                encoded,
                "map probe, level {level}"
            );
        }
        for qp in 0..=51 {
            map.fill_uniform(plan.dims(), Qp::new(qp));
            let encoded = planned_encode_matches_scalar_law(enc, frame, &map, &plan);
            assert_eq!(
                enc.predict_plan_uniform_size(&plan, Qp::new(qp)),
                encoded,
                "uniform qp {qp} diverges for frame {}",
                frame.index
            );
        }
        plan
    }

    /// A non-trivial base map: QP varies across the grid.
    fn varied_base(dims: GridDims) -> QpMap {
        QpMap::from_values(dims, (0..dims.len()).map(|i| Qp::new((i % 52) as i32)).collect())
    }

    #[test]
    fn planned_bytes_and_probes_match_the_scalar_rate_law_at_every_level() {
        // Grids of every lane-tail length 0..=7 (510 blocks at 1080p leave 6), partial edge
        // cells on both axes included.
        let enc = Encoder::new(EncoderConfig::default());
        for (template, width, height) in [
            (basketball_game(1), 1920, 1080), // 30×17 = 510, tail 6
            (lecture_slides(3), 1024, 512),   // 16×8 = 128, tail 0
            (basketball_game(2), 200, 190),   // 4×3 = 12, tail 4
            (lecture_slides(1), 576, 192),    // 9×3 = 27, tail 3
            (basketball_game(3), 1000, 700),  // 16×11 = 176, tail 0, partial edges
            (basketball_game(4), 832, 64),    // 13×1 = 13, tail 5
            (lecture_slides(4), 300, 130),    // 5×3 = 15, tail 7
            (basketball_game(5), 130, 170),   // 3×3 = 9, tail 1
            (basketball_game(6), 320, 128),   // 5×2 = 10, tail 2
        ] {
            let mut scene = template;
            scene.width = width;
            scene.height = height;
            let source = VideoSource::new(scene, SourceConfig::fps30(5.0));
            // Intra frames (0 and the second GOP's first), inter frames around them.
            for index in [0u64, 7, 59, 60, 61] {
                let frame = source.frame(index);
                check_frame_all_levels(&enc, &frame, &varied_base(enc.grid_for(&frame)));
            }
        }
    }

    /// The level encode is the map encode of the level's map and the size its probe
    /// predicts: at every offset on a plan with a base, at every uniform QP on one without,
    /// on intra and inter frames, through one reused output and a carried plan.
    #[test]
    fn level_encode_equals_the_map_encode_and_the_probe_at_every_level() {
        let enc = Encoder::new(EncoderConfig::default());
        let mut scene = basketball_game(3);
        (scene.width, scene.height) = (1000, 700);
        let source = VideoSource::new(scene, SourceConfig::fps30(5.0));
        let (mut plan, mut scratch) = (RatePlan::new(), EncodeScratch::new());
        let (mut at_level, mut with_map) = (
            crate::frame::EncodedFrame::placeholder(),
            crate::frame::EncodedFrame::placeholder(),
        );
        for index in [0u64, 7, 60, 61] {
            let frame = source.frame(index);
            let base = varied_base(enc.grid_for(&frame));
            for with_base in [true, false] {
                enc.prepare_rate_plan(&frame, with_base.then_some(&base), &mut plan);
                let levels = if with_base { -51..=51 } else { 0..=51 };
                for level in levels {
                    let (map, predicted) = if with_base {
                        (base.offset_all(level), enc.predict_plan_offset_size(&plan, level))
                    } else {
                        let qp = Qp::new(level);
                        (
                            QpMap::uniform(plan.dims(), qp),
                            enc.predict_plan_uniform_size(&plan, qp),
                        )
                    };
                    enc.encode_at_level(&frame, &plan, level, &mut at_level);
                    enc.encode_into_planned(&frame, &map, &plan, &mut scratch, &mut with_map);
                    let what = format!("frame {index}, base {with_base}, level {level}");
                    assert_eq!(at_level, with_map, "{what}");
                    assert_eq!(at_level.total_bytes(), predicted, "{what}");
                }
            }
        }
    }

    /// A plan over hand-made coefficients (no frame behind it).
    fn synthetic_plan(blocks: &[(f64, f64, f64)]) -> RatePlan {
        let mut plan = RatePlan::new();
        for &(lead, tail, pixels) in blocks {
            plan.lead.push(lead);
            plan.tail.push(tail);
            plan.pixels.push(pixels);
        }
        plan
    }

    fn scalar_uniform_total(enc: &Encoder, plan: &RatePlan, qp: Qp) -> u64 {
        let factor = enc.qp_factor_table()[qp.value() as usize];
        HEADER_BYTES as u64
            + (0..plan.lead.len())
                .map(|b| plan_block_bytes(plan.lead[b], factor, plan.tail[b], plan.pixels[b]) as u64)
                .sum::<u64>()
    }

    #[test]
    fn lane_kernel_matches_scalar_oracle_on_edge_coefficients() {
        let enc = Encoder::new(EncoderConfig::default());
        // Zero-area edge blocks, products that are exact integers and exact halves (the
        // round-to-even cases of the ceil trick), the bpp floor, and a block of 2^31 − 1
        // bits at the largest QP factor — five orders of magnitude past any real one.
        let max_factor = enc.qp_factor_table().iter().copied().fold(0.0, f64::max);
        let edge = [
            (0.3, 1.0, 0.0),
            (0.0, 1.0, 4096.0),
            (0.3, 0.0, 4096.0),
            (0.25, 1.0, 4096.0),
            (0.125, 0.5, 4.0),
            (0.5, 1.0, 1.0),
            (1.5, 1.0, 1.0),
            (1.0e-9, 1.0, 4096.0),
            (0.3, 0.65, 3.0),
            ((2_147_483_647.0) / (max_factor * 4096.0), 1.0, 4096.0),
        ];
        let mut state = 0xD1B5_4A32_D192_ED03u64;
        let mut unit = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for len in 0..=33 {
            let blocks: Vec<(f64, f64, f64)> = (0..len)
                .map(|i| match i % 3 {
                    0 => edge[(i / 3 + len) % edge.len()],
                    _ => (0.3 * unit(), 0.1 + 0.55 * unit(), (4096.0 * unit()).floor()),
                })
                .collect();
            let plan = synthetic_plan(&blocks);
            for qp in 0..=51 {
                assert_eq!(
                    enc.predict_plan_uniform_size(&plan, Qp::new(qp)),
                    scalar_uniform_total(&enc, &plan, Qp::new(qp)),
                    "length {len}, qp {qp}"
                );
            }
        }
    }

    /// The stated result of the search by exhaustive scan: `T` is the first level that
    /// fits, the level is whichever of `T − 1`, `T` is closer (tie → `T`, bracket edges
    /// clamp) — and that level must also minimise the error over the whole bracket.
    fn exhaustive(lo: i32, hi: i32, budget_bits: f64, bits_at: impl Fn(i32) -> f64) -> (i32, i32) {
        let over = |l: i32| bits_at(l) > budget_bits;
        let boundary = (lo..=hi).find(|&l| !over(l)).unwrap_or(hi + 1);
        let err = |l: i32| (bits_at(l) - budget_bits).abs();
        let level = if boundary == lo {
            lo
        } else if boundary > hi || err(boundary - 1) < err(boundary) {
            boundary - 1
        } else {
            boundary
        };
        if !budget_bits.is_nan() {
            let least = (lo..=hi).map(err).fold(f64::INFINITY, f64::min);
            assert!(
                err(level) <= least,
                "level {level} is not an argmin over {lo}..={hi}"
            );
        }
        (level, boundary)
    }

    fn probe_bound(lo: i32, hi: i32) -> u32 {
        let range = (hi - lo + 1) as u32;
        2 * range.next_power_of_two().trailing_zeros() + 2
    }

    #[test]
    fn boundary_search_is_independent_of_the_hint_on_step_functions() {
        // Non-increasing size curves with plateaus of every shape: flat everywhere, one
        // cliff, long flat runs between steps, strictly decreasing.
        let mut state = 0xA076_1D64_78BD_642Fu64;
        let mut next = |m: u32| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as u32) % m
        };
        for case in 0..200 {
            let (lo, hi) = if case % 2 == 0 { (-51, 51) } else { (0, 51) };
            let flatness = [1, 2, 8, 40, 1000][case % 5];
            let mut sizes = Vec::new();
            let mut size = 200_000u32;
            for _ in lo..=hi {
                sizes.push(f64::from(size * 8));
                if next(flatness) == 0 {
                    size = size.saturating_sub(1 + next(9000));
                }
            }
            let bits_at = |l: i32| sizes[(l - lo) as usize];
            let budgets = [
                0.0,
                1.0e12,
                f64::NAN,
                sizes[next(sizes.len() as u32) as usize],
                sizes[next(sizes.len() as u32) as usize] + 0.5,
                (sizes[0] + sizes[sizes.len() - 1]) / 2.0,
                f64::from(next(1_700_000)),
            ];
            for budget in budgets {
                let (level, boundary) = exhaustive(lo, hi, budget, bits_at);
                for hint in (lo - 2..=hi + 2).map(Some).chain([None]) {
                    let found = search_boundary(lo, hi, budget, hint, bits_at);
                    assert_eq!(
                        (found.level, found.boundary),
                        (level, boundary),
                        "case {case}, budget {budget}, hint {hint:?}"
                    );
                    assert!(
                        found.probes <= probe_bound(lo, hi),
                        "{} probes, hint {hint:?}",
                        found.probes
                    );
                }
                // A hint on the boundary of an interior answer costs two probes.
                if boundary > lo && boundary <= hi {
                    assert_eq!(search_boundary(lo, hi, budget, Some(boundary), bits_at).probes, 2);
                }
            }
        }
    }

    #[test]
    fn plan_search_matches_exhaustive_argmin_for_every_hint() {
        let enc = Encoder::new(EncoderConfig::default());
        // A 510-block and a 60-block grid.
        for (width, height) in [(1920, 1080), (640, 384)] {
            let mut scene = basketball_game(2);
            scene.width = width;
            scene.height = height;
            let source = VideoSource::new(scene, SourceConfig::fps30(5.0));
            // One frame against its size in bits (the engine's per-capture search; intra,
            // then inter) and sets of 2 and 8 frames against their mean bitrate (the offline
            // whole-clip match), intra and inter mixed — frame 60 opens the second GOP.
            let sets: [(&[u64], f64); 4] = [
                (&[0], 1.0),
                (&[9], 1.0),
                (&[0, 9], 30.0),
                (&[3, 0, 17, 60, 9, 31, 61, 44], 12.0),
            ];
            for (indices, fps) in sets {
                let frames: Vec<Frame> = indices.iter().map(|&index| source.frame(index)).collect();
                let dims = enc.grid_for(&frames[0]);
                let bases = [
                    Some(varied_base(dims)),
                    Some(QpMap::uniform(dims, Qp::new(51))),
                    Some(QpMap::uniform(dims, Qp::new(0))),
                    None,
                ];
                for base in &bases {
                    let plans = plans_for(&enc, &frames, base.as_ref());
                    let (lo, hi) = if base.is_some() { (-51, 51) } else { (0, 51) };
                    // The whole curve once; the exhaustive side reads it back.
                    let curve: Vec<f64> = (lo..=hi).map(|l| mean_rate_at(&enc, &plans, l, fps)).collect();
                    let bits_at = |l: i32| curve[(l - lo) as usize];
                    // Unreachable, trivially met, on a level's exact size, between levels.
                    let budgets = [
                        1.0,
                        1.0e15,
                        bits_at(lo + 20),
                        (bits_at(lo + 30) + bits_at(lo + 31)) / 2.0,
                        36_000.0 * fps,
                    ];
                    // Every hint for one plan; every sixth for a set, whose probes cost a
                    // pass over every plan.
                    let stride = if plans.len() == 1 { 1 } else { 6 };
                    for budget in budgets {
                        let (level, boundary) = exhaustive(lo, hi, budget, bits_at);
                        for hint in (lo..=hi).step_by(stride).map(Some).chain([None]) {
                            let found = enc.search_rate_plans(&plans, fps, budget, hint);
                            assert_eq!(
                                (found.level, found.boundary),
                                (level, boundary),
                                "frames {indices:?}, {width}x{height}, budget {budget}, hint {hint:?}"
                            );
                            assert!(found.probes <= probe_bound(lo, hi));
                            if let [plan] = &plans[..] {
                                assert_eq!(enc.search_rate_plan(plan, budget, hint), found);
                            }
                        }
                    }
                }
            }
        }
    }

    /// One fresh plan per frame, on `base` when given.
    fn plans_for(enc: &Encoder, frames: &[Frame], base: Option<&QpMap>) -> Vec<RatePlan> {
        frames
            .iter()
            .map(|frame| enc.rate_plan_for(frame, base))
            .collect()
    }

    /// `Σ bits / n · fps` of the planned set at `level` — an offset when the plans carry a
    /// base map, a uniform QP otherwise.
    fn mean_rate_at(enc: &Encoder, plans: &[RatePlan], level: i32, fps: f64) -> f64 {
        let bytes: u64 = plans
            .iter()
            .map(|plan| {
                if plan.has_base {
                    enc.predict_plan_offset_size(plan, level)
                } else {
                    enc.predict_plan_uniform_size(plan, Qp::new(level))
                }
            })
            .sum();
        (bytes * 8) as f64 / plans.len() as f64 * fps
    }

    /// §3.2's trial-and-error match on a one-second window: every reachable target is met
    /// to within a QP step, a lower target never gets a lower QP, an unreachable one
    /// clamps to QP 51 — and without a hint the search is a plain bisection of the 52
    /// uniform levels, six probes at most.
    #[test]
    fn uniform_set_search_meets_targets_in_six_probes_and_clamps_when_unreachable() {
        let enc = Encoder::new(EncoderConfig::default());
        let source = VideoSource::new(basketball_game(1), SourceConfig::fps30(10.0));
        let frames: Vec<Frame> = (0..30).map(|index| source.frame(index)).collect();
        let plans = plans_for(&enc, &frames, None);
        let mut previous_qp = QP_MAX as i32;
        for target in [1_000.0, 400_000.0, 850_000.0, 2_000_000.0, 6_000_000.0] {
            let found = enc.search_rate_plans(&plans, 30.0, target, None);
            assert!(found.probes <= 6, "target {target}: {} probes", found.probes);
            assert!(found.level <= previous_qp, "target {target}: QP rose");
            previous_qp = found.level;
            if target == 1_000.0 {
                // 1 kbps is impossible.
                assert_eq!((found.level, found.boundary), (51, 52));
                continue;
            }
            // A single QP step changes the rate by ~12 %, so accept 20 % error.
            let achieved = mean_rate_at(&enc, &plans, found.level, 30.0);
            let err = (achieved - target).abs() / target;
            assert!(err < 0.2, "target {target}: achieved {achieved} (err {err})");
        }
        assert!(previous_qp < 30, "6 Mbps must land well below the 400 kbps QP");
    }

    /// The context-aware form: an offset on top of a deliberately expensive base map
    /// brings the set to the target, in the seven probes a bisection of the 103 offsets
    /// takes.
    #[test]
    fn offset_set_search_brings_an_expensive_base_map_to_the_target_in_seven_probes() {
        let enc = Encoder::new(EncoderConfig::default());
        let source = VideoSource::new(lecture_slides(4), SourceConfig::fps30(10.0));
        let frames: Vec<Frame> = (0..10).map(|index| source.frame(index)).collect();
        let base = QpMap::uniform(enc.grid_for(&frames[0]), Qp::new(22));
        let plans = plans_for(&enc, &frames, Some(&base));
        let target = 900_000.0;
        let found = enc.search_rate_plans(&plans, 30.0, target, None);
        assert!(found.probes <= 7, "{} probes", found.probes);
        assert!(found.level > 0, "expected a positive offset to shrink the stream");
        let achieved = mean_rate_at(&enc, &plans, found.level, 30.0);
        let err = (achieved - target).abs() / target;
        assert!(err < 0.25, "achieved {achieved} (err {err})");
    }

    #[test]
    fn encode_entry_points_agree_block_for_block() {
        let enc = Encoder::new(EncoderConfig::default());
        let source = VideoSource::new(basketball_game(4), SourceConfig::fps30(5.0));
        let mut plan = RatePlan::new();
        let mut planned_scratch = EncodeScratch::new();
        let mut plain_scratch = EncodeScratch::new();
        let mut planned = crate::frame::EncodedFrame::placeholder();
        let mut plain = crate::frame::EncodedFrame::placeholder();
        // Scratches, plan and outputs are reused across an intra frame, moving inter
        // frames and a revisit.
        for index in [0u64, 5, 17, 5] {
            let frame = source.frame(index);
            let dims = enc.grid_for(&frame);
            let base = varied_base(dims);
            enc.prepare_rate_plan(&frame, Some(&base), &mut plan);
            let mut map = QpMap::empty();
            base.offset_all_into(-6, &mut map);
            enc.encode_into_planned(&frame, &map, &plan, &mut planned_scratch, &mut planned);
            enc.encode_into(&frame, &map, &mut plain_scratch, &mut plain);
            assert_eq!(planned.blocks.len(), dims.len());
            for (idx, block) in plain.blocks.iter().enumerate() {
                assert_eq!(
                    &planned.blocks[idx], block,
                    "planned block {idx} of frame {index}"
                );
                assert_eq!(planned.coverage(idx), plain.coverage(idx), "coverage {idx}");
            }
            assert_eq!(planned, plain, "planned encode diverges on frame {index}");
            assert_eq!(enc.predict_plan_map_size(&plan, &map), plain.total_bytes());
        }
    }

    #[test]
    fn plan_reuse_across_frames_is_exact() {
        let enc = Encoder::new(EncoderConfig::default());
        let source = VideoSource::new(basketball_game(2), SourceConfig::fps30(5.0));
        let mut plan = RatePlan::new();
        for index in [3u64, 12, 40] {
            let frame = source.frame(index);
            let dims = enc.grid_for(&frame);
            let base = QpMap::uniform(dims, Qp::new(30));
            enc.prepare_rate_plan(&frame, Some(&base), &mut plan);
            let mut map = QpMap::empty();
            for level in [-51, -13, 0, 9, 51] {
                base.offset_all_into(level, &mut map);
                assert_eq!(
                    enc.predict_plan_offset_size(&plan, level),
                    planned_encode_matches_scalar_law(&enc, &frame, &map, &plan),
                    "level {level} diverges after plan reuse on frame {index}"
                );
            }
        }
    }

    /// Deterministic generator for the motion-sequence test.
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
    }

    /// One step of a capture sequence: mostly motion (sub-cell moves, jumps, resizes, a
    /// placement landing on another, leaving the frame), now and then an edit to what the
    /// raster's key covers (background, an object's content, the object list, frame size).
    fn step_frame(rng: &mut Lcg, frame: &mut Frame) {
        use aivc_scene::Rect;
        let (width, height) = (frame.width as i64, frame.height as i64);
        let count = frame.placements.len() as i64;
        match rng.range(0, 14) {
            0 => frame.background_complexity = rng.range(0, 101) as f64 / 100.0,
            1 => {
                Arc::make_mut(&mut frame.objects)[rng.range(0, 3) as usize].texture_complexity =
                    rng.range(0, 101) as f64 / 100.0
            }
            2 => {
                Arc::make_mut(&mut frame.objects)[rng.range(0, 3) as usize].motion =
                    rng.range(0, 101) as f64 / 100.0
            }
            3 => {
                let mut objects = frame.objects.to_vec();
                objects.push(objects[rng.range(0, 3) as usize].clone());
                frame.objects = objects.into();
            }
            4 => {
                frame.width = (width + rng.range(-40, 41)) as u32;
                frame.height = (height + rng.range(-30, 31)) as u32;
            }
            // Nothing moved at all.
            5 => {}
            _ => {
                for _ in 0..rng.range(1, 4) {
                    let at = rng.range(0, count) as usize;
                    let other = rng.range(0, count) as usize;
                    let r = frame.placements[at].region;
                    frame.placements[at].region = match rng.range(0, 5) {
                        0 => r.translated(rng.range(-20, 21), rng.range(-20, 21)),
                        1 => Rect::new(
                            rng.range(-300, width + 100),
                            rng.range(-200, height + 100),
                            r.w,
                            r.h,
                        ),
                        2 => Rect::new(r.x, r.y, rng.range(1, 400) as u32, rng.range(1, 300) as u32),
                        3 => frame.placements[other]
                            .region
                            .translated(rng.range(-30, 31), rng.range(-30, 31)),
                        _ => Rect::new(width + 10, r.y, r.w, r.h),
                    };
                }
            }
        }
    }

    #[test]
    fn a_plan_carried_across_captures_equals_a_fresh_plan() {
        let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let enc = Encoder::new(EncoderConfig::default());
        for seed in 0..6u64 {
            let mut rng = Lcg(seed);
            let mut scene = basketball_game(seed);
            scene.width = 700 + 37 * seed as u32;
            scene.height = 410 + 23 * seed as u32;
            let mut frame = VideoSource::new(scene, SourceConfig::fps30(5.0)).frame(0);
            let mut plan = RatePlan::new();
            let mut scratch = EncodeScratch::new();
            let (mut carried_out, mut fresh_out) = (
                crate::frame::EncodedFrame::placeholder(),
                crate::frame::EncodedFrame::placeholder(),
            );
            for step in 0..90 {
                step_frame(&mut rng, &mut frame);
                // Any GOP position: intra → inter, inter → intra, intra → intra and inter runs.
                frame.index = [0, 1, 2, 59, 60, 61, 120][rng.range(0, 7) as usize];
                frame.capture_ts_us = step * 33_333;
                let base = (rng.range(0, 2) == 0).then(|| varied_base(enc.grid_for(&frame)));
                // The context-aware sender's order — plan, then base — half the time.
                match &base {
                    Some(base) if rng.range(0, 2) == 0 => {
                        enc.prepare_rate_plan(&frame, None, &mut plan);
                        plan.set_base_qps(|qps| qps.extend(base.values().iter().map(|qp| qp.value())));
                    }
                    _ => enc.prepare_rate_plan(&frame, base.as_ref(), &mut plan),
                }
                let fresh = enc.rate_plan_for(&frame, base.as_ref());
                let what = format!("seed {seed} step {step}");
                assert_eq!(plan.dims, fresh.dims, "{what}: dims");
                assert_eq!(plan.stamp, fresh.stamp, "{what}: stamp");
                assert_eq!(bits(&plan.lead), bits(&fresh.lead), "{what}: lead");
                assert_eq!(bits(&plan.tail), bits(&fresh.tail), "{what}: tail");
                assert_eq!(bits(&plan.pixels), bits(&fresh.pixels), "{what}: pixels");
                assert_eq!(plan.base_qp, fresh.base_qp, "{what}: base_qp");
                assert_eq!(plan.has_base, fresh.has_base, "{what}: has_base");
                let mut map = QpMap::empty();
                for level in -51..=51 {
                    if let Some(base) = &base {
                        assert_eq!(
                            enc.predict_plan_offset_size(&plan, level),
                            enc.predict_plan_offset_size(&fresh, level),
                            "{what}: offset {level}"
                        );
                        base.offset_all_into(level, &mut map);
                    } else {
                        map.fill_uniform(plan.dims(), Qp::new(level));
                    }
                    assert_eq!(
                        enc.predict_plan_uniform_size(&plan, Qp::new(level)),
                        enc.predict_plan_uniform_size(&fresh, Qp::new(level)),
                        "{what}: uniform {level}"
                    );
                    if level % 17 == 0 {
                        enc.encode_into_planned(&frame, &map, &plan, &mut scratch, &mut carried_out);
                        enc.encode_into_planned(&frame, &map, &fresh, &mut scratch, &mut fresh_out);
                        assert_eq!(carried_out, fresh_out, "{what}: encode at level {level}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_frame_with_a_nan_content_descriptor_is_refused_by_name() {
        let enc = Encoder::new(EncoderConfig::default());
        let clean = VideoSource::new(basketball_game(1), SourceConfig::fps30(5.0)).frame(3);
        let mut plan = RatePlan::new();
        enc.prepare_rate_plan(&clean, None, &mut plan);
        type Poison = fn(&mut Frame);
        let poisons: [(&str, Poison); 4] = [
            ("complexity NaN", |f| {
                Arc::make_mut(&mut f.objects)[0].texture_complexity = f64::NAN
            }),
            ("motion NaN", |f| {
                Arc::make_mut(&mut f.objects)[1].motion = f64::NAN
            }),
            ("detail NaN", |f| {
                Arc::make_mut(&mut f.objects)[2].detail = f64::NAN
            }),
            ("complexity NaN", |f| f.background_complexity = f64::NAN),
        ];
        for (named, poison) in poisons {
            let mut frame = clean.clone();
            poison(&mut frame);
            // Through a plan that carries the clean capture, and through a fresh one.
            for mut plan in [plan.clone(), RatePlan::new()] {
                let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    enc.prepare_rate_plan(&frame, None, &mut plan)
                }))
                .expect_err("a NaN descriptor must be refused");
                let message = panic.downcast_ref::<String>().expect("a formatted message");
                assert!(
                    message.starts_with("frame 3 cannot be coded: block ") && message.contains(named),
                    "{message}"
                );
            }
        }
    }
}
