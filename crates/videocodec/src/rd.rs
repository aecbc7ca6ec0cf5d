//! The empirical rate–distortion model.
//!
//! Calibrated against standard HEVC behaviour rather than any specific sequence:
//!
//! * **Rate.** Bits per pixel decay exponentially with QP, halving roughly every 6 QP steps
//!   (`2^(-(qp-22)/6)`), scale linearly with spatial complexity, and inter-coded blocks cost
//!   a fraction of intra blocks that grows with motion.
//! * **Quality.** We model *recognition quality* in `[0, 1]` — the probability-like degree
//!   to which the detail in a block survives compression. It is a logistic function of QP
//!   whose inflection point moves to lower QP as the content's detail requirement rises:
//!   flat regions look "fine" even at QP 45, small text becomes unreadable beyond ~QP 34.
//!   This is precisely the asymmetry the paper exploits (Figure 4: coarse questions survive
//!   200 Kbps, detail questions do not).
//!
//! The paper's prototype is one encoder with one calibration, so the model is a set of
//! constants and the pure functions over them — there is no model object to build or pass.
//! [`block_bits_with_factor`] is the scalar rate law: the encoder's rate kernel
//! ([`crate::rate_plan`]) evaluates it from the content raster, lanes at a time, and is
//! tested against it block for block.

use crate::frame::FrameType;
use crate::qp::Qp;

/// Bits per pixel of a maximum-complexity intra block at [`REF_QP`].
pub const INTRA_BPP_AT_REF: f64 = 0.30;
/// Reference QP of the exponential rate law.
pub const REF_QP: f64 = 22.0;
/// QP step that halves the bitrate (≈ 6 for HEVC).
pub const QP_HALVING_STEP: f64 = 6.0;
/// Fraction of intra cost paid by an inter block with zero motion.
pub const INTER_BASE_FRACTION: f64 = 0.10;
/// Additional inter cost per unit of motion.
pub const INTER_MOTION_FRACTION: f64 = 0.55;
/// Floor on per-block bits per pixel (headers, CABAC minimums).
pub const MIN_BPP: f64 = 0.0015;
/// QP at which half the *recognition quality* of zero-detail content is lost.
const QUALITY_QP50_FLAT: f64 = 48.0;
/// How many QP steps earlier the half-quality point arrives per unit of detail.
const QUALITY_QP50_DETAIL_SHIFT: f64 = 16.0;
/// Logistic slope (QP steps per e-fold) of the quality curve.
const QUALITY_SLOPE: f64 = 5.0;

/// The QP-dependent factor of the exponential rate law — the only transcendental in
/// [`block_bits`]. Exposed so the encoder can precompute a 52-entry lookup table (QP is
/// integral) instead of paying a `powf` per block.
pub fn qp_factor(qp: Qp) -> f64 {
    2f64.powf(-(qp.as_f64() - REF_QP) / QP_HALVING_STEP)
}

/// Bits needed to encode a block of `pixels` pixels with the given QP and content.
///
/// `complexity` and `motion` are the scene descriptors in `[0, 1]`.
pub fn block_bits(qp: Qp, pixels: u64, complexity: f64, motion: f64, frame_type: FrameType) -> u64 {
    block_bits_with_factor(qp_factor(qp), pixels, complexity, motion, frame_type)
}

/// [`block_bits`] with the QP factor supplied by the caller (normally from a per-QP lookup
/// table built with [`qp_factor`]).
pub fn block_bits_with_factor(
    qp_factor: f64,
    pixels: u64,
    complexity: f64,
    motion: f64,
    frame_type: FrameType,
) -> u64 {
    let complexity = complexity.clamp(0.0, 1.0);
    let motion = motion.clamp(0.0, 1.0);
    let content_factor = 0.08 + 0.92 * complexity;
    let type_factor = match frame_type {
        FrameType::Intra => 1.0,
        FrameType::Inter => INTER_BASE_FRACTION + INTER_MOTION_FRACTION * motion,
    };
    let bpp = (INTRA_BPP_AT_REF * content_factor * qp_factor * type_factor).max(MIN_BPP);
    (bpp * pixels as f64).ceil() as u64
}

/// Recognition quality in `[0, 1]` of a block encoded at `qp` whose content requires
/// `detail` ∈ `[0, 1]` of fine detail to be understood.
///
/// Monotone decreasing in QP and in detail requirement.
pub fn block_quality(qp: Qp, detail: f64) -> f64 {
    let detail = detail.clamp(0.0, 1.0);
    let qp50 = QUALITY_QP50_FLAT - QUALITY_QP50_DETAIL_SHIFT * detail;
    let x = (qp.as_f64() - qp50) / QUALITY_SLOPE;
    1.0 / (1.0 + x.exp())
}

/// The quality assigned to a block that was lost in transit and had to be concealed
/// from neighbouring/previous content. Concealment preserves almost none of the detail.
pub fn concealment_quality(detail: f64) -> f64 {
    // Flat content conceals tolerably; detailed content is essentially destroyed.
    (0.25 * (1.0 - detail.clamp(0.0, 1.0))).clamp(0.02, 0.25)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_halves_every_six_qp() {
        let b30 = block_bits(Qp::new(30), 64 * 64, 0.6, 0.3, FrameType::Intra);
        let b36 = block_bits(Qp::new(36), 64 * 64, 0.6, 0.3, FrameType::Intra);
        let ratio = b30 as f64 / b36 as f64;
        assert!((ratio - 2.0).abs() < 0.1, "ratio {ratio}");
    }

    #[test]
    fn rate_is_monotone_decreasing_in_qp() {
        let mut prev = u64::MAX;
        for qp in 0..=51 {
            let bits = block_bits(Qp::new(qp), 64 * 64, 0.5, 0.5, FrameType::Intra);
            assert!(bits <= prev, "bits increased at qp {qp}");
            prev = bits;
        }
    }

    #[test]
    fn inter_is_cheaper_than_intra_and_scales_with_motion() {
        let intra = block_bits(Qp::new(30), 64 * 64, 0.5, 0.0, FrameType::Intra);
        let inter_static = block_bits(Qp::new(30), 64 * 64, 0.5, 0.0, FrameType::Inter);
        let inter_moving = block_bits(Qp::new(30), 64 * 64, 0.5, 1.0, FrameType::Inter);
        assert!(inter_static < intra);
        assert!(inter_moving > inter_static);
        assert!(inter_moving < intra);
    }

    #[test]
    fn complexity_increases_rate() {
        let flat = block_bits(Qp::new(30), 64 * 64, 0.05, 0.0, FrameType::Intra);
        let busy = block_bits(Qp::new(30), 64 * 64, 0.95, 0.0, FrameType::Intra);
        assert!(busy > flat * 3);
    }

    #[test]
    fn rate_has_floor() {
        let bits = block_bits(Qp::new(51), 64 * 64, 0.0, 0.0, FrameType::Inter);
        assert!(bits >= (MIN_BPP * 64.0 * 64.0) as u64);
    }

    #[test]
    fn quality_monotone_in_qp_and_detail() {
        for detail in [0.0, 0.3, 0.6, 0.9] {
            let mut prev = f64::INFINITY;
            for qp in 0..=51 {
                let q = block_quality(Qp::new(qp), detail);
                assert!(q <= prev + 1e-12);
                assert!((0.0..=1.0).contains(&q));
                prev = q;
            }
        }
        // More detail => lower quality at the same QP.
        assert!(block_quality(Qp::new(38), 0.9) < block_quality(Qp::new(38), 0.1));
    }

    #[test]
    fn low_qp_preserves_even_small_text() {
        assert!(block_quality(Qp::new(20), 0.95) > 0.85);
    }

    #[test]
    fn high_qp_destroys_detail_but_not_coarse_content() {
        let text = block_quality(Qp::new(42), 0.9);
        let pose = block_quality(Qp::new(42), 0.2);
        assert!(text < 0.25, "text quality {text}");
        assert!(pose > 0.6, "pose quality {pose}");
    }

    #[test]
    fn concealment_quality_is_poor() {
        assert!(concealment_quality(0.9) < 0.1);
        assert!(concealment_quality(0.0) <= 0.25);
        assert!(concealment_quality(0.5) < block_quality(Qp::new(35), 0.5));
    }
}
