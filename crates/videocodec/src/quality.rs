//! Frame- and region-level quality summaries.
//!
//! Traditional RTC optimizes perceptual metrics (SSIM/VMAF); the paper's point is that the
//! metric that matters for AI Video Chat is MLLM accuracy, which depends on *where* quality
//! lands, not on the average. Both views are provided: a scalar frame quality (what a
//! traditional pipeline would optimize) and per-region / per-object quality (what actually
//! predicts MLLM accuracy).

use crate::decoder::DecodedFrame;
use aivc_scene::Rect;

/// Scalar "perceptual-style" frame quality: the plain mean of block recognition quality.
///
/// This is the quantity a context-agnostic encoder implicitly maximizes at a given bitrate.
pub fn frame_quality(frame: &DecodedFrame) -> f64 {
    frame.mean_quality()
}

/// Area-weighted decoded quality of a region (delegates to [`DecodedFrame::region_quality`]).
pub fn region_quality(frame: &DecodedFrame, region: &Rect) -> f64 {
    frame.region_quality(region)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::Decoder;
    use crate::encoder::{Encoder, EncoderConfig};
    use crate::qp::Qp;
    use aivc_scene::templates::basketball_game;
    use aivc_scene::{SourceConfig, VideoSource};

    fn decoded_at(qp: u8) -> DecodedFrame {
        let source = VideoSource::new(basketball_game(1), SourceConfig::fps30(10.0));
        let enc = Encoder::new(EncoderConfig::default());
        let e = enc.encode_uniform(&source.frame(0), Qp::new(qp as i32));
        Decoder::new().decode_complete(&e, None)
    }

    #[test]
    fn frame_quality_decreases_with_qp() {
        assert!(frame_quality(&decoded_at(24)) > frame_quality(&decoded_at(44)));
    }

    #[test]
    fn region_quality_matches_decoded_frame_method() {
        let d = decoded_at(30);
        let r = Rect::new(60, 40, 420, 110);
        assert_eq!(region_quality(&d, &r), d.region_quality(&r));
    }
}
