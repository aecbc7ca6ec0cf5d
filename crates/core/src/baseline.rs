//! The context-agnostic baseline: uniform QP chosen by rate control only.
//!
//! This is what the paper compares against in Figure 9: the same Kvazaar-style encoder, the
//! same target bitrate, but bits are spread uniformly because the encoder has no idea which
//! regions the chat cares about.

use aivc_scene::{Frame, VideoSource};
use aivc_videocodec::{
    DecodedFrame, Decoder, EncodeScratch, EncodedFrame, Encoder, EncoderConfig, Qp, QpMap, RatePlan,
};
use serde::{Deserialize, Serialize};

/// Result of encoding a set of frames with the baseline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BaselineEncode {
    /// The uniform QP selected by the trial-and-error bitrate match.
    pub qp: Qp,
    /// Achieved mean bitrate over the encoded frames, in bits per second.
    pub achieved_bitrate_bps: f64,
    /// The encoded frames.
    pub encoded: Vec<EncodedFrame>,
}

/// The uniform-QP baseline streamer.
#[derive(Debug, Clone)]
pub struct ContextAgnosticBaseline {
    encoder: Encoder,
    decoder: Decoder,
}

impl Default for ContextAgnosticBaseline {
    fn default() -> Self {
        Self::new(EncoderConfig::default())
    }
}

impl ContextAgnosticBaseline {
    /// Creates a baseline streamer with the given encoder configuration.
    pub fn new(config: EncoderConfig) -> Self {
        Self {
            encoder: Encoder::new(config),
            decoder: Decoder::new(),
        }
    }

    /// The underlying encoder.
    pub fn encoder(&self) -> &Encoder {
        &self.encoder
    }

    /// Encodes `frames` at the uniform QP whose actual bitrate best matches
    /// `target_bitrate_bps` (the paper's trial-and-error procedure): one rate plan per
    /// frame, one QP for the set so its mean rate hits the target
    /// ([`Encoder::search_rate_plans`]), one encode per frame from its plan.
    pub fn encode_at_bitrate(&self, frames: &[Frame], fps: f64, target_bitrate_bps: f64) -> BaselineEncode {
        let plans: Vec<RatePlan> = frames
            .iter()
            .map(|f| self.encoder.rate_plan_for(f, None))
            .collect();
        let qp = Qp::new(
            self.encoder
                .search_rate_plans(&plans, fps, target_bitrate_bps, None)
                .level,
        );
        let mut scratch = EncodeScratch::new();
        let encoded: Vec<EncodedFrame> = frames
            .iter()
            .zip(&plans)
            .map(|(f, plan)| {
                let mut out = EncodedFrame::placeholder();
                self.encoder.encode_into_planned(
                    f,
                    &QpMap::uniform(plan.dims(), qp),
                    plan,
                    &mut scratch,
                    &mut out,
                );
                out
            })
            .collect();
        let achieved =
            encoded.iter().map(|e| e.total_bits()).sum::<u64>() as f64 / encoded.len() as f64 * fps;
        BaselineEncode {
            qp,
            achieved_bitrate_bps: achieved,
            encoded,
        }
    }

    /// Encodes the MLLM-visible frames of a clip (≤ `max_frames`, spread over the clip) at a
    /// matched bitrate and decodes them losslessly (no transport), for offline evaluation.
    pub fn offline_decode(
        &self,
        source: &VideoSource,
        target_bitrate_bps: f64,
        max_frames: usize,
    ) -> (Vec<DecodedFrame>, BaselineEncode) {
        let frames = source.sample_frames(max_frames);
        let encode = self.encode_at_bitrate(&frames, source.config().fps, target_bitrate_bps);
        let decoded = encode
            .encoded
            .iter()
            .map(|e| self.decoder.decode_complete(e, None))
            .collect();
        (decoded, encode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aivc_scene::templates::basketball_game;
    use aivc_scene::SourceConfig;

    fn source() -> VideoSource {
        VideoSource::new(basketball_game(1), SourceConfig::fps30(10.0))
    }

    #[test]
    fn baseline_hits_target_bitrate() {
        let baseline = ContextAgnosticBaseline::default();
        let frames = source().sample_frames(10);
        for target in [430_000.0, 850_000.0, 2_000_000.0] {
            let result = baseline.encode_at_bitrate(&frames, 30.0, target);
            let err = (result.achieved_bitrate_bps - target).abs() / target;
            assert!(
                err < 0.5,
                "target {target}: achieved {}",
                result.achieved_bitrate_bps
            );
        }
    }

    #[test]
    fn lower_bitrate_means_higher_qp_and_lower_quality() {
        let baseline = ContextAgnosticBaseline::default();
        let frames = source().sample_frames(6);
        let low = baseline.encode_at_bitrate(&frames, 30.0, 430_000.0);
        let high = baseline.encode_at_bitrate(&frames, 30.0, 1_700_000.0);
        assert!(low.qp.value() > high.qp.value());
        assert!(low.encoded[0].mean_encoded_quality() < high.encoded[0].mean_encoded_quality());
    }

    #[test]
    fn offline_decode_produces_requested_frame_count() {
        let baseline = ContextAgnosticBaseline::default();
        let (decoded, encode) = baseline.offline_decode(&source(), 850_000.0, 6);
        assert_eq!(decoded.len(), 6);
        assert_eq!(decoded.len(), encode.encoded.len());
        assert!(decoded[0].received_fraction() == 1.0);
    }
}
