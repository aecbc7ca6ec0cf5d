//! Offline transcoding: re-encode a clip at a target bitrate.
//!
//! DeViBench's preprocessing step transcodes every source video to a 200 Kbps version
//! (§3.1, "Video Preprocessing") and later steps compare MLLM answers on the original vs
//! the degraded version. This module reproduces that step on synthetic clips: it picks the
//! uniform QP matching the target via trial-and-error and produces the decoded frames the
//! MLLM simulator will look at.

use crate::decoder::{DecodedFrame, Decoder};
use crate::encoder::Encoder;
use crate::gop::GOP_LENGTH;
use crate::qp::Qp;
use crate::rate_plan::RatePlan;
use aivc_scene::VideoSource;

/// Summary of a transcode run.
#[derive(Debug, Clone, PartialEq)]
pub struct TranscodeSummary {
    /// Target bitrate requested, bits per second.
    pub target_bitrate_bps: f64,
    /// Actual mean bitrate achieved, bits per second.
    pub achieved_bitrate_bps: f64,
    /// Uniform QP selected by the trial-and-error search.
    pub qp: Qp,
    /// Trial encodes the search took to settle on it ([`crate::RateSearch::probes`]) — the
    /// cost the paper's §3.2 footnote complains about, and what DeViBench's ledger prices.
    pub probes: u32,
    /// Number of frames transcoded.
    pub frames: usize,
    /// Mean decoded quality across the transcoded frames.
    pub mean_quality: f64,
}

/// Transcodes a clip to the target bitrate, sampling at most `max_frames` frames uniformly
/// across the clip (the MLLM only consumes ~2 FPS anyway, §2.1). Returns the decoded frames
/// and the transcode summary.
pub fn transcode_clip(
    encoder: &Encoder,
    source: &VideoSource,
    target_bitrate_bps: f64,
    max_frames: usize,
) -> (Vec<DecodedFrame>, TranscodeSummary) {
    // Rate matching uses a contiguous window of one GOP (or the whole clip if shorter) so the
    // intra/inter frame mix — and therefore the measured bitrate — matches what encoding the
    // full clip would produce: one plan per frame of the window, one QP for the set.
    let total = source.frame_count().max(1);
    let rate_window = GOP_LENGTH.min(total);
    let plans: Vec<RatePlan> = (0..rate_window)
        .map(|idx| encoder.rate_plan_for(&source.frame(idx), None))
        .collect();
    let fps = source.config().fps;
    let search = encoder.search_rate_plans(&plans, fps, target_bitrate_bps, None);
    let qp = Qp::new(search.level);
    let window_bytes: u64 = plans
        .iter()
        .map(|plan| encoder.predict_plan_uniform_size(plan, qp))
        .sum();
    let achieved = (window_bytes * 8) as f64 / plans.len() as f64 * fps;

    let decoder = Decoder::new();
    let decoded: Vec<DecodedFrame> = source
        .sample_frames(max_frames)
        .iter()
        .map(|frame| decoder.decode_complete(&encoder.encode_uniform(frame, qp), None))
        .collect();
    let mean_quality = decoded.iter().map(|d| d.mean_quality()).sum::<f64>() / decoded.len().max(1) as f64;
    let summary = TranscodeSummary {
        target_bitrate_bps,
        achieved_bitrate_bps: achieved,
        qp,
        probes: search.probes,
        frames: decoded.len(),
        mean_quality,
    };
    (decoded, summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::EncoderConfig;
    use aivc_scene::templates::lecture_slides;
    use aivc_scene::SourceConfig;

    fn source() -> VideoSource {
        VideoSource::new(lecture_slides(1), SourceConfig::fps30(20.0))
    }

    #[test]
    fn transcode_hits_target_roughly() {
        let enc = Encoder::new(EncoderConfig::default());
        let (frames, summary) = transcode_clip(&enc, &source(), 200_000.0, 20);
        assert_eq!(frames.len(), 20);
        let err = (summary.achieved_bitrate_bps - 200_000.0).abs() / 200_000.0;
        assert!(err < 0.5, "achieved {}", summary.achieved_bitrate_bps);
        assert!(summary.qp.value() > 35, "200 kbps should need a high QP");
        assert!((1..=6).contains(&summary.probes), "{} probes", summary.probes);
    }

    #[test]
    fn lower_bitrate_means_lower_quality() {
        let enc = Encoder::new(EncoderConfig::default());
        let (_, low) = transcode_clip(&enc, &source(), 200_000.0, 10);
        let (_, high) = transcode_clip(&enc, &source(), 4_000_000.0, 10);
        assert!(high.mean_quality > low.mean_quality + 0.15);
        assert!(high.qp.value() < low.qp.value());
    }

    #[test]
    fn frame_sampling_caps_count() {
        let enc = Encoder::new(EncoderConfig::default());
        let (frames, _) = transcode_clip(&enc, &source(), 1_000_000.0, 5);
        assert_eq!(frames.len(), 5);
    }
}
