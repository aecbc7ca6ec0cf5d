//! Receiver-side frame sampling and pixel-budget downsampling.
//!
//! §2.1: "the received video needs to be actively downsampled before being fed to the MLLM"
//! — at most ~2 FPS and at most 602,112 pixels per frame. [`FrameSampler`] and
//! [`Downsampler`] implement those two reductions and expose the redundancy statistics that
//! Figure 2 visualizes.

use crate::config::MllmConfig;
use aivc_videocodec::DecodedFrame;
use serde::{Deserialize, Serialize};

/// Selects which received frames the MLLM actually processes (≤ `max_input_fps`).
#[derive(Debug, Clone)]
pub struct FrameSampler {
    max_fps: f64,
    last_taken_ts_us: Option<u64>,
    taken: u64,
    offered: u64,
}

/// Statistics of a sampling run — the data behind Figure 2.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SamplingStats {
    /// Frames offered by the network/decoder.
    pub offered: u64,
    /// Frames actually ingested by the MLLM.
    pub taken: u64,
}

impl SamplingStats {
    /// Fraction of offered frames that the MLLM never looks at (the red frames of Figure 2).
    pub fn redundant_fraction(&self) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        1.0 - self.taken as f64 / self.offered as f64
    }
}

impl FrameSampler {
    /// Creates a sampler honouring the model's maximum input frame rate.
    pub fn new(config: &MllmConfig) -> Self {
        Self::with_max_fps(config.max_input_fps)
    }

    /// Creates a sampler with an explicit rate limit.
    fn with_max_fps(max_fps: f64) -> Self {
        assert!(max_fps > 0.0, "max fps must be positive");
        Self {
            max_fps,
            last_taken_ts_us: None,
            taken: 0,
            offered: 0,
        }
    }

    /// Minimum capture-timestamp spacing between ingested frames, in microseconds.
    fn min_spacing_us(&self) -> u64 {
        (1_000_000.0 / self.max_fps).round() as u64
    }

    /// Offers a frame (by capture timestamp); returns true when the MLLM should ingest it.
    ///
    /// Decisions are based on *capture* timestamps so that network jitter and decode timing
    /// do not change which frames the model sees.
    pub fn offer(&mut self, capture_ts_us: u64) -> bool {
        self.offered += 1;
        let take = match self.last_taken_ts_us {
            None => true,
            Some(last) => capture_ts_us >= last + self.min_spacing_us(),
        };
        if take {
            self.last_taken_ts_us = Some(capture_ts_us);
            self.taken += 1;
        }
        take
    }

    /// Offers a decoded frame.
    pub fn offer_frame(&mut self, frame: &DecodedFrame) -> bool {
        self.offer(frame.capture_ts_us)
    }

    /// Statistics so far.
    pub fn stats(&self) -> SamplingStats {
        SamplingStats {
            offered: self.offered,
            taken: self.taken,
        }
    }
}

/// Downsampling decision for one frame.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DownsampleDecision {
    /// Source pixel count.
    pub source_pixels: u64,
    /// Pixel count after downsampling.
    pub retained_pixels: u64,
    /// Linear scale factor applied to each dimension (≤ 1).
    pub linear_scale: f64,
}

/// Applies the model's per-frame pixel budget.
#[derive(Debug, Clone, Copy)]
pub struct Downsampler {
    max_pixels: u64,
}

impl Downsampler {
    /// Creates a downsampler honouring the model's pixel budget.
    pub fn new(config: &MllmConfig) -> Self {
        Self {
            max_pixels: config.max_pixels_per_frame,
        }
    }

    /// Computes the downsampling applied to a `width x height` frame.
    pub fn decide(&self, width: u32, height: u32) -> DownsampleDecision {
        let source = width as u64 * height as u64;
        if source <= self.max_pixels {
            return DownsampleDecision {
                source_pixels: source,
                retained_pixels: source,
                linear_scale: 1.0,
            };
        }
        let scale = (self.max_pixels as f64 / source as f64).sqrt();
        let retained = ((width as f64 * scale).floor() * (height as f64 * scale).floor()) as u64;
        DownsampleDecision {
            source_pixels: source,
            retained_pixels: retained.min(self.max_pixels),
            linear_scale: scale,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampler_takes_at_most_two_fps() {
        let mut s = FrameSampler::with_max_fps(2.0);
        // 60 FPS capture for 10 seconds => 600 offered, at most ~20 taken.
        let mut taken = 0;
        for i in 0..600u64 {
            if s.offer(i * 16_667) {
                taken += 1;
            }
        }
        assert!(taken <= 21, "taken {taken}");
        assert!(taken >= 19);
        let stats = s.stats();
        assert_eq!(stats.offered, 600);
        assert!(stats.redundant_fraction() > 0.95);
    }

    #[test]
    fn sampler_is_jitter_invariant() {
        // The same capture timestamps produce the same decisions regardless of the order or
        // delay with which frames *arrive* — the sampler only looks at capture time.
        let capture: Vec<u64> = (0..120).map(|i| i * 33_333).collect();
        let mut a = FrameSampler::with_max_fps(2.0);
        let decisions_a: Vec<bool> = capture.iter().map(|t| a.offer(*t)).collect();
        let mut b = FrameSampler::with_max_fps(2.0);
        let decisions_b: Vec<bool> = capture.iter().map(|t| b.offer(*t)).collect();
        assert_eq!(decisions_a, decisions_b);
    }

    #[test]
    fn low_rate_source_is_taken_entirely() {
        let mut s = FrameSampler::with_max_fps(2.0);
        for i in 0..20u64 {
            assert!(s.offer(i * 1_000_000), "1 FPS source should never be dropped");
        }
        assert_eq!(s.stats().redundant_fraction(), 0.0);
    }

    #[test]
    fn downsampler_caps_1080p_to_budget() {
        let d = Downsampler::new(&MllmConfig::qwen_omni_like());
        let decision = d.decide(1920, 1080);
        assert_eq!(decision.source_pixels, 1920 * 1080);
        assert!(decision.retained_pixels <= 602_112);
        assert!(decision.linear_scale < 0.56 && decision.linear_scale > 0.5);
        assert!(decision.retained_pixels < decision.source_pixels * 3 / 10);
    }

    #[test]
    fn small_frames_pass_through() {
        let d = Downsampler::new(&MllmConfig::qwen_omni_like());
        let decision = d.decide(640, 480);
        assert_eq!(decision.linear_scale, 1.0);
        assert_eq!(decision.retained_pixels, decision.source_pixels);
    }

    #[test]
    fn config_constructors_match_paper_numbers() {
        let cfg = MllmConfig::qwen_omni_like();
        let s = FrameSampler::new(&cfg);
        assert_eq!(s.min_spacing_us(), 500_000);
        let d = Downsampler::new(&cfg);
        assert!(d.decide(1920, 1080).retained_pixels <= 602_112);
    }
}
