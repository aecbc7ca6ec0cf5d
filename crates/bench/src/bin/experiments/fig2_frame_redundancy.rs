//! Figure 2: the MLLM processes video at a very low frame rate, so most transmitted frames
//! are redundant.
//!
//! A 60 FPS camera feed is offered to a Qwen2.5-Omni-like receiver (≤2 FPS, ≤602,112 px);
//! the harness reports how many frames and pixels the model actually consumes.

use crate::{Scale, Section};
use aivc_mllm::{Downsampler, FrameSampler, MllmConfig};
use aivc_scene::templates::basketball_game;
use aivc_scene::{SourceConfig, VideoSource};
use serde::Serialize;

#[derive(Serialize)]
struct Fig2Row {
    capture_fps: f64,
    duration_secs: f64,
    frames_captured: u64,
    frames_ingested: u64,
    redundant_frame_fraction: f64,
    pixels_per_captured_frame: u64,
    pixels_per_ingested_frame: u64,
    redundant_pixel_fraction: f64,
}

pub fn run(scale: Scale) -> Section {
    let duration = scale.pick(10.0, 60.0, 600.0);
    let config = MllmConfig::qwen_omni_like();
    let mut rows = Vec::new();

    for capture_fps in [30.0, 60.0] {
        let source = VideoSource::new(
            basketball_game(1),
            SourceConfig {
                fps: capture_fps,
                duration_secs: duration,
            },
        );
        let mut sampler = FrameSampler::new(&config);
        for frame in source.frames() {
            sampler.offer(frame.capture_ts_us);
        }
        let stats = sampler.stats();
        let downsampler = Downsampler::new(&config);
        let decision = downsampler.decide(source.scene().width, source.scene().height);
        let pixel_redundancy = 1.0
            - (stats.taken as f64 * decision.retained_pixels as f64)
                / (stats.offered as f64 * decision.source_pixels as f64);
        rows.push(Fig2Row {
            capture_fps,
            duration_secs: duration,
            frames_captured: stats.offered,
            frames_ingested: stats.taken,
            redundant_frame_fraction: stats.redundant_fraction(),
            pixels_per_captured_frame: decision.source_pixels,
            pixels_per_ingested_frame: decision.retained_pixels,
            redundant_pixel_fraction: pixel_redundancy,
        });
    }

    let mut body = String::from(
        "| capture fps | frames captured | frames ingested | redundant frames | redundant pixels |\n|---|---|---|---|---|\n",
    );
    for r in &rows {
        body.push_str(&format!(
            "| {:.0} | {} | {} | {:.1}% | {:.1}% |\n",
            r.capture_fps,
            r.frames_captured,
            r.frames_ingested,
            r.redundant_frame_fraction * 100.0,
            r.redundant_pixel_fraction * 100.0
        ));
    }
    body.push_str("\nPaper (Figure 2 + §2.1): MLLMs ingest at most 2 FPS and ≤602,112 px per frame, so the overwhelming majority of a 30–60 FPS 1080p stream is redundancy the receiver never perceives.\n");
    let title = "Figure 2 — frame/pixel redundancy at the MLLM receiver";
    Section::new(title, body, &rows)
}
