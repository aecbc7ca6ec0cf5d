//! Ablation: CLIP patch size (the N of §3.2's N×N partition).
//!
//! Finer patches localize the chat-important region more precisely (less bitrate wasted on
//! the rest of the CTUs that share a coarse patch) but cost proportionally more client-side
//! compute — the trade-off behind the paper's "client-side computation" discussion.

use crate::{Scale, Section};
use aivc_mllm::{MllmChat, Question, QuestionFormat};
use aivc_scene::templates::street_scene;
use aivc_scene::{Ontology, SourceConfig, VideoSource};
use aivc_semantics::{ClipConfig, ClipModel};
use aivchat_core::session::StreamingMode;
use aivchat_core::{Streamer, StreamerConfig};
use serde::Serialize;
use std::sync::Arc;

#[derive(Serialize)]
struct PatchRow {
    patch_size: u32,
    clip_latency_ms: f64,
    achieved_bps: f64,
    probability_correct: f64,
}

pub fn run(scale: Scale) -> Section {
    let frames_per_clip = scale.pick(3, 5, 8);
    let scene = street_scene(1);
    let source = VideoSource::new(scene.clone(), SourceConfig::fps30(10.0));
    // The license-plate question: tiny evidence region, the case where localization matters most.
    let question = Question::from_fact(&scene.facts[0], QuestionFormat::FreeResponse);
    let responder = MllmChat::responder(9);
    let mut rows = Vec::new();

    for patch_size in [32u32, 64, 128] {
        let clip_config = ClipConfig { patch_size };
        let streamer = Streamer::new(
            StreamingMode::ContextAware,
            StreamerConfig::default(),
            Arc::new(ClipModel::new(clip_config, Ontology::standard())),
        );
        let (frames, enc) = streamer.offline_decode(&source, &question, 430_000.0, frames_per_clip);
        let p = responder.answer_model().probability_correct(&question, &frames);
        rows.push(PatchRow {
            patch_size,
            clip_latency_ms: streamer.clip_model().inference_latency_us(1920, 1080) as f64 / 1_000.0,
            achieved_bps: enc.achieved_bitrate_bps,
            probability_correct: p,
        });
    }

    let mut body =
        String::from("| patch size | CLIP latency | achieved kbps | P(correct) |\n|---|---|---|---|\n");
    for r in &rows {
        body.push_str(&format!(
            "| {}px | {:.1} ms | {:.1} | {:.2} |\n",
            r.patch_size,
            r.clip_latency_ms,
            r.achieved_bps / 1_000.0,
            r.probability_correct
        ));
    }
    body.push_str("\nSmaller patches localize the plate more precisely and preserve accuracy at the same bitrate, at a quadratic growth in client-side CLIP compute — the mobile-compute trade-off §4 discusses.\n");
    Section::new("Ablation — CLIP patch size", body, &rows)
}
