//! Figure 10: the CLIP-informed QP map — similar total bitrate to the baseline, but bits are
//! shifted onto the chat-important regions.
//!
//! Prints (a) the baseline uniform QP, (b) the context-aware QP map as an ASCII grid, and
//! (c) the per-object bit allocation of both encodes at matched bitrate.

use aivc_bench::{kbps, print_section, write_json};
use aivc_mllm::{Question, QuestionFormat};
use aivc_scene::templates::basketball_game;
use aivc_scene::{SourceConfig, VideoSource};
use aivchat_core::session::StreamingMode;
use aivchat_core::Streamer;
use serde::Serialize;

#[derive(Serialize)]
struct ObjectBits {
    object: String,
    ours_bits: u64,
    baseline_bits: u64,
}

fn main() {
    let scene = basketball_game(1);
    let source = VideoSource::new(scene.clone(), SourceConfig::fps30(10.0));
    let frames = source.sample_frames(4);
    let question = Question::from_fact(&scene.facts[1], QuestionFormat::FreeResponse); // jersey logo
    let streamer = Streamer::with_defaults(StreamingMode::ContextAware);
    let baseline = Streamer::with_defaults(StreamingMode::Baseline);
    let target = 430_000.0;

    let query = streamer.query_for_question(&question);
    let ours = streamer.encode_at_bitrate(&frames, &query, 30.0, target);
    let theirs = baseline.encode_at_bitrate(&frames, &query, 30.0, target);
    let qp_map = streamer.qp_map_for(&frames[0], &query).offset_all(ours.level);

    let mut rows = Vec::new();
    for object in &scene.objects {
        rows.push(ObjectBits {
            object: object.name.clone(),
            ours_bits: ours.encoded[0].bits_on_object(object.id, 0.05),
            baseline_bits: theirs.encoded[0].bits_on_object(object.id, 0.05),
        });
    }

    let mut body = format!(
        "Question: \"{}\"\n\nBaseline: uniform QP {} at {} | Ours: CLIP-informed map (offset {:+}) at {}\n\n",
        question.text,
        theirs.level,
        kbps(theirs.achieved_bitrate_bps),
        ours.level,
        kbps(ours.achieved_bitrate_bps),
    );
    body.push_str("| object | ours (bits, frame 0) | baseline (bits, frame 0) |\n|---|---|---|\n");
    for r in &rows {
        body.push_str(&format!(
            "| {} | {} | {} |\n",
            r.object, r.ours_bits, r.baseline_bits
        ));
    }
    body.push_str(
        "\nCLIP-informed QP map of frame 0 (one number per 64x64 CTU — low = high quality):\n\n```\n",
    );
    body.push_str(&qp_map.to_ascii());
    body.push_str("```\n\nPaper (Figure 10): at ~430 vs ~425 Kbps, the context-aware encode puts visibly more bits on the chat-important regions (jersey logo, the player covering his mouth) and fewer on chat-irrelevant ones, which is what preserves MLLM accuracy.\n");
    print_section("Figure 10 — CLIP-informed QP map at matched bitrate", &body);
    write_json("fig10_qp_map", &rows);
}
