//! The live heap of the session's parts and of whole sessions, pinned as exact byte counts:
//! each of a prepared 1080p rate plan and a CTU raster, an encoded and a decoded frame, a captured
//! frame and a turn report, boxed (its inline size and what it points to), what one more warm conversation adds to a fleet on one lane,
//! what one more tenant adds to the peak heap of `shared-blackout`, and what a conversation's
//! history holds per reserved turn. Allocation sizes
//! are deterministic, so every count is compared at zero tolerance: a change that saves
//! memory shows up as a diff of `tests/fixtures/heap_counts.json`, and one that moves
//! memory it did not mean to move fails here.
//!
//! To refresh the fixture after an intentional change of what is held:
//! `AIVC_UPDATE_FIXTURES=1 cargo test --release -p aivc-bench --test heap_counts`
//!
//! Like `serving_scale`, this target sets `harness = false`: the byte-counting global
//! allocator (`heap/mod.rs`) must not observe libtest's harness threads.

mod heap;

use aivc_mllm::{Question, QuestionFormat};
use aivc_scene::grid_content::GridContent;
use aivc_scene::templates::basketball_game;
use aivc_scene::{SourceConfig, VideoSource};
use aivc_sim::SimDuration;
use aivc_videocodec::encoder::BLOCK_SIZE;
use aivc_videocodec::{Decoder, Encoder, EncoderConfig, Qp};
use aivchat_core::Conversation;
use heap::{held_by, shared_blackout_tenant_slope, template, turn_window, warm_fleet_slope};
use std::path::PathBuf;

fn main() {
    let source = VideoSource::new(basketball_game(1), SourceConfig::fps30(6.0));
    let question = Question::from_fact(&basketball_game(1).facts[0], QuestionFormat::FreeResponse);
    let windows: Vec<_> = (0..2).map(|turn| turn_window(&source, turn)).collect();
    let enc = Encoder::new(EncoderConfig::default());

    // Each value boxed: what it costs where it is held, its inline size included.
    let (frame, captured_frame) = held_by(|| Box::new(source.frame(3)));
    let (_plan, rate_plan) = held_by(|| Box::new(enc.rate_plan_for(&frame, None)));
    let (_raster, ctu_raster) = held_by(|| {
        let mut raster = Box::new(GridContent::new());
        raster.fill(&frame, BLOCK_SIZE);
        raster
    });
    let (encoded, encoded_frame) = held_by(|| Box::new(enc.encode_uniform(&frame, Qp::new(30))));
    let (_decoded, decoded_frame) = held_by(|| Box::new(Decoder::new().decode_complete(&encoded, None)));
    let report = Conversation::with_defaults(template(17), SimDuration::from_millis(300))
        .run_turn(&windows[0], &question);
    let (_report, net_turn_report) = held_by(|| Box::new(report.clone()));
    // The benchmark's `fleet64_ai_warm` size, on one lane.
    let (fleet_slope, _) = warm_fleet_slope(1, 64, &windows, &question);
    let (tenant_slope, _) = shared_blackout_tenant_slope();
    // What `reserve_turns` holds per turn of four captures on a fresh conversation: the turn
    // report and the per-turn and per-frame history entries (their difference at 128 and 64
    // turns, so whatever a conversation holds either way cancels).
    let history_bytes = |turns| {
        let mut conversation = Conversation::with_defaults(template(17), SimDuration::from_millis(300));
        held_by(|| conversation.reserve_turns(turns, 4)).1
    };
    let history_slope = (history_bytes(128) - history_bytes(64)) as f64 / 64.0;

    let counts: [(&str, String); 9] = [
        ("rate_plan_1080p", rate_plan.to_string()),
        ("ctu_raster_1080p", ctu_raster.to_string()),
        ("encoded_frame_1080p", encoded_frame.to_string()),
        ("decoded_frame_1080p", decoded_frame.to_string()),
        ("captured_frame_1080p", captured_frame.to_string()),
        ("net_turn_report", net_turn_report.to_string()),
        ("warm_fleet_bytes_per_session", fleet_slope.to_string()),
        ("shared_blackout_peak_bytes_per_tenant", tenant_slope.to_string()),
        ("history_bytes_per_turn", history_slope.to_string()),
    ];
    let body: Vec<String> = counts
        .iter()
        .map(|(name, bytes)| format!("  \"{name}\": {bytes}"))
        .collect();
    let json = format!("{{\n{}\n}}\n", body.join(",\n"));
    serde_json::from_str(&json).expect("the heap counts are valid JSON");
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/heap_counts.json");
    if std::env::var("AIVC_UPDATE_FIXTURES").is_ok() {
        std::fs::write(&path, &json).unwrap();
        println!("heap_counts: wrote {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); run AIVC_UPDATE_FIXTURES=1 cargo test -p aivc-bench --test heap_counts",
            path.display()
        )
    });
    assert_eq!(
        json, expected,
        "the heap counts drifted from their fixture — if the change of what is held is \
         intentional, regenerate with AIVC_UPDATE_FIXTURES=1 and review the diff"
    );
    println!("heap_counts: every count matches its fixture ... ok");
}
