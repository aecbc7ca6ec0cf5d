//! Context-aware streaming vs the uniform-QP baseline on a detail-critical question.
//!
//! The user asks about the logo on a player's jersey — the paper's Figure 4/10 scenario.
//! Both methods get the same ~430 kbps budget over the same network; the example shows where
//! the bits go (per-object allocation), the CLIP-informed QP map, and how the MLLM's chance
//! of answering correctly differs.
//!
//! Run with: `cargo run --release --example context_aware_vs_baseline`

use aivchat::core::session::StreamingMode;
use aivchat::core::{Conversation, LatencyBudget, NetSessionOptions, Streamer};
use aivchat::mllm::{Question, QuestionFormat};
use aivchat::netsim::{PathConfig, SimDuration};
use aivchat::rtc::jitter::JitterBufferConfig;
use aivchat::scene::templates::basketball_game;
use aivchat::scene::{SourceConfig, VideoSource};

fn main() {
    let scene = basketball_game(3);
    let source = VideoSource::new(scene.clone(), SourceConfig::fps30(6.0));
    let fact = &scene.facts[1]; // the jersey-logo question
    let question = Question::from_fact(fact, QuestionFormat::FreeResponse);
    println!("User: \"{}\" (ground truth: {})\n", question.text, fact.answer);

    // --- Where do the bits go? Encode a few frames with both methods at the same bitrate.
    let streamer = Streamer::with_defaults(StreamingMode::ContextAware);
    let baseline = Streamer::with_defaults(StreamingMode::Baseline);
    let frames = source.sample_frames(4);
    let query = streamer.query_for_question(&question);
    let ours = streamer.encode_at_bitrate(&frames, &query, 30.0, 430_000.0);
    let theirs = baseline.encode_at_bitrate(&frames, &query, 30.0, 430_000.0);
    println!(
        "Matched bitrates: ours {:.0} kbps vs baseline {:.0} kbps (uniform QP {})",
        ours.achieved_bitrate_bps / 1_000.0,
        theirs.achieved_bitrate_bps / 1_000.0,
        theirs.level
    );
    println!("\nBits on each object in the first frame (ours vs baseline):");
    for object in &scene.objects {
        println!(
            "  {:22} {:>9} vs {:>9}",
            object.name,
            ours.encoded[0].bits_on_object(object.id, 0.05),
            theirs.encoded[0].bits_on_object(object.id, 0.05)
        );
    }

    // --- And what does that do to the answer? Run the full networked chat turn — same
    // path, same AI-oriented rate target — with each encoding method.
    println!();
    for (label, mode) in [
        ("Context-aware:", StreamingMode::ContextAware),
        ("Baseline:     ", StreamingMode::Baseline),
    ] {
        let mut options = NetSessionOptions::ai_oriented(9, PathConfig::paper_section_2_2(0.01));
        options.mode = mode;
        options.capture_fps = 30.0;
        let window = source.window(source.duration_secs() - 4.0, 4.0, options.capture_fps);
        let mut conversation = Conversation::with_defaults(options, SimDuration::ZERO);
        let answer = conversation.run_turn(&window, &question).answer;
        println!(
            "{label} P(correct) = {:.2}, evidence quality {:.2}, {} ",
            answer.probability_correct,
            answer.perceived_evidence_quality,
            LatencyBudget::of_last_turn(&conversation, &window, JitterBufferConfig::disabled()).to_line()
        );
    }
}
