//! Quickstart: one AI Video Chat turn, end to end.
//!
//! The user watches a basketball game through their phone camera and asks the AI about the
//! score. The example runs the full loop of the paper's Figure 1 — capture, context-aware
//! encoding driven by the user's words, RTC over an emulated 10 Mbps uplink, decoding, and
//! the MLLM's answer — and prints the response-latency budget against the 300 ms target.
//!
//! Run with: `cargo run --release --example quickstart`

use aivchat::core::{Conversation, LatencyBudget, NetSessionOptions};
use aivchat::mllm::{Question, QuestionFormat};
use aivchat::netsim::{PathConfig, SimDuration};
use aivchat::rtc::jitter::JitterBufferConfig;
use aivchat::scene::templates::basketball_game;
use aivchat::scene::{SourceConfig, VideoSource};

fn main() {
    // The scene the camera is looking at (synthetic, with ground-truth annotations).
    let scene = basketball_game(7);
    let source = VideoSource::new(scene.clone(), SourceConfig::fps30(6.0));

    // The user's words — these drive the context-aware bitrate allocation.
    let fact = &scene.facts[0];
    let question = Question::from_fact(fact, QuestionFormat::FreeResponse);
    println!("User: \"{}\"", question.text);

    // One chat turn with the paper's default setup: context-aware encoding at the 430 kbps
    // accuracy floor over a 10 Mbps / 30 ms network, no jitter buffer. The turn is the
    // first of a conversation and covers the clip's last four seconds, captured at 30 fps.
    let mut options = NetSessionOptions::ai_oriented(42, PathConfig::paper_section_2_2(0.01));
    options.capture_fps = 30.0;
    let frames = source.window(source.duration_secs() - 4.0, 4.0, options.capture_fps);
    let mut conversation = Conversation::with_defaults(options, SimDuration::ZERO);
    let report = conversation.run_turn(&frames, &question);
    let latency = LatencyBudget::of_last_turn(&conversation, &frames, JitterBufferConfig::disabled());

    println!(
        "AI answered {} (P(correct) = {:.2}), ground truth: \"{}\"",
        if report.answer.correct {
            "correctly"
        } else {
            "incorrectly"
        },
        report.answer.probability_correct,
        fact.answer
    );
    println!(
        "Uplink: {:.0} kbps achieved, {}/{} frames delivered, {} visual tokens consumed",
        report.achieved_bitrate_bps / 1_000.0,
        report.frames_delivered,
        report.frames_sent,
        report.answer.visual_tokens
    );
    println!("Latency budget: {}", latency.to_line());
}
