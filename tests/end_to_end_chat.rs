//! Integration tests: full AI Video Chat turns across every crate in the workspace
//! (scene → semantics → codec → RTC → netsim → MLLM).

use aivchat::core::session::StreamingMode;
use aivchat::core::{
    Conversation, LatencyBudget, NetSessionOptions, NetTurnReport, RESPONSE_LATENCY_TARGET_MS,
};
use aivchat::mllm::{Question, QuestionFormat};
use aivchat::netsim::{PathConfig, SimDuration};
use aivchat::rtc::jitter::JitterBufferConfig;
use aivchat::rtc::FecConfig;
use aivchat::scene::templates::{basketball_game, dog_park};
use aivchat::scene::{SourceConfig, VideoSource};

fn quick_options(seed: u64) -> NetSessionOptions {
    // A lower capture rate than the examples and the bench binaries run (and a one-second
    // window, below) so the integration suite stays fast.
    let mut options = NetSessionOptions::ai_oriented(seed, PathConfig::paper_section_2_2(0.01));
    options.capture_fps = 8.0;
    options
}

/// One chat turn — a fresh conversation's first — about the last second of `source`.
fn run_turn(
    options: NetSessionOptions,
    source: &VideoSource,
    question: &Question,
) -> (NetTurnReport, LatencyBudget) {
    let frames = source.window(source.duration_secs() - 1.0, 1.0, options.capture_fps);
    let mut conversation = Conversation::with_defaults(options, SimDuration::ZERO);
    let report = conversation.run_turn(&frames, question);
    let latency = LatencyBudget::of_last_turn(&conversation, &frames, JitterBufferConfig::disabled());
    (report, latency)
}

#[test]
fn chat_turn_answers_coarse_question_within_latency_target() {
    let scene = basketball_game(2);
    let source = VideoSource::new(scene.clone(), SourceConfig::fps30(4.0));
    // The action question is coarse (low detail requirement) and should be answered well
    // even at the ultra-low default bitrate.
    let fact = scene.facts.iter().find(|f| f.required_detail < 0.3).unwrap();
    let question = Question::from_fact(fact, QuestionFormat::FreeResponse);
    let (report, latency) = run_turn(quick_options(1), &source, &question);

    assert!(report.frames_delivered > 0);
    assert!(
        report.answer.probability_correct > 0.8,
        "p = {}",
        report.answer.probability_correct
    );
    // MLLM inference dominates the budget; the network side must be a small fraction.
    assert!(latency.inference_ms > latency.network_side_ms());
    assert!(
        latency.total_ms() < RESPONSE_LATENCY_TARGET_MS + 150.0,
        "total {} ms",
        latency.total_ms()
    );
}

#[test]
fn context_awareness_matters_most_for_detail_questions() {
    let scene = dog_park(5);
    let source = VideoSource::new(scene.clone(), SourceConfig::fps30(4.0));
    let detail_fact = scene.facts.iter().find(|f| f.required_detail > 0.7).unwrap();
    let question = Question::from_fact(detail_fact, QuestionFormat::FreeResponse);

    let (ours, _) = run_turn(quick_options(3), &source, &question);
    let mut baseline_options = quick_options(3);
    baseline_options.mode = StreamingMode::Baseline;
    let (baseline, _) = run_turn(baseline_options, &source, &question);

    assert!(
        ours.answer.perceived_evidence_quality > baseline.answer.perceived_evidence_quality,
        "ours {} vs baseline {}",
        ours.answer.perceived_evidence_quality,
        baseline.answer.perceived_evidence_quality
    );
    assert!(ours.answer.probability_correct >= baseline.answer.probability_correct);
}

#[test]
fn packet_loss_degrades_gracefully_with_retransmission() {
    let scene = basketball_game(4);
    let source = VideoSource::new(scene.clone(), SourceConfig::fps30(4.0));
    let question = Question::from_fact(&scene.facts[0], QuestionFormat::FreeResponse);

    let mut lossy = quick_options(5);
    lossy.path = PathConfig::paper_section_2_2(0.05);
    // NACK/RTX alone: with the default FEC(4) a turn this short repairs every loss from
    // parity and never asks for a retransmission.
    lossy.fec = FecConfig::disabled();
    let (report, _) = run_turn(lossy, &source, &question);

    // Retransmission keeps delivery high even at 5% loss, at some latency cost.
    assert!(report.frames_delivered as f64 / report.frames_sent as f64 > 0.9);
    assert!(report.retransmissions_sent > 0);
    assert!(report.answer.probability_correct > 0.6);
}

#[test]
fn turns_are_reproducible_across_identical_sessions() {
    let scene = basketball_game(6);
    let source = VideoSource::new(scene.clone(), SourceConfig::fps30(4.0));
    let question = Question::from_fact(&scene.facts[0], QuestionFormat::FreeResponse);
    let (a, a_latency) = run_turn(quick_options(9), &source, &question);
    let (b, b_latency) = run_turn(quick_options(9), &source, &question);
    assert_eq!(a, b);
    assert_eq!(a_latency, b_latency);
}
