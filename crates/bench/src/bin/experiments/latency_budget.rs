//! The §1 latency-budget analysis: where the 300 ms goes, with and without AI-oriented RTC.
//!
//! Runs a full chat turn under three configurations (traditional RTC at ABR-chosen bitrate
//! with a jitter buffer; AI-oriented ultra-low-bitrate without a jitter buffer; the same on
//! a degraded network) and prints the per-stage breakdown against the 300 ms target.
//!
//! Each configuration is a one-turn `Conversation` at 30 fps with the engine's recovery
//! defaults (FEC(4) + RTX, 300 ms answer deadline), each frame coded to its own budget
//! rather than one QP matched over the window. The traditional leg holds the ABR at
//! 6 Mbps — intra frames no longer burst, so arrivals are smooth — and is priced with a
//! jitter buffer replayed over them; the AI-oriented legs run the GCC-driven ABR at the
//! 430 kbps floor, where FEC repairs most of the 5 % leg's losses without a round trip.

use crate::{score_turn, Scale, Section};
use aivc_netsim::PathConfig;
use aivc_rtc::jitter::JitterBufferConfig;
use aivc_rtc::AbrPolicy;
use aivchat_core::{LatencyBudget, NetSessionOptions, RESPONSE_LATENCY_TARGET_MS};
use serde::Serialize;

#[derive(Serialize)]
struct BudgetRow {
    configuration: String,
    breakdown: String,
    total_ms: f64,
    meets_target: bool,
    probability_correct: f64,
}

pub fn run(scale: Scale) -> Section {
    let window = scale.pick(2.0, 4.0, 6.0);

    let ai = |loss| NetSessionOptions::ai_oriented(3, PathConfig::paper_section_2_2(loss));
    let mut traditional = NetSessionOptions::traditional(3, PathConfig::paper_section_2_2(0.01));
    traditional.abr = AbrPolicy::held_at(6_000_000.0);
    let (buffered, unbuffered) = (JitterBufferConfig::traditional(), JitterBufferConfig::disabled());
    let configs = [
        // Traditional: ABR-style bitrate near the link capacity, jitter buffer on.
        ("traditional RTC (6 Mbps, jitter buffer)", traditional, buffered),
        // AI-oriented: ultra-low bitrate, context-aware, no jitter buffer.
        (
            "AI-oriented (430 kbps, context-aware, no buffer)",
            ai(0.01),
            unbuffered,
        ),
        // Same, on a loss-degraded network.
        ("AI-oriented, 5% loss", ai(0.05), unbuffered),
    ];

    let mut rows = Vec::new();
    for (name, options, jitter_buffer) in configs {
        let (conversation, frames, report) = score_turn(options, window);
        let latency = LatencyBudget::of_last_turn(&conversation, &frames, jitter_buffer);
        rows.push(BudgetRow {
            configuration: name.to_string(),
            breakdown: latency.to_line(),
            total_ms: latency.total_ms(),
            meets_target: latency.meets_target(),
            probability_correct: report.answer.probability_correct,
        });
    }

    let mut body = format!("Target: {RESPONSE_LATENCY_TARGET_MS} ms end-to-end (§1).\n\n");
    for r in &rows {
        body.push_str(&format!(
            "- **{}** — {} — P(correct) {:.2}\n",
            r.configuration, r.breakdown, r.probability_correct
        ));
    }
    body.push_str("\nMLLM inference alone consumes most of the budget; only the ultra-low-bitrate, buffer-free configuration leaves the network side small enough to fit, which is the paper's motivating argument.\n");
    Section::new("§1 — end-to-end response latency budget", body, &rows)
}
