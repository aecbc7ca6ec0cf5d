//! Ablation: removing the jitter buffer (§2.1, "jitter has no impact").
//!
//! Runs the same chat turn with and without a traditional adaptive jitter buffer on a
//! jittery link and reports the per-stage latency budget and the answer probability:
//! the buffer adds tens of milliseconds of latency and changes nothing about what the MLLM
//! perceives.
//!
//! The turn is a one-turn `Conversation` at the engine's AI-oriented defaults, 30 fps:
//! each frame coded to its own budget under the GCC-driven ABR at the 430 kbps floor (not
//! one QP offset matched over the window at a fixed rate), FEC(4) + RTX, 300 ms answer
//! deadline. The engine's receiver has no jitter buffer; `LatencyBudget::of_last_turn`
//! replays one over the turn's arrivals, so both rows price the same turn.

use crate::{score_turn, Scale, Section};
use aivc_netsim::{LinkConfig, LossModel, PathConfig, SimDuration};
use aivc_rtc::jitter::JitterBufferConfig;
use aivchat_core::{LatencyBudget, NetSessionOptions};
use serde::Serialize;

#[derive(Serialize)]
struct JitterRow {
    jitter_buffer: bool,
    total_latency_ms: f64,
    jitter_buffer_ms: f64,
    transmission_ms: f64,
    probability_correct: f64,
    meets_300ms_target: bool,
}

pub fn run(scale: Scale) -> Section {
    let window_secs = scale.pick(2.0, 4.0, 8.0);

    // A jittery 4G-like uplink (±25 ms delivery jitter).
    let jittery_path = PathConfig {
        uplink: LinkConfig::constant(
            8e6,
            SimDuration::from_millis(30),
            300,
            LossModel::Iid { rate: 0.01 },
        )
        .with_jitter(SimDuration::from_millis(25)),
        downlink: LinkConfig::constant(20e6, SimDuration::from_millis(30), 300, LossModel::None),
    };

    let (conversation, frames, report) = score_turn(NetSessionOptions::ai_oriented(11, jittery_path), window_secs);

    let mut rows = Vec::new();
    for (jitter_buffer, config) in [
        (true, JitterBufferConfig::traditional()),
        (false, JitterBufferConfig::disabled()),
    ] {
        let latency = LatencyBudget::of_last_turn(&conversation, &frames, config);
        rows.push(JitterRow {
            jitter_buffer,
            total_latency_ms: latency.total_ms(),
            jitter_buffer_ms: latency.jitter_buffer_ms,
            transmission_ms: latency.transmission_ms,
            probability_correct: report.answer.probability_correct,
            meets_300ms_target: latency.meets_target(),
        });
    }

    let mut body = String::from(
        "| jitter buffer | total latency | buffer share | transmission | P(correct) | ≤300 ms |\n|---|---|---|---|---|---|\n",
    );
    for r in &rows {
        body.push_str(&format!(
            "| {} | {:.1} ms | {:.1} ms | {:.1} ms | {:.2} | {} |\n",
            if r.jitter_buffer {
                "traditional"
            } else {
                "removed (AI mode)"
            },
            r.total_latency_ms,
            r.jitter_buffer_ms,
            r.transmission_ms,
            r.probability_correct,
            if r.meets_300ms_target { "yes" } else { "no" }
        ));
    }
    body.push_str("\n§2.1: MLLM positional encoding uses capture timestamps, so removing the buffer saves its entire delay without affecting accuracy.\n");
    Section::new("Ablation — jitter buffer removal", body, &rows)
}
