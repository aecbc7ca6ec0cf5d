//! Ablation: uplink vs downlink asymmetry (§2.1, "uplink is more pressing than downlink").
//!
//! AI Video Chat sends video up and receives only audio/text down. This ablation measures
//! how the chat turn's transmission latency responds to throttling each direction
//! independently — showing that the uplink is the binding constraint.
//!
//! Each row is a one-turn `Conversation` at the engine's AI-oriented defaults, 30 fps:
//! each frame coded to its own budget under the GCC-driven ABR at the 430 kbps floor (not
//! one QP offset matched over the window at a fixed rate), FEC(4) + RTX, 300 ms answer
//! deadline. The downlink carries the NACK feedback.

use crate::{score_turn, Scale, Section};
use aivc_netsim::{LinkConfig, LossModel, PathConfig, SimDuration};
use aivc_rtc::jitter::JitterBufferConfig;
use aivchat_core::{LatencyBudget, NetSessionOptions};
use serde::Serialize;

#[derive(Serialize)]
struct AsymRow {
    uplink_mbps: f64,
    downlink_mbps: f64,
    transmission_ms: f64,
    frames_delivered: usize,
    probability_correct: f64,
}

pub fn run(scale: Scale) -> Section {
    let window_secs = scale.pick(2.0, 4.0, 6.0);

    let cases = [(10.0, 10.0), (2.0, 10.0), (10.0, 2.0), (1.0, 10.0), (10.0, 1.0)];
    let mut rows = Vec::new();
    for (up_mbps, down_mbps) in cases {
        let path = PathConfig {
            uplink: LinkConfig::constant(
                up_mbps * 1e6,
                SimDuration::from_millis(30),
                300,
                LossModel::Iid { rate: 0.01 },
            ),
            downlink: LinkConfig::constant(
                down_mbps * 1e6,
                SimDuration::from_millis(30),
                300,
                LossModel::None,
            ),
        };
        let (conversation, frames, report) = score_turn(NetSessionOptions::ai_oriented(21, path), window_secs);
        let latency = LatencyBudget::of_last_turn(&conversation, &frames, JitterBufferConfig::disabled());
        rows.push(AsymRow {
            uplink_mbps: up_mbps,
            downlink_mbps: down_mbps,
            transmission_ms: latency.transmission_ms,
            frames_delivered: report.frames_delivered,
            probability_correct: report.answer.probability_correct,
        });
    }

    let mut body = String::from(
        "| uplink | downlink | transmission | frames delivered | P(correct) |\n|---|---|---|---|---|\n",
    );
    for r in &rows {
        body.push_str(&format!(
            "| {:.0} Mbps | {:.0} Mbps | {:.1} ms | {} | {:.2} |\n",
            r.uplink_mbps, r.downlink_mbps, r.transmission_ms, r.frames_delivered, r.probability_correct
        ));
    }
    body.push_str("\nThrottling the downlink barely matters (it carries only NACK feedback and the short response); throttling the uplink directly inflates transmission latency — AI Video Chat needs its provisioning upside-down relative to video-on-demand.\n");
    Section::new("Ablation — uplink vs downlink asymmetry", body, &rows)
}
