//! The §2.2 story, network-in-the-loop: every registry scenario runs a full chat turn
//! through the trace-driven emulated uplink with closed-loop GCC → ABR adaptation, under
//! both rate objectives — traditional estimate-riding WebRTC ABR (uniform QP) and the
//! paper's AI-oriented accuracy-floor ABR (context-aware QP) — and reports what the
//! network did to goodput, per-frame latency and the MLLM's answer.
//!
//! Run with: `cargo run --release --example network_sweep`

use aivchat::core::scenarios::{
    registry, run_contention_scenario, run_conversation_scenario, run_scenario, ScenarioSpec,
};
use aivchat::mllm::{InferenceLatencyModel, MllmConfig};

/// The registry's entries of one fixture family, in registry order.
fn family(name: &str) -> Vec<ScenarioSpec> {
    registry()
        .into_iter()
        .filter(|s| s.fixture_family() == name)
        .collect()
}

fn main() {
    // The transport budget left once MLLM inference is paid (§1's "at most 68 ms").
    let latency_model = InferenceLatencyModel::new(MllmConfig::qwen_omni_like());
    let budget_ms = latency_model.remaining_transport_budget_ms(300.0, 768);
    println!("Transport budget inside 300 ms once inference is paid: {budget_ms:.0} ms\n");

    println!(
        "{:<12} {:<12} {:>10} {:>10} {:>9} {:>9} {:>7} {:>9} {:>8}",
        "scenario", "abr", "target", "goodput", "p50 (ms)", "p95 (ms)", "frames", "accuracy", "correct"
    );
    for scenario in family("scenario") {
        let report = run_scenario(&scenario, 1);
        for (abr, turn) in [
            ("traditional", &report.traditional),
            ("ai_oriented", &report.ai_oriented),
        ] {
            println!(
                "{:<12} {:<12} {:>9.0}k {:>9.0}k {:>9.1} {:>9.1} {:>4}/{:<2} {:>9.3} {:>8}",
                scenario.name,
                abr,
                turn.mean_target_bitrate_bps / 1e3,
                turn.goodput_bps / 1e3,
                turn.p50_frame_latency_ms,
                turn.p95_frame_latency_ms,
                turn.frames_delivered,
                turn.frames_sent,
                turn.answer.probability_correct,
                if turn.answer.correct { "yes" } else { "no" }
            );
        }
        println!(
            "{:<12} {:<12} {:>62}",
            "",
            format!("server x{}", report.server_sessions),
            format!(
                "correct fraction {:.2}, mean p {:.3}",
                report.server_correct_fraction, report.server_mean_probability
            )
        );
    }
    println!(
        "\nTakeaway (§2.2/§3.2): across every scenario the AI-oriented floor keeps the p95 frame \
         inside the conversational budget and the answer intact, while the estimate-riding \
         policy pays for its extra bits in queueing delay exactly when capacity moves."
    );

    // --- Continuous conversations: one transport timeline across every turn.
    println!(
        "\n{:<26} {:<12} {:>6} {:>11} {:>11} {:>9} {:>9} {:>8} {:>8}",
        "conversation", "abr", "turns", "cold swing", "warm swing", "carry", "p95 (ms)", "correct", "nack-"
    );
    for scenario in family("conversation") {
        let report = run_conversation_scenario(&scenario);
        for (abr, conv) in [
            ("traditional", &report.traditional),
            ("ai_oriented", &report.ai_oriented),
        ] {
            let max_carry = conv
                .carryover_queue_delay_ms
                .iter()
                .cloned()
                .fold(0.0f64, f64::max);
            println!(
                "{:<26} {:<12} {:>6} {:>10.0}k {:>10.0}k {:>7.1}ms {:>9.1} {:>8.2} {:>8}",
                scenario.name,
                abr,
                conv.turns.len(),
                conv.cold_target_swing_bps() / 1e3,
                conv.warm_target_swing_bps() / 1e3,
                max_carry,
                conv.p95_frame_latency_ms,
                conv.correct_fraction(),
                conv.nacks_suppressed,
            );
        }
    }
    println!(
        "\nConversation takeaway: turn 0 pays the cold-start swing once; every later turn starts \
         from the previous turn's estimate (warm swing is the residual trace-tracking), inherits \
         any standing queue it left, and deadline-aware NACK suppression stops hopeless \
         retransmits from competing with the next turn's media."
    );

    // --- Multi-tenant contention: K conversations sharing one bottleneck queue.
    println!(
        "\n{:<24} {:<12} {:>7} {:>6} {:>10} {:>13} {:>6} {:>9}",
        "contention", "abr", "tenants", "jain", "post-jain", "shares", "starv", "ttr (ms)"
    );
    for scenario in family("contention") {
        let report = run_contention_scenario(&scenario);
        for (abr, rep) in [
            ("traditional", &report.traditional),
            ("ai_oriented", &report.ai_oriented),
        ] {
            let shares: Vec<f64> = rep.tenants.iter().map(|t| t.goodput_share).collect();
            let min_share = shares.iter().cloned().fold(f64::INFINITY, f64::min);
            let max_share = shares.iter().cloned().fold(0.0f64, f64::max);
            let max_ttr = rep
                .tenants
                .iter()
                .filter_map(|t| t.conversation.resilience.time_to_recover_ms)
                .fold(f64::NAN, f64::max);
            println!(
                "{:<24} {:<12} {:>7} {:>6.3} {:>10} {:>13} {:>6} {:>9}",
                scenario.name,
                abr,
                rep.tenants.len(),
                rep.fairness.jain_overall,
                rep.fairness
                    .jain_post_recovery
                    .map_or("-".into(), |j| format!("{j:.3}")),
                format!("{min_share:.2}-{max_share:.2}"),
                rep.starvation_events_total(),
                if max_ttr.is_nan() {
                    "-".into()
                } else {
                    format!("{max_ttr:.0}")
                },
            );
        }
    }
    println!(
        "\nContention takeaway: one bottleneck queue makes tenants interact — a shared blackout \
         still recovers per tenant (finite ttr, near-even post-recovery Jain), a cross-traffic \
         surge trips the starvation watchdog instead of letting tenants thrash the queue, and \
         the AI-oriented floor shares the link more evenly than estimate-riding ABR."
    );
}
