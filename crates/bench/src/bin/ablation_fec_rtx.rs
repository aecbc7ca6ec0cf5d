//! Ablation: forward error correction vs retransmission under random and bursty loss.
//!
//! AI Video Chat's latency budget leaves little room for retransmission round trips; FEC
//! trades uplink bitrate for latency. This ablation quantifies that trade on the paper's
//! 10 Mbps / 30 ms link.
//!
//! The sender is the turn engine (`Conversation`, uniform-QP encoder, ABR held at
//! 800 kbps), with FEC and RTX taken from `NetSessionOptions::{fec, enable_retransmission}`.
//! Every frame is coded to 800 kbps / 30 — the synthetic schedule's 6× key frames are gone —
//! each frame has its 2-s turn's 300 ms answer deadline to complete instead of a 5-s tail,
//! and the uplink rate is what the link delivered (`LinkCounters::delivered_bytes`) per
//! second of video rather than what the sender offered.

use aivc_bench::{kbps, print_section, write_json, Scale};
use aivc_netsim::LossModel;
use aivc_rtc::FecConfig;
use aivchat_core::scenarios::{held_rate_sender, stream_for};
use serde::Serialize;

#[derive(Serialize)]
struct FecRow {
    loss_model: String,
    recovery: String,
    mean_latency_ms: f64,
    p95_latency_ms: f64,
    completion_rate: f64,
    uplink_bitrate_bps: f64,
}

fn main() {
    let scale = Scale::from_env();
    let secs = scale.pick(15.0, 60.0, 400.0);
    let bitrate = 800_000.0;

    let loss_models = [
        ("iid 3%", LossModel::Iid { rate: 0.03 }),
        ("bursty 3% (burst 8)", LossModel::bursty(0.03, 8.0)),
    ];
    let mut rows = Vec::new();
    for (loss_name, loss) in loss_models {
        for (recovery, fec, rtx) in [
            ("RTX only", FecConfig::disabled(), true),
            ("FEC(4) only", FecConfig::with_group_size(4), false),
            ("FEC(4) + RTX", FecConfig::with_group_size(4), true),
            ("none", FecConfig::disabled(), false),
        ] {
            let mut options = held_rate_sender(77, loss, bitrate);
            options.fec = fec;
            options.enable_retransmission = rtx;
            let (conversation, mut latency) = stream_for(options, secs);
            let sent = conversation.metrics_snapshot();
            let video_secs = sent.frames_sent as f64 / conversation.options().capture_fps;
            rows.push(FecRow {
                loss_model: loss_name.to_string(),
                recovery: recovery.to_string(),
                mean_latency_ms: latency.mean_ms(),
                p95_latency_ms: latency.p95_ms(),
                completion_rate: sent.frames_delivered as f64 / sent.frames_sent as f64,
                uplink_bitrate_bps: conversation.link_counters().delivered_bytes as f64 * 8.0 / video_secs,
            });
        }
    }

    let mut body = String::from(
        "800 kbps video over the paper's 10 Mbps / 30 ms link.\n\n| loss | recovery | mean latency | p95 latency | completion | uplink rate |\n|---|---|---|---|---|---|\n",
    );
    for r in &rows {
        body.push_str(&format!(
            "| {} | {} | {:.1} ms | {:.1} ms | {:.1}% | {} |\n",
            r.loss_model,
            r.recovery,
            r.mean_latency_ms,
            r.p95_latency_ms,
            r.completion_rate * 100.0,
            kbps(r.uplink_bitrate_bps)
        ));
    }
    body.push_str("\nFEC removes most retransmission round trips under i.i.d. loss (lower p95) at ~25% extra uplink bitrate, but single-parity groups recover little under bursty loss — where NACK/RTX remains necessary for completeness.\n");
    print_section("Ablation — FEC vs retransmission", &body);
    write_json("ablation_fec_rtx", &rows);
}
