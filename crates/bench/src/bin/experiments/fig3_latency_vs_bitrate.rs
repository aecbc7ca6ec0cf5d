//! Figure 3: how bitrate and packet loss affect transmission latency on a 10 Mbps / 30 ms
//! emulated link (§2.2).
//!
//! The harness sweeps video bitrate across the paper's grey region (traditional ABR: close
//! to the bandwidth) and yellow region (AI-oriented: ultra-low bitrate), at several loss
//! rates, and reports mean / p95 per-frame transmission latency. The paper's observations
//! under test: (1) latency explodes once bitrate exceeds bandwidth; (2) below bandwidth,
//! latency still grows with bitrate because more packets mean more retransmission exposure.
//!
//! The sender is the turn engine itself (`Conversation`, uniform-QP encoder, ABR held at
//! the swept rate, NACK/RTX, no FEC), not a transport-only loop fed a synthetic size
//! schedule. Two things follow. Every frame is coded to `bitrate / 30`, so the old
//! schedule's 6× key-frame burst every 60 frames is gone and the high-rate tails are
//! tighter (9 Mbps / 0 % loss: p95 ≈ 62 ms where the bursty schedule read 179 ms). And each
//! point is a run of 2-s turns, each with the engine's 300 ms answer deadline, instead of
//! one stream with a 5-s tail: a frame still incomplete at its turn's deadline counts
//! against completion and has no latency sample, so the over-capacity rows show up as
//! collapsed completion with latencies bounded by a turn, not as multi-second means.

use crate::{kbps, Scale, Section};
use aivc_netsim::LossModel;
use aivchat_core::scenarios::{held_rate_sender, stream_for};
use serde::Serialize;

#[derive(Serialize)]
struct Fig3Point {
    bitrate_bps: f64,
    loss_rate: f64,
    mean_latency_ms: f64,
    p95_latency_ms: f64,
    p99_latency_ms: f64,
    completion_rate: f64,
    retransmission_rate: f64,
}

pub fn run(scale: Scale) -> Section {
    // The paper's total is 40,489 s of transmission across the whole sweep; `full` approaches
    // that, `default` keeps the same shape at ~1/20 of the duration.
    let secs_per_point = scale.pick(20.0, 120.0, 1_700.0);
    let bitrates = [0.2e6, 0.4e6, 0.8e6, 1.5e6, 3.0e6, 6.0e6, 9.0e6, 12.0e6, 16.0e6];
    let losses = [0.0, 0.01, 0.05, 0.10];
    let mut points = Vec::new();

    for &loss in &losses {
        for &bitrate in &bitrates {
            let options = held_rate_sender(42, LossModel::Iid { rate: loss }, bitrate);
            let (conversation, mut latency) = stream_for(options, secs_per_point);
            let sent = conversation.metrics_snapshot();
            points.push(Fig3Point {
                bitrate_bps: bitrate,
                loss_rate: loss,
                mean_latency_ms: latency.mean_ms(),
                p95_latency_ms: latency.p95_ms(),
                p99_latency_ms: latency.p99_ms(),
                completion_rate: sent.frames_delivered as f64 / sent.frames_sent as f64,
                // No FEC, so every uplink packet is media or a retransmission.
                retransmission_rate: sent.retransmissions_sent as f64
                    / (sent.packets_sent - sent.retransmissions_sent) as f64,
            });
        }
    }

    let mut body = String::from(
        "10 Mbps bandwidth, 30 ms one-way delay (paper §2.2).\n\n| loss | bitrate | mean latency | p95 latency | completion | rtx rate |\n|---|---|---|---|---|---|\n",
    );
    for p in &points {
        body.push_str(&format!(
            "| {:.0}% | {} | {:.1} ms | {:.1} ms | {:.1}% | {:.3} |\n",
            p.loss_rate * 100.0,
            kbps(p.bitrate_bps),
            p.mean_latency_ms,
            p.p95_latency_ms,
            p.completion_rate * 100.0,
            p.retransmission_rate
        ));
    }
    body.push_str("\nPaper (Figure 3): latency is enormous once bitrate exceeds the 10 Mbps bandwidth (grey-region boundary); below the bandwidth, latency still rises with bitrate and with loss, which opens the ultra-low-bitrate yellow region for AI receivers.\n");
    let title = "Figure 3 — transmission latency vs bitrate and packet loss";
    Section::new(title, body, &points)
}
