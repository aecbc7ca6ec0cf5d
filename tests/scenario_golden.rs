//! Golden regression tests of the one-turn specs, and the contract tests of the whole
//! scenario engine. Every registry spec runs through the one entry (`ScenarioSpec::run`,
//! spread over a pool by `run_registry`) in the shared harness `golden/mod.rs`; the one-turn
//! specs must reproduce their committed fixtures `tests/fixtures/<name>.json` **bit for
//! bit**, so any change to transport, congestion control, ABR, FEC/NACK or accuracy
//! behaviour is intentional and reviewed alongside a fixture update. The multi-turn and
//! shared-uplink fixtures are pinned by `conversation_golden.rs` and `contention_golden.rs`
//! from the same harness; the contract tests below read the same reports.

mod golden;

use aivchat::core::scenarios::ScenarioReport;
use aivchat::core::{ContentionReport, ConversationReport, NetTurnReport};
use aivchat::netsim::{SimDuration, SimTime};
use golden::{assert_bit_stable, report, reports, Family};

/// Both legs of a report, labelled.
fn legs(report: &ScenarioReport) -> [(&'static str, &ContentionReport); 2] {
    [
        ("traditional", &report.traditional),
        ("ai_oriented", &report.ai_oriented),
    ]
}

/// The one tenant's conversation of a spec with a link of its own: `(traditional, ai_oriented)`.
fn solo(name: &str) -> (&'static ConversationReport, &'static ConversationReport) {
    let (_, report) = report(name);
    let conversation = |leg: &'static ContentionReport| {
        assert_eq!(leg.tenants.len(), 1, "{name} has a link of its own");
        &leg.tenants[0].conversation
    };
    (
        conversation(&report.traditional),
        conversation(&report.ai_oriented),
    )
}

/// A one-turn spec's turn under both ABR modes: `(traditional, ai_oriented)`.
fn one_turn(name: &str) -> (&'static NetTurnReport, &'static NetTurnReport) {
    let (traditional, ai) = solo(name);
    (&traditional.turns[0], &ai.turns[0])
}

/// Every one-turn spec against its fixture.
#[test]
fn golden_scenario_reports_are_bit_stable() {
    assert_bit_stable(Family::OneTurn, 8);
}

/// The engine is deterministic within a process too: a fresh serial run of a one-turn spec
/// (new link and sender, same seeds) reproduces the pooled registry run.
#[test]
fn scenario_runs_are_deterministic() {
    let (spec, pooled) = report("square-wave");
    assert_eq!(&spec.run(), pooled);
}

/// The acceptance contract of the scenario engine (paper §3.2 / Figure 3): on the adverse
/// scenarios, AI-oriented ABR answers at least as accurately as traditional ABR — the
/// floor *maintains* accuracy — while using a fraction of the bits and, where capacity
/// moves under the sender, a fraction of the tail latency.
#[test]
fn ai_oriented_matches_or_beats_traditional_accuracy_on_adverse_scenarios() {
    for name in ["step-down", "bursty-loss"] {
        let (traditional, ai) = one_turn(name);
        assert!(
            u8::from(ai.answer.correct) >= u8::from(traditional.answer.correct),
            "{name}: ai answered {} but traditional {}",
            ai.answer.correct,
            traditional.answer.correct
        );
        assert!(
            ai.answer.probability_correct >= traditional.answer.probability_correct - 0.005,
            "{name}: accuracy not maintained (ai {} vs traditional {})",
            ai.answer.probability_correct,
            traditional.answer.probability_correct
        );
        assert!(
            ai.goodput_bps < traditional.goodput_bps / 2.0,
            "{name}: ai goodput {} should be a fraction of traditional's {}",
            ai.goodput_bps,
            traditional.goodput_bps
        );
        assert!(
            ai.p50_frame_latency_ms < traditional.p50_frame_latency_ms,
            "{name}: ai p50 {} vs traditional p50 {}",
            ai.p50_frame_latency_ms,
            traditional.p50_frame_latency_ms
        );
        assert!(
            ai.frames_delivered >= traditional.frames_delivered,
            "{name}: ai delivered {} vs traditional {}",
            ai.frames_delivered,
            traditional.frames_delivered
        );
    }
    // Where capacity steps out from under the sender, the tail-latency gap is an order of
    // magnitude — the Figure 3 "enormous latency" region.
    let (traditional, ai) = one_turn("step-down");
    assert!(
        ai.p95_frame_latency_ms < traditional.p95_frame_latency_ms / 3.0,
        "step-down: ai p95 {} vs traditional p95 {}",
        ai.p95_frame_latency_ms,
        traditional.p95_frame_latency_ms
    );
}

/// The transport-persistence acceptance contract: across every spec with a link of its own
/// and both ABR modes, the GCC estimate at the start of turn `k + 1` equals its value at the
/// end of turn `k` — nothing about the controller is reset at a turn boundary.
#[test]
fn transport_state_persists_across_every_turn_boundary() {
    for (spec, _) in reports().iter().filter(|(spec, _)| spec.sharing.is_none()) {
        let (traditional, ai_oriented) = solo(spec.name);
        for (ai, report) in [(false, traditional), (true, ai_oriented)] {
            assert_eq!(report.turns.len(), spec.turns, "{}", spec.name);
            assert_eq!(report.estimate_at_turn_start_bps.len(), spec.turns);
            for k in 0..report.turns.len() - 1 {
                assert_eq!(
                    report.estimate_at_turn_start_bps[k + 1],
                    report.turns[k].final_estimate_bps,
                    "{} (ai={ai}) turn {k}: estimate was reset at the turn boundary",
                    spec.name
                );
            }
            // Turn 0 started from the configured initial estimate (the cold start).
            assert_eq!(
                report.estimate_at_turn_start_bps[0],
                spec.tenant_spec(0, ai).options.gcc.initial_estimate_bps,
                "{} (ai={ai})",
                spec.name
            );
        }
    }
}

/// The Figure 3 contract holds per conversation, not just per turn: where capacity steps
/// out from under the sender mid-conversation, the accuracy floor keeps the whole
/// conversation's tail latency an order of magnitude lower at a fraction of the bits,
/// without losing answer accuracy.
#[test]
fn accuracy_floor_beats_estimate_riding_across_a_whole_conversation() {
    let (trad, ai) = solo("stepdown-mid-conversation");
    assert!(
        ai.correct_fraction() >= trad.correct_fraction(),
        "ai {} vs trad {}",
        ai.correct_fraction(),
        trad.correct_fraction()
    );
    assert!(
        ai.p95_frame_latency_ms < trad.p95_frame_latency_ms / 3.0,
        "ai p95 {} vs trad p95 {}",
        ai.p95_frame_latency_ms,
        trad.p95_frame_latency_ms
    );
    assert!(
        ai.mean_goodput_bps < trad.mean_goodput_bps / 2.0,
        "ai goodput {} vs trad {}",
        ai.mean_goodput_bps,
        trad.mean_goodput_bps
    );
    // The estimate-rider leaves a standing queue that at least one later turn inherits;
    // the floor never does.
    let max_carry =
        |r: &ConversationReport| r.carryover_queue_delay_ms.iter().cloned().fold(0.0f64, f64::max);
    let (trad_max_carry, ai_max_carry) = (max_carry(trad), max_carry(ai));
    assert!(
        trad_max_carry > 100.0,
        "traditional should carry a standing queue across a turn boundary, got {trad_max_carry} ms"
    );
    assert!(
        ai_max_carry < 10.0,
        "the accuracy floor should not carry queueing into a turn, got {ai_max_carry} ms"
    );
}

/// The lte-8turn conversation outlives its 4 s trace period several times over — the
/// explicit trace looping (wrap-around satellite) is what the scenario exercises.
#[test]
fn lte_conversation_spans_the_looping_trace() {
    let (spec, _) = report("lte-8turn");
    // The registry loops its LTE-like trace every 4 s: three periods later, every rate repeats.
    let period = SimDuration::from_secs_f64(4.0);
    for ms in [500, 1_500, 2_000, 3_000, 3_500] {
        let rate_at = |ms| spec.shared_uplink.bandwidth.rate_at(SimTime::from_millis(ms));
        assert_eq!(
            rate_at(ms + 12_000),
            rate_at(ms),
            "lte-8turn's trace loops every {period:?}"
        );
    }
    let conversation_secs = spec.turns as f64 * (spec.window_secs + 0.3 + spec.think_secs);
    assert!(
        conversation_secs > 3.0 * period.as_secs_f64(),
        "conversation ({conversation_secs:.1} s) should wrap the {period:?} trace several times"
    );
    // And the conversation still delivers: every turn decodes frames and answers.
    let (_, ai) = solo("lte-8turn");
    assert!(ai.turns.iter().all(|t| t.frames_decoded > 0));
    assert!(ai.correct_fraction() > 0.8);
}

/// The shared-bottleneck acceptance contract: in `shared-blackout`, a K ≥ 4 fleet sharing
/// one 500 ms bottleneck blackout, **every** tenant recovers — finite `time_to_recover_ms`
/// for all of them — and post-recovery bandwidth is shared evenly again (Jain ≥ 0.8),
/// under both ABR legs.
#[test]
fn shared_blackout_every_tenant_recovers_and_shares_evenly() {
    let (spec, report) = report("shared-blackout");
    assert!(spec.tenants >= 4);
    for (leg, r) in legs(report) {
        assert_eq!(r.tenants.len(), spec.tenants);
        for t in &r.tenants {
            assert_eq!(
                t.conversation.turns.len(),
                spec.turns,
                "{leg}/{}: every tenant completes the conversation",
                t.label
            );
            assert!(
                t.conversation.resilience.outage_drops > 0,
                "{leg}/{}: the shared blackout must hit every tenant's sends",
                t.label
            );
            let ttr = t.conversation.resilience.time_to_recover_ms.unwrap_or(f64::NAN);
            assert!(
                ttr.is_finite() && ttr > 0.0,
                "{leg}/{}: time_to_recover_ms must be finite, got {ttr}",
                t.label
            );
        }
        let jain = r
            .fairness
            .jain_post_recovery
            .expect("an outage scenario reports post-recovery fairness");
        assert!(
            jain >= 0.8,
            "{leg}: post-recovery Jain {jain} < 0.8 — a tenant failed to rejoin the share"
        );
    }
}

/// The starvation watchdog in both directions: the cross-traffic surge must push
/// tenants below the floor long enough to escalate (counted, never silent), while the
/// fault-free `ai-floor-vs-traditional` run — one AI-oriented floor among traditional
/// peers, watchdog armed — must stay completely quiet: the accuracy floor starves no one.
#[test]
fn watchdog_escalates_under_surge_and_stays_quiet_around_the_floor() {
    for (leg, r) in legs(&report("cross-traffic-surge").1) {
        assert!(
            r.starvation_events_total() > 0,
            "{leg}: a 9 Mbps surge on a 10 Mbps link must trip the starvation watchdog"
        );
        assert!(
            r.cross_traffic_delivered_bytes > 0,
            "{leg}: the surge itself must get through"
        );
    }
    for (leg, r) in legs(&report("ai-floor-vs-traditional").1) {
        assert_eq!(
            r.starvation_events_total(),
            0,
            "{leg}: one accuracy floor on a fault-free 5 Mbps link must starve nobody"
        );
        assert_eq!(
            r.tenants[0].mode, "ai_oriented",
            "tenant 0 is pinned in both legs"
        );
    }
}

/// The late joiner in `hotspot-join` lands mid-storm, starts cold below its fair share, and
/// still completes its conversation alongside the incumbents.
#[test]
fn hotspot_joiner_is_admitted_and_completes() {
    let (spec, report) = report("hotspot-join");
    for (leg, r) in legs(report) {
        let joiner = &r.tenants[3];
        assert!(joiner.join_ms > 0.0);
        assert_eq!(
            joiner.conversation.turns.len(),
            spec.turns,
            "{leg}: the joiner completes all turns"
        );
        // Its cold first-turn estimate is under the link's rate over the tenants.
        assert!(
            joiner.conversation.estimate_at_turn_start_bps[0]
                <= spec.shared_uplink.bandwidth.rate_at(SimTime::ZERO) / spec.tenants as f64 + 1.0,
            "{leg}: joiner started above its fair share"
        );
        assert!(
            r.tenants.iter().all(|t| t.delivered_bytes > 0),
            "{leg}: every tenant moved bytes through the bottleneck"
        );
    }
}
