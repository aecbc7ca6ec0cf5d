//! Golden regression tests of the multi-turn conversation engine: fixed-seed runs of
//! every conversation-registry scenario must reproduce the committed JSON fixtures **bit
//! for bit**, so any change to the kernel, transport persistence, think-time drains,
//! trace looping or deadline-aware NACK suppression is intentional and reviewed alongside
//! a fixture update.
//!
//! To refresh the fixtures after an intentional behaviour change:
//! `AIVC_UPDATE_FIXTURES=1 cargo test --release --test conversation_golden`

use aivchat::core::scenarios::{
    by_name, registry, run_conversation_mode, run_conversation_scenario, ScenarioSpec,
};
use std::path::PathBuf;

fn fixture_path(scenario: &ScenarioSpec) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(format!("{}_{}.json", scenario.fixture_family(), scenario.name))
}

/// The registry's multi-turn entries on a link of their own.
fn conversations() -> impl Iterator<Item = ScenarioSpec> {
    registry()
        .into_iter()
        .filter(|s| s.fixture_family() == "conversation")
}

/// Every conversation scenario, run end to end under both ABR modes, serialized and
/// compared byte-for-byte against its committed fixture.
#[test]
fn golden_conversation_reports_are_bit_stable() {
    let update = std::env::var("AIVC_UPDATE_FIXTURES").is_ok();
    for scenario in conversations() {
        let report = run_conversation_scenario(&scenario);
        let json = serde_json::to_string_pretty(&report).expect("report serializes");
        let path = fixture_path(&scenario);
        if update {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, format!("{json}\n")).unwrap();
            continue;
        }
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing fixture {} ({e}); run AIVC_UPDATE_FIXTURES=1 cargo test --test conversation_golden",
                path.display()
            )
        });
        assert_eq!(
            json.trim_end(),
            expected.trim_end(),
            "conversation scenario `{}` drifted from its fixture — if the change is intentional, \
             regenerate with AIVC_UPDATE_FIXTURES=1 and review the diff",
            scenario.name
        );
    }
}

/// The engine is deterministic within a process: re-running a conversation scenario
/// reproduces the identical report (fresh conversations, same seeds).
#[test]
fn conversation_runs_are_deterministic() {
    let scenario = by_name("stepdown-mid-conversation").expect("registered scenario");
    assert_eq!(
        run_conversation_scenario(&scenario),
        run_conversation_scenario(&scenario)
    );
}

/// The transport-persistence acceptance contract: across every scenario and both ABR
/// modes, the GCC estimate at the start of turn `k + 1` equals its value at the end of
/// turn `k` — nothing about the controller is reset at a turn boundary.
#[test]
fn transport_state_persists_across_every_turn_boundary() {
    for scenario in conversations() {
        for ai in [false, true] {
            let report = run_conversation_mode(&scenario, ai);
            assert_eq!(report.turns.len(), scenario.turns, "{}", scenario.name);
            assert_eq!(report.estimate_at_turn_start_bps.len(), scenario.turns);
            for k in 0..report.turns.len() - 1 {
                assert_eq!(
                    report.estimate_at_turn_start_bps[k + 1],
                    report.turns[k].final_estimate_bps,
                    "{} (ai={ai}) turn {k}: estimate was reset at the turn boundary",
                    scenario.name
                );
            }
            // Turn 0 started from the configured initial estimate (the cold start).
            assert_eq!(
                report.estimate_at_turn_start_bps[0],
                scenario.tenant_spec(0, ai).options.gcc.initial_estimate_bps,
                "{} (ai={ai})",
                scenario.name
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
    let scenario = by_name("stepdown-mid-conversation").unwrap();
    let report = run_conversation_scenario(&scenario);
    let (trad, ai) = (&report.traditional, &report.ai_oriented);
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
    let trad_max_carry = trad
        .carryover_queue_delay_ms
        .iter()
        .cloned()
        .fold(0.0f64, f64::max);
    let ai_max_carry = ai.carryover_queue_delay_ms.iter().cloned().fold(0.0f64, f64::max);
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
    let scenario = by_name("lte-8turn").unwrap();
    let period = scenario
        .shared_uplink
        .bandwidth
        .loop_period()
        .expect("lte-8turn uses a looping trace");
    let conversation_secs = scenario.turns as f64 * (scenario.window_secs + 0.3 + scenario.think_secs);
    assert!(
        conversation_secs > 3.0 * period.as_secs_f64(),
        "conversation ({conversation_secs:.1} s) should wrap the {period} trace several times"
    );
    // And the conversation still delivers: every turn decodes frames and answers.
    let report = run_conversation_mode(&scenario, true);
    assert!(report.turns.iter().all(|t| t.frames_decoded > 0));
    assert!(report.correct_fraction() > 0.8);
}
