//! Golden regression tests of the scenario engine: fixed-seed runs of every registry
//! scenario must reproduce the committed JSON fixtures **bit for bit**, so any change to
//! transport, congestion-control, ABR, FEC/NACK or accuracy behaviour is intentional and
//! reviewed alongside a fixture update.
//!
//! To refresh the fixtures after an intentional behaviour change:
//! `AIVC_UPDATE_FIXTURES=1 cargo test --release --test scenario_golden`

use aivchat::core::scenarios::{by_name, registry, run_conversation_mode, run_scenario, ScenarioSpec};
use aivchat::core::NetTurnReport;
use aivchat::par::MiniPool;
use std::path::PathBuf;

fn fixture_path(scenario: &ScenarioSpec) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(format!("{}_{}.json", scenario.fixture_family(), scenario.name))
}

/// A one-turn scenario's turn under both ABR modes: `(traditional, ai_oriented)`.
fn run_modes(name: &str) -> (NetTurnReport, NetTurnReport) {
    let scenario = by_name(name).expect("registered scenario");
    let turn = |ai| run_conversation_mode(&scenario, ai).turns.remove(0);
    (turn(false), turn(true))
}

/// Every registry scenario, run end to end (both ABR modes + the multi-session server),
/// serialized and compared byte-for-byte against its committed fixture. The server leg
/// runs on the CI-pinned pool size (`AIVC_POOL_SIZE`, falling back to the machine's
/// parallelism): the fixtures are pool-independent, so the same bytes must come back at
/// any lane count.
#[test]
fn golden_scenario_reports_are_bit_stable() {
    let update = std::env::var("AIVC_UPDATE_FIXTURES").is_ok();
    for scenario in registry()
        .into_iter()
        .filter(|s| s.fixture_family() == "scenario")
    {
        let report = run_scenario(&scenario, MiniPool::env_lanes());
        let json = serde_json::to_string_pretty(&report).expect("report serializes");
        let path = fixture_path(&scenario);
        if update {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, format!("{json}\n")).unwrap();
            continue;
        }
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing fixture {} ({e}); run AIVC_UPDATE_FIXTURES=1 cargo test --test scenario_golden",
                path.display()
            )
        });
        assert_eq!(
            json.trim_end(),
            expected.trim_end(),
            "scenario `{}` drifted from its fixture — if the transport change is intentional, \
             regenerate with AIVC_UPDATE_FIXTURES=1 and review the diff",
            scenario.name
        );
    }
}

/// The engine is deterministic within a process too: re-running a scenario reproduces the
/// identical report (fresh sessions, same seeds).
#[test]
fn scenario_runs_are_deterministic() {
    assert_eq!(run_modes("square-wave"), run_modes("square-wave"));
}

/// The acceptance contract of the scenario engine (paper §3.2 / Figure 3): on the adverse
/// scenarios, AI-oriented ABR answers at least as accurately as traditional ABR — the
/// floor *maintains* accuracy — while using a fraction of the bits and, where capacity
/// moves under the sender, a fraction of the tail latency.
#[test]
fn ai_oriented_matches_or_beats_traditional_accuracy_on_adverse_scenarios() {
    for name in ["step-down", "bursty-loss"] {
        let (traditional, ai) = run_modes(name);
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
    let (traditional, ai) = run_modes("step-down");
    assert!(
        ai.p95_frame_latency_ms < traditional.p95_frame_latency_ms / 3.0,
        "step-down: ai p95 {} vs traditional p95 {}",
        ai.p95_frame_latency_ms,
        traditional.p95_frame_latency_ms
    );
}
