//! Golden regression tests of the shared-bottleneck contention engine: fixed-seed
//! multi-tenant runs of every contention-registry scenario must reproduce the committed
//! JSON fixtures **bit for bit**, so any change to the shared link, the global timeline
//! interleaving, the starvation watchdog or the fairness telemetry is intentional and
//! reviewed alongside a fixture update.
//!
//! To refresh the fixtures after an intentional behaviour change:
//! `AIVC_UPDATE_FIXTURES=1 cargo test --release --test contention_golden`

use aivchat::core::scenarios::{by_name, contention_registry, run_contention_scenario, ScenarioSpec};
use std::path::PathBuf;

fn fixture_path(scenario: &ScenarioSpec) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(format!("{}_{}.json", scenario.fixture_family(), scenario.name))
}

/// Every contention scenario, run end to end under both ABR legs, serialized and
/// compared byte-for-byte against its committed fixture.
#[test]
fn golden_contention_reports_are_bit_stable() {
    let update = std::env::var("AIVC_UPDATE_FIXTURES").is_ok();
    for scenario in contention_registry() {
        let report = run_contention_scenario(&scenario);
        let json = serde_json::to_string_pretty(&report).expect("report serializes");
        let path = fixture_path(&scenario);
        if update {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, format!("{json}\n")).unwrap();
            continue;
        }
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing fixture {} ({e}); run AIVC_UPDATE_FIXTURES=1 cargo test --test contention_golden",
                path.display()
            )
        });
        assert_eq!(
            json.trim_end(),
            expected.trim_end(),
            "contention scenario `{}` drifted from its fixture — if the change is intentional, \
             regenerate with AIVC_UPDATE_FIXTURES=1 and review the diff",
            scenario.name
        );
    }
}

/// The engine is deterministic within a process: re-running a contention scenario
/// reproduces the identical report (fresh shared link and tenants, same seeds).
#[test]
fn contention_runs_are_deterministic() {
    let scenario = by_name("shared-blackout").expect("registered scenario");
    assert_eq!(
        run_contention_scenario(&scenario),
        run_contention_scenario(&scenario)
    );
}

/// The PR's acceptance contract: in `shared-blackout`, a K ≥ 4 fleet sharing one
/// 500 ms bottleneck blackout, **every** tenant recovers — finite `time_to_recover_ms`
/// for all of them — and post-recovery bandwidth is shared evenly again
/// (Jain ≥ 0.8), under both ABR legs.
#[test]
fn shared_blackout_every_tenant_recovers_and_shares_evenly() {
    let scenario = by_name("shared-blackout").unwrap();
    assert!(scenario.tenants >= 4);
    let report = run_contention_scenario(&scenario);
    for (leg, r) in [
        ("traditional", &report.traditional),
        ("ai_oriented", &report.ai_oriented),
    ] {
        for t in &r.tenants {
            assert_eq!(
                t.conversation.turns.len(),
                scenario.turns,
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
    let surge = run_contention_scenario(&by_name("cross-traffic-surge").unwrap());
    for (leg, r) in [
        ("traditional", &surge.traditional),
        ("ai_oriented", &surge.ai_oriented),
    ] {
        assert!(
            r.tenants.iter().map(|t| t.starvation_events).sum::<u64>() > 0,
            "{leg}: a 9 Mbps surge on a 10 Mbps link must trip the starvation watchdog"
        );
        assert!(
            r.cross_traffic_delivered_bytes > 0,
            "{leg}: the surge itself must get through"
        );
    }

    let floor = run_contention_scenario(&by_name("ai-floor-vs-traditional").unwrap());
    for (leg, r) in [
        ("traditional", &floor.traditional),
        ("ai_oriented", &floor.ai_oriented),
    ] {
        assert_eq!(
            r.tenants.iter().map(|t| t.starvation_events).sum::<u64>(),
            0,
            "{leg}: one accuracy floor on a fault-free 5 Mbps link must starve nobody"
        );
        assert_eq!(
            r.tenants[0].mode, "ai_oriented",
            "tenant 0 is pinned in both legs"
        );
    }
}

/// The late joiner in `hotspot-join` lands mid-storm, is admitted at (no more than) its
/// fair share, and still completes its conversation alongside the incumbents.
#[test]
fn hotspot_joiner_is_admitted_and_completes() {
    let scenario = by_name("hotspot-join").unwrap();
    let report = run_contention_scenario(&scenario);
    for (leg, r) in [
        ("traditional", &report.traditional),
        ("ai_oriented", &report.ai_oriented),
    ] {
        let joiner = &r.tenants[3];
        assert!(joiner.join_ms > 0.0);
        assert_eq!(
            joiner.conversation.turns.len(),
            scenario.turns,
            "{leg}: the joiner completes all turns"
        );
        // Admission caps the joiner's first-turn estimate at nominal / active tenants.
        assert!(
            joiner.conversation.estimate_at_turn_start_bps[0]
                <= scenario.config().nominal_bps / scenario.tenants as f64 + 1.0,
            "{leg}: joiner started above its fair share"
        );
        assert!(
            r.tenants.iter().all(|t| t.delivered_bytes > 0),
            "{leg}: every tenant moved bytes through the bottleneck"
        );
    }
}
