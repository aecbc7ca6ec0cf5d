//! Relations the whole system must satisfy: each one transforms a run and states what the
//! transformation may (or may not) change in its report, as a property over seeds.
//!
//! * **Driver equivalence.** A conversation alone is the K = 1 case of a contention run:
//!   one tenant on a shared link seeded like the tenant, with no cross-traffic, starvation
//!   watchdog or admission, reports exactly what a [`Conversation`] reports — on a lossy
//!   link, through a blackout with the resilience stack on and on a square-wave trace, with
//!   and without think time between turns.

use aivchat::core::{
    run_contention, AdmissionConfig, ContentionConfig, Conversation, NetSessionOptions, StarvationConfig,
    TenantSpec, TenantTurn,
};
use aivchat::mllm::{Question, QuestionFormat};
use aivchat::netsim::{
    BandwidthTrace, FaultSchedule, LinkConfig, LossModel, PathConfig, SimDuration, SimTime,
};
use aivchat::scene::templates::basketball_game;
use aivchat::scene::{SourceConfig, VideoSource};
use proptest::prelude::*;

/// Capture rate of every turn: four frames make a 375-ms window, answered 300 ms later.
const FPS: f64 = 8.0;

/// Three turns of four frames, each asking about another fact of the scene.
fn script() -> Vec<TenantTurn> {
    let scene = basketball_game(1);
    let source = VideoSource::new(scene.clone(), SourceConfig::fps30(6.0));
    (0..3)
        .map(|turn| TenantTurn {
            frames: source.window(turn as f64 * 0.5, 0.5, FPS),
            question: Question::from_fact(
                &scene.facts[turn % scene.facts.len()],
                QuestionFormat::FreeResponse,
            ),
        })
        .collect()
}

/// The three uplinks the relation is checked on, with the options that ride each.
fn uplink(kind: usize) -> (LinkConfig, bool) {
    let delay = SimDuration::from_millis(30);
    match kind {
        0 => (
            LinkConfig::constant(4e6, delay, 300, LossModel::Iid { rate: 0.01 }),
            false,
        ),
        1 => (
            LinkConfig {
                faults: FaultSchedule::blackout(SimTime::from_millis(600), SimDuration::from_millis(500)),
                ..LinkConfig::constant(4e6, delay, 300, LossModel::None)
            },
            true,
        ),
        _ => {
            let mut link = LinkConfig::constant(4e6, delay, 300, LossModel::None);
            link.bandwidth = BandwidthTrace::square_wave(
                4e6,
                1e6,
                SimTime::from_millis(250),
                SimTime::from_secs_f64(10.0),
            );
            (link, false)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn one_tenant_contention_reports_what_a_conversation_reports(seed in 0u64..1_000_000) {
        let script = script();
        for kind in 0..3 {
            for think_ms in [0, 400] {
                let (link, resilient) = uplink(kind);
                let path = PathConfig {
                    uplink: link.clone(),
                    downlink: LinkConfig::constant(100e6, SimDuration::from_millis(30), 300, LossModel::None),
                };
                let mut options = NetSessionOptions::ai_oriented(seed, path);
                options.capture_fps = FPS;
                if resilient {
                    options = options.with_resilience();
                }
                let think = SimDuration::from_millis(think_ms);

                let mut conversation = Conversation::with_defaults(options.clone(), think);
                for turn in &script {
                    conversation.run_turn(&turn.frames, &turn.question);
                }

                let config = ContentionConfig {
                    shared_uplink: link,
                    shared_seed: seed,
                    nominal_bps: 4e6,
                    fairness_window: SimDuration::from_millis(500),
                    starvation: StarvationConfig::disabled(),
                    admission: AdmissionConfig::disabled(),
                    cross_traffic: Vec::new(),
                };
                let tenant = TenantSpec {
                    label: "solo".into(),
                    mode: "ai_oriented".into(),
                    join_at: SimTime::ZERO,
                    think,
                    options,
                    turns: script.clone(),
                };
                let report = run_contention(&config, vec![tenant]);
                prop_assert!(
                    report.tenants[0].conversation == conversation.report(),
                    "uplink {kind}, think {think_ms} ms"
                );
            }
        }
    }
}
