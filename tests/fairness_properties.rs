//! Property tests of the multi-tenant contention engine: Jain's index stays inside its
//! mathematical bounds for any allocation vector, a fault-free evenly-shared bottleneck
//! never trips the starvation watchdog, and the contention-cell runner is bit-identical
//! for any pool size — scheduling tenants onto lanes must not change what they compute.

use aivchat::core::contention::{
    run_contention, AdmissionConfig, ContentionConfig, StarvationConfig, TenantSpec, TenantTurn,
};
use aivchat::core::scenarios::run_contention_cells;
use aivchat::core::NetSessionOptions;
use aivchat::mllm::{Question, QuestionFormat};
use aivchat::netsim::{jain_index, LinkConfig, LossModel, PathConfig, SimDuration, SimTime};
use aivchat::scene::templates::basketball_game;
use aivchat::scene::{SourceConfig, VideoSource};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A clean 100 Mbps / 30 ms feedback downlink.
fn clean_downlink() -> LinkConfig {
    LinkConfig::constant(100e6, SimDuration::from_millis(30), 300, LossModel::None)
}

/// A small scripted conversation for tenant `tenant`: `turns` turns of `frames` frames
/// at `fps`, each asking about a tenant-specific slice of the scene.
fn script(tenant: usize, turns: usize, frames: usize) -> Vec<TenantTurn> {
    let scene = basketball_game(1);
    let source = VideoSource::new(scene.clone(), SourceConfig::fps30(6.0));
    (0..turns)
        .map(|turn| TenantTurn {
            frames: (0..frames)
                .map(|i| source.frame(((turn * frames + tenant * 5 + i) % 170) as u64))
                .collect(),
            question: Question::from_fact(
                &scene.facts[(turn + tenant) % scene.facts.len()],
                QuestionFormat::FreeResponse,
            ),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Jain's index of any non-negative allocation vector lies in `[1/K, 1]`.
    #[test]
    fn jain_index_is_bounded_for_any_allocation(seed in 0u64..1_000_000, k in 1usize..16) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let values: Vec<f64> = (0..k).map(|_| rng.gen_range(0.0f64..1e9)).collect();
        let jain = jain_index(&values);
        prop_assert!(jain >= 1.0 / k as f64 - 1e-12, "jain {jain} below 1/{k}");
        prop_assert!(jain <= 1.0 + 1e-12, "jain {jain} above 1");
    }

    /// Equal allocations score exactly 1; concentrating everything on one flow scores
    /// exactly 1/K — the two extremes the telemetry is read against.
    #[test]
    fn jain_index_extremes(share in 1.0f64..1e8, k in 1usize..12) {
        let equal = vec![share; k];
        prop_assert!((jain_index(&equal) - 1.0).abs() < 1e-12);
        let mut hog = vec![0.0; k];
        hog[0] = share;
        prop_assert!((jain_index(&hog) - 1.0 / k as f64).abs() < 1e-12);
    }
}

proptest! {
    // Each case runs a real (small) multi-tenant simulation; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// On a fault-free bottleneck with ample per-tenant capacity and identical,
    /// simultaneous tenants, the starvation watchdog never escalates — for any seed and
    /// any fleet size. A watchdog that fires on a healthy evenly-shared link would turn
    /// the escalation path into a self-inflicted outage.
    #[test]
    fn watchdog_never_fires_on_a_fault_free_evenly_shared_link(
        seed in 0u64..10_000,
        k in 2usize..5,
    ) {
        let uplink = LinkConfig::constant(
            6e6 * k as f64,
            SimDuration::from_millis(30),
            300,
            LossModel::None,
        );
        let config = ContentionConfig {
            shared_uplink: uplink.clone(),
            shared_seed: seed,
            nominal_bps: 6e6 * k as f64,
            fairness_window: SimDuration::from_millis(400),
            starvation: StarvationConfig {
                enabled: true,
                floor_bps: 100_000.0,
            },
            admission: AdmissionConfig::disabled(),
            cross_traffic: Vec::new(),
        };
        let tenants = (0..k)
            .map(|t| TenantSpec {
                label: format!("tenant-{t}"),
                mode: "ai_oriented".into(),
                join_at: SimTime::ZERO,
                think: SimDuration::from_millis(300),
                options: {
                    let mut o = NetSessionOptions::ai_oriented(
                        seed + 31 * (t as u64 + 1),
                        PathConfig { uplink: uplink.clone(), downlink: clean_downlink() },
                    );
                    o.capture_fps = 12.0;
                    o
                },
                turns: script(t, 2, 12),
            })
            .collect();
        let report = run_contention(&config, tenants);
        prop_assert!(
            report.starvation_events_total() == 0,
            "watchdog fired on a healthy link (seed {seed}, k {k})"
        );
        // And the healthy fleet shares evenly overall.
        prop_assert!(report.fairness.jain_overall > 0.9);
    }
}

/// The contention-cell runner spreads registry scenarios across a `MiniPool`; where a
/// cell runs must not change what it computes. Pool sizes 1, 2 and 8 must produce
/// byte-identical reports — the same contract the chat servers honour.
#[test]
fn contention_cells_are_bit_identical_across_pool_sizes() {
    let lane1 = run_contention_cells(1);
    let lane2 = run_contention_cells(2);
    let lane8 = run_contention_cells(8);
    assert_eq!(lane1, lane2, "pool size 2 diverged from serial");
    assert_eq!(lane1, lane8, "pool size 8 diverged from serial");
    // And the sweep really covered the registry.
    assert!(lane1.len() >= 4);
}
