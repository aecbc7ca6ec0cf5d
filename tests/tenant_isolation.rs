//! A contention run lends every tenant one set of per-event turn buffers, but each tenant
//! keeps the encoded frames of its live turn to itself: what a tenant decodes at its
//! answer deadline is only ever its own capture. On a link fast enough that tenants never
//! slow each other down, replacing every other tenant's video must leave one tenant's
//! answers exactly as they were — a tenant decoding a neighbour's frames would answer
//! about the wrong scene.

use aivchat::core::scenarios::{contention_by_name, ContentionScenario};
use aivchat::core::{run_contention, ContentionReport, StarvationConfig};
use aivchat::netsim::{LinkConfig, LossModel};
use aivchat::scene::templates::dog_park;
use aivchat::scene::{SourceConfig, VideoSource};
use aivchat::sim::SimDuration;

/// The AI-oriented leg of `scenario`, with tenants 1.. watching a dog park instead of
/// their own windows when `swap_neighbours` (each turn the same number of frames).
fn ai_leg(scenario: &ContentionScenario, swap_neighbours: bool) -> ContentionReport {
    let mut specs: Vec<_> = (0..scenario.tenants)
        .map(|tenant| scenario.tenant_spec(tenant, true))
        .collect();
    if swap_neighbours {
        let park = VideoSource::new(dog_park(3), SourceConfig::fps30(6.0));
        for spec in &mut specs[1..] {
            for (k, turn) in spec.turns.iter_mut().enumerate() {
                let frames = park.window(
                    k as f64 * scenario.window_secs,
                    scenario.window_secs,
                    scenario.capture_fps,
                );
                assert_eq!(frames.len(), turn.frames.len(), "{}: turn {k}", spec.label);
                turn.frames = frames;
            }
        }
    }
    run_contention(&scenario.config(), specs)
}

#[test]
fn a_tenant_never_decodes_another_tenants_frames() {
    let mut scenario = contention_by_name("shared-blackout").expect("registered scenario");
    scenario.shared_uplink = LinkConfig::constant(100e6, SimDuration::from_millis(30), 300, LossModel::None);
    scenario.starvation = StarvationConfig::disabled();

    let own = ai_leg(&scenario, false);
    let swapped = ai_leg(&scenario, true);
    assert_eq!(own.tenants[0].conversation.turns.len(), scenario.turns);
    assert_eq!(
        own.tenants[0].conversation.turns, swapped.tenants[0].conversation.turns,
        "tenant 0's turns moved when only its neighbours' video changed"
    );
    assert_ne!(
        own.tenants[1].conversation.turns, swapped.tenants[1].conversation.turns,
        "tenant 1's video changed, so its turns must"
    );
}
