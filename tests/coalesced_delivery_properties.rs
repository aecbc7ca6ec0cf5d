//! Property tests of coalesced delivery events: batching a pacer burst's back-to-back
//! departures into one re-armed run event is a *scheduling* optimisation, so every
//! observable of the session — arrival times, delivery order, loss/fault application,
//! congestion feedback, the full per-turn and cross-turn reports — must be bit-for-bit
//! identical to the per-packet event path it replaces. These properties drive both paths
//! over randomized loss rates and fault schedules (outages, burst-loss storms, RTT
//! spikes, duplication, reordering) and compare complete [`ConversationReport`]s, for
//! standalone conversations and for server fleets at several pool sizes.

use aivchat::core::{Conversation, ConversationChatServer, NetSessionOptions};
use aivchat::mllm::{Question, QuestionFormat};
use aivchat::netsim::{
    BandwidthTrace, FaultEpisode, FaultKind, FaultSchedule, LinkConfig, LossModel, PathConfig, SimDuration,
    SimTime,
};
use aivchat::par::MiniPool;
use aivchat::scene::templates::basketball_game;
use aivchat::scene::{Frame, SourceConfig, VideoSource};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn window(offset: usize) -> Vec<Frame> {
    let source = VideoSource::new(basketball_game(1), SourceConfig::fps30(6.0));
    (0..4)
        .map(|i| source.frame(((offset + i) * 15 % 170) as u64))
        .collect()
}

fn question() -> Question {
    Question::from_fact(&basketball_game(1).facts[0], QuestionFormat::FreeResponse)
}

/// A randomized fault schedule: at most one outage (the schedule requires outages to be
/// sorted and disjoint) followed by a handful of composable non-outage episodes drawn
/// from every [`FaultKind`].
fn random_faults(rng: &mut ChaCha8Rng) -> FaultSchedule {
    let mut episodes = Vec::new();
    if rng.gen_bool(0.5) {
        episodes.push(FaultEpisode {
            start: SimTime::from_millis(rng.gen_range(100..600)),
            duration: SimDuration::from_millis(rng.gen_range(50..400)),
            kind: FaultKind::Outage,
        });
    }
    for _ in 0..rng.gen_range(0usize..3) {
        let kind = match rng.gen_range(0..4) {
            0 => FaultKind::BurstLoss {
                loss_rate: rng.gen_range(0.05..0.6),
            },
            1 => FaultKind::RttSpike {
                extra_delay: SimDuration::from_millis(rng.gen_range(5..80)),
            },
            2 => FaultKind::Duplicate {
                probability: rng.gen_range(0.05..0.5),
            },
            _ => FaultKind::Reorder {
                probability: rng.gen_range(0.05..0.5),
                max_delay: SimDuration::from_millis(rng.gen_range(1..40)),
            },
        };
        episodes.push(FaultEpisode {
            start: SimTime::from_millis(rng.gen_range(0..2_000)),
            duration: SimDuration::from_millis(rng.gen_range(100..2_000)),
            kind,
        });
    }
    FaultSchedule::new(episodes)
}

/// AI-oriented session options over a 10 Mbps / 30 ms uplink carrying the given i.i.d.
/// loss and fault schedule, with delivery coalescing switched per the flag under test.
fn faulty_options(seed: u64, loss: f64, faults: FaultSchedule, coalesce: bool) -> NetSessionOptions {
    let path = PathConfig {
        uplink: LinkConfig {
            bandwidth: BandwidthTrace::constant(10e6),
            propagation_delay: SimDuration::from_millis(30),
            queue_capacity_bytes: 375_000, // 300 ms at the nominal 10 Mbps
            loss: if loss > 0.0 {
                LossModel::Iid { rate: loss }
            } else {
                LossModel::None
            },
            max_jitter: SimDuration::ZERO,
            faults,
        },
        downlink: LinkConfig::constant(100e6, SimDuration::from_millis(30), 300, LossModel::None),
    };
    let mut options = NetSessionOptions::ai_oriented(seed, path);
    options.capture_fps = 8.0;
    options.coalesce_delivery = coalesce;
    options
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// For any loss rate and fault schedule, a conversation run with coalesced delivery
    /// produces a [`ConversationReport`] bit-identical to the per-packet event path:
    /// same arrival times, same delivery order, same losses, duplicates, reorders,
    /// retransmissions and congestion-control trajectory, turn after turn.
    #[test]
    fn coalesced_delivery_is_bit_identical_to_per_packet(
        seed in 0u64..5_000,
        loss in 0.0f64..0.08,
        turns in 2usize..4,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let faults = random_faults(&mut rng);
        let q = question();
        let run = |coalesce: bool| {
            let options = faulty_options(seed, loss, faults.clone(), coalesce);
            let mut conv = Conversation::with_defaults(options, SimDuration::from_millis(400));
            for t in 0..turns {
                conv.run_turn(&window(t * 4), &q);
            }
            conv.report()
        };
        prop_assert_eq!(run(true), run(false));
    }

    /// The same equivalence holds for a served fleet at every pool size: a
    /// coalesced fleet at pools 1, 2 and 8 matches the per-packet single-lane reference
    /// session for session. (Pool 8 over 5 sessions also exercises empty lanes.)
    #[test]
    fn coalesced_fleet_matches_per_packet_at_every_pool_size(
        seed in 0u64..5_000,
        loss in 0.0f64..0.05,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5eed);
        let faults = random_faults(&mut rng);
        let q = question();
        let frames = window(0);
        let sessions = 5usize;
        let fleet_reports = |pool: usize, coalesce: bool| {
            let fleet = (0..sessions)
                .map(|i| {
                    let options = faulty_options(seed + i as u64, loss, faults.clone(), coalesce);
                    Conversation::with_defaults(options, SimDuration::from_millis(400))
                })
                .collect();
            let mut server = ConversationChatServer::with_sessions(MiniPool::new(pool), fleet);
            for _ in 0..2 {
                server.run_turns(&frames, &q);
            }
            (0..sessions).map(|i| server.conversation_report(i)).collect::<Vec<_>>()
        };
        let reference = fleet_reports(1, false);
        for pool in [1usize, 2, 8] {
            prop_assert_eq!(fleet_reports(pool, true), reference.clone());
        }
    }
}
