//! Determinism and pool-independence of the networked multi-session server: extending the
//! PR 3 pool-independence properties to the network-in-the-loop path.
//! `ConversationChatServer` results must be bit-identical for any pool size (including the
//! CI-pinned `AIVC_POOL_SIZE` configuration) and across repeated runs — conversations share
//! nothing, not even a clock, so where a turn executes cannot change what its network or
//! its MLLM did.

use aivchat::core::scenarios::{by_name, conversation_by_name};
use aivchat::core::{Conversation, ConversationChatServer, ConversationReport, NetSessionOptions};
use aivchat::mllm::{Question, QuestionFormat};
use aivchat::par::MiniPool;
use aivchat::scene::templates::basketball_game;
use aivchat::scene::{Frame, SourceConfig, VideoSource};
use aivchat::sim::SimDuration;

/// A compact turn window (2 s at 8 fps) so the pool sweep stays fast.
fn window() -> Vec<Frame> {
    VideoSource::new(basketball_game(1), SourceConfig::fps30(6.0)).window(4.0, 2.0, 8.0)
}

fn question() -> Question {
    Question::from_fact(&basketball_game(1).facts[1], QuestionFormat::FreeResponse)
}

/// The step-down scenario's network, on a smaller turn shape.
fn template(seed: u64) -> NetSessionOptions {
    let scenario = by_name("step-down").expect("registered scenario");
    let mut options = scenario.options(true);
    options.seed = seed;
    options.capture_fps = 8.0;
    options
}

/// Three turns of a 4-conversation server on a continuous timeline, for a pool size.
fn collect_conversations(pool_size: usize, seed: u64) -> Vec<ConversationReport> {
    let q = question();
    let scenario = conversation_by_name("stepdown-mid-conversation").expect("registered");
    let mut options = scenario.options(true);
    options.seed = seed;
    options.capture_fps = 8.0;
    let mut server = ConversationChatServer::new(pool_size, 4, options, SimDuration::from_millis(700));
    for _ in 0..3 {
        server.run_turns(&window(), &q);
    }
    (0..4).map(|i| server.conversation_report(i)).collect()
}

/// The acceptance contract: a conversation replayed from the same seed is bit-identical
/// at pool sizes 1, 2 and 8 (and the CI-pinned `AIVC_POOL_SIZE`) — the persistent
/// timeline adds state, not nondeterminism.
#[test]
fn conversation_server_results_are_independent_of_pool_size() {
    let sequential = collect_conversations(1, 4100);
    assert_eq!(collect_conversations(2, 4100), sequential, "pool size 2 diverged");
    assert_eq!(collect_conversations(8, 4100), sequential, "pool size 8 diverged");
    assert_eq!(
        collect_conversations(MiniPool::env_lanes(), 4100),
        sequential,
        "env pool diverged"
    );
}

#[test]
fn conversation_server_matches_standalone_conversations() {
    let q = question();
    let scenario = conversation_by_name("bursty-think-time").expect("registered");
    let mut options = scenario.options(true);
    options.seed = 2024;
    options.capture_fps = 8.0;
    let think = SimDuration::from_millis(900);
    let mut server = ConversationChatServer::new(2, 3, options.clone(), think);
    for _ in 0..2 {
        server.run_turns(&window(), &q);
    }
    for i in 0..3 {
        let mut o = options.clone();
        o.seed += i as u64;
        let mut standalone = Conversation::with_defaults(o, think);
        for _ in 0..2 {
            standalone.run_turn(&window(), &q);
        }
        assert_eq!(
            server.conversation_report(i),
            standalone.report(),
            "conversation {i}"
        );
    }
}

#[test]
fn sessions_see_independent_network_randomness() {
    let mut server = ConversationChatServer::new(2, 5, template(1234), SimDuration::ZERO);
    server.run_turns(&window(), &question());
    server.run_turns(&window(), &question());
    // Same path and question, different seeds: the loss processes differ, so at least two
    // sessions must observe different packet-loss counts (the step-down link loses packets
    // at 1% i.i.d. plus queue drops).
    let losses: Vec<u64> = server.reports().map(|r| r.packets_lost).collect();
    assert!(
        losses.iter().any(|&l| l != losses[0]),
        "all sessions saw identical loss patterns: {losses:?}"
    );
}
