//! Golden regression tests of the multi-turn specs on a link of their own: each must
//! reproduce its committed fixture **bit for bit**, so any change to the kernel, transport
//! persistence, think-time drains, trace looping or deadline-aware NACK suppression is
//! intentional and reviewed alongside a fixture update. Their contract tests live in
//! `scenario_golden.rs`.

mod golden;

use golden::{assert_bit_stable, report, Family};

/// Every multi-turn own-link spec against its fixture.
#[test]
fn golden_conversation_reports_are_bit_stable() {
    assert_bit_stable(Family::Conversation, 4);
}

/// The engine is deterministic within a process: a fresh serial run of a conversation
/// (new link and sender, same seeds) reproduces the pooled registry run.
#[test]
fn conversation_runs_are_deterministic() {
    let (spec, pooled) = report("stepdown-mid-conversation");
    assert_eq!(&spec.run(), pooled);
}
