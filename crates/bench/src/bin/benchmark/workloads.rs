//! The four workloads and the run shape they share.
//!
//! A run is several identical repetitions of *set-up → fixed block (→ more rounds)*. A
//! **round** is one timed engine call: a turn of the single conversation, a `run_turns`
//! over the fleet, a leg of the contention registry. The **fixed block** is the first
//! [`Workload::fixed_rounds`] rounds of a repetition: every simulated (deterministic)
//! figure, the report digest, the peak heap and the per-layer counts are taken over
//! exactly these turns, so they do not depend on how fast the box happens to be.
//!
//! Rounds of one **kind** (`index % round_kinds`) are what the fast-state estimator pools.
//! Where set-up is cheap (everything but the fleet) a repetition is exactly the fixed block
//! and is repeated until `--seconds` are measured, so the samples of a kind are the *same*
//! turn of the same seed — identical work, timed once per repetition. The fleet's set-up is
//! 64 model builds, so it runs [`FLEET_REPETITIONS`] long repetitions instead and a kind
//! is a window of the scene (near-identical work; rounds after the fixed block add
//! wall-clock samples and are still output-checked).

use crate::alloc::{AllocMark, HEAP};
use crate::checks::{all_numbers_finite, check_link, check_reconciliation, check_turn, SimSums, Tally};
use crate::inputs::{
    ai_options, chat_inputs, contention_scenarios, think_gap, traditional_options, ChatInputs, SeedPlan,
    FRAMES_PER_TURN, WINDOWS_PER_ROUND,
};
use crate::stats::Digest;
use crate::trace::Tracer;
use aivc_netsim::LinkCounters;
use aivchat_core::contention::{run_contention, ContentionReport, TenantSpec};
use aivchat_core::scenarios::ContentionScenario;
use aivchat_core::{Conversation, ConversationChatServer, NetTurnReport, SessionSnapshot};
use serde::Serialize;
use std::collections::VecDeque;
use std::time::Instant;

/// Fewest repetitions of a run, whatever `--seconds` says.
pub const MIN_REPETITIONS: usize = 3;
/// Repetitions of the fleet workload, each measuring for half of `--seconds`.
pub const FLEET_REPETITIONS: usize = 2;
/// Sessions of the fleet workload.
pub const FLEET_SESSIONS: usize = 64;
/// Lanes every gated run uses (`nproc` on the reference box is 2; one driving thread).
pub const POOL_LANES: usize = 1;
/// Warm-up turns of the single-conversation workloads.
pub const WARMUP_TURNS: usize = 64;
/// Warm-up rounds of the fleet workload.
pub const FLEET_WARMUP_ROUNDS: usize = 3;

/// The benchmark's workloads. Names are final: later issues cite them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One persistent AI-oriented conversation at the paper's design point.
    AiChatWarm,
    /// One persistent traditional-ABR conversation on a fast, lossy uplink.
    TraditionalHighrateLossy,
    /// 64 persistent AI-oriented conversations behind one lane-sharded server.
    Fleet64AiWarm,
    /// The contention registry, every leg built and run from nothing.
    ContentionCold,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::AiChatWarm,
        Workload::TraditionalHighrateLossy,
        Workload::Fleet64AiWarm,
        Workload::ContentionCold,
    ];

    /// The name `--workload` takes and `BENCHMARK.json` lists.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AiChatWarm => "ai_chat_warm",
            Workload::TraditionalHighrateLossy => "traditional_highrate_lossy",
            Workload::Fleet64AiWarm => "fleet64_ai_warm",
            Workload::ContentionCold => "contention_cold",
        }
    }

    /// Parses a `--workload` value.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists — the same sentence `BENCHMARK.json` records.
    pub fn why(self) -> &'static str {
        match self {
            Workload::AiChatWarm => {
                "paper design point (context-aware, 430 kbps floor, ~20 packets/turn): CLIP, Eq. 2 and \
                 the codec do most of the work, transport almost none, so compute changes show here"
            }
            Workload::TraditionalHighrateLossy => {
                "same engine used the other way (no CLIP/Eq. 2, uniform-QP search, ~13x the packets, \
                 ~20 RTX/turn, adaptive FEC + watchdog live): per-packet transport work shows, CLIP changes must not"
            }
            Workload::Fleet64AiWarm => {
                "64 sessions on one lane-sharded server: ~30 MB of live state walked per round plus kernel \
                 merge and per-session counters; set-up is 64 model builds, so setup_s and memory are judged here"
            }
            Workload::ContentionCold => {
                "contention registry (4 scenarios x 2 ABR legs, 30 tenants, shared link, faults, cross-traffic) \
                 built from nothing every round: a warm-path win bought with eager tables or pools shows as a loss"
            }
        }
    }

    /// Rounds in a repetition's fixed block.
    pub fn fixed_rounds(self) -> usize {
        match self {
            // One turn each, every window 100 / 150 times: 1 600 / 2 400 session-turns,
            // about a second of work. The lossy link needs the larger block for its
            // loss-driven figures to settle.
            Workload::AiChatWarm => 100 * WINDOWS_PER_ROUND,
            Workload::TraditionalHighrateLossy => 150 * WINDOWS_PER_ROUND,
            // 64 turns each, every window twice: 2 048 session-turns.
            Workload::Fleet64AiWarm => 2 * WINDOWS_PER_ROUND,
            // One pass over the registry: 8 legs, 150 session-turns.
            Workload::ContentionCold => 8,
        }
    }

    /// How many kinds of round the workload has: round `index` is of kind
    /// `index % round_kinds`, and rounds of one kind do the same work.
    pub fn round_kinds(self) -> usize {
        match self {
            Workload::Fleet64AiWarm => WINDOWS_PER_ROUND,
            _ => self.fixed_rounds(),
        }
    }

    /// `Some(n)`: the run is `n` repetitions that each keep measuring for `--seconds / n`.
    /// `None`: a repetition is exactly the fixed block, repeated until `--seconds` are
    /// measured.
    pub fn long_repetitions(self) -> Option<usize> {
        match self {
            Workload::Fleet64AiWarm => Some(FLEET_REPETITIONS),
            _ => None,
        }
    }
}

/// One timed round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundSample {
    /// Wall time of the round's engine calls.
    pub wall_ns: u64,
    /// Session-turns the round ran.
    pub turns: u32,
    /// Heap operations and bytes requested inside the timed region.
    pub alloc: AllocMark,
}

/// Always-on and link counts over the fixed block (exact, from public counters).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerCounts {
    /// Media + parity + RTX packets handed to the uplink (`SessionSnapshot.packets_sent`;
    /// on `contention_cold`, where tenants expose no snapshot, the shared link's
    /// `offered`, which includes cross-traffic).
    pub packets_sent: u64,
    /// NACKs dropped by deadline-aware suppression.
    pub nacks_suppressed: u64,
    /// Arrivals for already-retired sequence numbers (not observable on `contention_cold`).
    pub late_seq_drops: u64,
    /// Pacer rate updates clamped to the floor (not observable on `contention_cold`).
    pub pacer_rate_clamps: u64,
    /// Uplink counters.
    pub link: LinkCounters,
}

/// What one repetition reports after its rounds.
#[derive(Debug, Clone, Default)]
pub struct RepOutcome {
    /// Output-check tally over every turn the repetition ran after warm-up.
    pub tally: Tally,
    /// Sums over the fixed block.
    pub sums: SimSums,
    /// Counts over the fixed block.
    pub counts: LayerCounts,
    /// Digest of every serialized report of the fixed block.
    pub digest: Digest,
    /// Live heap set-up added per session (on `contention_cold`, where nothing outlives
    /// a leg: peak heap growth during the first leg per tenant).
    pub heap_bytes_per_session: u64,
    /// `achieved_bitrate_bps` of session 0's first sixteen measured turns — what the traced
    /// run holds the replay's encoded bytes to (empty on `contention_cold`).
    pub first_turns_achieved_bps: Vec<f64>,
}

/// One repetition's live state.
pub trait Repetition {
    /// Runs round `index` (0-based within the repetition) and times it. With a tracer,
    /// every engine call of the round is wrapped in a root span.
    fn run_round(&mut self, index: usize, tracer: Option<&mut Tracer>) -> RoundSample;
    /// Called once, right after the last round of the fixed block.
    fn end_fixed_block(&mut self);
    /// Checks every output and sums the fixed block (`fixed_rounds` rounds).
    fn finish(self: Box<Self>, fixed_rounds: usize) -> RepOutcome;
}

/// Builds a repetition of `workload`: generates its inputs from `plan`, constructs the
/// engine objects and runs the warm-up. The caller times this call as `setup_s`.
pub fn set_up(workload: Workload, plan: SeedPlan) -> Box<dyn Repetition> {
    match workload {
        Workload::AiChatWarm => Box::new(ConversationRep::new(chat_inputs(plan), ai_options(plan))),
        Workload::TraditionalHighrateLossy => {
            Box::new(ConversationRep::new(chat_inputs(plan), traditional_options(plan)))
        }
        Workload::Fleet64AiWarm => Box::new(FleetRep::new(chat_inputs(plan), plan)),
        Workload::ContentionCold => Box::new(ContentionRep::new(plan)),
    }
}

fn link_delta(after: LinkCounters, before: LinkCounters) -> LinkCounters {
    LinkCounters {
        offered: after.offered - before.offered,
        delivered: after.delivered - before.delivered,
        dropped_queue: after.dropped_queue - before.dropped_queue,
        lost_random: after.lost_random - before.lost_random,
        delivered_bytes: after.delivered_bytes - before.delivered_bytes,
        duplicated: after.duplicated - before.duplicated,
        reordered: after.reordered - before.reordered,
        outage_drops: after.outage_drops - before.outage_drops,
    }
}

fn link_sum(a: LinkCounters, b: LinkCounters) -> LinkCounters {
    LinkCounters {
        offered: a.offered + b.offered,
        delivered: a.delivered + b.delivered,
        dropped_queue: a.dropped_queue + b.dropped_queue,
        lost_random: a.lost_random + b.lost_random,
        delivered_bytes: a.delivered_bytes + b.delivered_bytes,
        duplicated: a.duplicated + b.duplicated,
        reordered: a.reordered + b.reordered,
        outage_drops: a.outage_drops + b.outage_drops,
    }
}

fn counts_between(
    (snap_a, link_a): (SessionSnapshot, LinkCounters),
    (snap_b, link_b): (SessionSnapshot, LinkCounters),
) -> LayerCounts {
    LayerCounts {
        packets_sent: snap_b.packets_sent - snap_a.packets_sent,
        nacks_suppressed: snap_b.nacks_suppressed - snap_a.nacks_suppressed,
        late_seq_drops: snap_b.late_seq_drops - snap_a.late_seq_drops,
        pacer_rate_clamps: snap_b.pacer_rate_clamps - snap_a.pacer_rate_clamps,
        link: link_delta(link_b, link_a),
    }
}

fn first_achieved(measured: &[NetTurnReport]) -> Vec<f64> {
    measured
        .iter()
        .take(WINDOWS_PER_ROUND)
        .map(|t| t.achieved_bitrate_bps)
        .collect()
}

/// Checks `measured` turn by turn, sums and digests its first `fixed_turns`.
fn check_and_sum(
    measured: &[NetTurnReport],
    fixed_turns: usize,
    tally: &mut Tally,
    sums: &mut SimSums,
    digest: &mut Digest,
) {
    for (i, report) in measured.iter().enumerate() {
        tally.record(check_turn(report));
        if i < fixed_turns {
            sums.add(report);
            let json = serde_json::to_string(report).expect("reports serialize");
            digest.update(json.as_bytes());
        }
    }
}

// --- ai_chat_warm / traditional_highrate_lossy -------------------------------------------

struct ConversationRep {
    conversation: Conversation,
    inputs: ChatInputs,
    after_warmup: (SessionSnapshot, LinkCounters),
    after_fixed: (SessionSnapshot, LinkCounters),
    session_heap_bytes: u64,
}

impl ConversationRep {
    fn new(inputs: ChatInputs, options: aivchat_core::NetSessionOptions) -> Self {
        let live_before = HEAP.live_bytes();
        let mut conversation = Conversation::with_defaults(options, think_gap());
        conversation.reserve_turns(WARMUP_TURNS, FRAMES_PER_TURN);
        for turn in 0..WARMUP_TURNS {
            conversation.run_turn_in_place(&inputs.windows[turn % WINDOWS_PER_ROUND], &inputs.question);
        }
        let after_warmup = (conversation.metrics_snapshot(), conversation.link_counters());
        Self {
            session_heap_bytes: HEAP.live_bytes().saturating_sub(live_before),
            conversation,
            inputs,
            after_warmup,
            after_fixed: after_warmup,
        }
    }
}

impl Repetition for ConversationRep {
    fn run_round(&mut self, index: usize, tracer: Option<&mut Tracer>) -> RoundSample {
        // History growth happens here, outside the timed region, so a warm turn's own
        // allocations are all that `alloc` counts.
        self.conversation.reserve_turns(1, FRAMES_PER_TURN);
        let window = &self.inputs.windows[index % WINDOWS_PER_ROUND];
        let mark = HEAP.mark();
        let start = Instant::now();
        match tracer {
            Some(t) => {
                t.set_turn(index as u32);
                let id = t.enter("core.run_turn");
                self.conversation.run_turn_in_place(window, &self.inputs.question);
                t.exit(id);
            }
            None => {
                self.conversation.run_turn_in_place(window, &self.inputs.question);
            }
        }
        RoundSample {
            wall_ns: start.elapsed().as_nanos() as u64,
            turns: 1,
            alloc: HEAP.mark().since(mark),
        }
    }

    fn end_fixed_block(&mut self) {
        self.after_fixed = (
            self.conversation.metrics_snapshot(),
            self.conversation.link_counters(),
        );
    }

    fn finish(self: Box<Self>, fixed_rounds: usize) -> RepOutcome {
        let turns = self.conversation.turns();
        let mut out = RepOutcome {
            counts: counts_between(self.after_warmup, self.after_fixed),
            heap_bytes_per_session: self.session_heap_bytes,
            first_turns_achieved_bps: first_achieved(&turns[WARMUP_TURNS..]),
            ..RepOutcome::default()
        };
        check_and_sum(
            &turns[WARMUP_TURNS..],
            fixed_rounds,
            &mut out.tally,
            &mut out.sums,
            &mut out.digest,
        );
        let session_laws = check_reconciliation(&self.conversation.metrics_snapshot(), turns)
            .and_then(|()| check_link(&self.conversation.link_counters()));
        if let Err(reason) = session_laws {
            out.tally.fail_turns(out.tally.attempted, reason);
        }
        out
    }
}

// --- fleet64_ai_warm ------------------------------------------------------------------

struct FleetRep {
    server: ConversationChatServer,
    inputs: ChatInputs,
    after_warmup: (SessionSnapshot, LinkCounters),
    after_fixed: (SessionSnapshot, LinkCounters),
    session_heap_bytes: u64,
    rounds_run: usize,
}

impl FleetRep {
    fn new(inputs: ChatInputs, plan: SeedPlan) -> Self {
        let live_before = HEAP.live_bytes();
        let mut server =
            ConversationChatServer::new(POOL_LANES, FLEET_SESSIONS, ai_options(plan), think_gap());
        server.reserve_turns(FLEET_WARMUP_ROUNDS, FRAMES_PER_TURN);
        for round in 0..FLEET_WARMUP_ROUNDS {
            server.run_turns(&inputs.windows[round % WINDOWS_PER_ROUND], &inputs.question);
        }
        let after_warmup = (server.fleet_metrics(), server.serving_report().uplink);
        Self {
            session_heap_bytes: HEAP.live_bytes().saturating_sub(live_before),
            server,
            inputs,
            after_warmup,
            after_fixed: after_warmup,
            rounds_run: FLEET_WARMUP_ROUNDS,
        }
    }
}

impl Repetition for FleetRep {
    fn run_round(&mut self, _index: usize, tracer: Option<&mut Tracer>) -> RoundSample {
        self.server.reserve_turns(1, FRAMES_PER_TURN);
        let window = &self.inputs.windows[self.rounds_run % WINDOWS_PER_ROUND];
        let mark = HEAP.mark();
        let start = Instant::now();
        match tracer {
            Some(t) => {
                t.set_turn(self.rounds_run as u32);
                let id = t.enter("core.run_turns");
                self.server.run_turns(window, &self.inputs.question);
                t.exit_units(id, FLEET_SESSIONS);
            }
            None => self.server.run_turns(window, &self.inputs.question),
        }
        let wall_ns = start.elapsed().as_nanos() as u64;
        self.rounds_run += 1;
        RoundSample {
            wall_ns,
            turns: FLEET_SESSIONS as u32,
            alloc: HEAP.mark().since(mark),
        }
    }

    fn end_fixed_block(&mut self) {
        self.after_fixed = (self.server.fleet_metrics(), self.server.serving_report().uplink);
    }

    fn finish(self: Box<Self>, fixed_rounds: usize) -> RepOutcome {
        let mut out = RepOutcome {
            counts: counts_between(self.after_warmup, self.after_fixed),
            heap_bytes_per_session: self.session_heap_bytes / FLEET_SESSIONS as u64,
            ..RepOutcome::default()
        };
        for session in 0..self.server.session_count() {
            let turns = self.server.conversation_report(session).turns;
            if session == 0 {
                out.first_turns_achieved_bps = first_achieved(&turns[FLEET_WARMUP_ROUNDS..]);
            }
            let mut tally = Tally::default();
            check_and_sum(
                &turns[FLEET_WARMUP_ROUNDS..],
                fixed_rounds,
                &mut tally,
                &mut out.sums,
                &mut out.digest,
            );
            if let Err(reason) = check_reconciliation(&self.server.metrics_snapshot(session), &turns) {
                tally.fail_turns(tally.attempted, format!("session {session}: {reason}"));
            }
            out.tally.absorb(tally);
        }
        if let Err(reason) = check_link(&self.server.serving_report().uplink) {
            out.tally.fail_turns(out.tally.attempted, reason);
        }
        out
    }
}

// --- contention_cold ------------------------------------------------------------------

struct ContentionRep {
    scenarios: Vec<ContentionScenario>,
    /// Tenant specs generated at set-up for the fixed block's legs, in leg order.
    prepared: VecDeque<Vec<TenantSpec>>,
    tally: Tally,
    sums: SimSums,
    counts: LayerCounts,
    digest: Digest,
    in_fixed_block: bool,
    heap_bytes_per_tenant: u64,
    legs_run: u32,
}

impl ContentionRep {
    fn new(plan: SeedPlan) -> Self {
        let scenarios = contention_scenarios(plan);
        let legs = 2 * scenarios.len();
        let prepared = (0..legs).map(|leg| Self::specs(&scenarios, leg)).collect();
        Self {
            scenarios,
            prepared,
            tally: Tally::default(),
            sums: SimSums::default(),
            counts: LayerCounts::default(),
            digest: Digest::new(),
            in_fixed_block: true,
            heap_bytes_per_tenant: 0,
            legs_run: 0,
        }
    }

    /// Leg `2 s` is scenario `s` under traditional ABR, leg `2 s + 1` under AI-oriented.
    fn specs(scenarios: &[ContentionScenario], leg: usize) -> Vec<TenantSpec> {
        let scenario = &scenarios[leg / 2];
        let ai_oriented = leg % 2 == 1;
        (0..scenario.tenants)
            .map(|t| scenario.tenant_spec(t, ai_oriented))
            .collect()
    }

    fn check(&mut self, report: &ContentionReport) {
        let mut tally = Tally::default();
        for tenant in &report.tenants {
            for turn in &tenant.conversation.turns {
                tally.record(check_turn(turn));
                if self.in_fixed_block {
                    self.sums.add(turn);
                }
            }
            if self.in_fixed_block {
                self.counts.nacks_suppressed += tenant.conversation.nacks_suppressed;
            }
        }
        let run_laws = check_link(&report.shared_link).and_then(|()| {
            if all_numbers_finite(&report.to_value()) {
                Ok(())
            } else {
                Err("non-finite number in contention report".to_string())
            }
        });
        if let Err(reason) = run_laws {
            tally.fail_turns(tally.attempted, reason);
        }
        self.tally.absorb(tally);
        if self.in_fixed_block {
            self.counts.packets_sent += report.shared_link.offered;
            self.counts.link = link_sum(self.counts.link, report.shared_link);
            let json = serde_json::to_string(report).expect("reports serialize");
            self.digest.update(json.as_bytes());
        }
    }
}

impl Repetition for ContentionRep {
    fn run_round(&mut self, index: usize, tracer: Option<&mut Tracer>) -> RoundSample {
        let leg = index % (2 * self.scenarios.len());
        // Input generation stays outside the timed region: the fixed block's specs were
        // built (and timed) by set-up, later legs build theirs here.
        let specs = self
            .prepared
            .pop_front()
            .unwrap_or_else(|| Self::specs(&self.scenarios, leg));
        let config = self.scenarios[leg / 2].config();
        let turns: usize = specs.iter().map(|s| s.turns.len()).sum();
        let tenants = specs.len() as u64;
        let live_before = HEAP.live_bytes();
        let mark = HEAP.mark();
        let start = Instant::now();
        let report = match tracer {
            Some(t) => {
                t.set_turn(self.legs_run);
                t.span_units("core.run_contention", || (run_contention(&config, specs), turns))
            }
            None => run_contention(&config, specs),
        };
        let wall_ns = start.elapsed().as_nanos() as u64;
        let alloc = HEAP.mark().since(mark);
        if self.legs_run == 0 {
            // The caller reset the peak before set-up, whose own high-water mark is the
            // specs still live here — so the peak's excess over `live_before` is the leg's.
            self.heap_bytes_per_tenant = HEAP.peak_bytes().saturating_sub(live_before) / tenants.max(1);
        }
        self.legs_run += 1;
        self.check(&report);
        RoundSample {
            wall_ns,
            turns: turns as u32,
            alloc,
        }
    }

    fn end_fixed_block(&mut self) {
        self.in_fixed_block = false;
    }

    fn finish(self: Box<Self>, _fixed_rounds: usize) -> RepOutcome {
        RepOutcome {
            tally: self.tally,
            sums: self.sums,
            counts: self.counts,
            digest: self.digest,
            heap_bytes_per_session: self.heap_bytes_per_tenant,
            first_turns_achieved_bps: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_are_unique() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(w.why().len() <= 200, "{} why too long", w.name());
            assert!(!w.why().contains('\n'));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    /// Runs `rounds` rounds of one repetition and returns its outcome.
    fn short_rep(workload: Workload, seed: u64, rounds: usize) -> RepOutcome {
        let mut rep = set_up(workload, SeedPlan::from_seed(seed));
        for i in 0..rounds {
            let s = rep.run_round(i, None);
            assert!(s.wall_ns > 0 && s.turns > 0);
        }
        rep.end_fixed_block();
        rep.finish(rounds)
    }

    #[test]
    fn same_seed_same_digest_and_different_seed_different_digest() {
        for workload in [Workload::AiChatWarm, Workload::TraditionalHighrateLossy] {
            let rounds = 2 * WINDOWS_PER_ROUND;
            let a = short_rep(workload, 11, rounds);
            let b = short_rep(workload, 11, rounds);
            let c = short_rep(workload, 12, rounds);
            assert_eq!(a.digest, b.digest, "{}", workload.name());
            assert_ne!(a.digest, c.digest, "{}", workload.name());
            assert_eq!(a.sums, b.sums);
            assert_eq!(a.counts, b.counts);
            assert_eq!(a.tally.attempted, rounds as u64);
            assert_eq!(a.tally.failed, 0, "{:?}", a.tally.reasons);
        }
    }

    #[test]
    fn traditional_pushes_an_order_of_magnitude_more_packets_than_ai() {
        let ai = short_rep(Workload::AiChatWarm, 3, 2 * WINDOWS_PER_ROUND);
        let trad = short_rep(Workload::TraditionalHighrateLossy, 3, 2 * WINDOWS_PER_ROUND);
        assert!(
            trad.counts.packets_sent >= 10 * ai.counts.packets_sent,
            "trad {} vs ai {}",
            trad.counts.packets_sent,
            ai.counts.packets_sent
        );
        assert!(trad.sums.rtx > ai.sums.rtx);
    }
}
