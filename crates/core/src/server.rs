//! The multi-session throughput engine: [`ConversationChatServer`].
//!
//! The paper's deployment story is not one user: a production AI-video-chat service runs
//! *many* concurrent conversations, and the ROADMAP's north star is serving heavy traffic
//! as fast as the hardware allows. The server owns N independent [`Conversation`]s, each
//! on its **own** event kernel, and runs each one's chat turn across a [`MiniPool`], one
//! session per pool chunk, with a **static** session→lane mapping (session `i` always
//! executes on lane `i % lanes`):
//!
//! * **bit-identical results for any pool size** — a session's turn touches only the
//!   session's own state (its clock and event queue included), so where it runs cannot
//!   change what it computes (proven by the pool-size-independence property tests);
//! * **allocation-free steady state** — a session owns what it carries between turns, its
//!   lane owns the buffers a turn only uses while it runs (one `TurnScratch` and one
//!   `EncodedWindow` per lane), reports are plain values overwritten in place, and the pool
//!   dispatches without allocating, so once every lane has served its largest session
//!   `run_turns` performs zero heap allocations (guarded by `crates/bench/tests/zero_alloc.rs`);
//! * **near-linear scaling** — sessions share nothing mutable (one immutable `ClipModel`
//!   per server, behind an `Arc`), so throughput scales with lanes up to the core count
//!   (the `conversation_fleet_throughput_256` benchmark and the end-to-end benchmark's
//!   `fleet64_ai_warm` workload).
//!
//! Sessions running on server lanes use the sequential stage paths internally — the pool
//! rejects nested parallel sections, and across-session parallelism already saturates the
//! cores at server scale (DESIGN.md §"Threading model").

use crate::context_aware::{Streamer, StreamerConfig};
use crate::conversation::{Conversation, ConversationReport};
use crate::net_session::{FaultTelemetry, NetSessionOptions, NetTurnReport};
use crate::net_turn::{EncodedWindow, TurnScratch, EMPTY_TURN_WINDOW};
use aivc_metrics::SessionSnapshot;
use aivc_mllm::Question;
use aivc_netsim::LinkCounters;
use aivc_par::MiniPool;
use aivc_scene::Frame;
use aivc_semantics::ClipModel;
use aivc_sim::SimDuration;
use std::sync::Arc;

/// One session slot: the long-lived conversation plus the in-place report of its latest
/// turn.
#[derive(Debug)]
struct ServerSlot {
    session: Conversation,
    report: NetTurnReport,
}

/// A fleet of N independent long-lived [`Conversation`]s — each with its own event kernel,
/// persistent transport, congestion controller, in-flight packet set and think-time
/// rhythm — executing turns across a [`MiniPool`] with the static session→lane mapping
/// the module docs describe.
///
/// Each call to [`ConversationChatServer::run_turns`] advances *every* conversation by
/// one turn on **its own** timeline (turn `k + 1` starts where turn `k`'s deadline left
/// that conversation's clock, plus its think gap). Conversations never exchange events,
/// so the server has no timeline of its own and nothing to restrict: fleets may mix
/// think gaps, capture rates and drain windows, and may include conversations that have
/// already run turns. **Results are bit-identical for any pool size** and deterministic
/// across runs — property-tested at pool sizes 1/2/8.
#[derive(Debug)]
pub struct ConversationChatServer {
    pool: MiniPool,
    slots: Vec<ServerSlot>,
    /// One set of turn buffers per lane, lent to each of the lane's sessions for the length
    /// of its turn: a fleet's turn-transient memory scales with lanes, not with sessions.
    lane_buffers: Vec<(TurnScratch, EncodedWindow)>,
}

impl ConversationChatServer {
    /// Creates a server of `session_count` conversations sharing `template`'s network and
    /// ABR configuration, with per-session seeds `template.seed + i` and a common
    /// `think_gap`, on a pool of `pool_size` lanes. The conversations share what is
    /// immutable, built here once: the [`ClipModel`] behind one `Arc`, and the sender's
    /// Eq. 2 table, copied into each.
    pub fn new(
        pool_size: usize,
        session_count: usize,
        template: NetSessionOptions,
        think_gap: SimDuration,
    ) -> Self {
        let sender = Streamer::new(
            template.mode,
            StreamerConfig::default(),
            Arc::new(ClipModel::mobile_default()),
        );
        Self::with_sessions(
            MiniPool::new(pool_size),
            (0..session_count)
                .map(|i| {
                    let mut options = template.clone();
                    options.seed = template.seed.wrapping_add(i as u64);
                    Conversation::with_sender(options, |mode| sender.clone_in_mode(mode), think_gap)
                })
                .collect(),
        )
    }

    /// Creates a server from explicit conversations and a pool. Each conversation keeps
    /// the model it was built with (its own or a shared handle).
    pub fn with_sessions(pool: MiniPool, sessions: Vec<Conversation>) -> Self {
        let lane_buffers = (0..pool.lanes()).map(|_| Default::default()).collect();
        Self {
            pool,
            slots: sessions
                .into_iter()
                .map(|session| ServerSlot {
                    session,
                    report: NetTurnReport::placeholder(),
                })
                .collect(),
            lane_buffers,
        }
    }

    /// Number of pool lanes turns are spread across.
    pub fn pool_size(&self) -> usize {
        self.pool.lanes()
    }

    /// Number of conversations the server owns.
    pub fn session_count(&self) -> usize {
        self.slots.len()
    }

    fn sessions(&self) -> impl Iterator<Item = &Conversation> {
        self.slots.iter().map(|slot| &slot.session)
    }

    /// Advances every conversation by one turn (conversation `i` on lane `i % lanes`).
    /// Each session's report replaces its previous one in place. Per-session results are
    /// bit-identical to calling [`Conversation::run_turn`] directly, for any pool size.
    ///
    /// # Panics
    ///
    /// Panics on an empty `frames` window, before any conversation has moved.
    pub fn run_turns(&mut self, frames: &[Frame], question: &Question) {
        // Checked once for the whole fleet: inside the pool the panic would surface only
        // after every other lane had run its turn.
        assert!(!frames.is_empty(), "{EMPTY_TURN_WINDOW}");
        if self.slots.is_empty() {
            return;
        }
        let chunks = self.slots.len();
        self.pool.for_each_chunk(
            &mut self.slots,
            chunks,
            &mut self.lane_buffers,
            |_, slots, (scratch, window)| {
                for slot in slots {
                    slot.report = slot
                        .session
                        .run_turn_on(scratch, window, frames, question)
                        .clone();
                }
            },
        );
    }

    /// Pre-grows every conversation's history vectors (see
    /// [`Conversation::reserve_turns`]) so warmed steady-state turns never reallocate.
    pub fn reserve_turns(&mut self, additional_turns: usize, frames_per_turn: usize) {
        for slot in &mut self.slots {
            slot.session.reserve_turns(additional_turns, frames_per_turn);
        }
    }

    /// The latest per-turn report of every conversation, in session order.
    pub fn reports(&self) -> impl Iterator<Item = &NetTurnReport> {
        self.slots.iter().map(|slot| &slot.report)
    }

    /// The latest per-turn report of conversation `index`.
    pub fn report(&self, index: usize) -> &NetTurnReport {
        &self.slots[index].report
    }

    /// The full cross-turn report of conversation `index`.
    pub fn conversation_report(&self, index: usize) -> ConversationReport {
        self.slots[index].session.report()
    }

    /// A point-in-time reading of conversation `index`'s always-on counters.
    pub fn metrics_snapshot(&self, index: usize) -> SessionSnapshot {
        self.slots[index].session.metrics_snapshot()
    }

    /// The whole fleet's always-on counters, summed across sessions. One copy per session
    /// plus plain adds — entirely off the turn hot path.
    pub fn fleet_metrics(&self) -> SessionSnapshot {
        let mut total = SessionSnapshot::default();
        for session in self.sessions() {
            total.accumulate(&session.metrics_snapshot());
        }
        total
    }

    /// Fraction of the latest turn's answers that were correct — the service-level quality
    /// signal a deployment would watch.
    pub fn correct_fraction(&self) -> f64 {
        if self.slots.is_empty() {
            return 0.0;
        }
        self.reports().filter(|r| r.answer.correct).count() as f64 / self.slots.len() as f64
    }

    /// Mean model-assigned probability of a correct answer across conversations.
    pub fn mean_probability_correct(&self) -> f64 {
        if self.slots.is_empty() {
            return 0.0;
        }
        self.reports().map(|r| r.answer.probability_correct).sum::<f64>() / self.slots.len() as f64
    }

    /// One fleet-level serving snapshot: session and turn counts, every conversation's
    /// uplink [`LinkCounters`] summed, the fault telemetry rolled up across sessions, the
    /// always-on counter rollup and the latest turn's answer quality. Assembled from
    /// per-session snapshots the transports already keep — the turn hot path pays
    /// nothing for it.
    pub fn serving_report(&self) -> ServingReport {
        let mut uplink = LinkCounters::default();
        let mut resilience = FaultTelemetry::default();
        let mut counters = SessionSnapshot::default();
        let mut turns_completed = 0;
        for session in self.sessions() {
            turns_completed += session.turn_count();
            uplink.add(&session.link_counters());
            resilience.absorb(&session.fault_telemetry());
            counters.accumulate(&session.metrics_snapshot());
        }
        ServingReport {
            sessions: self.session_count(),
            turns_completed,
            uplink,
            resilience,
            counters,
            correct_fraction: self.correct_fraction(),
        }
    }
}

/// A fleet-level snapshot of a [`ConversationChatServer`]: what operations would put on
/// one dashboard line. [`std::fmt::Display`] renders exactly that line.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingReport {
    /// Conversations the server owns.
    pub sessions: usize,
    /// Turns completed across all conversations.
    pub turns_completed: usize,
    /// Sum of every conversation's uplink counters.
    pub uplink: LinkCounters,
    /// Fault telemetry rolled up across conversations (first finite recovery wins).
    pub resilience: FaultTelemetry,
    /// Always-on counter rollup: every session's [`SessionSnapshot`] summed.
    pub counters: SessionSnapshot,
    /// Fraction of the latest turn's answers that were correct.
    pub correct_fraction: f64,
}

impl ServingReport {
    /// Percentage of the latest turn's answers that were correct, or `None` on an empty
    /// fleet / before any turn ran — a 0-session server has no answer quality, and
    /// rendering it as `0%` (or `NaN%`) would misreport "no data" as "all wrong".
    fn percent_correct(&self) -> Option<f64> {
        (self.turns_completed > 0).then_some(self.correct_fraction * 100.0)
    }
}

impl std::fmt::Display for ServingReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "serving {} sessions | {} turns | uplink {}/{} pkts ({} B, {} queue-drop, {} lost, {} outage-drop) | \
             {} fallbacks, {} shed, ttr {} | {} correct",
            self.sessions,
            self.turns_completed,
            self.uplink.delivered,
            self.uplink.offered,
            self.uplink.delivered_bytes,
            self.uplink.dropped_queue,
            self.uplink.lost_random,
            self.uplink.outage_drops,
            self.resilience.watchdog_fallbacks,
            self.resilience.frames_shed,
            match self.resilience.time_to_recover_ms {
                Some(ms) => format!("{ms:.0} ms"),
                None => "-".to_string(),
            },
            // An empty fleet renders "-%" instead of a number: see `percent_correct`.
            match self.percent_correct() {
                Some(pct) => format!("{pct:.0}%"),
                None => "-%".to_string(),
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aivc_mllm::QuestionFormat;
    use aivc_scene::templates::basketball_game;
    use aivc_scene::{Ontology, SourceConfig, VideoSource};
    use aivc_semantics::ClipConfig;

    fn window() -> Vec<Frame> {
        let source = VideoSource::new(basketball_game(1), SourceConfig::fps30(6.0));
        (0..4).map(|i| source.frame(i * 15)).collect()
    }

    fn question() -> Question {
        Question::from_fact(&basketball_game(1).facts[0], QuestionFormat::FreeResponse)
    }

    fn net_template(seed: u64) -> NetSessionOptions {
        let mut options =
            NetSessionOptions::ai_oriented(seed, aivc_netsim::PathConfig::paper_section_2_2(0.01));
        options.capture_fps = 8.0;
        options
    }

    #[test]
    fn conversation_server_matches_standalone_conversations_across_turns() {
        let q = question();
        let think = SimDuration::from_millis(600);
        let mut server = ConversationChatServer::new(2, 3, net_template(70), think);
        for t in 0..3 {
            server.run_turns(&turn_window(t), &q);
        }
        for i in 0..3 {
            let mut options = net_template(70);
            options.seed += i as u64;
            let mut standalone = Conversation::with_defaults(options, think);
            for t in 0..3 {
                standalone.run_turn(&turn_window(t), &q);
            }
            assert_eq!(
                server.conversation_report(i),
                standalone.report(),
                "conversation {i}"
            );
        }
        assert!(server.mean_probability_correct() > 0.5);
    }

    fn turn_window(turn: usize) -> Vec<Frame> {
        let source = VideoSource::new(basketball_game(1), SourceConfig::fps30(6.0));
        (0..4)
            .map(|i| source.frame(((turn * 4 + i) * 11 % 170) as u64))
            .collect()
    }

    #[test]
    fn serving_report_rolls_the_fleet_into_one_line() {
        let q = question();
        let think = SimDuration::from_millis(400);
        let mut server = ConversationChatServer::new(2, 3, net_template(80), think);
        for t in 0..2 {
            server.run_turns(&turn_window(t), &q);
        }
        let report = server.serving_report();
        assert_eq!(report.sessions, 3);
        assert_eq!(report.turns_completed, 6);
        assert!(
            report.uplink.offered >= report.uplink.delivered && report.uplink.delivered > 0,
            "summed counters must reflect real traffic: {:?}",
            report.uplink
        );
        // The sum reconciles with per-session resilience rollups.
        let mut expected = FaultTelemetry::default();
        for i in 0..3 {
            expected.absorb(&server.conversation_report(i).resilience);
        }
        assert_eq!(report.resilience, expected);
        let line = report.to_string();
        assert!(line.contains("serving 3 sessions"), "{line}");
        assert!(line.contains("6 turns"), "{line}");
        assert!(line.contains("% correct"), "{line}");
    }

    #[test]
    fn conversation_server_is_pool_size_independent() {
        let q = question();
        let collect = |pool_size: usize| {
            let mut server =
                ConversationChatServer::new(pool_size, 4, net_template(90), SimDuration::from_millis(300));
            for t in 0..2 {
                server.run_turns(&turn_window(t), &q);
            }
            (0..4).map(|i| server.conversation_report(i)).collect::<Vec<_>>()
        };
        let sequential = collect(1);
        assert_eq!(collect(2), sequential);
        assert_eq!(collect(8), sequential);
    }

    /// The always-on counter rollup reconciles *exactly* with per-session report sums —
    /// at every pool size. Turn-committed counters are batch-added at turn conclusion
    /// from the same numbers the `NetTurnReport` carries, so any drift here means an
    /// event site double-counts or a commit was skipped.
    #[test]
    fn fleet_metrics_reconcile_with_report_sums_at_any_pool_size() {
        let q = question();
        for pool_size in [1usize, 2, 8] {
            let mut server =
                ConversationChatServer::new(pool_size, 5, net_template(60), SimDuration::from_millis(350));
            for t in 0..3 {
                server.run_turns(&turn_window(t), &q);
            }
            let mut fleet = SessionSnapshot::default();
            for i in 0..5 {
                let snap = server.metrics_snapshot(i);
                let report = server.conversation_report(i);
                let sum = |f: fn(&NetTurnReport) -> u64| report.turns.iter().map(f).sum::<u64>();
                assert_eq!(
                    snap.frames_sent,
                    sum(|t| t.frames_sent as u64),
                    "pool {pool_size} session {i}"
                );
                assert_eq!(snap.frames_delivered, sum(|t| t.frames_delivered as u64));
                assert_eq!(snap.fec_recovered_frames, sum(|t| t.fec_recovered_frames));
                assert_eq!(snap.packets_lost, sum(|t| t.packets_lost));
                assert_eq!(snap.retransmissions_sent, sum(|t| t.retransmissions_sent));
                assert_eq!(snap.frames_shed, report.resilience.frames_shed);
                assert_eq!(snap.captures_suppressed, report.resilience.captures_suppressed);
                assert_eq!(snap.watchdog_fallbacks, report.resilience.watchdog_fallbacks);
                fleet.accumulate(&snap);
            }
            assert_eq!(server.fleet_metrics(), fleet, "pool {pool_size}");
            assert_eq!(server.serving_report().counters, fleet, "pool {pool_size}");
        }
    }

    /// An empty fleet (or one that has not run a turn) has *no* answer quality: the
    /// report must say "no data", not render `NaN%` or claim `0%` correct.
    #[test]
    fn empty_fleet_serving_report_renders_without_dividing_by_zero() {
        let mut server = ConversationChatServer::new(2, 0, net_template(1), SimDuration::from_millis(100));
        server.run_turns(&turn_window(0), &question());
        assert_eq!((server.session_count(), server.pool_size()), (0, 2));
        assert_eq!(server.reports().count(), 0);
        assert_eq!(server.correct_fraction(), 0.0);
        assert_eq!(server.mean_probability_correct(), 0.0);
        let report = server.serving_report();
        assert_eq!(report.sessions, 0);
        assert_eq!(report.turns_completed, 0);
        assert_eq!(report.percent_correct(), None);
        let line = report.to_string();
        assert!(line.contains("serving 0 sessions"), "{line}");
        assert!(line.contains("-% correct"), "{line}");
        assert!(!line.contains("NaN"), "{line}");
    }

    /// A window of `count` frames of the basketball clip squeezed onto a `width` × `height`
    /// canvas (objects keep their 1080p coordinates and are clipped) — a second frame
    /// geometry for the buffers a lane carries from one session's turn into the next.
    fn sized_window(width: u32, height: u32, first: u64, count: u64) -> Vec<Frame> {
        let mut scene = basketball_game(1);
        (scene.width, scene.height) = (width, height);
        let source = VideoSource::new(scene, SourceConfig::fps30(6.0));
        (0..count).map(|i| source.frame(first + i * 11)).collect()
    }

    /// A fleet whose members differ in everything a lane's turn buffers could leak from
    /// one session into the next: think gap, capture rate and drain window, context-aware
    /// next to baseline encoding, a 64-px next to a 32-px CLIP patch grid (resampled onto
    /// the CTU grid), a blackout with the degradation ladder on — its suppressed and
    /// shed captures leave their slot holding whatever the lane's previous session encoded
    /// there — and a member that has already run a turn of its own.
    fn mixed_fleet(q: &Question) -> Vec<Conversation> {
        use aivc_netsim::FaultSchedule;
        use aivc_sim::SimTime;
        // (think ms, capture fps, drain s, baseline, blackout, patch px)
        let members = [
            (100u64, 8.0, 0.3, false, false, 64u32),
            (250, 12.0, 0.3, true, false, 64),
            (100, 8.0, 0.9, false, true, 64),
            (250, 12.0, 0.9, false, false, 32),
            (100, 8.0, 0.3, true, true, 64),
            (250, 8.0, 0.3, false, false, 64),
        ];
        let mut fleet: Vec<Conversation> = members
            .iter()
            .enumerate()
            .map(
                |(i, &(think_ms, fps, drain_secs, baseline, blackout, patch_size))| {
                    let seed = 50 + i as u64;
                    let path = aivc_netsim::PathConfig::paper_section_2_2(0.01);
                    let mut options = if baseline {
                        NetSessionOptions::traditional(seed, path)
                    } else {
                        NetSessionOptions::ai_oriented(seed, path)
                    };
                    options.capture_fps = fps;
                    options.drain_secs = drain_secs;
                    if blackout {
                        // Half a second of silence from the second capture of the second
                        // (six-frame) turn on, which opens one think gap after the first
                        // (two-frame) turn's deadline.
                        let second_turn_secs = 1.0 / fps + drain_secs + think_ms as f64 / 1e3;
                        options = options.with_resilience();
                        options.path.uplink.faults = FaultSchedule::blackout(
                            SimTime::from_secs_f64(second_turn_secs + 1.5 / fps),
                            SimDuration::from_millis(500),
                        );
                    }
                    Conversation::new(
                        options,
                        StreamerConfig::default(),
                        ClipModel::new(ClipConfig { patch_size }, Ontology::standard()),
                        SimDuration::from_millis(think_ms),
                    )
                },
            )
            .collect();
        fleet[5].run_turn(&window(), q);
        fleet
    }

    /// Turns of 2, then 6, then 3 frames, 1080p → 720p → 1080p: every slot of a lane's
    /// encoded window is reused across frame counts and geometries.
    fn mixed_turns() -> [Vec<Frame>; 3] {
        [
            sized_window(1920, 1080, 0, 2),
            sized_window(1280, 720, 30, 6),
            sized_window(1920, 1080, 90, 3),
        ]
    }

    /// Every conversation runs on its own kernel and carries its own state, so a fleet
    /// needs no common geometry and no fresh members, and the scratch its lanes lend out
    /// carries nothing: the fleet of [`mixed_fleet`] serves exactly like the same
    /// conversations standalone, at any pool size (any grouping of members onto lanes),
    /// and the counter rollup still reconciles exactly with the report sums.
    #[test]
    fn mixed_geometry_and_used_members_match_standalone_at_any_pool_size() {
        let q = question();
        let turns = mixed_turns();
        let mut standalone = mixed_fleet(&q);
        for session in &mut standalone {
            for frames in &turns {
                session.run_turn(frames, &q);
            }
        }
        for blacked_out in [2, 4] {
            let resilience = standalone[blacked_out].fault_telemetry();
            assert!(
                resilience.captures_suppressed + resilience.frames_shed > 0,
                "member {blacked_out} must leave captures unencoded: {resilience:?}"
            );
        }
        for pool_size in [1usize, 2, 8] {
            let mut server = ConversationChatServer::with_sessions(MiniPool::new(pool_size), mixed_fleet(&q));
            for frames in &turns {
                server.run_turns(frames, &q);
            }
            let mut sent = 0;
            let mut lost = 0;
            for (i, expected) in standalone.iter().enumerate() {
                let report = server.conversation_report(i);
                assert_eq!(report, expected.report(), "pool {pool_size} conversation {i}");
                sent += report.turns.iter().map(|t| t.frames_sent as u64).sum::<u64>();
                lost += report.turns.iter().map(|t| t.packets_lost).sum::<u64>();
            }
            let fleet_metrics = server.fleet_metrics();
            assert_eq!(fleet_metrics.frames_sent, sent, "pool {pool_size}");
            assert_eq!(fleet_metrics.packets_lost, lost, "pool {pool_size}");
        }
    }

    /// Whose scratch a turn runs on is invisible to the conversation: one that alternates
    /// fleet turns (the lane's scratch, shared with a neighbour) with standalone turns and
    /// think gaps (its own) reports exactly what an all-standalone twin does.
    #[test]
    fn alternating_standalone_and_fleet_turns_match_an_all_standalone_twin() {
        let q = question();
        let think = SimDuration::from_millis(300);
        let pair = || -> Vec<Conversation> {
            (0..2)
                .map(|i| Conversation::with_defaults(net_template(30 + i), think))
                .collect()
        };
        let mut twins = pair();
        let mut server = ConversationChatServer::with_sessions(MiniPool::new(1), pair());
        for t in 0..6 {
            let frames = turn_window(t);
            if t % 2 == 0 {
                server.run_turns(&frames, &q);
                for twin in &mut twins {
                    twin.run_turn(&frames, &q);
                }
            } else {
                // Only member 0 steps outside the fleet; its neighbour keeps the lane busy.
                for member in [&mut server.slots[0].session, &mut twins[0]] {
                    member.run_turn(&frames, &q);
                    member.think(SimDuration::from_millis(150));
                }
            }
        }
        for (i, twin) in twins.iter().enumerate() {
            assert_eq!(server.conversation_report(i), twin.report(), "conversation {i}");
        }
    }

    /// A server builds one model and hands every conversation a handle to it.
    #[test]
    fn a_server_builds_one_model_for_all_its_sessions() {
        let server = ConversationChatServer::new(2, 5, net_template(1), SimDuration::from_millis(100));
        let model_of =
            |slot: &ServerSlot| std::ptr::from_ref(slot.session.member.compute.sender.clip_model());
        let first = model_of(&server.slots[0]);
        assert!(server.slots.iter().all(|slot| model_of(slot) == first));
    }

    /// An empty capture window is rejected for the whole fleet before any lane starts:
    /// every conversation — clock, history, counters — is where it was, and the fleet's
    /// next real turn equals that of a fleet that never saw the empty call.
    #[test]
    fn an_empty_window_is_rejected_before_any_conversation_moves() {
        let q = question();
        let fleet = || ConversationChatServer::new(2, 3, net_template(20), SimDuration::from_millis(400));
        let (mut server, mut twin) = (fleet(), fleet());
        server.run_turns(&turn_window(0), &q);
        twin.run_turns(&turn_window(0), &q);
        let clocks = |s: &ConversationChatServer| s.sessions().map(Conversation::now).collect::<Vec<_>>();
        let before = clocks(&server);
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| server.run_turns(&[], &q)))
            .expect_err("an empty window must be rejected");
        assert_eq!(
            panic.downcast_ref::<String>().map(String::as_str),
            Some(EMPTY_TURN_WINDOW)
        );
        assert_eq!(clocks(&server), before);
        for i in 0..3 {
            assert_eq!(server.conversation_report(i), twin.conversation_report(i));
        }
        server.run_turns(&turn_window(1), &q);
        twin.run_turns(&turn_window(1), &q);
        for i in 0..3 {
            assert_eq!(server.conversation_report(i), twin.conversation_report(i));
        }
        assert_eq!(server.fleet_metrics(), twin.fleet_metrics());
    }
}
