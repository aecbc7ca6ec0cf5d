//! Continuous multi-turn conversations: [`Conversation`].
//!
//! The paper's §2.2 loop is conversational — an MLLM chat is a *sequence* of turns over
//! one long-lived connection, and everything a real connection carries from one turn to
//! the next matters: GCC warm-up, pacer backlog, in-flight packets, NACK history and the
//! bandwidth trace's position. A [`Conversation`] keeps **one timeline**: the `aivc-sim`
//! kernel's clock and event queue, the emulated uplink (and therefore the trace cursor and
//! bottleneck queue), the congestion controller, pacer, packetizer sequence space, RTX
//! store and FEC/NACK machinery all persist across turns. Turn `k + 1` starts at the
//! simulated time turn `k`'s answer deadline passed, plus the user's think time, during
//! which in-flight packets keep arriving and pending retransmissions keep flowing. A
//! single turn is simply a conversation that runs one.
//!
//! What this buys, measurably (the [`ConversationReport`] cross-turn aggregates):
//!
//! * **warm vs cold GCC convergence** — turn 0 starts from the configured initial estimate
//!   and swings its ABR target while the controller converges; later turns start from the
//!   previous turn's final estimate and hold ([`ConversationReport::turn_target_swing_bps`]:
//!   entry 0 against the rest);
//! * **carry-over queue delay** — a turn that overshot the link leaves a standing queue
//!   the next turn inherits ([`ConversationReport::carryover_queue_delay_ms`]);
//! * **per-conversation percentiles** — p50/p95 frame latency over *every* turn's frames,
//!   the number a service-level objective would actually track.
//!
//! Memory stays bounded by the live turn: once a turn is reported, its reassembly, FEC and
//! sequence-mapping state is retired (`net_turn::conclude_turn_window`), so a conversation
//! can run indefinitely — the steady-state benchmark (`conversation_turn_warm`) runs
//! thousands of turns on one instance.
//!
//! The conversation's state minus its timeline is a `Member`. A conversation is the one
//! member of a timeline of its own — its kernel and a one-flow uplink seeded like the
//! session — and a [`crate::contention`] tenant one of K on a shared one; both run on the
//! one driver (`net_turn::Driver`) and open and conclude their turns through the same two
//! functions, `Member::begin_turn` and `Member::conclude_turn`.

use crate::context_aware::{Streamer, StreamerConfig};
use crate::net_session::{FaultTelemetry, FrameDelivery, NetSessionOptions, NetTurnReport};
use crate::net_turn::{
    begin_turn_window, conclude_turn_window, Driver, EncodedWindow, Event, NetCompute, Seat, Transport,
    TurnMachine, TurnPlan, TurnScratch, EMPTY_TURN_WINDOW,
};
use crate::session::StreamingMode;
use aivc_mllm::Question;
use aivc_netsim::{LatencyStats, LinkCounters, SharedLink};
use aivc_rtc::cc::GccController;
use aivc_scene::Frame;
use aivc_semantics::ClipModel;
use aivc_sim::{SimDuration, SimTime, Simulation};
use serde::Serialize;
use std::sync::Arc;

/// The report of a whole conversation: every turn's [`NetTurnReport`] plus the cross-turn
/// aggregates only a shared timeline can produce.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ConversationReport {
    /// Per-turn reports, in turn order.
    pub turns: Vec<NetTurnReport>,
    /// The GCC bandwidth estimate when each turn began. Index 0 is the cold start (the
    /// configured initial estimate); entry `k + 1` equals `turns[k].final_estimate_bps` —
    /// transport state persists across turns, and the controller moves only on a turn's
    /// captures.
    pub estimate_at_turn_start_bps: Vec<f64>,
    /// Uplink queueing backlog (ms) each turn inherited from its predecessor's traffic.
    pub carryover_queue_delay_ms: Vec<f64>,
    /// Within-turn spread (max − min) of the per-frame ABR target, per turn: a cold
    /// controller swings while it converges, a warm one holds near its operating point.
    pub turn_target_swing_bps: Vec<f64>,
    /// Median frame transmission latency across every turn's delivered frames.
    pub p50_frame_latency_ms: f64,
    /// 95th-percentile frame transmission latency across every turn's delivered frames —
    /// the per-conversation tail a service-level objective tracks.
    pub p95_frame_latency_ms: f64,
    /// Mean of the per-turn goodputs.
    pub mean_goodput_bps: f64,
    /// NACK requests dropped by deadline-aware suppression over the conversation.
    pub nacks_suppressed: u64,
    /// Conversation-level fault/resilience telemetry: counters summed over every turn,
    /// `outage_ms` accumulated across turn windows, and `time_to_recover_ms` from the first
    /// turn that observed a recovery. All-zero — and omitted from serialization, keeping
    /// fault-free fixtures byte-identical — when no faults or resilience features ran.
    #[serde(skip_serializing_if = "FaultTelemetry::is_quiet")]
    pub resilience: FaultTelemetry,
}

impl ConversationReport {
    /// Fraction of turns answered correctly.
    pub fn correct_fraction(&self) -> f64 {
        if self.turns.is_empty() {
            return 0.0;
        }
        self.turns.iter().filter(|t| t.answer.correct).count() as f64 / self.turns.len() as f64
    }
}

/// Everything one conversation carries from turn to turn except its timeline: the chat
/// pipeline, the congestion controller, the transport and the per-turn history behind the
/// [`ConversationReport`]. Whoever drives it owns the kernel, the uplink, the
/// [`TurnScratch`] and the [`EncodedWindow`], and hands every call the uplink the packets
/// ride and the member's index on the timeline (its flow on that uplink).
#[derive(Debug)]
pub(crate) struct Member {
    pub(crate) compute: NetCompute,
    pub(crate) gcc: GccController,
    transport: Transport,
    /// The live (or most recent) turn's plan.
    pub(crate) plan: TurnPlan,
    pub(crate) turns: Vec<NetTurnReport>,
    carryover_queue_delay_ms: Vec<f64>,
    turn_target_swing_bps: Vec<f64>,
    frame_latencies: Vec<SimDuration>,
}

impl Member {
    /// A copy of the member's always-on counters as they stand.
    pub(crate) fn metrics_snapshot(&self) -> aivc_metrics::SessionSnapshot {
        self.transport.metrics_snapshot()
    }

    /// A member on the sender `sender` makes in `options.mode`: a conversation's own, or a
    /// copy of the one its server or contention run built.
    pub(crate) fn new(options: NetSessionOptions, sender: impl FnOnce(StreamingMode) -> Streamer) -> Self {
        let gcc = GccController::new(options.gcc);
        Self {
            transport: Transport::new(&options, gcc.estimate_bps()),
            // The sender is made after the transport allocates: with the Eq. 2 table ahead
            // of the transport's buffers on the heap, the warm turn runs ≈ 0.7 % slower
            // (`ai_chat_warm`).
            compute: NetCompute::new(options, sender),
            gcc,
            plan: TurnPlan::default(),
            turns: Vec::new(),
            carryover_queue_delay_ms: Vec::new(),
            turn_target_swing_bps: Vec::new(),
            frame_latencies: Vec::new(),
        }
    }

    /// Opens the next turn window at `now`: records the backlog inherited on `uplink`, then
    /// schedules the captures onto `sim` as member `member`'s. The timeline drains to the
    /// new `plan.horizon`, routing this member's events to [`Member::machine`], and then
    /// calls [`Member::conclude_turn`].
    pub(crate) fn begin_turn(
        &mut self,
        now: SimTime,
        uplink: &SharedLink,
        member: usize,
        sim: &mut Simulation<Event>,
        frame_count: usize,
        question: &Question,
    ) {
        self.carryover_queue_delay_ms
            .push(uplink.backlog(now).as_millis_f64());
        self.plan = begin_turn_window(
            &mut self.compute,
            &mut self.transport,
            now,
            sim,
            member,
            frame_count,
            question,
        );
    }

    /// The event handler for this member's transport events, riding `uplink` as flow
    /// `member`. `frames` is the open turn's capture window; between turns (deliveries,
    /// polls, retransmissions only — no capture is pending) neither it, `scratch` nor
    /// `window` is read, and it may be empty.
    pub(crate) fn machine<'a>(
        &'a mut self,
        scratch: &'a mut TurnScratch,
        window: &'a mut EncodedWindow,
        frames: &'a [Frame],
        uplink: &'a mut SharedLink,
        member: usize,
    ) -> TurnMachine<'a> {
        TurnMachine {
            compute: &mut self.compute,
            scratch,
            window,
            gcc: &mut self.gcc,
            t: &mut self.transport,
            frames,
            plan: self.plan,
            uplink,
            member,
        }
    }

    /// Concludes the open turn once the timeline drained to its horizon: decode (out of
    /// the `window` the turn's machine encoded into), answer and report, then record the
    /// turn's swing and latencies. Returns the stored report.
    pub(crate) fn conclude_turn(
        &mut self,
        scratch: &mut TurnScratch,
        window: &mut EncodedWindow,
        uplink: &mut SharedLink,
        member: usize,
        question: &Question,
    ) -> &NetTurnReport {
        let report = conclude_turn_window(self.machine(scratch, window, &[], uplink, member), question);
        self.turn_target_swing_bps
            .push(self.transport.turn_target_swing_bps());
        self.frame_latencies
            .extend(self.transport.turn_deliveries.iter().map(FrameDelivery::latency));
        self.turns.push(report);
        self.turns.last().expect("just pushed")
    }

    /// Roll-up of the fault telemetry across every turn run so far.
    fn fault_telemetry(&self) -> FaultTelemetry {
        let mut resilience = FaultTelemetry::default();
        for t in &self.turns {
            resilience.absorb(&t.resilience);
        }
        resilience
    }

    /// Assembles the conversation-level report (per-turn reports + cross-turn aggregates).
    pub(crate) fn report(&self) -> ConversationReport {
        let mut latency = LatencyStats::new();
        for d in &self.frame_latencies {
            latency.record(*d);
        }
        let mean_goodput_bps = if self.turns.is_empty() {
            0.0
        } else {
            self.turns.iter().map(|t| t.goodput_bps).sum::<f64>() / self.turns.len() as f64
        };
        ConversationReport {
            turns: self.turns.clone(),
            // Only a turn's captures move the controller (feedback folds, watchdog polls,
            // a starvation escalation inside its capture span), so each turn starts from
            // its predecessor's final estimate.
            estimate_at_turn_start_bps: std::iter::once(self.compute.options.gcc.initial_estimate_bps)
                .chain(self.turns.iter().map(|t| t.final_estimate_bps))
                .take(self.turns.len())
                .collect(),
            carryover_queue_delay_ms: self.carryover_queue_delay_ms.clone(),
            turn_target_swing_bps: self.turn_target_swing_bps.clone(),
            p50_frame_latency_ms: latency.percentile_ms(0.5),
            p95_frame_latency_ms: latency.p95_ms(),
            mean_goodput_bps,
            nacks_suppressed: self.transport.nacks_suppressed(),
            resilience: self.fault_telemetry(),
        }
    }
}

/// One continuous multi-turn conversation over a persistent transport timeline. See the
/// module docs; construct with [`Conversation::with_defaults`], run turns with
/// [`Conversation::run_turn`] (the configured think gap is inserted automatically between
/// turns), and read the cross-turn aggregates with [`Conversation::report`].
#[derive(Debug)]
pub struct Conversation {
    pub(crate) member: Member,
    /// The timeline the member rides alone.
    timeline: Timeline,
    think_gap: SimDuration,
    /// The per-event buffers of standalone turns. A conversation served by a fleet runs
    /// on its lane's instead and never grows these (nor `window`).
    scratch: TurnScratch,
    /// The encoded frames of standalone turns.
    window: EncodedWindow,
}

impl Conversation {
    /// Creates a conversation with explicit compute configuration. `think_gap` is the
    /// user's think time inserted before every turn after the first (in-flight packets
    /// keep arriving and pending retransmissions keep flowing during it). The model is
    /// immutable, so conversations may share one: pass a [`ClipModel`] by value or clone
    /// an `Arc<ClipModel>` handle.
    ///
    /// # Panics
    ///
    /// Panics when `options` fail [`NetSessionOptions::validate`], `think_gap` is longer
    /// than 1e6 s, or `config`'s γ fails [`crate::QpAllocator::try_new`], with a message
    /// naming the field.
    pub fn new(
        options: NetSessionOptions,
        config: StreamerConfig,
        clip_model: impl Into<Arc<ClipModel>>,
        think_gap: SimDuration,
    ) -> Self {
        let clip_model = clip_model.into();
        Self::with_sender(options, |mode| Streamer::new(mode, config, clip_model), think_gap)
    }

    /// A conversation on the sender `sender` makes in `options.mode`: its own, or a copy of
    /// the one its server built for every session.
    ///
    /// # Panics
    ///
    /// Panics when `options` fail [`NetSessionOptions::validate`] or `think_gap` is longer
    /// than 1e6 s — before `sender` runs, so a bad option is refused before a bad γ — with
    /// a message naming the field.
    pub(crate) fn with_sender(
        options: NetSessionOptions,
        sender: impl FnOnce(StreamingMode) -> Streamer,
        think_gap: SimDuration,
    ) -> Self {
        if let Err(e) = options.validate() {
            panic!("{e}");
        }
        if let Err(error) = think_gap.check_bound() {
            panic!("think_gap {error}");
        }
        Self {
            timeline: Timeline {
                sim: Simulation::new(),
                uplink: SharedLink::new(options.path.uplink.clone(), options.seed, 1),
            },
            member: Member::new(options, sender),
            think_gap,
            scratch: TurnScratch::default(),
            window: EncodedWindow::default(),
        }
    }

    /// A conversation with the paper's compute defaults (γ = 3 allocator, Mobile-CLIP-class
    /// model at 64-px patches).
    pub fn with_defaults(options: NetSessionOptions, think_gap: SimDuration) -> Self {
        Self::new(
            options,
            StreamerConfig::default(),
            ClipModel::mobile_default(),
            think_gap,
        )
    }

    /// The session options.
    pub fn options(&self) -> &NetSessionOptions {
        &self.member.compute.options
    }

    /// The current simulated time — the conversation's single monotonic clock.
    pub fn now(&self) -> SimTime {
        self.timeline.sim.now()
    }

    /// Events the conversation's kernel has handled so far — popped off its heap or fired
    /// inline behind a stream head: how much work its timeline did, as a count that is the
    /// same on every box.
    pub fn events_handled(&self) -> u64 {
        self.timeline.sim.events_popped() + self.timeline.sim.events_inline()
    }

    /// Number of turns run so far.
    pub fn turn_count(&self) -> usize {
        self.member.turns.len()
    }

    /// The per-turn reports so far.
    pub fn turns(&self) -> &[NetTurnReport] {
        &self.member.turns
    }

    /// A point-in-time reading of this conversation's always-on serving counters — a copy
    /// of the plain `SessionSnapshot` the transport ticks as it works, taken entirely off
    /// the hot path (see the `aivc-metrics` crate docs for why no atomics are needed).
    pub fn metrics_snapshot(&self) -> aivc_metrics::SessionSnapshot {
        self.member.metrics_snapshot()
    }

    /// Snapshot of the conversation's cumulative uplink [`LinkCounters`] — offered,
    /// delivered, queue-dropped, randomly lost, duplicated, reordered and outage-dropped
    /// packets since the conversation began. Reads the uplink's existing totals; the
    /// transport hot path keeps no extra bookkeeping for it.
    pub fn link_counters(&self) -> LinkCounters {
        self.timeline.uplink.counters()
    }

    /// Roll-up of the fault telemetry across every turn run so far (same aggregation as
    /// [`Conversation::report`], available mid-conversation without assembling a report).
    pub fn fault_telemetry(&self) -> FaultTelemetry {
        self.member.fault_telemetry()
    }

    /// The frames the most recent turn delivered before its deadline, in capture order:
    /// capture time, send start and completion of each. Overwritten by the next turn —
    /// a caller that wants a distribution over many turns (Figure 3's mean / p99) folds
    /// this after each one; the conversation itself keeps only the latencies behind
    /// [`ConversationReport`]'s percentiles.
    pub fn last_turn_deliveries(&self) -> &[FrameDelivery] {
        &self.member.transport.turn_deliveries
    }

    /// Runs the next turn of the conversation, starting at the current simulated time
    /// (plus the configured think gap, for every turn after the first). The transport —
    /// link, trace cursor, queue backlog, GCC, pacer, sequence space, recovery machinery —
    /// is exactly as the previous turn left it.
    ///
    /// # Panics
    ///
    /// Panics on an empty `frames` window, before anything has moved: the clock, the
    /// transport and the history behind [`Conversation::report`] are as they were.
    pub fn run_turn(&mut self, frames: &[Frame], question: &Question) -> NetTurnReport {
        self.run_turn_in_place(frames, question).clone()
    }

    /// [`Conversation::run_turn`] without the returned-report clone: the report is pushed
    /// onto the history by move and handed back by reference. Combined with
    /// [`Conversation::reserve_turns`], a warmed conversation's turn is allocation-free
    /// end to end (the `zero_alloc` harness asserts exactly that).
    pub fn run_turn_in_place(&mut self, frames: &[Frame], question: &Question) -> &NetTurnReport {
        let Self {
            member,
            timeline,
            think_gap,
            scratch,
            window,
        } = self;
        timeline.run_turn(member, *think_gap, scratch, window, frames, question)
    }

    /// A turn on the buffers of the fleet lane that serves this conversation.
    pub(crate) fn run_turn_on(
        &mut self,
        scratch: &mut TurnScratch,
        window: &mut EncodedWindow,
        frames: &[Frame],
        question: &Question,
    ) -> &NetTurnReport {
        self.timeline.run_turn(
            &mut self.member,
            self.think_gap,
            scratch,
            window,
            frames,
            question,
        )
    }

    /// Pre-grows the per-turn history vectors for `additional_turns` more turns of
    /// `frames_per_turn` frames each, so the pushes inside those turns are guaranteed
    /// not to reallocate. Purely an optimization — capacity is a lower bound, never a cap.
    pub fn reserve_turns(&mut self, additional_turns: usize, frames_per_turn: usize) {
        let m = &mut self.member;
        m.turns.reserve(additional_turns);
        m.carryover_queue_delay_ms.reserve(additional_turns);
        m.turn_target_swing_bps.reserve(additional_turns);
        m.frame_latencies.reserve(additional_turns * frames_per_turn);
    }

    /// Assembles the conversation-level report (per-turn reports + cross-turn aggregates).
    pub fn report(&self) -> ConversationReport {
        self.member.report()
    }
}

/// A conversation's own timeline: the kernel and the uplink its one member rides — a link
/// of its own, seeded `options.seed`, which is bit-identical to a private [`aivc_netsim::Link`].
#[derive(Debug)]
struct Timeline {
    sim: Simulation<Event>,
    uplink: SharedLink,
}

/// A conversation's member is the only one on its timeline: index 0, flow 0 of its uplink.
const MEMBER: usize = 0;

impl Timeline {
    /// Drains the timeline to `horizon` through the one driver, `frames` being the open
    /// turn's window (empty in a think gap).
    fn drain(
        &mut self,
        member: &mut Member,
        scratch: &mut TurnScratch,
        window: &mut EncodedWindow,
        frames: &[Frame],
        horizon: SimTime,
    ) {
        let mut seats = [Seat {
            member,
            window,
            frames,
        }];
        let mut driver = Driver {
            seats: &mut seats,
            uplink: &mut self.uplink,
            scratch,
            contention: None,
        };
        self.sim.run_until(horizon, &mut driver);
    }

    /// The turn itself, on the turn buffers of whoever drives it: the conversation's own
    /// for a standalone turn, the lane's when a fleet serves it. The one code path.
    fn run_turn<'m>(
        &mut self,
        member: &'m mut Member,
        think_gap: SimDuration,
        scratch: &mut TurnScratch,
        window: &mut EncodedWindow,
        frames: &[Frame],
        question: &Question,
    ) -> &'m NetTurnReport {
        // Before the think gap drains and `begin_turn` records the turn-start history.
        assert!(!frames.is_empty(), "{EMPTY_TURN_WINDOW}");
        if !member.turns.is_empty() && think_gap > SimDuration::ZERO {
            let horizon = self.sim.now() + think_gap;
            self.drain(member, scratch, window, &[], horizon);
        }
        let now = self.sim.now();
        member.begin_turn(now, &self.uplink, MEMBER, &mut self.sim, frames.len(), question);
        // On return the clock sits exactly at the answer deadline; later events (late
        // packets, pending polls) stay queued for the think gap and the next window.
        let horizon = member.plan.horizon;
        self.drain(member, scratch, window, frames, horizon);
        member.conclude_turn(scratch, window, &mut self.uplink, MEMBER, question)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aivc_mllm::QuestionFormat;
    use aivc_netsim::PathConfig;
    use aivc_scene::templates::basketball_game;
    use aivc_scene::{SourceConfig, VideoSource};

    fn window(offset: usize) -> Vec<Frame> {
        let source = VideoSource::new(basketball_game(1), SourceConfig::fps30(6.0));
        (0..4)
            .map(|i| source.frame(((offset + i) * 15 % 170) as u64))
            .collect()
    }

    fn question() -> Question {
        Question::from_fact(&basketball_game(1).facts[1], QuestionFormat::FreeResponse)
    }

    fn options(seed: u64) -> NetSessionOptions {
        let mut o = NetSessionOptions::ai_oriented(seed, PathConfig::paper_section_2_2(0.01));
        o.capture_fps = 8.0;
        o
    }

    #[test]
    fn warm_rate_search_needs_few_probes_and_its_hint_never_changes_a_report() {
        let mut o = NetSessionOptions::ai_oriented(5, PathConfig::paper_section_2_2(0.01));
        o.capture_fps = 12.0;
        let q = question();
        // What a 12 fps camera films: consecutive captures 2.5 source frames apart, turn
        // after turn (the `window` helper's 15-frame stride lands every other capture on
        // an intra frame, which no capture loop does).
        let source = VideoSource::new(basketball_game(1), SourceConfig::fps30(30.0));
        let window = |turn: usize| -> Vec<Frame> {
            (0..4)
                .map(|i| source.frame_at((turn * 4 + i) as f64 / 12.0))
                .collect()
        };
        let mut warm = Conversation::with_defaults(o.clone(), SimDuration::from_millis(200));
        // The twin runs the same conversation, but from its ninth turn on it starts every
        // turn with its hint wiped or pointing at an end of the bracket.
        let mut twin = Conversation::with_defaults(o, SimDuration::from_millis(200));
        for t in 0..8 {
            warm.run_turn(&window(t), &q);
            twin.run_turn(&window(t), &q);
        }
        let before = warm.metrics_snapshot();
        for t in 8..72 {
            warm.run_turn(&window(t), &q);
            twin.member
                .compute
                .set_rate_hint([None, Some(51), Some(-51)][t % 3]);
            twin.run_turn(&window(t), &q);
        }
        let after = warm.metrics_snapshot();
        let searches = after.rate_searches - before.rate_searches;
        let probes = after.rate_probes - before.rate_probes;
        assert_eq!(searches, 64 * 4, "one search per encoded capture");
        assert!(
            probes <= 3 * searches,
            "{probes} probes over {searches} warm searches: the hint is not doing its job"
        );
        let twin_probes = twin.metrics_snapshot().rate_probes - before.rate_probes;
        assert!(
            twin_probes > probes,
            "the twin's scrambled hints must cost probes, not results"
        );
        assert_eq!(warm.report(), twin.report());
    }

    /// The pacer paces at 2.5 × the ABR target and floors the rate at 100 kbps:
    /// `pacer_rate_clamps` counts exactly the captures whose pacing rate the floor raised.
    /// Held at 30 kbps (75 kbps pacing) that is every capture; held at 1 Mbps, none.
    #[test]
    fn pacer_rate_clamps_count_every_capture_paced_below_the_floor_and_nothing_else() {
        use aivc_rtc::AbrPolicy;
        let q = question();
        for (bitrate_bps, clamps_per_capture) in [(30_000.0, 1), (1_000_000.0, 0)] {
            let mut o = options(23);
            o.abr = AbrPolicy::Held { bitrate_bps };
            let mut conversation = Conversation::with_defaults(o, SimDuration::from_millis(200));
            let turns = 3;
            for t in 0..turns {
                conversation.run_turn(&window(t), &q);
            }
            let snapshot = conversation.metrics_snapshot();
            let captures = (turns * 4) as u64;
            assert_eq!(
                snapshot.rate_searches + snapshot.frames_shed + snapshot.captures_suppressed,
                captures,
                "{bitrate_bps} bps: every capture tick is counted once"
            );
            assert_eq!(
                snapshot.pacer_rate_clamps,
                clamps_per_capture * captures,
                "{bitrate_bps} bps"
            );
        }
    }

    /// The engine's per-capture rate match is the offline sender's whole-set match over a
    /// set of one, in both modes: on a clean link with the ABR held, a turn codes exactly the bits
    /// `encode_at_bitrate` codes for each of its frames alone at the held rate, and the
    /// MLLM answers exactly as it does over a lossless decode of those frames.
    #[test]
    fn a_held_rate_turn_codes_what_the_offline_streamers_code_frame_by_frame() {
        use crate::context_aware::{Streamer, StreamerConfig};
        use crate::session::StreamingMode;
        use aivc_mllm::MllmChat;
        use aivc_rtc::AbrPolicy;
        use aivc_videocodec::{Decoder, EncodedFrame};
        let q = question();
        let frames = window(0);
        // A power-of-two frame rate: the engine compares a frame's bits with `rate / fps`,
        // the offline match `bits · fps` with the rate, and at 8 fps the two agree to the bit.
        let (fps, held_bps) = (8.0, 600_000.0);
        let model = Arc::new(ClipModel::mobile_default());
        for mode in [StreamingMode::ContextAware, StreamingMode::Baseline] {
            let offline = Streamer::new(mode, StreamerConfig::default(), Arc::clone(&model));
            let query = offline.query_for_question(&q);
            let mut o = NetSessionOptions::ai_oriented(17, PathConfig::paper_section_2_2(0.0));
            o.mode = mode;
            o.capture_fps = fps;
            o.abr = AbrPolicy::held_at(held_bps);
            let seed = o.seed;
            let report = Conversation::with_defaults(o, SimDuration::ZERO).run_turn(&frames, &q);
            let encoded: Vec<EncodedFrame> = frames
                .iter()
                .map(|frame| {
                    let alone = std::slice::from_ref(frame);
                    offline
                        .encode_at_bitrate(alone, &query, fps, held_bps)
                        .encoded
                        .remove(0)
                })
                .collect();
            let coded_bits: u64 = encoded.iter().map(EncodedFrame::total_bits).sum();
            assert_eq!(
                report.achieved_bitrate_bps,
                coded_bits as f64 / (frames.len() as f64 / fps),
                "{mode:?}"
            );
            assert_eq!(report.frames_decoded, frames.len(), "{mode:?}");
            let decoded: Vec<_> = encoded
                .iter()
                .map(|e| Decoder::new().decode_complete(e, None))
                .collect();
            let expected = MllmChat::responder(seed ^ 0x5EED).respond(&q, &decoded, seed);
            assert_eq!(report.answer, expected, "{mode:?}");
        }
    }

    /// A conversation that changes its question between turns re-derives its query: on a
    /// clean link the second turn — coded bits and answer — is that of a twin that asked
    /// the second question from the start, and sees other evidence than its own first
    /// turn over the same window did.
    #[test]
    fn a_question_switch_between_turns_matches_a_twin_that_always_asked_it() {
        let scene = basketball_game(1);
        let score = Question::from_fact(&scene.facts[0], QuestionFormat::FreeResponse);
        let logo = question();
        let clean = |seed| {
            let mut o = NetSessionOptions::ai_oriented(seed, PathConfig::paper_section_2_2(0.0));
            o.capture_fps = 8.0;
            Conversation::with_defaults(o, SimDuration::from_millis(300))
        };
        let (mut switching, mut constant) = (clean(17), clean(17));
        let frames = window(0);
        let first = switching.run_turn(&frames, &score);
        constant.run_turn(&frames, &logo);
        let second = switching.run_turn(&frames, &logo);
        let twin = constant.run_turn(&frames, &logo);
        assert_eq!(second.achieved_bitrate_bps, twin.achieved_bitrate_bps);
        assert_eq!(second.answer, twin.answer);
        assert_ne!(
            first.answer.perceived_evidence_quality,
            second.answer.perceived_evidence_quality
        );
    }

    /// An empty capture window is refused before anything moves — the think gap is not
    /// drained and no turn-start history is pushed — so the conversation carries on exactly
    /// like a twin that never saw the call.
    #[test]
    fn an_empty_window_is_rejected_before_the_conversation_moves() {
        let q = question();
        let pair = || Conversation::with_defaults(options(37), SimDuration::from_millis(400));
        let (mut conv, mut twin) = (pair(), pair());
        conv.run_turn(&window(0), &q);
        twin.run_turn(&window(0), &q);
        let (now, report) = (conv.now(), conv.report());
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| conv.run_turn(&[], &q)))
            .expect_err("an empty window must be rejected");
        assert_eq!(
            panic.downcast_ref::<String>().map(String::as_str),
            Some(EMPTY_TURN_WINDOW)
        );
        assert_eq!(conv.now(), now);
        assert_eq!(conv.report(), report);
        assert_eq!(conv.metrics_snapshot(), twin.metrics_snapshot());
        assert_eq!(conv.run_turn(&window(4), &q), twin.run_turn(&window(4), &q));
        assert_eq!(conv.report(), twin.report());
    }

    #[test]
    fn timeline_is_continuous_across_turns() {
        let mut conv = Conversation::with_defaults(options(3), SimDuration::from_millis(500));
        let q = question();
        assert_eq!(conv.now(), SimTime::ZERO);
        conv.run_turn(&window(0), &q);
        let after_first = conv.now();
        // 4 frames at 8 fps + 300 ms drain: the deadline of turn 0.
        assert_eq!(after_first.as_micros(), (3.0 / 8.0 * 1e6) as u64 + 300_000);
        conv.run_turn(&window(4), &q);
        // Turn 1 started at turn 0's deadline + 500 ms think time.
        assert_eq!(
            conv.now().as_micros(),
            after_first.as_micros() + 500_000 + (3.0 / 8.0 * 1e6) as u64 + 300_000
        );
        assert_eq!(conv.turn_count(), 2);
    }

    /// The per-turn delivery record is the most recent turn's only, and what the
    /// conversation keeps of it — the latencies behind its percentiles — is exactly its
    /// `latency()` column.
    #[test]
    fn last_turn_deliveries_are_overwritten_per_turn_and_feed_the_report() {
        let mut conv = Conversation::with_defaults(options(29), SimDuration::from_millis(500));
        assert!(conv.last_turn_deliveries().is_empty());
        let mut folded = Vec::new();
        for t in 0..3 {
            let previous_deadline = conv.now().as_micros();
            let report = conv.run_turn(&window(t * 4), &question());
            let deliveries = conv.last_turn_deliveries();
            assert_eq!(deliveries.len(), report.frames_delivered);
            assert!(deliveries.is_sorted_by_key(|d| d.capture_ts_us));
            for d in deliveries {
                // This turn's frame, sent after capture, a propagation delay on the wire
                // at least, complete by the deadline.
                assert!(d.capture_ts_us >= previous_deadline, "turn {t}");
                assert!(d.send_start.as_micros() >= d.capture_ts_us);
                assert!(d.latency() >= SimDuration::from_millis(30));
                assert!(d.completed_at <= conv.now());
            }
            folded.extend(deliveries.iter().map(FrameDelivery::latency));
        }
        assert_eq!(conv.member.frame_latencies, folded);
    }

    #[test]
    fn transport_state_persists_estimate_at_turn_start_equals_previous_final() {
        let mut conv = Conversation::with_defaults(options(7), SimDuration::from_millis(800));
        let q = question();
        for t in 0..4 {
            conv.run_turn(&window(t * 4), &q);
        }
        let report = conv.report();
        assert_eq!(report.turns.len(), 4);
        // The acceptance contract: the GCC estimate at the start of turn k+1 equals its
        // value at the end of turn k — nothing was reset in between.
        for k in 0..3 {
            assert_eq!(
                report.estimate_at_turn_start_bps[k + 1],
                report.turns[k].final_estimate_bps,
                "turn {k}"
            );
        }
        // And the cold start really was the configured initial estimate.
        assert_eq!(
            report.estimate_at_turn_start_bps[0],
            options(7).gcc.initial_estimate_bps
        );
    }

    #[test]
    fn conversations_are_deterministic() {
        let run = || {
            let mut conv = Conversation::with_defaults(options(11), SimDuration::from_millis(400));
            let q = question();
            for t in 0..3 {
                conv.run_turn(&window(t * 4), &q);
            }
            conv.report()
        };
        assert_eq!(run(), run());
    }

    /// The model is immutable, so sharing one handle between conversations (what a fleet
    /// and a contention run do) cannot be told from giving each its own build.
    #[test]
    fn conversations_sharing_one_model_handle_match_separately_built_ones() {
        let q = question();
        let think = SimDuration::from_millis(300);
        let shared = Arc::new(ClipModel::mobile_default());
        let mut pairs: Vec<[Conversation; 2]> = (0..2)
            .map(|i| {
                [
                    Conversation::new(
                        options(40 + i),
                        StreamerConfig::default(),
                        Arc::clone(&shared),
                        think,
                    ),
                    Conversation::with_defaults(options(40 + i), think),
                ]
            })
            .collect();
        // Interleaved, so the two sharing conversations alternate on the one model.
        for t in 0..3 {
            for pair in &mut pairs {
                for conv in pair {
                    conv.run_turn(&window(t * 4), &q);
                }
            }
        }
        for [sharing, owning] in &pairs {
            assert_eq!(sharing.report(), owning.report());
        }
    }

    #[test]
    fn warm_turns_swing_less_than_the_cold_turn() {
        // Traditional ABR rides the estimate, so convergence is visible in the target: a
        // cold controller that believes 5 Mbps crashes down onto the 1.2 Mbps link within
        // turn 0 (huge swing); warm turns start from the converged estimate and hold.
        use aivc_netsim::{LinkConfig, LossModel};
        let path = PathConfig {
            uplink: LinkConfig::constant(1.2e6, SimDuration::from_millis(30), 300, LossModel::None),
            downlink: LinkConfig::constant(100e6, SimDuration::from_millis(30), 300, LossModel::None),
        };
        let mut o = NetSessionOptions::traditional(19, path);
        o.capture_fps = 12.0;
        o.gcc.initial_estimate_bps = 5_000_000.0;
        let mut conv = Conversation::with_defaults(o, SimDuration::from_millis(500));
        let q = question();
        let source = VideoSource::new(basketball_game(1), SourceConfig::fps30(6.0));
        for t in 0..4 {
            let frames: Vec<Frame> = (0..24).map(|i| source.frame((t * 24 + i) as u64)).collect();
            conv.run_turn(&frames, &q);
        }
        let (cold, warm) = cold_and_warm_swing(&conv.report());
        assert!(
            cold > 2.0 * warm,
            "cold swing {cold} should exceed warm swing {warm}"
        );
    }

    /// The cold turn's ABR-target swing (turn 0, the controller converging from its
    /// configured initial estimate) and the mean swing of the warm turns after it.
    fn cold_and_warm_swing(report: &ConversationReport) -> (f64, f64) {
        match report.turn_target_swing_bps.split_first() {
            None => (0.0, 0.0),
            Some((&cold, [])) => (cold, 0.0),
            Some((&cold, warm)) => (cold, warm.iter().sum::<f64>() / warm.len() as f64),
        }
    }

    #[test]
    fn memory_stays_bounded_by_the_live_turn() {
        let mut conv = Conversation::with_defaults(options(23), SimDuration::from_millis(100));
        let q = question();
        for t in 0..10 {
            conv.run_turn(&window(t), &q);
        }
        // Retirement pruned every reported turn: only in-flight remnants may remain.
        assert!(
            conv.member.transport.tracked_state_is_bounded(),
            "transport state grew unbounded"
        );
    }

    #[test]
    fn report_on_empty_conversation_is_well_behaved() {
        let conv = Conversation::with_defaults(options(1), SimDuration::ZERO);
        let report = conv.report();
        assert!(report.turns.is_empty());
        assert_eq!(report.correct_fraction(), 0.0);
        assert_eq!(cold_and_warm_swing(&report), (0.0, 0.0));
    }

    /// Regression test for the retired-then-late sequence hazard: on a slow, high-latency
    /// link, packets still in flight when the answer deadline fires arrive during the
    /// think gap — *after* the turn's conclusion retired their sequence numbers. The ring/bitset
    /// stores must reject them as counted drops (`late_seq_drops`), not underflow
    /// `seq - base` and panic.
    #[test]
    fn retired_then_late_arrivals_are_counted_drops_across_turns() {
        use aivc_netsim::{LinkConfig, LossModel, PathConfig};
        let path = PathConfig {
            // 400 kbps with 150 ms one-way delay: the tail of every turn's window is
            // still in flight at the deadline and lands mid-think-gap.
            uplink: LinkConfig::constant(4e5, SimDuration::from_millis(150), 300, LossModel::None),
            downlink: LinkConfig::constant(100e6, SimDuration::from_millis(30), 300, LossModel::None),
        };
        let mut o = NetSessionOptions::ai_oriented(31, path);
        o.capture_fps = 8.0;
        let mut conv = Conversation::with_defaults(o, SimDuration::from_millis(500));
        let q = question();
        for t in 0..4 {
            conv.run_turn(&window(t * 4), &q);
        }
        assert_eq!(conv.turn_count(), 4);
        let snap = conv.metrics_snapshot();
        assert!(
            snap.late_seq_drops > 0,
            "expected retired-then-late arrivals on a 150 ms link; counters: {snap}"
        );
    }
}
