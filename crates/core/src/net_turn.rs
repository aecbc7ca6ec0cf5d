//! The network-turn engine: one state machine over the `aivc-sim` kernel for the §2.2
//! loop (capture → context-aware encode → RTC → MLLM answers inside the deadline), and the
//! one driver that runs it — one [`Event`] type and one actor ([`Driver`]) for a standalone
//! [`crate::Conversation`], a fleet lane's member and a [`crate::contention`] run alike.
//!
//! The split is deliberate:
//!
//! * [`NetCompute`] owns what the *chat pipeline* carries from turn to turn — the §3.2
//!   sender ([`Streamer`]: model handle, Eq. 2 allocator, encoder), the decoder, the MLLM
//!   responder, and the state a later turn reads (the `RatePlan` — whose raster is the
//!   conversation's one rasterization of each capture, read by CLIP too — the Eq. 1 memo,
//!   the rate hint, the query memo), which it lends to the sender per capture;
//! * a turn's buffers belong to whoever *drives* turns, not to the session, and split by
//!   when they are read. [`TurnScratch`] holds what is written and read inside one event —
//!   a deadline's decode verdicts, decoded frames and MLLM work — so one serves every turn
//!   its owner drives, overlapping or not (a fleet lane, a standalone conversation, a whole
//!   contention run). [`EncodedWindow`] holds the turn's encoded frames, written at capture
//!   and read at the same turn's deadline after other events have run, so turns that
//!   overlap need one each (a lane and a standalone conversation own one, as does every
//!   contention tenant);
//! * [`Transport`] owns everything the *network* needs besides the uplink — the downlink,
//!   packetizer, pacer, RTX store, FEC encode/recovery, reassembly, NACK generation, and
//!   the pending congestion feedback — plus the per-turn counters the report reads;
//! * the uplink is one flow of a [`SharedLink`]: a conversation owns a one-flow link
//!   seeded like the session (bit-identical to a private [`Link`]), a contention run one
//!   link its K tenants and its cross-traffic contend for;
//! * [`TurnMachine`] borrows all of them while it handles one member's event: the capture
//!   → encode → packetize → protect → pace → send → arrive → recover loop of §2.2.
//!
//! A timeline is a `Simulation<Event>` and its members: member `i` is flow `i` of the
//! uplink and tags its events `Event::Net { member: i, .. }`. [`Driver`] is the one actor
//! over it, handling every event in one `match`. A conversation's timeline has one member
//! and only transport events — it opens and concludes its turns itself, through the same
//! two functions ([`crate::conversation::Member::begin_turn`] /
//! [`crate::conversation::Member::conclude_turn`]) a contention run's `TurnBegin` and
//! `TurnEnd` events call — so it is the K = 1 case with no cross-traffic and no fairness
//! tick. Conversations on links of their own never interact, so each rides its own
//! timeline — a fleet server needs none of its own. Either way the clock, the queue
//! backlog, the trace cursor and every in-flight packet persist across turn boundaries.

use crate::contention::Contention;
use crate::context_aware::{ClipState, Streamer};
use crate::conversation::Member;
use crate::net_session::{FaultTelemetry, FrameDelivery, NetSessionOptions, NetTurnReport};
use crate::session::StreamingMode;
use aivc_metrics::SessionSnapshot;
use aivc_mllm::{MllmChat, MllmScratch, Question};
use aivc_netsim::link::LinkCounters;
use aivc_netsim::{DeliveryOutcome, LatencyStats, Link, Packet, SharedLink};
use aivc_rtc::cc::{FeedbackFold, GccController, PacketFeedback};
use aivc_rtc::fec::{group_of_index, FecEncoder, FecRecovery};
use aivc_rtc::nack::{NackGenerator, RtxQueue, RETRY_INTERVAL};
use aivc_rtc::pacer::{Pacer, PacerConfig};
use aivc_rtc::packetizer::{FrameAssembler, OutgoingFrame, Packetizer};
use aivc_rtc::rtp::{PayloadKind, RtpPacket};
use aivc_rtc::seq_ring::SeqRing;
use aivc_scene::Frame;
use aivc_semantics::TextQuery;
use aivc_sim::{Actor, InOrderStream, SimDuration, SimTime, Simulation};
use aivc_videocodec::{DecodeScratch, DecodedFrame, Decoder, EncodedFrame, RatePlan};

/// The one timeline's events, handled in one `match` by [`Driver`]: a member's transport
/// events, tagged with its index, and a contention run's own — a tenant's turn opening and
/// closing, a cross-traffic send, the fairness tick. A conversation's timeline only ever
/// holds `Net` events.
#[derive(Debug)]
pub(crate) enum Event {
    /// Member `member`'s transport event.
    Net { member: usize, ev: NetEvent },
    /// A contention tenant's next turn window opens.
    TurnBegin { member: usize },
    /// A contention tenant's turn deadline passed: conclude and report.
    TurnEnd { member: usize },
    /// A cross-traffic source offers its next packet.
    Cross { source: usize },
    /// The fairness/starvation sampling tick.
    FairnessTick,
}

/// A member's transport events: the payload of [`Event::Net`]. Frame indices are *global*
/// across the member's conversation (it numbers its frames continuously).
#[derive(Debug)]
pub(crate) enum NetEvent {
    /// Frame `i` is captured: drain mature feedback into GCC, pick the ABR target, encode
    /// at that target, packetize + protect + pace onto the uplink.
    Capture(usize),
    /// The head of the member's paced departures enters the uplink; the departures behind
    /// it follow inline while they are the timeline's next events ([`InOrderStream`]).
    Departures,
    /// The head of the member's in-order uplink arrivals reaches the receiver; the arrivals
    /// behind it follow inline likewise.
    Arrivals,
    /// An arrival earlier than the arrivals stream's tail (jitter, a reorder or extra-delay
    /// fault), or a fault's duplicate, reaches the receiver.
    UplinkArrival(RtpPacket),
    /// The receiver checks for due NACKs.
    ReceiverPoll,
    /// A feedback packet (NACKed sequences) arrives back at the sender.
    FeedbackArrival(Vec<u64>),
}

/// Puts member `member`'s transport event `ev` on the timeline at `when`.
fn schedule_net(sim: &mut Simulation<Event>, member: usize, when: SimTime, ev: NetEvent) {
    sim.schedule_at(when, Event::Net { member, ev });
}

/// Paces `packet` at `now` onto member `member`'s departures stream.
fn pace(
    pacer: &mut Pacer,
    departures: &mut InOrderStream<RtpPacket>,
    sim: &mut Simulation<Event>,
    member: usize,
    now: SimTime,
    packet: RtpPacket,
) {
    let when = pacer.schedule_send(packet.wire_size(), now);
    let ev = NetEvent::Departures;
    let refused = departures.push(sim, when, packet, || Event::Net { member, ev });
    assert!(refused.is_ok(), "the pacer's departure times never decrease");
}

/// Per-frame transport bookkeeping.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct NetFrameProgress {
    pub(crate) send_start: Option<SimTime>,
    pub(crate) fec_recovered: bool,
}

/// Uplink backlog (ms of queueing) beyond which the ladder sheds a newly captured frame
/// whole: encoding and sending it would only arrive after the conversational deadline
/// while deepening the queue for its successors.
const SHED_BACKLOG_MS: f64 = 150.0;
/// Wire size of the keep-alive probe sent on each suppressed capture tick.
const PROBE_PACKET_BYTES: u32 = 200;
/// Size of a feedback (NACK) packet on the wire, in bytes.
const FEEDBACK_PACKET_BYTES: u32 = 80;

/// The graceful-degradation ladder's current rung. The ladder only moves while the
/// feedback watchdog is armed (`gcc.watchdog_timeout` above zero, as
/// [`NetSessionOptions::with_resilience`] sets it) — otherwise the transport stays pinned
/// at [`DegradationLevel::Normal`] and behaves exactly as before the ladder existed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum DegradationLevel {
    /// Full operation: every capture is encoded and sent.
    #[default]
    Normal,
    /// Stressed: recovering from a fallback, or the send backlog is deep — late frames
    /// are shed whole before their parity is built.
    SoftFallback,
    /// The watchdog declared the feedback channel dead: captures are suppressed and tiny
    /// probes go out instead, so the first post-outage feedback can find its way back.
    OutageSuppress,
}

/// The compute half of a networked session: the chat pipeline and the state it carries
/// from one turn to the next. A field belongs here only if a later turn reads what an
/// earlier turn wrote; everything written and read inside one turn is [`TurnScratch`] or
/// [`EncodedWindow`].
#[derive(Debug, Clone)]
pub(crate) struct NetCompute {
    pub(crate) options: NetSessionOptions,
    /// The §3.2 sender in `options.mode`.
    pub(crate) sender: Streamer,
    decoder: Decoder,
    pub(crate) responder: MllmChat,
    /// The Eq. 1 memo (and, off the CTU grid, the patch raster) carried across captures.
    clip: ClipState,
    /// The capture's grid raster and block pixel counts, prepared once per
    /// capture: CLIP scores the raster, the budget search's probes never re-rasterize the
    /// frame, and the encode writes its blocks from it.
    rate_plan: RatePlan,
    /// The previous capture's search boundary — where the next search starts probing.
    /// Never changes what a search returns (`Encoder::search_rate_plan`).
    rate_hint: Option<i32>,
    cached_question: Option<Question>,
    query: TextQuery,
}

/// The per-event buffers of the chat pipeline: each is written and read inside one turn's
/// conclusion, so nothing in it outlives the event that filled it. One per *driver* — a
/// [`crate::server`] lane (its sessions' turns in order), a standalone
/// [`crate::Conversation`], a whole contention run (tenants' turns overlap on the shared
/// kernel, its events never do). All-empty until its first turn.
#[derive(Debug)]
pub(crate) struct TurnScratch {
    decode_scratch: DecodeScratch,
    decoded: Vec<DecodedFrame>,
    mllm: MllmScratch,
}

impl Default for TurnScratch {
    fn default() -> Self {
        Self {
            decode_scratch: DecodeScratch::new(),
            decoded: Vec::new(),
            mllm: MllmScratch::new(),
        }
    }
}

/// A turn's encoded frames: written at each capture and read at the same turn's deadline,
/// after other events — on a contention run, other tenants' — have run. One per driver of
/// turns one at a time — a lane (its sessions' turns in order), a standalone
/// [`crate::Conversation`] — and one per contention tenant, since tenants' turns overlap.
/// All-empty until its first turn.
#[derive(Debug, Default)]
pub(crate) struct EncodedWindow {
    /// The committed encode of each turn slot (needed again at decode time).
    slots: Vec<EncodedFrame>,
    /// `turn` at the moment each slot was last encoded. A shed or suppressed capture
    /// leaves its slot holding an earlier turn's frame — on a lane, another session's —
    /// which must never be decoded (see [`conclude_turn_window`]).
    slot_turn: Vec<u64>,
    /// Turns concluded on this window so far.
    turn: u64,
}

impl NetCompute {
    /// The compute half of a session on the sender `sender` makes in `options.mode`.
    pub(crate) fn new(options: NetSessionOptions, sender: impl FnOnce(StreamingMode) -> Streamer) -> Self {
        Self {
            sender: sender(options.mode),
            decoder: Decoder::new(),
            responder: MllmChat::responder(options.seed ^ 0x5EED),
            options,
            clip: ClipState::default(),
            rate_plan: RatePlan::new(),
            rate_hint: None,
            cached_question: None,
            query: TextQuery::from_concepts("", std::iter::empty::<String>()),
        }
    }

    /// Re-derives the text query only when the question changes, so a conversation that
    /// keeps asking one question builds its query once.
    fn refresh_query(&mut self, question: &Question) {
        if self.cached_question.as_ref() != Some(question) {
            self.query = self.sender.query_for_question(question);
            self.cached_question = Some(question.clone());
        }
    }

    /// Overwrites the rate search's starting hint — the hint-independence tests feed it
    /// nothing and nonsense.
    #[cfg(test)]
    pub(crate) fn set_rate_hint(&mut self, hint: Option<i32>) {
        self.rate_hint = hint;
    }

    /// Encodes `frame` into turn slot `slot` of `window` at the closest achievable size
    /// to `budget_bits`, and adds the capture's work — its search, the probes it took, the
    /// cells its planning recomputed, the blocks it priced and wrote — to `metrics`.
    ///
    /// This is §3.2's bitrate match as [`Streamer::encode_at_bitrate`] runs it over a whole
    /// frame set — the sender's two steps around the one search — here over a set of one,
    /// so every capture meets its own budget, with the session's scratches standing in for
    /// fresh ones.
    fn encode_slot_to_budget(
        &mut self,
        window: &mut EncodedWindow,
        slot: usize,
        frame: &Frame,
        budget_bits: f64,
        metrics: &mut SessionSnapshot,
    ) {
        if window.slots.len() <= slot {
            window.slots.resize_with(slot + 1, EncodedFrame::placeholder);
            window.slot_turn.resize(slot + 1, u64::MAX);
        }
        // One rate plan per capture: the grid raster, which holds every QP-independent rate
        // term, is brought forward once, so each probe of the search is a tight pass over
        // the plan instead of a full re-rasterization (see DESIGN.md
        // §"Where the warm turn's microsecond goes").
        let planned = self
            .sender
            .plan_frame(frame, &self.query, &mut self.clip, &mut self.rate_plan);
        // Plan probes predict the coded size without materializing blocks — byte-exact
        // with a real encode (test-asserted). The level found is a pure function of
        // (plan, budget); the previous capture's boundary only tells the search where to
        // start, which on a slowly moving target settles it in two probes, each re-pricing
        // only the blocks that moved since the previous capture priced that level. The
        // encode writes its blocks from the level the probes left priced.
        let priced_before = self.rate_plan.blocks_priced();
        let search = self
            .sender
            .encoder()
            .search_rate_plan(&mut self.rate_plan, budget_bits, self.rate_hint);
        self.rate_hint = Some(search.boundary);
        self.sender.encoder().encode_at_level(
            frame,
            &mut self.rate_plan,
            search.level,
            &mut window.slots[slot],
        );
        window.slot_turn[slot] = window.turn;
        metrics.rate_searches += 1;
        metrics.rate_probes += u64::from(search.probes);
        metrics.raster_cells_recomputed += planned.raster_cells;
        metrics.eq1_cells += planned.eq1_cells;
        metrics.eq2_cells += planned.eq2_cells;
        metrics.blocks_priced += self.rate_plan.blocks_priced() - priced_before;
        metrics.blocks_encoded += window.slots[slot].blocks.len() as u64;
    }
}

/// The transport half: the downlink and every sender/receiver machine, with frame
/// bookkeeping indexed by *global* frame id and per-turn counters the report reads. The
/// uplink is the timeline's (a flow of its [`SharedLink`]), lent to each event.
#[derive(Debug, Clone)]
pub(crate) struct Transport {
    /// The feedback path, the session's own: the shared bottleneck models the congested
    /// uplink / cell, not the return path.
    downlink: Link,
    packetizer: Packetizer,
    pacer: Pacer,
    rtx: RtxQueue,
    fec_encoder: FecEncoder,
    fec_recovery: FecRecovery,
    assembler: FrameAssembler,
    pub(crate) nack_gen: NackGenerator,
    /// Feedback the receiver has produced but the sender has not yet seen:
    /// (time the sender learns the packet's fate, the per-packet feedback).
    cc_pending: Vec<(u64, PacketFeedback)>,
    /// Reusable per-drain feedback fold: matured entries stream into this while
    /// `cc_pending` compacts in place, then the fold goes to GCC whole — no
    /// intermediate report vector.
    cc_fold: FeedbackFold,
    /// Free list of completed NACK-sequence buffers (the payload of
    /// [`NetEvent::FeedbackArrival`]), so warm turns poll without touching the allocator.
    nack_pool: Vec<Vec<u64>>,
    /// Reusable packetization buffer.
    media: Vec<RtpPacket>,
    /// Reusable FEC parity buffer.
    parity: Vec<RtpPacket>,
    /// Paced packets waiting to depart; the pacer is FIFO-monotone, so all of them.
    departures: InOrderStream<RtpPacket>,
    /// Packets on the uplink that arrive in order (the rest are [`NetEvent::UplinkArrival`]s).
    arrivals: InOrderStream<RtpPacket>,
    poll_outstanding: bool,
    next_net_packet_id: u64,
    up_prop_us: u64,
    down_prop_us: u64,
    max_payload: u64,
    // --- global frame bookkeeping (indexed by frame id) ---
    outgoing: Vec<OutgoingFrame>,
    media_first_seq: Vec<u64>,
    /// Parity group size each live frame was protected with — arrival-side FEC lookups
    /// must use the size *the frame was encoded under*, not the encoder's current size
    /// (adaptive FEC re-sizes between frames).
    media_group_size: Vec<u32>,
    /// Sequence → (frame index, media packet index) for FEC-group reconstruction.
    seq_to_media: SeqRing<(usize, usize)>,
    progress: Vec<NetFrameProgress>,
    /// Frames below this id are retired: their turn has been reported, so arrivals for
    /// them only feed sequence-continuity bookkeeping.
    retired_below: usize,
    // --- per-turn counters, reset by `begin_turn` ---
    turn_packets_lost: u64,
    turn_retransmissions_sent: u64,
    turn_target_sum: f64,
    turn_target_min: f64,
    turn_target_max: f64,
    /// The frames delivered by the current turn's deadline, in capture order (recorded at
    /// the deadline, cleared when the next turn opens).
    pub(crate) turn_deliveries: Vec<FrameDelivery>,
    /// Reusable percentile scratch for the turn report (cleared each turn).
    latency_scratch: LatencyStats,
    // --- resilience bookkeeping ---
    /// Current degradation-ladder rung (always `Normal` while the watchdog is off).
    degradation_level: DegradationLevel,
    /// Time of the most recent outage-dropped uplink send, awaiting the first frame
    /// completion after it (the `time_to_recover_ms` anchor). Survives turn boundaries:
    /// an outage at a turn's tail is recovered from — and measured — in the next turn.
    pending_outage_recovery: Option<SimTime>,
    /// This member's uplink flow counters at the last report, for per-turn deltas.
    counters_reported: LinkCounters,
    /// GCC watchdog-fallback count at the last report, for per-turn deltas.
    watchdog_fallbacks_reported: u64,
    turn_degradation_events: u64,
    turn_frames_shed: u64,
    turn_captures_suppressed: u64,
    turn_probes_sent: u64,
    // --- always-on serving metrics ---
    /// The session's always-on counters: written here, copied out by
    /// [`Transport::metrics_snapshot`].
    metrics: SessionSnapshot,
    /// `nack_gen.nacks_suppressed()` at the last report — per-turn commit delta.
    nacks_suppressed_reported: u64,
}

impl Transport {
    /// A fresh transport on `options.path`, with the pacer tuned to the congestion
    /// controller's current estimate (exactly how a turn begins).
    pub(crate) fn new(options: &NetSessionOptions, initial_estimate_bps: f64) -> Self {
        Self {
            downlink: Link::new(
                options.path.downlink.clone(),
                options.seed.wrapping_add(0x0BAD_F00D),
            ),
            packetizer: Packetizer::default(),
            pacer: Pacer::new(PacerConfig::from_target_bitrate(initial_estimate_bps, 2.5)),
            rtx: RtxQueue::new(),
            fec_encoder: FecEncoder::new(options.fec),
            fec_recovery: FecRecovery::new(),
            assembler: FrameAssembler::new(),
            nack_gen: NackGenerator::new(options.nack),
            cc_pending: Vec::new(),
            cc_fold: FeedbackFold::new(),
            nack_pool: Vec::new(),
            media: Vec::new(),
            parity: Vec::new(),
            departures: InOrderStream::default(),
            arrivals: InOrderStream::default(),
            poll_outstanding: false,
            next_net_packet_id: 0,
            up_prop_us: options.path.uplink.propagation_delay.as_micros(),
            down_prop_us: options.path.downlink.propagation_delay.as_micros(),
            max_payload: Packetizer::default().max_payload() as u64,
            outgoing: Vec::new(),
            media_first_seq: Vec::new(),
            media_group_size: Vec::new(),
            seq_to_media: SeqRing::new(),
            progress: Vec::new(),
            retired_below: 0,
            turn_packets_lost: 0,
            turn_retransmissions_sent: 0,
            turn_target_sum: 0.0,
            turn_target_min: f64::INFINITY,
            turn_target_max: f64::NEG_INFINITY,
            turn_deliveries: Vec::new(),
            latency_scratch: LatencyStats::new(),
            degradation_level: DegradationLevel::Normal,
            pending_outage_recovery: None,
            counters_reported: LinkCounters::default(),
            watchdog_fallbacks_reported: 0,
            turn_degradation_events: 0,
            turn_frames_shed: 0,
            turn_captures_suppressed: 0,
            turn_probes_sent: 0,
            metrics: SessionSnapshot::default(),
            nacks_suppressed_reported: 0,
        }
    }

    /// A copy of the session's always-on counters as they stand.
    pub(crate) fn metrics_snapshot(&self) -> SessionSnapshot {
        self.metrics
    }

    /// Number of frames handed to this transport so far (= the next global frame id).
    pub(crate) fn frames_sent(&self) -> usize {
        self.retired_below + self.outgoing.len()
    }

    /// The live-window slot of global frame `frame`, or `None` when the frame is retired
    /// (or unknown). The per-frame vectors (`outgoing`, `progress`, `media_first_seq`)
    /// slide with `retired_below`, so a conversation's memory stays bounded by its live
    /// turn — global ids translate through this offset.
    fn live_slot(&self, frame: usize) -> Option<usize> {
        frame
            .checked_sub(self.retired_below)
            .filter(|slot| *slot < self.outgoing.len())
    }

    /// Resets the per-turn counters.
    fn begin_turn(&mut self) {
        self.turn_packets_lost = 0;
        self.turn_retransmissions_sent = 0;
        self.turn_target_sum = 0.0;
        self.turn_target_min = f64::INFINITY;
        self.turn_target_max = f64::NEG_INFINITY;
        self.turn_deliveries.clear();
        self.turn_degradation_events = 0;
        self.turn_frames_shed = 0;
        self.turn_captures_suppressed = 0;
        self.turn_probes_sent = 0;
    }

    /// The spread between the largest and smallest ABR target of the current turn — the
    /// within-turn convergence signal (a cold controller swings, a warm one holds).
    pub(crate) fn turn_target_swing_bps(&self) -> f64 {
        if self.turn_target_max >= self.turn_target_min {
            self.turn_target_max - self.turn_target_min
        } else {
            0.0
        }
    }

    /// NACK requests dropped by deadline-aware suppression so far.
    pub(crate) fn nacks_suppressed(&self) -> u64 {
        self.nack_gen.nacks_suppressed()
    }

    /// Books the fate of an uplink packet of `size_bytes` sent at `now` for the congestion
    /// controller. An arrival's report reaches the sender one downlink propagation after
    /// it; a loss the sender infers from the gap in the next report, roughly one RTT plus a
    /// reporting guard after the send. An outage drop is *silence*, not a loss report: the
    /// receiver only discovers gaps from later arrivals, and during a full outage there are
    /// none — exactly what the congestion controller's watchdog detects.
    fn book_fate(&mut self, now: SimTime, outcome: DeliveryOutcome, size_bytes: u32) {
        let arrived_at = outcome.arrival();
        let known_at_us = match arrived_at {
            Some(arrival) => arrival.as_micros() + self.down_prop_us,
            None => {
                self.turn_packets_lost += 1;
                if outcome == DeliveryOutcome::DroppedOutage {
                    self.pending_outage_recovery = Some(now);
                    return;
                }
                now.as_micros() + self.up_prop_us + self.down_prop_us + 20_000
            }
        };
        let feedback = PacketFeedback {
            sent_at: now,
            arrived_at,
            size_bytes,
        };
        self.cc_pending.push((known_at_us, feedback));
    }

    /// A cleared NACK-sequence buffer, recycled from the pool when one is free.
    fn take_nack_buf(&mut self) -> Vec<u64> {
        self.nack_pool.pop().unwrap_or_default()
    }

    /// Returns a consumed [`NetEvent::FeedbackArrival`] payload to the pool
    /// (capacity kept).
    fn recycle_nack_buf(&mut self, mut buf: Vec<u64>) {
        buf.clear();
        self.nack_pool.push(buf);
    }

    /// True when every retired turn's tracking state was actually dropped — the
    /// bounded-memory invariant of long conversations, checked right after a turn was
    /// retired (so nothing live should remain either).
    #[cfg(test)]
    pub(crate) fn tracked_state_is_bounded(&self) -> bool {
        self.assembler.tracked_frames() == 0
            && self.seq_to_media.is_empty()
            && self.fec_recovery.tracked_groups() == 0
            && self.rtx.stored() == 0
            && self.outgoing.is_empty()
            && self.progress.is_empty()
            && self.media_first_seq.is_empty()
            && self.media_group_size.is_empty()
    }

    /// Retires every frame below `frame` (all reported turns): reassembly, FEC-group,
    /// sequence-mapping and per-frame bookkeeping state for them is dropped, bounding a
    /// conversation's memory to the live turn regardless of how many turns it has run
    /// (the drained vectors keep their capacity, so steady-state turns stay
    /// allocation-stable too). Sequence-continuity state (`highest_seen`) survives, so
    /// gap detection across the boundary stays exact.
    fn retire_below(&mut self, frame: usize) {
        if frame <= self.retired_below {
            return;
        }
        let drop_n = (frame - self.retired_below).min(self.outgoing.len());
        self.outgoing.drain(..drop_n);
        self.progress.drain(..drop_n);
        self.media_first_seq.drain(..drop_n);
        self.media_group_size.drain(..drop_n);
        self.retired_below = frame;
        let bound_seq = self.packetizer.next_sequence();
        self.seq_to_media.retain(|_, (f, _)| *f >= frame);
        self.assembler.retire_before(frame as u64);
        self.fec_recovery.retire_before(frame as u64);
        self.rtx.forget_before(bound_seq);
        self.nack_gen.forget_below(bound_seq);
    }
}

/// One planned turn window: its geometry on the timeline, the last capture and the
/// answer deadline the driver must drain to before concluding. The default (all-zero)
/// plan stands for "no turn opened yet" — no event can be pending then.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct TurnPlan {
    /// Global id of the turn's first frame.
    base: usize,
    frame_count: usize,
    /// Capture time of the turn's first frame, in absolute µs.
    start_us: u64,
    frame_interval_us: u64,
    pub(crate) last_capture: SimTime,
    pub(crate) horizon: SimTime,
}

impl TurnPlan {
    /// The plan of a `frame_count`-frame turn whose first frame (global id `base`) is
    /// captured at `start`: one capture per `1 / capture_fps`, the answer deadline
    /// `drain_secs` after the last. The only place this arithmetic lives.
    pub(crate) fn new(options: &NetSessionOptions, base: usize, start: SimTime, frame_count: usize) -> Self {
        let frame_interval_us = (1e6 / options.capture_fps).round() as u64;
        let last_capture = start + SimDuration::from_micros((frame_count as u64 - 1) * frame_interval_us);
        Self {
            base,
            frame_count,
            start_us: start.as_micros(),
            frame_interval_us,
            last_capture,
            horizon: last_capture + SimDuration::from_secs_f64(options.drain_secs),
        }
    }

    fn capture_ts_us(&self, global: usize) -> u64 {
        self.start_us + (global - self.base) as u64 * self.frame_interval_us
    }
}

/// One member as the timeline's events reach it: the conversation, the encoded window its
/// turns write into, and the open turn's frames — empty between turns, when no capture is
/// pending.
pub(crate) struct Seat<'m, 'f> {
    pub(crate) member: &'m mut Member,
    pub(crate) window: &'m mut EncodedWindow,
    pub(crate) frames: &'f [Frame],
}

/// The one actor: everything a timeline's events touch, borrowed for one drain. Member `i`
/// is `seats[i]`, flow `i` of `uplink` and the `member: i` of its events; the per-event
/// buffers are one set for all of them, since events never overlap.
pub(crate) struct Driver<'d, 'm, 'f> {
    pub(crate) seats: &'d mut [Seat<'m, 'f>],
    pub(crate) uplink: &'d mut SharedLink,
    pub(crate) scratch: &'d mut TurnScratch,
    /// What a contention run adds: its tenants' scripts, cross-traffic and fairness
    /// telemetry, for the `TurnBegin`, `TurnEnd`, `Cross` and `FairnessTick` arms. `None`
    /// on a conversation's timeline, which holds no such event.
    pub(crate) contention: Option<&'d mut Contention<'f>>,
}

impl Actor for Driver<'_, '_, '_> {
    type Event = Event;

    fn on_event(&mut self, now: SimTime, event: Event, sim: &mut Simulation<Event>) {
        match event {
            Event::Net { member, ev } => {
                let seat = &mut self.seats[member];
                seat.member
                    .machine(self.scratch, seat.window, seat.frames, self.uplink, member)
                    .handle(now, ev, sim);
            }
            Event::TurnBegin { member } => self.turn_begin(member, now, sim),
            Event::TurnEnd { member } => self.turn_end(member, sim),
            Event::Cross { source } => self.cross(source, now, sim),
            Event::FairnessTick => self.fairness_tick(now, sim),
        }
    }
}

/// Borrows a member's state and its driver's buffers while it handles one event. `plan` is
/// the live turn's, or — between turns, when `frames` is empty and only deliveries, polls
/// and feedback are pending (none of which touches `scratch` or `window`) — the most recent
/// one's.
pub(crate) struct TurnMachine<'a> {
    pub(crate) compute: &'a mut NetCompute,
    pub(crate) scratch: &'a mut TurnScratch,
    pub(crate) window: &'a mut EncodedWindow,
    pub(crate) gcc: &'a mut GccController,
    pub(crate) t: &'a mut Transport,
    pub(crate) frames: &'a [Frame],
    pub(crate) plan: TurnPlan,
    /// The timeline's uplink, which this member rides as flow `member`.
    pub(crate) uplink: &'a mut SharedLink,
    /// The member's index on its timeline: its flow on `uplink` and its events' tag.
    pub(crate) member: usize,
}

impl TurnMachine<'_> {
    /// Handles one of the member's transport events, scheduling follow-ons onto `sim`
    /// under the member's index.
    fn handle(&mut self, now: SimTime, event: NetEvent, sim: &mut Simulation<Event>) {
        let member = self.member;
        let t = &mut *self.t;
        t.metrics.net_events_popped += 1;
        match event {
            NetEvent::Capture(i) => {
                debug_assert!(
                    !self.frames.is_empty(),
                    "capture event fired outside a turn window"
                );
                // --- Close the loop: everything the sender has learned by now. Matured
                // entries fold straight into the GCC summary while the pending ring
                // compacts in place — maturity times are not monotone (a loss matures on
                // a fixed report delay, possibly before an earlier send's arrival), so
                // this must stay a full in-order scan, not a front-pop.
                t.cc_fold.clear();
                let fold = &mut t.cc_fold;
                t.cc_pending.retain(|(known_at, fb)| {
                    if *known_at <= now.as_micros() {
                        fold.push(fb);
                        false
                    } else {
                        true
                    }
                });
                if !t.cc_fold.is_empty() {
                    self.gcc.on_feedback_fold_at(now, &t.cc_fold);
                }
                self.gcc.poll_watchdog(now);

                // --- The degradation ladder decides what this capture tick does.
                let backlog_ms = self.uplink.backlog(now).as_millis_f64();
                let level = if self.compute.options.gcc.watchdog_timeout == SimDuration::ZERO {
                    DegradationLevel::Normal
                } else if self.gcc.is_silent() {
                    DegradationLevel::OutageSuppress
                } else if self.gcc.in_fallback() || backlog_ms > SHED_BACKLOG_MS {
                    DegradationLevel::SoftFallback
                } else {
                    DegradationLevel::Normal
                };
                if level != t.degradation_level {
                    t.degradation_level = level;
                    t.turn_degradation_events += 1;
                }

                let fps = self.compute.options.capture_fps;
                let target_bps = self.compute.options.abr.target_bitrate(self.gcc.estimate_bps());
                t.turn_target_sum += target_bps;
                t.turn_target_min = t.turn_target_min.min(target_bps);
                t.turn_target_max = t.turn_target_max.max(target_bps);
                if t.pacer.set_rate(target_bps * 2.5, now) {
                    t.metrics.pacer_rate_clamps += 1;
                }

                let local = i - self.plan.base;
                debug_assert_eq!(
                    t.retired_below + t.outgoing.len(),
                    i,
                    "captures must arrive in frame order"
                );
                let suppress = level == DegradationLevel::OutageSuppress;
                let shed = level == DegradationLevel::SoftFallback && backlog_ms > SHED_BACKLOG_MS;
                if suppress || shed {
                    // Placeholder bookkeeping keeps the frame-order invariant and slot
                    // indexing intact: the frame's slot exists, but nothing is encoded,
                    // packetized or expected by the assembler — at the deadline the frame
                    // simply reads as never delivered (the decoder conceals the gap).
                    t.outgoing.push(OutgoingFrame {
                        frame_id: i as u64,
                        capture_ts_us: self.plan.capture_ts_us(i),
                        size_bytes: 0,
                        is_keyframe: false,
                    });
                    t.progress.push(NetFrameProgress::default());
                    t.media_first_seq.push(u64::MAX);
                    t.media_group_size.push(0);
                    if shed {
                        t.turn_frames_shed += 1;
                        return;
                    }
                    t.turn_captures_suppressed += 1;
                    // The keep-alive probe rides the suppressed capture tick: a tiny
                    // uplink packet whose feedback (or continued silence) tells the
                    // watchdog whether the path is back.
                    let probe = Packet::new(t.next_net_packet_id, PROBE_PACKET_BYTES, now).with_flow(0);
                    t.next_net_packet_id += 1;
                    t.turn_probes_sent += 1;
                    t.metrics.packets_sent += 1;
                    let outcome = self.uplink.send(member, &probe, now);
                    t.book_fate(now, outcome, PROBE_PACKET_BYTES);
                    return;
                }

                // --- Adaptive FEC: re-size the parity groups from the live loss estimate
                // and shave the parity overhead off the media budget, so media + parity
                // together never exceed the ABR target.
                let adaptive = self.compute.options.adaptive_fec;
                if adaptive.enabled && self.compute.options.fec.is_enabled() {
                    let g = adaptive
                        .group_for_loss(self.gcc.loss_estimate(), self.compute.options.fec.group_size);
                    t.fec_encoder.set_group_size(g);
                }
                let group_size = t.fec_encoder.group_size();
                let budget_bits = if adaptive.enabled && group_size > 0 {
                    (target_bps / fps) * group_size as f64 / (group_size as f64 + 1.0)
                } else {
                    target_bps / fps
                };

                // --- Encode frame i to the per-frame budget the target implies.
                self.compute.encode_slot_to_budget(
                    self.window,
                    local,
                    &self.frames[local],
                    budget_bits,
                    &mut t.metrics,
                );
                let encoded = &self.window.slots[local];
                let frame_out = OutgoingFrame {
                    frame_id: i as u64,
                    capture_ts_us: self.plan.capture_ts_us(i),
                    size_bytes: encoded.total_bytes(),
                    is_keyframe: encoded.frame_type == aivc_videocodec::FrameType::Intra,
                };
                t.outgoing.push(frame_out);
                t.progress.push(NetFrameProgress::default());
                t.assembler.expect_frame(&frame_out);

                // --- Packetize, protect, pace.
                t.packetizer.packetize_into(&frame_out, &mut t.media);
                if group_size > 0 {
                    for (pi, p) in t.media.iter_mut().enumerate() {
                        p.fec_group = group_of_index(group_size, pi);
                    }
                }
                let packetizer = &mut t.packetizer;
                let (fec_encoder, parity) = (&t.fec_encoder, &mut t.parity);
                fec_encoder.protect_into(&t.media, || packetizer.allocate_sequence(), parity);
                t.media_first_seq.push(t.media[0].header.sequence);
                t.media_group_size.push(group_size);
                // Media, then parity, join the departures stream in pacer order.
                for (pi, p) in t.media.iter().enumerate() {
                    if !t.seq_to_media.insert(p.header.sequence, (i, pi)) {
                        t.metrics.late_seq_drops += 1;
                    }
                    let _ = t.rtx.remember(p);
                    pace(&mut t.pacer, &mut t.departures, sim, member, now, *p);
                }
                for p in &t.parity {
                    pace(&mut t.pacer, &mut t.departures, sim, member, now, *p);
                }
            }
            NetEvent::Departures => self.drain_stream(
                now,
                sim,
                |t| &mut t.departures,
                || NetEvent::Departures,
                Self::deliver_uplink,
            ),
            NetEvent::Arrivals => self.drain_stream(
                now,
                sim,
                |t| &mut t.arrivals,
                || NetEvent::Arrivals,
                Self::on_arrival,
            ),
            NetEvent::UplinkArrival(packet) => self.on_arrival(now, packet, sim),
            NetEvent::ReceiverPoll => {
                let opts = &self.compute.options;
                t.poll_outstanding = false;
                if !opts.enable_retransmission {
                    return;
                }
                let mut due = t.take_nack_buf();
                t.nack_gen.due_nacks_into(now, &mut due);
                t.metrics.nack_polls += 1;
                if due.is_empty() {
                    t.recycle_nack_buf(due);
                } else {
                    let fb_packet =
                        Packet::new(t.next_net_packet_id, FEEDBACK_PACKET_BYTES, now).with_flow(1);
                    t.next_net_packet_id += 1;
                    match t.downlink.send(&fb_packet, now).arrival() {
                        Some(arrival) => schedule_net(sim, member, arrival, NetEvent::FeedbackArrival(due)),
                        None => t.recycle_nack_buf(due),
                    }
                }
                if t.nack_gen.pending_count() > 0 && !t.poll_outstanding {
                    t.poll_outstanding = true;
                    schedule_net(sim, member, now + RETRY_INTERVAL, NetEvent::ReceiverPoll);
                }
            }
            NetEvent::FeedbackArrival(sequences) => {
                // One retransmit call per NACKed sequence keeps the old→new sequence
                // pairing exact even when some sequences (e.g. lost parity packets) are
                // not in the retransmission store. Retransmissions join the departures
                // stream like a capture's media does.
                for &old_seq in &sequences {
                    let packetizer = &mut t.packetizer;
                    if let Some(p) = t.rtx.retransmit_one(old_seq, || packetizer.allocate_sequence()) {
                        if let Some(mapping) = t.seq_to_media.get(old_seq).copied() {
                            if !t.seq_to_media.insert(p.header.sequence, mapping) {
                                t.metrics.late_seq_drops += 1;
                            }
                        }
                        pace(&mut t.pacer, &mut t.departures, sim, member, now, p);
                    }
                }
                t.recycle_nack_buf(sequences);
            }
        }
    }

    /// Handles the head of the member's in-order `stream`, whose event `head` just popped,
    /// with `on_item`, then each packet behind it that fires inline.
    fn drain_stream(
        &mut self,
        mut now: SimTime,
        sim: &mut Simulation<Event>,
        stream: impl Fn(&mut Transport) -> &mut InOrderStream<RtpPacket>,
        head: impl Fn() -> NetEvent,
        on_item: impl Fn(&mut Self, SimTime, RtpPacket, &mut Simulation<Event>),
    ) {
        let member = self.member;
        let mut packet = stream(self.t).head();
        loop {
            on_item(self, now, packet, sim);
            let armed = || Event::Net { member, ev: head() };
            let Some(next) = stream(self.t).advance(sim, armed) else {
                return;
            };
            self.t.metrics.net_events_inline += 1;
            (now, packet) = next;
        }
    }

    /// One packet reaches the receiver: sequence bookkeeping, reassembly, FEC recovery, and
    /// a NACK poll armed when something is missing.
    fn on_arrival(&mut self, now: SimTime, packet: RtpPacket, sim: &mut Simulation<Event>) {
        let member = self.member;
        let t = &mut *self.t;
        let late_before = t.nack_gen.late_drops();
        t.nack_gen.on_packet(packet.header.sequence, now);
        let late_now = t.nack_gen.late_drops();
        if late_now > late_before {
            t.metrics.late_seq_drops += late_now - late_before;
        }
        let frame_idx = packet.header.frame_id as usize;
        if frame_idx >= t.retired_below {
            // A group becomes XOR-recoverable when its *last-but-one* packet shows
            // up — which can be the parity packet or a late media/RTX arrival — so
            // every arrival nominates its group for a recovery check below.
            let mut fec_candidate: Option<(usize, u32)> = None;
            match packet.header.kind {
                PayloadKind::Media | PayloadKind::Retransmission => {
                    t.assembler.on_packet(&packet, now);
                    t.metrics.packets_assembled += 1;
                    // FEC bookkeeping keys off the group size the frame was
                    // *encoded* under (stored per frame), not the encoder's
                    // current size — adaptive FEC may have re-sized since.
                    if let Some((fi, media_idx)) = t.seq_to_media.get(packet.header.sequence).copied() {
                        let group_size = t.live_slot(fi).map_or(0, |s| t.media_group_size[s]);
                        if let Some(group) = group_of_index(group_size, media_idx) {
                            t.fec_recovery.on_media(fi as u64, group, media_idx);
                            fec_candidate = Some((fi, group));
                        }
                    }
                }
                PayloadKind::Fec => {
                    if let (Some(group), Some(slot)) = (packet.fec_group, t.live_slot(frame_idx)) {
                        let frame = &t.outgoing[slot];
                        let count = (frame.size_bytes.div_ceil(t.max_payload).max(1)) as usize;
                        // The group's media packets: the frame's `group_of_index` preimage
                        // of `group`, `group · size ..< (group + 1) · size`.
                        let group_size = t.media_group_size[slot] as usize;
                        let first = (group as usize).saturating_mul(group_size);
                        for pi in first..first.saturating_add(group_size).min(count) {
                            t.fec_recovery.expect_media(frame.frame_id, group, pi);
                        }
                        t.fec_recovery.on_parity(frame.frame_id, group);
                        fec_candidate = Some((frame_idx, group));
                    }
                }
                PayloadKind::Feedback => {}
            }
            if let Some((frame_idx, group)) = fec_candidate {
                if let Some(slot) = t.live_slot(frame_idx) {
                    let frame = &t.outgoing[slot];
                    t.metrics.fec_group_checks += 1;
                    for recovered in t.fec_recovery.recoverable(frame.frame_id, group) {
                        let start = recovered as u64 * t.max_payload;
                        let end = ((recovered as u64 + 1) * t.max_payload).min(frame.size_bytes);
                        let synthetic = RtpPacket {
                            header: packet.header,
                            payload_start: start,
                            payload_end: end,
                            fec_group: Some(group),
                        };
                        t.assembler.on_packet(&synthetic, now);
                        t.metrics.packets_assembled += 1;
                        // Mark the reconstructed packet received so the group is
                        // not re-recovered, and cancel its pending NACK — the
                        // receiver holds the bytes, retransmitting them would
                        // waste constrained uplink capacity.
                        t.fec_recovery.on_media(frame.frame_id, group, recovered);
                        t.nack_gen
                            .on_packet(t.media_first_seq[slot] + recovered as u64, now);
                        t.progress[slot].fec_recovered = true;
                    }
                }
            }
        }
        let opts = &self.compute.options;
        if opts.enable_retransmission && t.nack_gen.pending_count() > 0 && !t.poll_outstanding {
            t.poll_outstanding = true;
            schedule_net(sim, member, now + opts.nack.reorder_guard, NetEvent::ReceiverPoll);
        }
    }

    /// One packet leaves the pacer and enters the uplink.
    fn deliver_uplink(&mut self, now: SimTime, packet: RtpPacket, sim: &mut Simulation<Event>) {
        let member = self.member;
        let t = &mut *self.t;
        t.metrics.packets_sent += 1;
        let frame_idx = packet.header.frame_id as usize;
        if let Some(entry) = t.live_slot(frame_idx).map(|s| &mut t.progress[s]) {
            if entry.send_start.is_none() && packet.header.kind == PayloadKind::Media {
                entry.send_start = Some(now);
            }
        }
        if packet.header.kind == PayloadKind::Retransmission {
            t.turn_retransmissions_sent += 1;
        }
        let net_packet = Packet::new(t.next_net_packet_id, packet.wire_size(), now)
            .with_flow(0)
            .with_tag(packet.header.sequence);
        t.next_net_packet_id += 1;
        let outcome = self.uplink.send(member, &net_packet, now);
        if let Some(arrival) = outcome.arrival() {
            let head = || Event::Net {
                member,
                ev: NetEvent::Arrivals,
            };
            if let Err((seq, packet)) = t.arrivals.push(sim, arrival, packet, head) {
                let ev = NetEvent::UplinkArrival(packet);
                sim.schedule_at_with_seq(arrival, seq, Event::Net { member, ev });
            }
            if let Some(dup_at) = self.uplink.take_duplicate() {
                // A Duplicate fault episode emitted a second copy one serialization time
                // behind the original; reassembly and FEC bookkeeping absorb it
                // idempotently.
                schedule_net(sim, member, dup_at, NetEvent::UplinkArrival(packet));
            }
        }
        t.book_fate(now, outcome, packet.wire_size());
    }
}

/// Why a turn over no frames is refused: there is no capture to schedule, no deadline to
/// place and nothing for the MLLM to look at. Every entry checks its window before anything
/// moves; [`begin_turn_window`] is the backstop.
pub(crate) const EMPTY_TURN_WINDOW: &str = "a chat turn needs at least one frame";

/// Opens a `frame_count`-frame turn window starting at `now`: refreshes the query, arms
/// the deadline-aware NACK budget, resets the per-turn counters and schedules the capture
/// events onto `sim` as member `member`'s. The timeline then drains to the returned
/// plan's horizon (with a [`TurnMachine`] holding the plan) and calls
/// [`conclude_turn_window`]. Events past the horizon (late packets, pending polls) stay
/// queued for the think gap and the next window.
pub(crate) fn begin_turn_window(
    compute: &mut NetCompute,
    transport: &mut Transport,
    now: SimTime,
    sim: &mut Simulation<Event>,
    member: usize,
    frame_count: usize,
    question: &Question,
) -> TurnPlan {
    assert!(frame_count > 0, "{EMPTY_TURN_WINDOW}");
    compute.refresh_query(question);
    let opts = &compute.options;
    let plan = TurnPlan::new(opts, transport.frames_sent(), now, frame_count);

    if opts.deadline_aware_nack {
        // Expected NACK → RTX arrival: the request rides the downlink, the retransmission
        // rides the uplink, plus a pacing/serialization guard.
        let recovery_estimate =
            SimDuration::from_micros(transport.down_prop_us + transport.up_prop_us + 10_000);
        transport
            .nack_gen
            .set_deadline(Some(plan.horizon), recovery_estimate);
    }
    transport.begin_turn();
    for i in 0..frame_count {
        let global = plan.base + i;
        schedule_net(
            sim,
            member,
            SimTime::from_micros(plan.capture_ts_us(global)),
            NetEvent::Capture(global),
        );
    }
    plan
}

/// Concludes a drained turn window: decodes what arrived, lets the MLLM answer,
/// assembles the report and retires the reported frames ([`Transport::retire_below`]).
/// `machine` must borrow what the turn's machine did: the same `window` it encoded into,
/// and the same uplink and member index it sent as — only read here, for the per-turn
/// fault-counter deltas. Its `frames` are not read.
pub(crate) fn conclude_turn_window(machine: TurnMachine<'_>, question: &Question) -> NetTurnReport {
    let TurnMachine {
        compute,
        scratch,
        window,
        gcc,
        t: transport,
        plan,
        uplink,
        member,
        ..
    } = machine;
    let horizon = plan.horizon;
    let frame_count = plan.frame_count;
    let fps = compute.options.capture_fps;

    // --- Deadline reached: decode whatever (partially) arrived, in capture order. The
    // per-frame vectors slide with retirement, so this turn's frames start at the slot
    // its global base translates to (callers retire all prior turns before a new one, so
    // in practice the slice is the whole live window).
    let base_slot = plan.base - transport.retired_below;
    let mut decoded_count = 0usize;
    let mut frames_delivered = 0usize;
    let mut received_bits: u64 = 0;
    transport.latency_scratch.clear();
    // Time-to-recover anchor: the most recent outage-dropped send (possibly from a prior
    // turn or think gap); the first frame completing after it marks re-convergence.
    let outage_anchor = transport.pending_outage_recovery;
    let mut recovered_at: Option<SimTime> = None;
    for (local, frame_out) in transport.outgoing[base_slot..].iter().enumerate() {
        let Some(status) = transport.assembler.view(frame_out.frame_id) else {
            continue;
        };
        if status.complete {
            frames_delivered += 1;
            if let (Some(t0), Some(done)) = (outage_anchor, status.completed_at) {
                if done > t0 && recovered_at.is_none_or(|r| done < r) {
                    recovered_at = Some(done);
                }
            }
            if let (Some(completed_at), Some(send_start)) = (
                status.completed_at,
                transport.progress[base_slot + local].send_start,
            ) {
                let delivery = FrameDelivery {
                    capture_ts_us: frame_out.capture_ts_us,
                    send_start,
                    completed_at,
                };
                transport.latency_scratch.record(delivery.latency());
                transport.turn_deliveries.push(delivery);
            }
        }
        received_bits += status.received_bytes * 8;
        if status.received_ranges.is_empty() {
            continue;
        }
        // Only a capture that was really encoded is expected by the assembler (a shed or
        // suppressed one has no `view`), so the slot read here is this turn's own — never
        // the frame an earlier turn, or on a lane another session, left in it.
        debug_assert_eq!(
            window.slot_turn[local], window.turn,
            "turn slot {local} was not encoded in the turn that decodes it"
        );
        if scratch.decoded.len() <= decoded_count {
            scratch.decoded.push(DecodedFrame::placeholder());
        }
        compute.decoder.decode_into(
            &window.slots[local],
            status.received_ranges,
            status.completed_at.map(|t| t.as_micros()),
            &mut scratch.decode_scratch,
            &mut scratch.decoded[decoded_count],
        );
        decoded_count += 1;
    }
    // The turn is over for the window: whatever its slots hold is stale from here on.
    window.turn += 1;

    // --- The MLLM answers over everything that decoded before the deadline.
    let answer = compute.responder.respond_with(
        question,
        &scratch.decoded[..decoded_count],
        compute.options.seed,
        &mut scratch.mllm,
    );

    // --- Resilience telemetry: outage exposure, recovery time, ladder activity, and the
    // per-turn deltas of the always-on link fault counters. All-zero ("quiet") — and
    // omitted from serialization — whenever faults and the resilience stack are off.
    let time_to_recover_ms = match (transport.pending_outage_recovery, recovered_at) {
        (Some(t0), Some(done)) => {
            transport.pending_outage_recovery = None;
            Some((done - t0).as_millis_f64())
        }
        _ => None,
    };
    let uplink_counters = uplink.flow_counters(member);
    let uplink_faults = uplink_counters.since(&transport.counters_reported);
    let watchdog_fallbacks_now = gcc.watchdog_fallbacks();
    let resilience = FaultTelemetry {
        outage_ms: compute
            .options
            .path
            .uplink
            .faults
            .outage_overlap(SimTime::from_micros(plan.start_us), horizon)
            .as_millis_f64(),
        time_to_recover_ms,
        degradation_events: transport.turn_degradation_events,
        frames_shed: transport.turn_frames_shed,
        captures_suppressed: transport.turn_captures_suppressed,
        probes_sent: transport.turn_probes_sent,
        watchdog_fallbacks: watchdog_fallbacks_now - transport.watchdog_fallbacks_reported,
        packets_duplicated: uplink_faults.duplicated,
        packets_reordered: uplink_faults.reordered,
        outage_drops: uplink_faults.outage_drops,
    };
    transport.counters_reported = uplink_counters;
    transport.watchdog_fallbacks_reported = watchdog_fallbacks_now;

    let window_secs = (frame_count as f64 / fps).max(1e-9);
    let encoded_bits: u64 = transport.outgoing[base_slot..]
        .iter()
        .map(|f| f.size_bytes * 8)
        .sum();
    let fec_recovered_frames = transport.progress[base_slot..]
        .iter()
        .filter(|p| p.fec_recovered)
        .count() as u64;

    // --- Commit the turn to the always-on counters, from the *same values the report
    // carries* — this is what makes the fleet rollup reconcile exactly against
    // per-session report sums at any pool size. Event-site commits would not: losses in
    // a think gap bump per-turn counters that `begin_turn` resets before any report
    // reads them. One batch of adds per turn, off the per-packet path.
    let nacks_suppressed_now = transport.nack_gen.nacks_suppressed();
    transport.metrics.accumulate(&SessionSnapshot {
        frames_sent: frame_count as u64,
        frames_delivered: frames_delivered as u64,
        fec_recovered_frames,
        packets_lost: transport.turn_packets_lost,
        retransmissions_sent: transport.turn_retransmissions_sent,
        nacks_suppressed: nacks_suppressed_now - transport.nacks_suppressed_reported,
        frames_shed: transport.turn_frames_shed,
        captures_suppressed: transport.turn_captures_suppressed,
        // Nothing decoded by the answer deadline: the turn's answer shipped blind.
        deadline_missed: u64::from(decoded_count == 0),
        watchdog_fallbacks: resilience.watchdog_fallbacks,
        ..SessionSnapshot::default()
    });
    transport.nacks_suppressed_reported = nacks_suppressed_now;
    let report = NetTurnReport {
        answer,
        frames_sent: frame_count,
        frames_delivered,
        frames_decoded: decoded_count,
        mean_target_bitrate_bps: transport.turn_target_sum / frame_count as f64,
        achieved_bitrate_bps: encoded_bits as f64 / window_secs,
        goodput_bps: received_bits as f64 / window_secs,
        p50_frame_latency_ms: transport.latency_scratch.percentile_ms(0.5),
        p95_frame_latency_ms: transport.latency_scratch.p95_ms(),
        packets_lost: transport.turn_packets_lost,
        fec_recovered_frames,
        retransmissions_sent: transport.turn_retransmissions_sent,
        final_estimate_bps: gcc.estimate_bps(),
        resilience,
    };
    // The turn is reported: retire its frames' transport state, so memory stays bounded
    // by the live turn however long the conversation runs.
    transport.retire_below(transport.frames_sent());
    report
}
