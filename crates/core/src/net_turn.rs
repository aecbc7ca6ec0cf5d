//! The network-turn engine: one state machine over the `aivc-sim` kernel for the §2.2
//! loop (capture → context-aware encode → RTC → MLLM answers inside the deadline), with
//! exactly two drivers — [`crate::Conversation`]'s private timeline and
//! [`crate::contention`]'s shared-link timeline.
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
//!   a capture's Eq. 1 work buffers, a deadline's decode verdicts, decoded frames and MLLM
//!   work — so one serves every turn its owner drives, overlapping or not (a fleet
//!   lane, a standalone conversation, a whole contention run). [`EncodedWindow`] holds
//!   the turn's encoded frames, written at capture and read at the same turn's deadline
//!   after other events have run, so turns that overlap need one each (a lane and a
//!   standalone conversation own one, as does every contention tenant);
//! * [`Transport`] owns everything the *network* needs — the emulated path, packetizer,
//!   pacer, RTX store, FEC encode/recovery, reassembly, NACK generation, and the pending
//!   congestion feedback — plus the per-turn counters the report reads;
//! * [`TurnMachine`] borrows all of them for the duration of a drain and implements
//!   [`Actor::on_event`]: the capture → encode → packetize → protect → pace → send →
//!   arrive → recover loop of §2.2.
//!
//! The engine never owns the [`Simulation`]: a driver does, and a driver exists per set
//! of conversations that actually exchange events. Conversations on private links never
//! interact, so each runs on its own `Simulation<NetEvent>` — a fleet server needs no
//! timeline of its own; conversations contending for one [`SharedLink`] interleave
//! packet by packet and ride one global timeline ([`NetEventSink`] tags their events on
//! the way in). Either way the clock, the queue backlog, the trace cursor and every
//! in-flight packet persist across turn boundaries.

use crate::context_aware::{ClipState, Streamer};
use crate::net_session::{FaultTelemetry, FrameDelivery, NetSessionOptions, NetTurnReport};
use crate::session::StreamingMode;
use aivc_metrics::SessionSnapshot;
use aivc_mllm::{MllmChat, MllmScratch, Question};
use aivc_netsim::emulator::Direction;
use aivc_netsim::link::LinkCounters;
use aivc_netsim::{DeliveryOutcome, LatencyStats, NetworkEmulator, Packet, SharedLink};
use aivc_rtc::cc::{FeedbackFold, GccController, PacketFeedback};
use aivc_rtc::fec::{group_of_index, FecEncoder, FecRecovery};
use aivc_rtc::nack::{NackGenerator, RtxQueue, RETRY_INTERVAL};
use aivc_rtc::pacer::{Pacer, PacerConfig};
use aivc_rtc::packetizer::{FrameAssembler, OutgoingFrame, Packetizer};
use aivc_rtc::rtp::{PayloadKind, RtpPacket};
use aivc_rtc::seq_ring::SeqRing;
use aivc_scene::Frame;
use aivc_semantics::{ClipWork, TextQuery};
use aivc_sim::{Actor, SimDuration, SimTime, Simulation};
use aivc_videocodec::{DecodeScratch, DecodedFrame, Decoder, EncodedFrame, RatePlan};

/// Events of the networked turn's discrete-event loop. Frame indices are *global* across
/// the owning timeline (a conversation numbers its frames continuously).
#[derive(Debug)]
pub(crate) enum NetEvent {
    /// Frame `i` is captured: drain mature feedback into GCC, pick the ABR target, encode
    /// at that target, packetize + protect + pace onto the uplink.
    Capture(usize),
    /// A packet leaves the pacer and enters the uplink.
    SendUplink(RtpPacket),
    /// A packet arrives at the receiver.
    UplinkArrival(RtpPacket),
    /// The receiver checks for due NACKs.
    ReceiverPoll,
    /// A feedback packet (NACKed sequences) arrives back at the sender.
    FeedbackArrival(Vec<u64>),
    /// A coalesced run of pacer departures: **one** timeline event standing in for the
    /// back-to-back [`NetEvent::SendUplink`]s of a capture (or retransmission batch). The
    /// event fires at each distinct departure time, delivers every packet due, then
    /// re-arms itself at the next departure *under its original insertion sequence* — see
    /// [`NetEventSink::reschedule_net_run`] for why that preserves exact event ordering.
    UplinkRun(PacketRun),
}

/// A contiguous batch of pacer departures travelling as one timeline event. The pacer is
/// globally FIFO-monotone — [`Pacer::schedule_send`] returns nondecreasing times across
/// *all* calls — so the departures of one scheduling burst (a capture's media + parity,
/// or one feedback event's retransmissions) are contiguous in `(time, seq)` order and can
/// ride a single slab slot instead of one per packet.
#[derive(Debug)]
pub(crate) struct PacketRun {
    /// The run event's insertion sequence on its timeline. Assigned by
    /// [`NetEventSink::schedule_net_run`]; re-arms reuse it so the run keeps its
    /// tie-break position among same-time events across every firing.
    pub(crate) seq: u64,
    /// Index of the first not-yet-delivered departure in `items`.
    pub(crate) cursor: usize,
    /// `(departure time µs, packet)` in pacer order (departure times nondecreasing).
    /// The buffer is pooled in [`Transport::run_pool`] once the run completes.
    pub(crate) items: Vec<(u64, RtpPacket)>,
}

/// Where a [`TurnMachine`] schedules its follow-on events. A single-tenant timeline is a
/// plain [`Simulation<NetEvent>`]; a multi-tenant engine wraps each tenant's events into
/// its own composite event type and implements this to tag them on the way in.
pub(crate) trait NetEventSink {
    /// Schedules `event` at `when` on the owning timeline.
    fn schedule_net(&mut self, when: SimTime, event: NetEvent);

    /// Schedules a fresh packet run at `when` (its first departure). Implementations must
    /// record the event's insertion sequence in `run.seq` before scheduling — the seq a
    /// plain schedule call would assign, i.e. the timeline's `next_seq()`.
    fn schedule_net_run(&mut self, when: SimTime, run: PacketRun);

    /// Re-arms a partially delivered run at `when` (its next departure) **under its
    /// original insertion sequence** (`run.seq`, via the kernel's `schedule_at_with_seq`).
    ///
    /// Keeping the seq is what makes coalescing invisible to event ordering: in
    /// per-packet mode every departure of the burst carries a seq from the burst's
    /// scheduling instant, so at a shared firing time the whole burst sorts before any
    /// later-scheduled event (arrivals, polls) and after any earlier-scheduled one. A
    /// re-armed run with its original seq sorts exactly the same way; a fresh seq would
    /// instead sort the tail of the run *after* events scheduled since, reordering
    /// same-instant deliveries. Safe because the run's previous firing has already
    /// popped — no two live events ever share the seq.
    fn reschedule_net_run(&mut self, when: SimTime, run: PacketRun);
}

impl NetEventSink for Simulation<NetEvent> {
    fn schedule_net(&mut self, when: SimTime, event: NetEvent) {
        self.schedule_at(when, event);
    }

    fn schedule_net_run(&mut self, when: SimTime, mut run: PacketRun) {
        run.seq = self.next_seq();
        self.schedule_at(when, NetEvent::UplinkRun(run));
    }

    fn reschedule_net_run(&mut self, when: SimTime, run: PacketRun) {
        self.schedule_at_with_seq(when, run.seq, NetEvent::UplinkRun(run));
    }
}

/// Which uplink a turn's packets ride. `Private` is the classic single-tenant path — the
/// transport's own emulated uplink, byte-for-byte the pre-contention behaviour. `Shared`
/// redirects every uplink operation to one flow of a [`SharedLink`] contended by other
/// tenants; the private uplink then sits idle (its RNG streams are never drawn from).
/// The downlink (feedback path) always stays private: the shared bottleneck models the
/// congested uplink/cell, not the return path.
pub(crate) enum UplinkPort<'a> {
    /// Use the transport's own emulator uplink.
    Private,
    /// Contend for a shared bottleneck as the given flow.
    Shared {
        /// The shared bottleneck link.
        link: &'a mut SharedLink,
        /// This tenant's flow index on it.
        flow: usize,
    },
}

impl UplinkPort<'_> {
    fn send(&mut self, emulator: &mut NetworkEmulator, packet: &Packet, now: SimTime) -> DeliveryOutcome {
        match self {
            UplinkPort::Private => emulator.send(Direction::Uplink, packet, now),
            UplinkPort::Shared { link, flow } => link.send(*flow, packet, now),
        }
    }

    fn take_duplicate(&mut self, emulator: &mut NetworkEmulator) -> Option<SimTime> {
        match self {
            UplinkPort::Private => emulator.take_uplink_duplicate(),
            UplinkPort::Shared { link, .. } => link.take_duplicate(),
        }
    }

    fn backlog_ms(&self, emulator: &NetworkEmulator, now: SimTime) -> f64 {
        match self {
            UplinkPort::Private => emulator.uplink().backlog(now).as_millis_f64(),
            UplinkPort::Shared { link, .. } => link.backlog(now).as_millis_f64(),
        }
    }

    fn counters(&self, emulator: &NetworkEmulator) -> LinkCounters {
        match self {
            UplinkPort::Private => emulator.uplink().counters(),
            UplinkPort::Shared { link, flow } => link.flow_counters(*flow),
        }
    }
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

/// The graceful-degradation ladder's current rung. The ladder only moves when
/// [`crate::net_session::DegradationConfig::enabled`] — otherwise the transport stays
/// pinned at [`DegradationLevel::Normal`] and behaves exactly as before the ladder
/// existed.
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
    /// Per-frame probe coefficients and the capture's grid raster, prepared once per
    /// capture: CLIP scores the raster, the budget search's probes never re-rasterize the
    /// frame, and the encode writes its blocks from it.
    rate_plan: RatePlan,
    /// The previous capture's search boundary — where the next search starts probing.
    /// Never changes what a search returns (`Encoder::search_rate_plan`).
    rate_hint: Option<i32>,
    cached_question: Option<Question>,
    query: TextQuery,
}

/// The per-event buffers of the chat pipeline: each is written and read inside one
/// `Capture` event or one turn's conclusion, so nothing in it outlives the event that
/// filled it. One per *driver* — a [`crate::server`] lane (its sessions' turns in order),
/// a standalone [`crate::Conversation`], a whole contention run (tenants' turns overlap
/// on the shared kernel, its events never do). All-empty until its first turn.
#[derive(Debug)]
pub(crate) struct TurnScratch {
    /// Eq. 1's class table and lane accumulators, used inside each capture's CLIP call.
    clip_work: ClipWork,
    decode_scratch: DecodeScratch,
    decoded: Vec<DecodedFrame>,
    mllm: MllmScratch,
}

impl Default for TurnScratch {
    fn default() -> Self {
        Self {
            clip_work: ClipWork::new(),
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
    /// to `budget_bits`, and returns how many probes the search took.
    ///
    /// This is §3.2's bitrate match as [`Streamer::encode_at_bitrate`] runs it over a whole
    /// frame set — the sender's two steps around the one search — here over a set of one,
    /// so every capture meets its own budget, with the session's scratches standing in for
    /// fresh ones.
    fn encode_slot_to_budget(
        &mut self,
        scratch: &mut TurnScratch,
        window: &mut EncodedWindow,
        slot: usize,
        frame: &Frame,
        budget_bits: f64,
    ) -> u32 {
        if window.slots.len() <= slot {
            window.slots.resize_with(slot + 1, EncodedFrame::placeholder);
            window.slot_turn.resize(slot + 1, u64::MAX);
        }
        // One rate plan per capture: the grid raster and every QP-independent rate term
        // are folded into per-block coefficients once, so each probe of the search is a
        // tight pass over the plan instead of a full re-rasterization (see DESIGN.md
        // §"Where the warm turn's microsecond goes").
        self.sender.plan_frame(
            frame,
            &self.query,
            &mut self.clip,
            &mut scratch.clip_work,
            &mut self.rate_plan,
        );
        // Plan probes predict the coded size without materializing blocks — byte-exact
        // with a real encode (test-asserted). The level found is a pure function of
        // (plan, budget); the previous capture's boundary only tells the search where to
        // start, which on a slowly moving target settles it in two probes.
        let search = self
            .sender
            .encoder()
            .search_rate_plan(&self.rate_plan, budget_bits, self.rate_hint);
        self.rate_hint = Some(search.boundary);
        self.sender
            .encoder()
            .encode_at_level(frame, &self.rate_plan, search.level, &mut window.slots[slot]);
        window.slot_turn[slot] = window.turn;
        search.probes
    }
}

/// The transport half: the emulated path and every sender/receiver machine, with frame
/// bookkeeping indexed by *global* frame id and per-turn counters the report reads.
#[derive(Debug, Clone)]
pub(crate) struct Transport {
    emulator: NetworkEmulator,
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
    /// [`NetEvent::FeedbackArrival`]), recycled like `run_pool`.
    nack_pool: Vec<Vec<u64>>,
    /// Reusable packetization buffer.
    media: Vec<RtpPacket>,
    /// Reusable FEC parity buffer.
    parity: Vec<RtpPacket>,
    /// Free list of completed [`PacketRun`] buffers. Bounded by the peak number of
    /// simultaneously in-flight runs (a buffer only enters the pool when its run
    /// completes, and every new run drains the pool first), so warm turns schedule
    /// coalesced departures without touching the allocator.
    run_pool: Vec<Vec<(u64, RtpPacket)>>,
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
    /// Current degradation-ladder rung (always `Normal` when the ladder is disabled).
    degradation_level: DegradationLevel,
    /// Time of the most recent outage-dropped uplink send, awaiting the first frame
    /// completion after it (the `time_to_recover_ms` anchor). Survives turn boundaries:
    /// an outage at a turn's tail is recovered from — and measured — in the next turn.
    pending_outage_recovery: Option<SimTime>,
    /// Uplink link-counter snapshot at the last report, for per-turn deltas.
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
            emulator: NetworkEmulator::new(options.path.clone(), options.seed),
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
            run_pool: Vec::new(),
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

    /// The current queueing backlog, in milliseconds, of the uplink `port` sends on —
    /// what a new turn inherits from the traffic before it.
    pub(crate) fn uplink_backlog_ms(&self, port: &UplinkPort<'_>, now: SimTime) -> f64 {
        port.backlog_ms(&self.emulator, now)
    }

    /// Snapshot of the private uplink's cumulative counters (reads existing totals; no
    /// hot-path bookkeeping).
    pub(crate) fn uplink_counters(&self) -> LinkCounters {
        self.emulator.uplink().counters()
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

    /// A cleared run buffer, recycled from the pool when one is free.
    fn take_run_buf(&mut self) -> Vec<(u64, RtpPacket)> {
        self.run_pool.pop().unwrap_or_default()
    }

    /// Schedules `items` as one coalesced [`PacketRun`] at its first departure, or
    /// returns the buffer to the pool when the burst turned out empty.
    fn dispatch_run<S: NetEventSink>(&mut self, items: Vec<(u64, RtpPacket)>, sink: &mut S) {
        match items.first() {
            Some(&(first_us, _)) => sink.schedule_net_run(
                SimTime::from_micros(first_us),
                PacketRun {
                    seq: 0, // assigned by the sink
                    cursor: 0,
                    items,
                },
            ),
            None => self.recycle_run_buf(items),
        }
    }

    /// Returns a completed run's buffer to the pool (capacity kept).
    fn recycle_run_buf(&mut self, mut buf: Vec<(u64, RtpPacket)>) {
        buf.clear();
        self.run_pool.push(buf);
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

    /// Number of pooled (idle) run buffers — the reuse/leak invariant tests read this.
    #[cfg(test)]
    pub(crate) fn run_pool_len(&self) -> usize {
        self.run_pool.len()
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
        let last_capture_us = start.as_micros() + (frame_count as u64 - 1) * frame_interval_us;
        let drain_us = (options.drain_secs * 1e6).round() as u64;
        Self {
            base,
            frame_count,
            start_us: start.as_micros(),
            frame_interval_us,
            last_capture: SimTime::from_micros(last_capture_us),
            horizon: SimTime::from_micros(last_capture_us + drain_us),
        }
    }

    fn capture_ts_us(&self, global: usize) -> u64 {
        self.start_us + (global - self.base) as u64 * self.frame_interval_us
    }
}

/// The actor: borrows the compute and transport halves and the driver's turn buffers for
/// one drain and handles the turn's events. `plan` is the live turn's, or — between turns,
/// when `frames` is empty and only deliveries, polls and feedback are pending (none of
/// which touches `scratch` or `window`) — the most recent one's.
pub(crate) struct TurnMachine<'a> {
    pub(crate) compute: &'a mut NetCompute,
    pub(crate) scratch: &'a mut TurnScratch,
    pub(crate) window: &'a mut EncodedWindow,
    pub(crate) gcc: &'a mut GccController,
    pub(crate) t: &'a mut Transport,
    pub(crate) frames: &'a [Frame],
    pub(crate) plan: TurnPlan,
    pub(crate) port: UplinkPort<'a>,
}

impl Actor for TurnMachine<'_> {
    type Event = NetEvent;

    fn on_event(&mut self, now: SimTime, event: NetEvent, sim: &mut Simulation<NetEvent>) {
        self.handle(now, event, sim);
    }
}

impl TurnMachine<'_> {
    /// Handles one event, scheduling follow-ons into `sink`. This is [`Actor::on_event`]
    /// with the timeline abstracted: the single-tenant path passes the simulation itself,
    /// the multi-tenant engine passes a tagging wrapper.
    pub(crate) fn handle<S: NetEventSink>(&mut self, now: SimTime, event: NetEvent, sink: &mut S) {
        let t = &mut *self.t;
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
                let deg = self.compute.options.degradation;
                let backlog_ms = self.port.backlog_ms(&t.emulator, now);
                let level = if !deg.enabled {
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
                    let outcome = self.port.send(&mut t.emulator, &probe, now);
                    match outcome.arrival() {
                        Some(arrival) => t.cc_pending.push((
                            arrival.as_micros() + t.down_prop_us,
                            PacketFeedback {
                                sent_at: now,
                                arrived_at: Some(arrival),
                                size_bytes: PROBE_PACKET_BYTES,
                            },
                        )),
                        None => {
                            t.turn_packets_lost += 1;
                            if outcome == DeliveryOutcome::DroppedOutage {
                                // Blackout silence: no synthetic loss report (see the
                                // media-send loss path) — the watchdog keeps decaying
                                // until a probe actually makes it through.
                                t.pending_outage_recovery = Some(now);
                            } else {
                                t.cc_pending.push((
                                    now.as_micros() + t.up_prop_us + t.down_prop_us + 20_000,
                                    PacketFeedback {
                                        sent_at: now,
                                        arrived_at: None,
                                        size_bytes: PROBE_PACKET_BYTES,
                                    },
                                ));
                            }
                        }
                    }
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
                let probes = self.compute.encode_slot_to_budget(
                    self.scratch,
                    self.window,
                    local,
                    &self.frames[local],
                    budget_bits,
                );
                t.metrics.rate_searches += 1;
                t.metrics.rate_probes += u64::from(probes);
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
                // Coalesced mode rides the whole burst (media + parity) on one run event;
                // per-packet mode schedules one slab slot per departure (kept for the
                // equivalence property suite). Pacer state advances identically either way.
                let mut run_items = if self.compute.options.coalesce_delivery {
                    Some(t.take_run_buf())
                } else {
                    None
                };
                for (pi, p) in t.media.iter().enumerate() {
                    if !t.seq_to_media.insert(p.header.sequence, (i, pi)) {
                        t.metrics.late_seq_drops += 1;
                    }
                    let _ = t.rtx.remember(p);
                    let when = t.pacer.schedule_send(p.wire_size(), now);
                    match &mut run_items {
                        Some(items) => items.push((when.as_micros(), *p)),
                        None => sink.schedule_net(when, NetEvent::SendUplink(*p)),
                    }
                }
                for p in &t.parity {
                    let when = t.pacer.schedule_send(p.wire_size(), now);
                    match &mut run_items {
                        Some(items) => items.push((when.as_micros(), *p)),
                        None => sink.schedule_net(when, NetEvent::SendUplink(*p)),
                    }
                }
                if let Some(items) = run_items {
                    t.dispatch_run(items, sink);
                }
            }
            NetEvent::UplinkRun(mut run) => {
                // Deliver every departure due now (equal-time departures of one burst are
                // consecutive in per-packet pop order too — their seqs were consecutive),
                // then re-arm at the next departure under the run's original seq.
                let now_us = now.as_micros();
                while let Some(&(dep_us, packet)) = run.items.get(run.cursor) {
                    if dep_us > now_us {
                        break;
                    }
                    run.cursor += 1;
                    self.deliver_uplink(now, packet, sink);
                }
                match run.items.get(run.cursor) {
                    Some(&(next_us, _)) => sink.reschedule_net_run(SimTime::from_micros(next_us), run),
                    None => self.t.recycle_run_buf(run.items),
                }
            }
            NetEvent::SendUplink(packet) => self.deliver_uplink(now, packet, sink),
            NetEvent::UplinkArrival(packet) => {
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
                            // FEC bookkeeping keys off the group size the frame was
                            // *encoded* under (stored per frame), not the encoder's
                            // current size — adaptive FEC may have re-sized since.
                            if let Some((fi, media_idx)) = t.seq_to_media.get(packet.header.sequence).copied()
                            {
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
                                let group_size = t.media_group_size[slot];
                                let count = (frame.size_bytes.div_ceil(t.max_payload).max(1)) as usize;
                                for pi in 0..count {
                                    if group_of_index(group_size, pi) == Some(group) {
                                        t.fec_recovery.expect_media(frame.frame_id, group, pi);
                                    }
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
                    sink.schedule_net(now + opts.nack.reorder_guard, NetEvent::ReceiverPoll);
                }
            }
            NetEvent::ReceiverPoll => {
                let opts = &self.compute.options;
                t.poll_outstanding = false;
                if !opts.enable_retransmission {
                    return;
                }
                let mut due = t.take_nack_buf();
                t.nack_gen.due_nacks_into(now, &mut due);
                if due.is_empty() {
                    t.recycle_nack_buf(due);
                } else {
                    let fb_packet =
                        Packet::new(t.next_net_packet_id, FEEDBACK_PACKET_BYTES, now).with_flow(1);
                    t.next_net_packet_id += 1;
                    match t.emulator.send(Direction::Downlink, &fb_packet, now).arrival() {
                        Some(arrival) => sink.schedule_net(arrival, NetEvent::FeedbackArrival(due)),
                        None => t.recycle_nack_buf(due),
                    }
                }
                if t.nack_gen.pending_count() > 0 && !t.poll_outstanding {
                    t.poll_outstanding = true;
                    sink.schedule_net(now + RETRY_INTERVAL, NetEvent::ReceiverPoll);
                }
            }
            NetEvent::FeedbackArrival(sequences) => {
                // One retransmit call per NACKed sequence keeps the old→new sequence
                // pairing exact even when some sequences (e.g. lost parity packets) are
                // not in the retransmission store. The retransmission burst coalesces
                // into one run, exactly like a capture's media burst.
                let mut run_items = if self.compute.options.coalesce_delivery {
                    Some(t.take_run_buf())
                } else {
                    None
                };
                for &old_seq in &sequences {
                    let packetizer = &mut t.packetizer;
                    if let Some(p) = t.rtx.retransmit_one(old_seq, || packetizer.allocate_sequence()) {
                        if let Some(mapping) = t.seq_to_media.get(old_seq).copied() {
                            if !t.seq_to_media.insert(p.header.sequence, mapping) {
                                t.metrics.late_seq_drops += 1;
                            }
                        }
                        let when = t.pacer.schedule_send(p.wire_size(), now);
                        match &mut run_items {
                            Some(items) => items.push((when.as_micros(), p)),
                            None => sink.schedule_net(when, NetEvent::SendUplink(p)),
                        }
                    }
                }
                t.recycle_nack_buf(sequences);
                if let Some(items) = run_items {
                    t.dispatch_run(items, sink);
                }
            }
        }
    }

    /// One packet leaves the pacer and enters the uplink: the [`NetEvent::SendUplink`]
    /// body, shared verbatim by per-packet events and coalesced runs (a run calls this
    /// once per due departure, in departure order).
    fn deliver_uplink<S: NetEventSink>(&mut self, now: SimTime, packet: RtpPacket, sink: &mut S) {
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
        let outcome = self.port.send(&mut t.emulator, &net_packet, now);
        match outcome.arrival() {
            Some(arrival) => {
                sink.schedule_net(arrival, NetEvent::UplinkArrival(packet));
                if let Some(dup_at) = self.port.take_duplicate(&mut t.emulator) {
                    // A Duplicate fault episode emitted a second copy one
                    // serialization time behind the original; reassembly and FEC
                    // bookkeeping absorb it idempotently.
                    sink.schedule_net(dup_at, NetEvent::UplinkArrival(packet));
                }
                // The receiver's next report reaches the sender one downlink
                // propagation after arrival.
                t.cc_pending.push((
                    arrival.as_micros() + t.down_prop_us,
                    PacketFeedback {
                        sent_at: now,
                        arrived_at: Some(arrival),
                        size_bytes: packet.wire_size(),
                    },
                ));
            }
            None => {
                t.turn_packets_lost += 1;
                if outcome == DeliveryOutcome::DroppedOutage {
                    // A blackout is *silence*, not a loss report: the receiver only
                    // discovers gaps from later arrivals, and during a full outage
                    // there are none. No synthetic feedback — this silence is
                    // exactly what the congestion controller's watchdog detects.
                    t.pending_outage_recovery = Some(now);
                    return;
                }
                // The sender infers the loss from the gap in the next report:
                // roughly one RTT plus a reporting guard after the send.
                t.cc_pending.push((
                    now.as_micros() + t.up_prop_us + t.down_prop_us + 20_000,
                    PacketFeedback {
                        sent_at: now,
                        arrived_at: None,
                        size_bytes: packet.wire_size(),
                    },
                ));
            }
        }
    }
}

/// Why a turn over no frames is refused: there is no capture to schedule, no deadline to
/// place and nothing for the MLLM to look at. Drivers check their window before anything
/// moves; [`begin_turn_window`] is the backstop.
pub(crate) const EMPTY_TURN_WINDOW: &str = "a chat turn needs at least one frame";

/// Opens a `frame_count`-frame turn window starting at `now`: refreshes the query, arms
/// the deadline-aware NACK budget, resets the per-turn counters and schedules the capture
/// events into `sink`. The driver then drains its timeline to the returned plan's horizon
/// (with a [`TurnMachine`] holding the plan) and calls [`conclude_turn_window`]. Events
/// past the horizon (late packets, pending polls) stay queued for the think gap and the
/// next window.
pub(crate) fn begin_turn_window(
    compute: &mut NetCompute,
    transport: &mut Transport,
    now: SimTime,
    sink: &mut impl NetEventSink,
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
        sink.schedule_net(
            SimTime::from_micros(plan.capture_ts_us(global)),
            NetEvent::Capture(global),
        );
    }
    plan
}

/// Concludes a drained turn window: decodes what arrived, lets the MLLM answer,
/// assembles the report and retires the reported frames ([`Transport::retire_below`]).
/// `machine` must borrow what the turn's machine did: the same `window` it encoded into,
/// and the same uplink `port` it sent on — only read here, for the per-turn fault-counter
/// deltas. Its `frames` are not read.
pub(crate) fn conclude_turn_window(machine: TurnMachine<'_>, question: &Question) -> NetTurnReport {
    let TurnMachine {
        compute,
        scratch,
        window,
        gcc,
        t: transport,
        plan,
        port,
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
            Some(done.saturating_since(t0).as_millis_f64())
        }
        _ => None,
    };
    let uplink_counters = port.counters(&transport.emulator);
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
