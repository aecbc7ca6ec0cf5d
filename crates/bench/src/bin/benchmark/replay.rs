//! The per-layer replay of a chat turn, driven from outside the engine.
//!
//! The engine exposes no stage timings, so the traced run replays a turn's layer calls
//! through each layer crate's public API — the same calls, in the same per-frame order,
//! on the same inputs and options as `net_turn.rs` makes them — with one child span per
//! call (per burst, for per-packet calls). The replay is a closed loop of its own: its
//! GCC is fed by its own link, so a traditional-ABR replay settles at the operating
//! point the engine settles at and sends the same order of packets and retransmissions;
//! the traced run prints replay-vs-engine packet counts side by side. On AI-oriented
//! options the per-frame budget is estimate-independent, so the replay's encoded bytes
//! must equal the engine's exactly — [`TurnReplay::achieved_bitrate_bps`] is compared
//! with the real report and a mismatch fails the traced run.
//!
//! What the replay cannot see from outside (and therefore leaves in
//! `core.transport_residual_us_per_turn`): the engine's own event interleaving, its
//! think-gap drains, the lane kernel's merged heap on fleets, and cross-traffic on the
//! shared link.

use crate::trace::Tracer;
use aivc_mllm::{MllmChat, MllmScratch, Question};
use aivc_netsim::{Link, Packet, SharedLink};
use aivc_rtc::cc::{FeedbackFold, GccController, PacketFeedback};
use aivc_rtc::fec::{group_of_index, FecEncoder, FecRecovery};
use aivc_rtc::nack::{NackGenerator, RtxQueue};
use aivc_rtc::pacer::{Pacer, PacerConfig};
use aivc_rtc::packetizer::{FrameAssembler, OutgoingFrame, Packetizer};
use aivc_rtc::rtp::{PayloadKind, RtpPacket};
use aivc_scene::{Frame, GridDims};
use aivc_semantics::{ClipModel, ClipScratch, TextQuery};
use aivc_sim::{EventQueue, SimDuration, SimTime};
use aivc_videocodec::{
    DecodeScratch, DecodedFrame, Decoder, EncodeScratch, EncodedFrame, Encoder, FrameType, Qp, QpMap,
    RatePlan,
};
use aivchat_core::{NetSessionOptions, QpAllocator, StreamerConfig};
use std::rc::Rc;

/// The uplink a replay sends on: a private [`Link`] or one flow of a [`SharedLink`].
#[derive(Debug)]
pub enum ReplayLink {
    /// `Conversation`'s port.
    Private(Link),
    /// `contention.rs`'s port.
    Shared {
        /// The shared bottleneck.
        link: SharedLink,
        /// This tenant's flow on it.
        flow: usize,
    },
}

/// Sender-side facts about a frame of the turn in flight, as the engine keeps them in its
/// per-frame vectors.
#[derive(Debug, Clone, Copy)]
struct LiveFrame {
    frame_id: u64,
    size_bytes: u64,
    /// Parity group size the frame was protected with.
    group_size: u32,
    /// Sequence number of its first media packet.
    first_seq: u64,
}

/// What one replayed turn did (counts are the replay's own).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TurnReplay {
    /// Frames captured.
    pub frames: u64,
    /// CLIP patches scored (0 on baseline options).
    pub patches: u64,
    /// Eq. 2 blocks allocated (0 on baseline options).
    pub blocks: u64,
    /// Rate-search probes.
    pub probes: u64,
    /// Packets handed to the uplink (media + parity + RTX).
    pub packets: u64,
    /// Of those, retransmissions.
    pub rtx: u64,
    /// Mean encoded media bitrate over the window — the engine's `achieved_bitrate_bps`.
    pub achieved_bitrate_bps: f64,
    /// Σ over frames of the CLIP patch share that frame dirtied (1 for a frame with no
    /// usable predecessor; 0 on baseline options, which never run CLIP).
    pub dirty_patch_share_sum: f64,
}

/// A replayed session: every layer object a `Conversation` owns, built from the same
/// options through public constructors, persistent across replayed turns.
pub struct ChatReplay {
    options: NetSessionOptions,
    context_aware: bool,
    model: Rc<ClipModel>,
    question: Question,
    query: TextQuery,
    previous_frame: Option<Frame>,
    clip: ClipScratch,
    allocator: QpAllocator,
    encoder: Encoder,
    decoder: Decoder,
    responder: MllmChat,
    qp_map: QpMap,
    probe_map: QpMap,
    plan: RatePlan,
    encode_scratches: Vec<EncodeScratch>,
    encoded: Vec<EncodedFrame>,
    decode_scratch: DecodeScratch,
    decoded: Vec<DecodedFrame>,
    mllm: MllmScratch,
    packetizer: Packetizer,
    pacer: Pacer,
    rtx: RtxQueue,
    fec_encoder: FecEncoder,
    fec_recovery: FecRecovery,
    assembler: FrameAssembler,
    nack: NackGenerator,
    gcc: GccController,
    fold: FeedbackFold,
    link: ReplayLink,
    events: EventQueue<RtpPacket>,
    media: Vec<RtpPacket>,
    parity: Vec<RtpPacket>,
    burst: Vec<RtpPacket>,
    departures: Vec<(SimTime, RtpPacket)>,
    arrivals: Vec<(SimTime, RtpPacket)>,
    feedback: Vec<PacketFeedback>,
    due: Vec<u64>,
    live_frames: Vec<LiveFrame>,
    max_payload: u64,
    now_us: u64,
    next_frame_id: u64,
    next_net_packet_id: u64,
}

impl ChatReplay {
    /// Builds the replay session for `options` and `question`, starting its clock at
    /// `start_us`. Construction is spanned as `core.session_build`.
    pub fn new(
        options: NetSessionOptions,
        model: Rc<ClipModel>,
        question: &Question,
        link: ReplayLink,
        start_us: u64,
        tracer: &mut Tracer,
    ) -> Self {
        tracer.span("core.session_build", || {
            let config = StreamerConfig::default();
            let gcc = GccController::new(options.gcc);
            let query = TextQuery::from_words_and_concepts(
                &question.text,
                model.ontology(),
                question.query_concepts.iter().cloned(),
            );
            Self {
                context_aware: matches!(options.mode, aivchat_core::session::StreamingMode::ContextAware),
                query,
                question: question.clone(),
                previous_frame: None,
                clip: ClipScratch::new(),
                allocator: QpAllocator::new(config.allocator),
                encoder: Encoder::new(config.encoder),
                decoder: Decoder::new(),
                responder: MllmChat::responder(options.seed ^ 0x5EED),
                qp_map: QpMap::empty(),
                probe_map: QpMap::empty(),
                plan: RatePlan::new(),
                encode_scratches: Vec::new(),
                encoded: Vec::new(),
                decode_scratch: DecodeScratch::new(),
                decoded: Vec::new(),
                mllm: MllmScratch::new(),
                packetizer: Packetizer::default(),
                pacer: Pacer::new(PacerConfig::from_target_bitrate(gcc.estimate_bps(), 2.5)),
                rtx: RtxQueue::new(),
                fec_encoder: FecEncoder::new(options.fec),
                fec_recovery: FecRecovery::new(),
                assembler: FrameAssembler::new(),
                nack: NackGenerator::new(options.nack),
                gcc,
                fold: FeedbackFold::new(),
                link,
                events: EventQueue::new(),
                media: Vec::new(),
                parity: Vec::new(),
                burst: Vec::new(),
                departures: Vec::new(),
                arrivals: Vec::new(),
                feedback: Vec::new(),
                due: Vec::new(),
                live_frames: Vec::new(),
                max_payload: u64::from(Packetizer::default().max_payload()),
                now_us: start_us,
                next_frame_id: 0,
                next_net_packet_id: 0,
                model,
                options,
            }
        })
    }

    /// The replay's clock.
    pub fn now_us(&self) -> u64 {
        self.now_us
    }

    /// Hands the uplink back (a shared link moves on to the next tenant).
    pub fn into_link(self) -> ReplayLink {
        self.link
    }

    /// Replays one turn over `frames`, then the think gap. Every layer call sits in a
    /// child span of one `replay.turn` root stamped with `turn`.
    pub fn replay_turn(
        &mut self,
        frames: &[Frame],
        question: &Question,
        think: SimDuration,
        turn: u32,
        tracer: &mut Tracer,
    ) -> TurnReplay {
        tracer.set_turn(turn);
        let root = tracer.enter("replay.turn");
        let mut out = TurnReplay {
            frames: frames.len() as u64,
            ..TurnReplay::default()
        };
        let fps = self.options.capture_fps;
        let interval_us = (1e6 / fps).round() as u64;
        let turn_start_us = self.now_us;
        let first_frame_id = self.next_frame_id;
        let horizon_us = turn_start_us
            + (frames.len() as u64 - 1) * interval_us
            + (self.options.drain_secs.max(0.0) * 1e6).round() as u64;
        if self.options.deadline_aware_nack {
            let up = self.options.path.uplink.propagation_delay.as_micros();
            let down = self.options.path.downlink.propagation_delay.as_micros();
            self.nack.set_deadline(
                Some(SimTime::from_micros(horizon_us)),
                SimDuration::from_micros(up + down + 10_000),
            );
        }
        if self.encode_scratches.len() < frames.len() {
            self.encode_scratches
                .resize_with(frames.len(), EncodeScratch::new);
            self.encoded.resize_with(frames.len(), EncodedFrame::placeholder);
            self.decoded.resize_with(frames.len(), DecodedFrame::placeholder);
        }
        self.live_frames.clear();
        let mut encoded_bits = 0u64;
        if *question != self.question {
            // The engine's query memo: re-derived only when the question changes.
            tracer.span("semantics.text_query", || {
                self.query = TextQuery::from_words_and_concepts(
                    &question.text,
                    self.model.ontology(),
                    question.query_concepts.iter().cloned(),
                );
                self.question = question.clone();
            });
        }

        for (slot, frame) in frames.iter().enumerate() {
            let now = SimTime::from_micros(turn_start_us + slot as u64 * interval_us);

            // --- Close the loop: what the sender learned since the last capture.
            tracer.span_units("rtc.gcc_fold", || {
                self.fold.clear();
                for fb in self.feedback.drain(..) {
                    self.fold.push(&fb);
                }
                let reports = usize::from(!self.fold.is_empty());
                if reports > 0 {
                    self.gcc.on_feedback_fold_at(now, &self.fold);
                }
                self.gcc.poll_watchdog(now);
                ((), reports)
            });
            let target_bps = self.options.abr.target_bitrate(self.gcc.estimate_bps());
            let adaptive = self.options.adaptive_fec;
            if adaptive.enabled && self.options.fec.is_enabled() {
                let g = adaptive.group_for_loss(self.gcc.loss_estimate(), self.options.fec.group_size);
                self.fec_encoder.set_group_size(g);
            }
            let group_size = self.fec_encoder.group_size();
            let budget_bits = if adaptive.enabled && group_size > 0 {
                (target_bps / fps) * f64::from(group_size) / (f64::from(group_size) + 1.0)
            } else {
                target_bps / fps
            };

            // --- Eq. 1, Eq. 2, rate plan, probe search, the one real encode.
            let grid = self.encoder.grid_for(frame);
            if self.context_aware {
                let Self {
                    model,
                    query,
                    clip,
                    allocator,
                    qp_map,
                    ..
                } = self;
                let importance = tracer.span_units("semantics.clip", || {
                    let map = model.correlation_map_coherent(frame, query, clip);
                    let patches = map.values().len();
                    (map, patches)
                });
                out.patches += importance.values().len() as u64;
                tracer.span_units("allocator.eq2", || {
                    allocator.allocate_into(importance, grid, qp_map);
                    ((), qp_map.values().len())
                });
                out.blocks += self.qp_map.values().len() as u64;
            }
            tracer.span("videocodec.rate_plan", || {
                let base = self.context_aware.then_some(&self.qp_map);
                self.encoder.prepare_rate_plan(frame, base, &mut self.plan);
            });
            let (level, probes) = tracer.span_units("videocodec.rate_search", || {
                let found = self.search_level(budget_bits);
                (found, found.1)
            });
            out.probes += probes as u64;
            tracer.span("videocodec.encode", || {
                if self.context_aware {
                    self.qp_map.offset_all_into(level, &mut self.probe_map);
                } else {
                    self.probe_map.fill_uniform(grid, Qp::new(level));
                }
                self.encoder.encode_into_planned(
                    frame,
                    &self.probe_map,
                    &self.plan,
                    &mut self.encode_scratches[slot],
                    &mut self.encoded[slot],
                );
            });
            let encoded = &self.encoded[slot];
            let frame_out = OutgoingFrame {
                frame_id: self.next_frame_id,
                capture_ts_us: now.as_micros(),
                size_bytes: encoded.total_bytes(),
                is_keyframe: encoded.frame_type == FrameType::Intra,
            };
            self.next_frame_id += 1;
            encoded_bits += frame_out.size_bytes * 8;

            // --- Packetize, protect, remember for RTX; then the burst rides the network.
            let _clamped = self.pacer.set_rate(target_bps * 2.5, now);
            tracer.span_units("rtc.packetize", || {
                self.packetizer.packetize_into(&frame_out, &mut self.media);
                ((), self.media.len())
            });
            self.live_frames.push(LiveFrame {
                frame_id: frame_out.frame_id,
                size_bytes: frame_out.size_bytes,
                group_size,
                first_seq: self.media[0].header.sequence,
            });
            tracer.span_units("rtc.fec_protect", || {
                if group_size > 0 {
                    for (pi, p) in self.media.iter_mut().enumerate() {
                        p.fec_group = group_of_index(group_size, pi);
                    }
                }
                let packetizer = &mut self.packetizer;
                self.fec_encoder.protect_into(
                    &self.media,
                    || packetizer.allocate_sequence(),
                    &mut self.parity,
                );
                ((), self.media.len())
            });
            tracer.span_units("rtc.nack", || {
                for p in &self.media {
                    let _ = self.rtx.remember(p);
                }
                ((), self.media.len())
            });
            tracer.span("rtc.assembler", || self.assembler.expect_frame(&frame_out));
            self.burst.clear();
            self.burst.extend_from_slice(&self.media);
            self.burst.extend_from_slice(&self.parity);
            out.packets += self.burst.len() as u64;
            let last_arrival = self.send_burst(now, tracer);

            // --- The receiver's poll after the burst: due NACKs come back as one RTX burst.
            if self.options.enable_retransmission {
                let poll_at = last_arrival.unwrap_or(now) + self.options.nack.reorder_guard;
                let retransmit_at = poll_at + self.options.path.downlink.propagation_delay;
                tracer.span_units("rtc.nack", || {
                    self.nack.due_nacks_into(poll_at, &mut self.due);
                    self.burst.clear();
                    for &seq in &self.due {
                        let packetizer = &mut self.packetizer;
                        if let Some(p) = self.rtx.retransmit_one(seq, || packetizer.allocate_sequence()) {
                            self.burst.push(p);
                        }
                    }
                    ((), self.due.len().max(1))
                });
                if !self.burst.is_empty() {
                    out.packets += self.burst.len() as u64;
                    out.rtx += self.burst.len() as u64;
                    self.send_burst(retransmit_at, tracer);
                }
            }
        }

        // --- Deadline: decode what arrived, answer, retire the turn.
        let mut decoded_count = 0usize;
        tracer.span_units("videocodec.decode", || {
            for (slot, live) in self.live_frames.iter().enumerate() {
                let Some(view) = self.assembler.view(live.frame_id) else {
                    continue;
                };
                if view.received_ranges.is_empty() {
                    continue;
                }
                self.decoder.decode_into(
                    &self.encoded[slot],
                    view.received_ranges,
                    view.completed_at.map(|t| t.as_micros()),
                    &mut self.decode_scratch,
                    &mut self.decoded[decoded_count],
                );
                decoded_count += 1;
            }
            ((), decoded_count)
        });
        tracer.span("mllm.respond", || {
            std::hint::black_box(self.responder.respond_with(
                question,
                &self.decoded[..decoded_count],
                self.options.seed,
                &mut self.mllm,
            ));
        });
        tracer.span("rtc.retire", || {
            let bound_seq = self.packetizer.next_sequence();
            self.assembler.retire_before(self.next_frame_id);
            self.fec_recovery.retire_before(self.next_frame_id);
            self.rtx.forget_before(bound_seq);
            self.nack.forget_below(bound_seq);
        });
        debug_assert_eq!(self.next_frame_id - first_frame_id, frames.len() as u64);
        self.now_us = horizon_us + think.as_micros();
        out.achieved_bitrate_bps = encoded_bits as f64 / (frames.len() as f64 / fps).max(1e-9);
        tracer.exit(root);
        // Outside every span: how much of the patch grid each frame dirtied.
        if self.context_aware {
            let patch = self.model.config().patch_size;
            let mut previous = self.previous_frame.as_ref();
            for frame in frames {
                out.dirty_patch_share_sum += match previous {
                    Some(p) if p.placements.len() == frame.placements.len() => {
                        dirty_patch_share(p, frame, patch)
                    }
                    _ => 1.0,
                };
                previous = Some(frame);
            }
            self.previous_frame = frames.last().cloned();
        }
        out
    }

    /// The engine's §3.2 bitrate match: binary search of the QP offset (context-aware) or
    /// the uniform QP (baseline) over the prepared plan. Returns the level and the probes.
    fn search_level(&self, budget_bits: f64) -> (i32, usize) {
        let (mut lo, mut hi) = if self.context_aware {
            (-51i32, 51i32)
        } else {
            (0i32, 51i32)
        };
        let mut best_level = lo;
        let mut best_err = f64::INFINITY;
        let mut probes = 0usize;
        while lo <= hi {
            let mid = (lo + hi) / 2;
            let size = if self.context_aware {
                self.encoder.predict_plan_offset_size(&self.plan, mid)
            } else {
                self.encoder.predict_plan_uniform_size(&self.plan, Qp::new(mid))
            };
            probes += 1;
            let bits = (size * 8) as f64;
            let err = (bits - budget_bits).abs();
            if err < best_err {
                best_err = err;
                best_level = mid;
            }
            if bits > budget_bits {
                lo = mid + 1;
            } else {
                hi = mid - 1;
            }
        }
        (best_level, probes)
    }

    /// Sends `self.burst` at `now`: pacer → kernel → link → kernel → receiver machines.
    /// Returns the last arrival time, if anything arrived.
    fn send_burst(&mut self, now: SimTime, tracer: &mut Tracer) -> Option<SimTime> {
        let packets = self.burst.len();
        tracer.span_units("rtc.pacer", || {
            self.departures.clear();
            for p in &self.burst {
                let when = self.pacer.schedule_send(p.wire_size(), now);
                self.departures.push((when, *p));
            }
            ((), packets)
        });
        // One kernel event per departure (the engine coalesces a burst into re-armed
        // runs; one schedule + pop per departure is the per-packet upper bound).
        tracer.span_units("sim.schedule_pop", || {
            for &(when, p) in &self.departures {
                self.events.schedule(when, p);
            }
            self.departures.clear();
            while let Some((when, p)) = self.events.pop() {
                self.departures.push((when, p));
            }
            ((), packets)
        });
        let link_span = match self.link {
            ReplayLink::Private(_) => "netsim.link_send",
            ReplayLink::Shared { .. } => "netsim.shared_send",
        };
        tracer.span_units(link_span, || {
            self.arrivals.clear();
            for &(when, p) in &self.departures {
                let net = Packet::new(self.next_net_packet_id, p.wire_size(), when)
                    .with_flow(0)
                    .with_tag(p.header.sequence);
                self.next_net_packet_id += 1;
                let outcome = match &mut self.link {
                    ReplayLink::Private(link) => link.send(&net, when),
                    ReplayLink::Shared { link, flow } => link.send(*flow, &net, when),
                };
                let arrived_at = outcome.arrival();
                if let Some(arrival) = arrived_at {
                    self.arrivals.push((arrival, p));
                }
                self.feedback.push(PacketFeedback {
                    sent_at: when,
                    arrived_at,
                    size_bytes: p.wire_size(),
                });
            }
            ((), packets)
        });
        let delivered = self.arrivals.len();
        tracer.span_units("sim.schedule_pop", || {
            for &(when, p) in &self.arrivals {
                self.events.schedule(when, p);
            }
            self.arrivals.clear();
            while let Some((when, p)) = self.events.pop() {
                self.arrivals.push((when, p));
            }
            ((), delivered)
        });
        tracer.span_units("rtc.nack", || {
            for &(when, p) in &self.arrivals {
                self.nack.on_packet(p.header.sequence, when);
            }
            ((), delivered)
        });
        tracer.span_units("rtc.assembler", || {
            for (when, p) in &self.arrivals {
                if p.header.kind != PayloadKind::Fec {
                    self.assembler.on_packet(p, *when);
                }
            }
            ((), delivered)
        });
        tracer.span_units("rtc.fec_recovery", || {
            for i in 0..delivered {
                let (when, p) = self.arrivals[i];
                self.fec_on_arrival(when, &p);
            }
            ((), delivered)
        });
        self.arrivals.last().map(|(when, _)| *when)
    }

    /// The engine's arrival-side FEC bookkeeping for one packet, including the synthetic
    /// re-insertion of a recovered packet.
    fn fec_on_arrival(&mut self, now: SimTime, packet: &RtpPacket) {
        let frame_id = packet.header.frame_id;
        let Some(&LiveFrame {
            size_bytes,
            group_size,
            first_seq,
            ..
        }) = self.live_frames.iter().find(|f| f.frame_id == frame_id)
        else {
            return;
        };
        // Every arrival nominates its group for a recovery check, as in the engine.
        let group = match packet.header.kind {
            PayloadKind::Media | PayloadKind::Retransmission => {
                let media_idx = (packet.payload_start / self.max_payload) as usize;
                let Some(group) = group_of_index(group_size, media_idx) else {
                    return;
                };
                self.fec_recovery.on_media(frame_id, group, media_idx);
                group
            }
            PayloadKind::Fec => {
                let Some(group) = packet.fec_group else {
                    return;
                };
                let count = size_bytes.div_ceil(self.max_payload).max(1) as usize;
                for pi in 0..count {
                    if group_of_index(group_size, pi) == Some(group) {
                        self.fec_recovery.expect_media(frame_id, group, pi);
                    }
                }
                self.fec_recovery.on_parity(frame_id, group);
                group
            }
            PayloadKind::Feedback => return,
        };
        for recovered in self.fec_recovery.recoverable(frame_id, group) {
            let start = recovered as u64 * self.max_payload;
            let end = ((recovered as u64 + 1) * self.max_payload).min(size_bytes);
            let synthetic = RtpPacket {
                header: packet.header,
                payload_start: start,
                payload_end: end,
                fec_group: Some(group),
            };
            self.assembler.on_packet(&synthetic, now);
            self.fec_recovery.on_media(frame_id, group, recovered);
            // The receiver holds the bytes: cancel the recovered packet's pending NACK.
            self.nack.on_packet(first_seq + recovered as u64, now);
        }
    }
}

/// Share of the CLIP patch grid dirtied between two consecutive frames: cells overlapped
/// by the old or new placement of any object that moved — the set
/// `ClipModel::correlation_map_coherent` recomputes.
pub fn dirty_patch_share(previous: &Frame, current: &Frame, patch_size: u32) -> f64 {
    let dims = GridDims::for_frame(current.width, current.height, patch_size);
    let mut dirty = vec![false; dims.len()];
    for (a, b) in previous.placements.iter().zip(&current.placements) {
        if a.region == b.region {
            continue;
        }
        for rect in [&a.region, &b.region] {
            for row in 0..dims.rows {
                for col in 0..dims.cols {
                    if dims
                        .cell_rect(row, col, current.width, current.height)
                        .coverage_by(rect)
                        > 0.0
                    {
                        dirty[dims.index(row, col)] = true;
                    }
                }
            }
        }
    }
    dirty.iter().filter(|d| **d).count() as f64 / dims.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{ai_options, chat_inputs, think_gap, traditional_options, SeedPlan};
    use aivchat_core::Conversation;

    fn replay_for(options: NetSessionOptions, tracer: &mut Tracer) -> ChatReplay {
        let plan = SeedPlan::from_seed(5);
        let inputs = chat_inputs(plan);
        let link = ReplayLink::Private(Link::new(options.path.uplink.clone(), options.seed));
        ChatReplay::new(
            options,
            Rc::new(ClipModel::mobile_default()),
            &inputs.question,
            link,
            0,
            tracer,
        )
    }

    #[test]
    fn ai_replay_encodes_exactly_the_bytes_the_engine_does() {
        let plan = SeedPlan::from_seed(5);
        let inputs = chat_inputs(plan);
        let mut tracer = Tracer::with_capacity(4096);
        let mut replay = replay_for(ai_options(plan), &mut tracer);
        let mut engine = Conversation::with_defaults(ai_options(plan), think_gap());
        for (turn, window) in inputs.windows.iter().take(4).enumerate() {
            let real = engine.run_turn(window, &inputs.question);
            let replayed =
                replay.replay_turn(window, &inputs.question, think_gap(), turn as u32, &mut tracer);
            assert_eq!(
                replayed.achieved_bitrate_bps, real.achieved_bitrate_bps,
                "turn {turn}"
            );
            assert!(replayed.patches > 0 && replayed.blocks > 0 && replayed.probes > 0);
        }
        let names: std::collections::BTreeSet<&str> = tracer.spans().iter().map(|s| s.name).collect();
        for name in [
            "semantics.clip",
            "allocator.eq2",
            "videocodec.rate_plan",
            "videocodec.rate_search",
            "videocodec.encode",
            "rtc.packetize",
            "rtc.fec_protect",
            "rtc.pacer",
            "sim.schedule_pop",
            "netsim.link_send",
            "rtc.assembler",
            "rtc.nack",
            "rtc.fec_recovery",
            "rtc.gcc_fold",
            "videocodec.decode",
            "mllm.respond",
            "replay.turn",
        ] {
            assert!(names.contains(name), "no span named {name}");
        }
        let roots = tracer.spans().iter().filter(|s| s.name == "replay.turn");
        assert_eq!(roots.count(), 4);
    }

    #[test]
    fn traditional_replay_skips_clip_and_sends_many_more_packets() {
        let plan = SeedPlan::from_seed(5);
        let inputs = chat_inputs(plan);
        let mut tracer = Tracer::with_capacity(8192);
        let mut ai = replay_for(ai_options(plan), &mut tracer);
        let mut trad = replay_for(traditional_options(plan), &mut tracer);
        let (mut ai_packets, mut trad_packets, mut trad_patches) = (0, 0, 0);
        for (turn, window) in inputs.windows.iter().take(6).enumerate() {
            ai_packets += ai
                .replay_turn(window, &inputs.question, think_gap(), turn as u32, &mut tracer)
                .packets;
            let t = trad.replay_turn(window, &inputs.question, think_gap(), turn as u32, &mut tracer);
            trad_packets += t.packets;
            trad_patches += t.patches;
        }
        assert_eq!(trad_patches, 0);
        // Six cold turns: the traditional controller is still climbing to its operating
        // point (~13x the AI floor's packets once warm), so only a loose ratio holds yet.
        assert!(
            trad_packets >= 2 * ai_packets,
            "trad {trad_packets} ai {ai_packets}"
        );
    }

    #[test]
    fn dirty_share_is_zero_for_a_still_pair_and_positive_under_motion() {
        let inputs = chat_inputs(SeedPlan::from_seed(5));
        let w = &inputs.windows[0];
        assert_eq!(dirty_patch_share(&w[0], &w[0], 64), 0.0);
        let moved = dirty_patch_share(&w[0], &w[1], 64);
        assert!(moved > 0.0 && moved < 1.0, "dirty share {moved}");
    }
}
