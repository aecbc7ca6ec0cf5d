//! The traced run (`--trace 1`): per-layer metrics, separate from the gated run.
//!
//! Three parts share one span file:
//!
//! 1. **Layer micro-calls** that no turn replays: model and conversation construction,
//!    frame generation, kernel cancel, pool dispatch, counter snapshots, and a small
//!    fleet at one lane vs `nproc` lanes.
//! 2. **One real repetition** of the workload in which every second cycle of rounds has
//!    each engine call wrapped in a root span. Plain rounds give the untraced host time,
//!    spanned rounds the per-turn distribution; their ratio is the tracing overhead. The
//!    fixed block's public counters give every count-type metric, exactly.
//! 3. **The replay** ([`crate::replay`]) of a sample of turns, one child span per layer
//!    call, from which every per-layer time is computed as Σ self time ÷ Σ work units.

use crate::gated::{fast_state_turn_us, run_repetition, RepetitionRun};
use crate::inputs::{
    ai_options, chat_inputs, chat_source, contention_scenarios, think_gap, traditional_options, SeedPlan,
    FRAMES_PER_TURN, WINDOWS_PER_ROUND,
};
use crate::replay::{ChatReplay, ReplayLink, TurnReplay};
use crate::schema::{assert_matches, Values, PER_LAYER};
use crate::stats::{nearest_rank, FAST_STATE_QUANTILE};
use crate::trace::{self_times_ns, Span, Tracer, ROOT};
use crate::workloads::{Workload, FLEET_SESSIONS, FLEET_WARMUP_ROUNDS};
use aivc_netsim::{Link, SharedLink};
use aivc_par::MiniPool;
use aivc_semantics::ClipModel;
use aivc_sim::{EventQueue, SimTime};
use aivchat_core::{Conversation, ConversationChatServer, NetSessionOptions};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Duration;

/// Share of `--seconds` the real repetition measures for; the rest goes to the
/// micro-calls and the replay, which are sized by count.
const REAL_RUN_SHARE: f64 = 0.4;
/// Sessions of the one-lane-vs-`nproc`-lanes diagnostic fleet.
const SPEEDUP_FLEET_SESSIONS: usize = 8;
/// Rounds each diagnostic fleet runs (after two warm-up rounds).
const SPEEDUP_ROUNDS: usize = 12;

/// Everything a traced run measured.
#[derive(Debug)]
pub struct TracedOutcome {
    /// The real repetition.
    pub real: RepetitionRun,
    /// The replay's own totals, for the side-by-side line of the human-readable output.
    pub replay: ReplayTotals,
    /// Whether the replay's encoded bytes matched the engine's on AI-oriented options
    /// (`None`: not applicable to this workload).
    pub replay_bytes_match: Option<bool>,
    /// Every span of the run, in opening order.
    pub spans: Vec<Span>,
    /// The per-layer metrics, in schema order.
    pub metrics: Values,
}

impl TracedOutcome {
    /// True when no session-turn failed a check and the replay reproduced the engine's
    /// encoded bytes where it must.
    pub fn correct(&self) -> bool {
        let tally = &self.real.outcome.tally;
        tally.failed == 0 && tally.attempted > 0 && self.replay_bytes_match != Some(false)
    }
}

/// Sums over the replayed turns.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ReplayTotals {
    /// Turns replayed inside spans.
    pub turns: u64,
    /// Σ frames.
    pub frames: u64,
    /// Σ CLIP patches.
    pub patches: u64,
    /// Σ Eq. 2 blocks.
    pub blocks: u64,
    /// Σ rate-search probes.
    pub probes: u64,
    /// Σ packets handed to the uplink.
    pub packets: u64,
    /// Σ retransmissions among them.
    pub rtx: u64,
    /// Σ per-frame dirty patch share.
    pub dirty_patch_share_sum: f64,
    /// Frames whose dirty share was summed (context-aware sessions only).
    pub clip_frames: u64,
}

impl ReplayTotals {
    fn add(&mut self, t: &TurnReplay, context_aware: bool) {
        self.turns += 1;
        self.frames += t.frames;
        self.patches += t.patches;
        self.blocks += t.blocks;
        self.probes += t.probes;
        self.packets += t.packets;
        self.rtx += t.rtx;
        self.dirty_patch_share_sum += t.dirty_patch_share_sum;
        if context_aware {
            self.clip_frames += t.frames;
        }
    }
}

/// Runs the traced benchmark of one workload.
pub fn run_traced(workload: Workload, seed: u64, seconds: f64) -> TracedOutcome {
    let plan = SeedPlan::from_seed(seed);
    let mut tracer = Tracer::with_capacity(1 << 17);
    let lanes = micro_calls(plan, &mut tracer);

    let budget = Duration::from_secs_f64(seconds * REAL_RUN_SHARE);
    let real = run_repetition(workload, plan, 0, budget, Some(&mut tracer));

    let (replay, replay_bytes_match) = match workload {
        Workload::AiChatWarm => {
            let (totals, matched) = replay_warm(
                ai_options(plan),
                plan,
                1,
                &real.outcome.first_turns_achieved_bps,
                0,
                &mut tracer,
            );
            (totals, Some(matched))
        }
        Workload::TraditionalHighrateLossy => {
            let (totals, _) = replay_warm(traditional_options(plan), plan, 1, &[], 0, &mut tracer);
            (totals, None)
        }
        Workload::Fleet64AiWarm => {
            let (totals, matched) = replay_warm(
                ai_options(plan),
                plan,
                FLEET_SESSIONS,
                &real.outcome.first_turns_achieved_bps,
                FLEET_WARMUP_ROUNDS,
                &mut tracer,
            );
            (totals, Some(matched))
        }
        Workload::ContentionCold => (replay_contention(plan, &mut tracer), None),
    };

    let spans = tracer.spans().to_vec();
    let metrics = per_layer_metrics(workload, &real, &replay, &spans, lanes);
    TracedOutcome {
        real,
        replay,
        replay_bytes_match,
        spans,
        metrics,
    }
}

/// Part 1. Returns the lane count of the multi-lane pool it used.
fn micro_calls(plan: SeedPlan, tracer: &mut Tracer) -> usize {
    // scene: one span per generated 1080p frame.
    let source = chat_source(plan);
    for i in 0..64u64 {
        tracer.span("scene.frame_build", || black_box(source.frame(i * 2)));
    }
    // semantics / core: construction, the cost every `Conversation` pays once.
    for _ in 0..3 {
        tracer.span("semantics.model_build", || black_box(ClipModel::mobile_default()));
    }
    let mut conversation = None;
    for _ in 0..3 {
        conversation = Some(tracer.span("core.conversation_build", || {
            Conversation::with_defaults(ai_options(plan), think_gap())
        }));
    }
    // metrics: the always-on counter snapshot.
    let conversation = conversation.expect("built above");
    tracer.span_units("metrics.snapshot", || {
        for _ in 0..1_000 {
            black_box(conversation.metrics_snapshot());
        }
        ((), 1_000)
    });
    // sim: O(1) cancel against a populated queue (schedule/pop is spanned by the replay).
    let mut queue: EventQueue<u64> = EventQueue::new();
    for i in 0..1_024u64 {
        queue.schedule(SimTime::from_micros(1_000_000 + i * 7), i);
    }
    for _ in 0..16 {
        let ids: Vec<_> = (0..256u64)
            .map(|i| queue.schedule(SimTime::from_micros(500_000 + i * 3), i))
            .collect();
        tracer.span_units("sim.cancel", || {
            for id in ids {
                black_box(queue.cancel(id));
            }
            ((), 256)
        });
    }
    // par: an empty section on every lane the box has.
    let lanes = MiniPool::available_lanes();
    let pool = MiniPool::new(lanes);
    for _ in 0..8 {
        tracer.span_units("par.dispatch", || {
            for _ in 0..64 {
                pool.run(&|lane| {
                    black_box(lane);
                });
            }
            ((), 64)
        });
    }
    drop(pool);
    // par: the same small fleet at one lane and at `lanes` lanes, rounds interleaved.
    let inputs = chat_inputs(plan);
    let mut fleets: Vec<(&'static str, ConversationChatServer)> = vec![
        (
            "par.fleet_round_one_lane",
            ConversationChatServer::new(1, SPEEDUP_FLEET_SESSIONS, ai_options(plan), think_gap()),
        ),
        (
            "par.fleet_round_all_lanes",
            ConversationChatServer::new(lanes, SPEEDUP_FLEET_SESSIONS, ai_options(plan), think_gap()),
        ),
    ];
    for round in 0..2 + SPEEDUP_ROUNDS {
        let window = &inputs.windows[round % WINDOWS_PER_ROUND];
        for (name, server) in &mut fleets {
            server.reserve_turns(1, FRAMES_PER_TURN);
            if round < 2 {
                server.run_turns(window, &inputs.question);
            } else {
                tracer.span_units(name, || {
                    server.run_turns(window, &inputs.question);
                    ((), SPEEDUP_FLEET_SESSIONS)
                });
            }
        }
    }
    lanes
}

/// Part 3 for the three warm workloads: `sessions` replay sessions sharing one model play
/// the workload's windows round-robin — first untraced until every session has seen every
/// window, then inside spans. `engine_achieved[i]` is the engine's `achieved_bitrate_bps`
/// for the window its measured turn `i` played (`first_window` is that turn 0's window);
/// returns whether every replayed turn matched it.
fn replay_warm(
    options: NetSessionOptions,
    plan: SeedPlan,
    sessions: usize,
    engine_achieved: &[f64],
    first_window: usize,
    tracer: &mut Tracer,
) -> (ReplayTotals, bool) {
    let inputs = chat_inputs(plan);
    let context_aware = matches!(options.mode, aivchat_core::session::StreamingMode::ContextAware);
    let model = Rc::new(ClipModel::mobile_default());
    let mut warmup_tracer = Tracer::with_capacity(1 << 12);
    let mut replays: Vec<ChatReplay> = (0..sessions)
        .map(|i| {
            let mut o = options.clone();
            o.seed = options.seed.wrapping_add(i as u64);
            let link = ReplayLink::Private(Link::new(o.path.uplink.clone(), o.seed));
            ChatReplay::new(
                o,
                Rc::clone(&model),
                &inputs.question,
                link,
                0,
                &mut warmup_tracer,
            )
        })
        .collect();
    // Warm up until every session has seen every window; then enough spanned turns that
    // each window has at least twenty samples.
    let warmup_rounds = WINDOWS_PER_ROUND;
    let measured_rounds = if sessions == 1 { 20 * WINDOWS_PER_ROUND } else { 4 };
    let mut totals = ReplayTotals::default();
    let mut matched = true;
    let mut sample = 0u32;
    for round in 0..warmup_rounds + measured_rounds {
        let window_index = round % WINDOWS_PER_ROUND;
        let window = &inputs.windows[window_index];
        for replay in &mut replays {
            if round < warmup_rounds {
                warmup_tracer.clear();
                replay.replay_turn(window, &inputs.question, think_gap(), 0, &mut warmup_tracer);
                continue;
            }
            // Turn ids are congruent to the window index modulo the period, which is how
            // `replay_layer_times` knows which turns did the same work.
            let turn = sample * WINDOWS_PER_ROUND as u32 + window_index as u32;
            sample += 1;
            let t = replay.replay_turn(window, &inputs.question, think_gap(), turn, tracer);
            totals.add(&t, context_aware);
            let engine_turn =
                (window_index + WINDOWS_PER_ROUND - first_window % WINDOWS_PER_ROUND) % WINDOWS_PER_ROUND;
            if let Some(expected) = engine_achieved.get(engine_turn) {
                matched &= t.achieved_bitrate_bps == *expected;
            }
        }
    }
    (totals, matched)
}

/// Part 3 for `contention_cold`: one pass over the registry, every tenant built from
/// nothing (its own model, its own session) and replayed turn by turn on one shared link
/// per leg. Tenants run one after another on the link's clock; cross-traffic is not
/// replayed.
fn replay_contention(plan: SeedPlan, tracer: &mut Tracer) -> ReplayTotals {
    let mut totals = ReplayTotals::default();
    let mut turn = 0u32;
    for scenario in contention_scenarios(plan) {
        for ai_oriented in [false, true] {
            let mut link = ReplayLink::Shared {
                link: SharedLink::new(scenario.shared_uplink.clone(), scenario.seed, scenario.tenants),
                flow: 0,
            };
            let mut clock_us = 0u64;
            for tenant in 0..scenario.tenants {
                let spec = scenario.tenant_spec(tenant, ai_oriented);
                let context_aware = matches!(
                    spec.options.mode,
                    aivchat_core::session::StreamingMode::ContextAware
                );
                // Construction is charged to the tenant's first turn.
                tracer.set_turn(turn);
                let tenant_root = tracer.enter("replay.tenant");
                let model = tracer.span("semantics.model_build", || Rc::new(ClipModel::mobile_default()));
                if let ReplayLink::Shared { flow, .. } = &mut link {
                    *flow = tenant;
                }
                let mut replay = ChatReplay::new(
                    spec.options,
                    model,
                    &spec.turns[0].question,
                    link,
                    clock_us,
                    tracer,
                );
                for t in &spec.turns {
                    let replayed = replay.replay_turn(&t.frames, &t.question, spec.think, turn, tracer);
                    turn += 1;
                    totals.add(&replayed, context_aware);
                }
                clock_us = replay.now_us();
                link = replay.into_link();
                tracer.exit_units(tenant_root, spec.turns.len());
            }
        }
    }
    totals
}

/// Host time of one span name inside the replay.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct LayerTime {
    /// Fast-state self time per replayed turn, ns.
    ns_per_turn: f64,
    /// Mean work units per replayed turn.
    units_per_turn: f64,
}

impl LayerTime {
    fn ns_per_unit(&self) -> f64 {
        if self.units_per_turn > 0.0 {
            self.ns_per_turn / self.units_per_turn
        } else {
            0.0
        }
    }
}

/// Layers whose replayed self time counts as compute; everything else under a replayed
/// turn is transport. `core.transport_residual_us_per_turn` is the real turn minus these.
const COMPUTE_LAYERS: [&str; 5] = ["semantics.", "allocator.", "videocodec.", "mllm.", "core."];

/// Fast-state self time per replayed turn of every span name inside the replay.
///
/// A span belongs to the replay when its outermost ancestor is a `replay.*` root; the
/// roots' own self time (loop overhead of the benchmark, not of any layer) is left out.
/// Replayed turns whose ids are equal modulo `period` played the same window, i.e. did
/// the same work: for each such kind the nearest-rank p10 of the per-turn totals is
/// taken, and the kinds are averaged — the estimator `turn_host_us` uses, so the layers
/// and the turn they explain are both read in the box's fast state. `period == 0` means
/// no two turns are alike (`contention_cold`), which reduces to the plain mean.
fn replay_layer_times(spans: &[Span], own: &[u64], period: u32) -> BTreeMap<&'static str, LayerTime> {
    let kind_of = |turn: u32| if period > 0 { turn % period } else { turn };
    let mut in_replay = vec![false; spans.len()];
    let mut turns_by_kind: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    let mut per_turn: BTreeMap<(&'static str, u32), u64> = BTreeMap::new();
    let mut units: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (i, span) in spans.iter().enumerate() {
        in_replay[i] = if span.parent == ROOT {
            span.name.starts_with("replay.")
        } else {
            in_replay[span.parent as usize]
        };
        if !in_replay[i] {
            continue;
        }
        if span.name == "replay.turn" {
            turns_by_kind
                .entry(kind_of(span.turn))
                .or_default()
                .push(span.turn);
        } else if !span.name.starts_with("replay.") {
            *per_turn.entry((span.name, span.turn)).or_default() += own[i];
            *units.entry(span.name).or_default() += u64::from(span.units);
        }
    }
    let turns: usize = turns_by_kind.values().map(Vec::len).sum();
    units
        .into_iter()
        .map(|(name, total_units)| {
            let fast_sum: f64 = turns_by_kind
                .values()
                .map(|turns_of_kind| {
                    let samples: Vec<f64> = turns_of_kind
                        .iter()
                        .map(|turn| per_turn.get(&(name, *turn)).copied().unwrap_or(0) as f64)
                        .collect();
                    nearest_rank(&samples, FAST_STATE_QUANTILE).unwrap_or(0.0)
                })
                .sum();
            let time = LayerTime {
                ns_per_turn: fast_sum / turns_by_kind.len().max(1) as f64,
                units_per_turn: total_units as f64 / turns.max(1) as f64,
            };
            (name, time)
        })
        .collect()
}

/// Fast-state self time per work unit of a span name whose spans all do the same work
/// (the micro-calls of part 1): nearest-rank p10 over its spans, in ns.
fn fast_ns_per_unit(spans: &[Span], own: &[u64], name: &str) -> f64 {
    let samples: Vec<f64> = spans
        .iter()
        .zip(own)
        .filter(|(s, _)| s.name == name)
        .map(|(s, own)| *own as f64 / f64::from(s.units.max(1)))
        .collect();
    nearest_rank(&samples, FAST_STATE_QUANTILE).unwrap_or(0.0)
}

fn per_layer_metrics(
    workload: Workload,
    real: &RepetitionRun,
    replay: &ReplayTotals,
    spans: &[Span],
    lanes: usize,
) -> Values {
    let period = if workload == Workload::ContentionCold {
        0
    } else {
        WINDOWS_PER_ROUND as u32
    };
    let own = self_times_ns(spans);
    let layers = replay_layer_times(spans, &own, period);
    let layer = |name: &str| layers.get(name).copied().unwrap_or_default();
    let us_per_turn = |name: &str| layer(name).ns_per_turn / 1_000.0;
    let micro = |name: &str| fast_ns_per_unit(spans, &own, name);
    let sums = &real.outcome.sums;
    let counts = &real.outcome.counts;
    let turns = sums.turns.max(1) as f64;
    let replayed = replay.turns.max(1) as f64;

    // Untraced and traced host time of the real repetition, both in the fast state.
    let plain_us = fast_state_turn_us(real.rounds.iter().filter(|r| !r.spanned));
    let spanned_us = fast_state_turn_us(real.rounds.iter().filter(|r| r.spanned));
    let plain = real.rounds.iter().filter(|r| !r.spanned).map(|r| &r.sample);
    let plain_turns: f64 = plain.clone().map(|s| f64::from(s.turns)).sum();
    let plain_alloc_ops: f64 = plain.clone().map(|s| s.alloc.ops as f64).sum();
    let plain_alloc_bytes: f64 = plain.map(|s| s.alloc.bytes as f64).sum();

    // Per-session-turn samples: each root span's duration over the turns it covered.
    let per_turn_us: Vec<f64> = spans
        .iter()
        .filter(|s| s.name.starts_with("core.run_"))
        .map(|s| s.duration_ns() as f64 / f64::from(s.units.max(1)) / 1_000.0)
        .collect();

    let explained_us: f64 = layers.values().map(|t| t.ns_per_turn).sum::<f64>() / 1_000.0;
    let compute_us: f64 = layers
        .iter()
        .filter(|(name, _)| COMPUTE_LAYERS.iter().any(|l| name.starts_with(l)))
        .map(|(_, t)| t.ns_per_turn)
        .sum::<f64>()
        / 1_000.0;

    let one_lane = micro("par.fleet_round_one_lane");
    let all_lanes = micro("par.fleet_round_all_lanes");
    let target = sums.per_turn(sums.target_bps);
    let achieved = sums.per_turn(sums.achieved_bps);

    let values: Values = vec![
        ("scene.frame_build_us", micro("scene.frame_build") / 1_000.0),
        ("semantics.clip_us_per_turn", us_per_turn("semantics.clip")),
        ("semantics.patches_per_turn", replay.patches as f64 / replayed),
        (
            "semantics.dirty_patch_share",
            replay.dirty_patch_share_sum / replay.clip_frames.max(1) as f64,
        ),
        ("semantics.model_build_ms", micro("semantics.model_build") / 1e6),
        ("allocator.eq2_us_per_turn", us_per_turn("allocator.eq2")),
        ("allocator.blocks_per_turn", replay.blocks as f64 / replayed),
        (
            "videocodec.rate_plan_us_per_turn",
            us_per_turn("videocodec.rate_plan"),
        ),
        (
            "videocodec.rate_search_us_per_turn",
            us_per_turn("videocodec.rate_search"),
        ),
        ("videocodec.rate_probes_per_turn", replay.probes as f64 / replayed),
        ("videocodec.encode_us_per_turn", us_per_turn("videocodec.encode")),
        ("videocodec.decode_us_per_turn", us_per_turn("videocodec.decode")),
        ("videocodec.media_kbps", achieved / 1_000.0),
        (
            "videocodec.budget_miss_share",
            (achieved / target.max(1.0) - 1.0).abs(),
        ),
        (
            "rtc.packetize_ns_per_packet",
            layer("rtc.packetize").ns_per_unit(),
        ),
        (
            "rtc.fec_protect_ns_per_packet",
            layer("rtc.fec_protect").ns_per_unit(),
        ),
        ("rtc.pacer_ns_per_packet", layer("rtc.pacer").ns_per_unit()),
        (
            "rtc.assembler_ns_per_packet",
            layer("rtc.assembler").ns_per_unit(),
        ),
        ("rtc.nack_ns_per_packet", layer("rtc.nack").ns_per_unit()),
        (
            "rtc.fec_recovery_ns_per_packet",
            layer("rtc.fec_recovery").ns_per_unit(),
        ),
        ("rtc.gcc_fold_ns_per_report", layer("rtc.gcc_fold").ns_per_unit()),
        ("rtc.packets_per_turn", counts.packets_sent as f64 / turns),
        ("rtc.rtx_per_turn", sums.rtx as f64 / turns),
        (
            "rtc.rtx_share",
            sums.rtx as f64 / counts.packets_sent.max(1) as f64,
        ),
        (
            "rtc.nacks_suppressed_per_turn",
            counts.nacks_suppressed as f64 / turns,
        ),
        (
            "rtc.fec_recovered_frames_per_turn",
            sums.fec_recovered_frames as f64 / turns,
        ),
        (
            "rtc.late_seq_drops_per_turn",
            counts.late_seq_drops as f64 / turns,
        ),
        (
            "rtc.watchdog_fallbacks_per_turn",
            sums.watchdog_fallbacks as f64 / turns,
        ),
        (
            "rtc.pacer_rate_clamps_per_turn",
            counts.pacer_rate_clamps as f64 / turns,
        ),
        (
            "netsim.link_send_ns_per_packet",
            layer("netsim.link_send").ns_per_unit(),
        ),
        (
            "netsim.shared_send_ns_per_packet",
            layer("netsim.shared_send").ns_per_unit(),
        ),
        ("netsim.offered_per_turn", counts.link.offered as f64 / turns),
        (
            "netsim.lost_random_per_turn",
            counts.link.lost_random as f64 / turns,
        ),
        (
            "netsim.queue_drops_per_turn",
            counts.link.dropped_queue as f64 / turns,
        ),
        (
            "netsim.outage_drops_per_turn",
            counts.link.outage_drops as f64 / turns,
        ),
        (
            "netsim.delivered_kb_per_turn",
            counts.link.delivered_bytes as f64 / 1_000.0 / turns,
        ),
        (
            "sim.schedule_pop_ns_per_event",
            layer("sim.schedule_pop").ns_per_unit(),
        ),
        ("sim.cancel_ns_per_event", micro("sim.cancel")),
        ("mllm.respond_us_per_turn", us_per_turn("mllm.respond")),
        ("mllm.visual_tokens_per_turn", sums.visual_tokens as f64 / turns),
        ("par.dispatch_us_per_section", micro("par.dispatch") / 1_000.0),
        (
            "par.fleet_lane_speedup_x",
            if all_lanes > 0.0 {
                one_lane / all_lanes
            } else {
                0.0
            },
        ),
        ("par.lanes", lanes as f64),
        ("metrics.snapshot_ns", micro("metrics.snapshot")),
        (
            "core.conversation_build_ms",
            micro("core.conversation_build") / 1e6,
        ),
        (
            "core.turn_host_us_p50",
            nearest_rank(&per_turn_us, 0.50).unwrap_or(0.0),
        ),
        (
            "core.turn_host_us_p99",
            nearest_rank(&per_turn_us, 0.99).unwrap_or(0.0),
        ),
        ("core.turn_samples", per_turn_us.len() as f64),
        ("core.allocs_per_turn", plain_alloc_ops / plain_turns.max(1.0)),
        (
            "core.alloc_kb_per_turn",
            plain_alloc_bytes / 1_000.0 / plain_turns.max(1.0),
        ),
        (
            "core.heap_kb_per_session",
            real.outcome.heap_bytes_per_session as f64 / 1_000.0,
        ),
        ("core.transport_residual_us_per_turn", plain_us - compute_us),
        ("core.trace_coverage_share", explained_us / plain_us.max(1e-9)),
        ("core.trace_overhead_share", spanned_us / plain_us.max(1e-9) - 1.0),
        ("core.deadline_miss_share", 1.0 - sums.deadline_hit_share()),
        (
            "core.failed_turn_share",
            real.outcome.tally.failed as f64 / real.outcome.tally.attempted.max(1) as f64,
        ),
    ];
    assert_matches(PER_LAYER, &values);
    values
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32, turn: u32, units: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            turn,
            units,
        }
    }

    #[test]
    fn only_layer_spans_under_a_replay_root_count_and_kinds_take_their_fast_turn() {
        let spans = [
            span("semantics.model_build", 0, 100, ROOT, 0, 1), // part 1: not the replay's
            span("core.run_turn", 100, 600, ROOT, 0, 1),       // the real call: not the replay's
            // Turn 0 and turn 2 play the same window (period 2); turn 1 another.
            span("replay.turn", 1_000, 1_400, ROOT, 0, 1),
            span("videocodec.encode", 1_010, 1_110, 2, 0, 1),
            span("rtc.pacer", 1_110, 1_150, 2, 0, 20),
            span("replay.turn", 2_000, 2_400, ROOT, 1, 1),
            span("videocodec.encode", 2_010, 2_310, 5, 1, 1),
            span("replay.turn", 3_000, 3_400, ROOT, 2, 1),
            span("videocodec.encode", 3_010, 3_090, 7, 2, 1),
            span("rtc.pacer", 3_100, 3_160, 7, 2, 20),
        ];
        let own = self_times_ns(&spans);
        let layers = replay_layer_times(&spans, &own, 2);
        assert_eq!(layers.len(), 2, "{layers:?}");
        // encode: kind 0 → min(100, 80) = 80, kind 1 → 300; mean over the two kinds.
        assert_eq!(layers["videocodec.encode"].ns_per_turn, 190.0);
        assert_eq!(layers["videocodec.encode"].units_per_turn, 1.0);
        // pacer: kind 0 → min(40, 60) = 40, kind 1 → 0 (turn 1 sent nothing).
        assert_eq!(layers["rtc.pacer"].ns_per_turn, 20.0);
        assert!((layers["rtc.pacer"].units_per_turn - 40.0 / 3.0).abs() < 1e-12);
        assert!((layers["rtc.pacer"].ns_per_unit() - 1.5).abs() < 1e-12);
        // With no period every turn is its own kind: the plain mean.
        let plain = replay_layer_times(&spans, &own, 0);
        assert_eq!(
            plain["videocodec.encode"].ns_per_turn,
            (100.0 + 300.0 + 80.0) / 3.0
        );
    }

    #[test]
    fn micro_spans_take_the_fast_per_unit_time() {
        let spans = [
            span("sim.cancel", 0, 512, ROOT, 0, 256),
            span("sim.cancel", 600, 1_368, ROOT, 0, 256),
            span("metrics.snapshot", 2_000, 3_000, ROOT, 0, 1_000),
        ];
        let own = self_times_ns(&spans);
        assert_eq!(fast_ns_per_unit(&spans, &own, "sim.cancel"), 2.0);
        assert_eq!(fast_ns_per_unit(&spans, &own, "metrics.snapshot"), 1.0);
        assert_eq!(fast_ns_per_unit(&spans, &own, "absent"), 0.0);
    }
}
