//! The hot-path measurement suite shared by the `hotpath_baseline` recorder (writes
//! `BENCH_hotpaths.json`) and the `bench_check` regression gate (re-measures and compares
//! against the committed file), so both always measure exactly the same scenarios.

use crate::{measure_hotpath, HotpathMeasurement};
use aivc_mllm::{MllmChat, MllmScratch, Question, QuestionFormat};
use aivc_netsim::PathConfig;
use aivc_rtc::packetizer::{OutgoingFrame, Packetizer};
use aivc_rtc::rtp::RtpPacket;
use aivc_scene::grid_content::GridContent;
use aivc_scene::templates::basketball_game;
use aivc_scene::{Concept, Frame, GridDims, Rect, Scene, SceneObject, SourceConfig, VideoSource};
use aivc_semantics::{ClipModel, ClipScratch, TextQuery};
use aivc_sim::SimDuration;
use aivc_videocodec::{
    DecodeScratch, DecodedFrame, Decoder, EncodeScratch, EncodedFrame, Encoder, EncoderConfig, Qp, QpMap,
    RatePlan,
};
use aivchat_core::{Conversation, ConversationChatServer, NetSessionOptions, QpAllocator, QpAllocatorConfig};
use serde::{Deserialize, Serialize};
use std::hint::black_box;

/// Build profile every baseline is recorded under.
pub const PROFILE: &str = "release (lto=thin, codegen-units=1)";
/// Methodology note written into the JSON.
pub const METHODOLOGY: &str =
    "median ns/iter over 30 samples after 150 ms warmup; see aivc_bench::measure_hotpath";

/// The shape of `BENCH_hotpaths.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BaselineFile {
    /// Build profile the numbers were recorded under.
    pub profile: String,
    /// Methodology note for readers of the JSON.
    pub methodology: String,
    /// Pool lanes the fleet-throughput entries were recorded with
    /// (`MiniPool::env_lanes` at record time) — parallel medians are only comparable
    /// across runs with the same lane count.
    pub pool_lanes: usize,
    /// The recorded hot-path medians (gated by `bench_check`).
    pub hotpaths: Vec<HotpathMeasurement>,
    /// The per-stage decomposition of `conversation_turn_warm` (documentation of where
    /// the warm networked turn's microsecond goes — see DESIGN.md §"Where the warm
    /// turn's microsecond goes"; not regression-gated: the whole warm turn is gated
    /// above, and these stages exist to explain it). The committed baseline is always
    /// re-recorded whole when this section changes, so the field is required.
    pub warm_turn_breakdown: Vec<HotpathMeasurement>,
}

/// A 1080p scene whose two moving objects dirty ≈ 10 % of the 64-px patch grid per frame
/// step — the calibrated temporal-coherence scenario for the incremental CLIP path.
/// [`measure_all_hotpaths`] asserts the calibration before measuring.
pub fn coherence_scene() -> Scene {
    let mut scene = Scene::new("coherence-1080p", 1920, 1080).with_background(
        0.25,
        0.05,
        vec![(Concept::new("basketball-game"), 1.0)],
    );
    // 384x384 px object moving one 64-px cell per frame at 30 FPS.
    scene.add_object(
        SceneObject::new(1, "player", Rect::new(256, 256, 384, 384))
            .with_concept("player", 1.0)
            .with_detail(0.5)
            .with_texture(0.6)
            .with_motion(0.7, (1920.0, 0.0)),
    );
    // 128x128 px object moving half a cell per frame, vertically.
    scene.add_object(
        SceneObject::new(2, "scoreboard", Rect::new(1200, 700, 128, 128))
            .with_concept("scoreboard", 1.0)
            .with_detail(0.9)
            .with_texture(0.8)
            .with_motion(0.3, (0.0, 960.0)),
    );
    scene
}

/// Fraction of 64-px grid cells overlapped by the union of each object's placements in the
/// two frames — the dirty rate the incremental path pays per step between them.
pub fn dirty_fraction(a: &Frame, b: &Frame) -> f64 {
    let dims = GridDims::for_frame(a.width, a.height, 64);
    let mut dirty = vec![false; dims.len()];
    for (pa, pb) in a.placements.iter().zip(&b.placements) {
        if pa.region == pb.region {
            continue;
        }
        for rect in [&pa.region, &pb.region] {
            for row in 0..dims.rows {
                for col in 0..dims.cols {
                    if dims.cell_rect(row, col, a.width, a.height).coverage_by(rect) > 0.0 {
                        dirty[dims.index(row, col)] = true;
                    }
                }
            }
        }
    }
    dirty.iter().filter(|d| **d).count() as f64 / dims.len() as f64
}

/// Measures every tracked hot path (the stage entries `benches/hotpaths.rs` also tracks,
/// then the warm networked turn and the served fleet), in the
/// order they appear in `BENCH_hotpaths.json`. `pool_lanes` sizes the pool behind the
/// `conversation_fleet_throughput_*` entries — callers pass
/// `MiniPool::env_lanes` when recording and the committed file's `pool_lanes` when
/// regression-checking, so compared medians always come from equal lane counts.
pub fn measure_all_hotpaths(
    samples: usize,
    target_sample_ms: f64,
    pool_lanes: usize,
) -> Vec<HotpathMeasurement> {
    measure_hotpaths_matching(samples, target_sample_ms, pool_lanes, None)
}

/// Whether `name` is selected by the optional `--only` filter.
fn wants(only: Option<&[String]>, name: &str) -> bool {
    only.is_none_or(|names| names.iter().any(|n| n == name))
}

/// [`measure_all_hotpaths`] restricted to the entries named in `only` (all entries when
/// `None`) — the engine behind `hotpath_baseline --only <name>`, which re-records a single
/// legitimately-shifted entry without re-measuring (and re-jittering) the rest of the file.
/// Results come back in suite order regardless of the order names are given in.
pub fn measure_hotpaths_matching(
    samples: usize,
    target_sample_ms: f64,
    pool_lanes: usize,
    only: Option<&[String]>,
) -> Vec<HotpathMeasurement> {
    let mut hotpaths = Vec::new();

    // 1. RTP packetization of a 100 kB keyframe (reuse API; zero allocations/iter).
    if wants(only, "packetize_100kB_frame") {
        let mut packetizer = Packetizer::default();
        let mut packets = Vec::new();
        let frame = OutgoingFrame {
            frame_id: 1,
            capture_ts_us: 0,
            size_bytes: 100_000,
            is_keyframe: true,
        };
        hotpaths.push(measure_hotpath(
            "packetize_100kB_frame",
            samples,
            target_sample_ms,
            || {
                packetizer.packetize_into(black_box(&frame), &mut packets);
                packets.len()
            },
        ));
    }

    // 2. Uniform-QP encode of a 1080p frame through a held scratch, alternating the two
    // coherence-scene frames: the encode's plan refreshes the ~10 % of blocks that moved
    // (re-encoding one frame would measure the nothing-moved path), then walks all 510.
    if wants(only, "encode_1080p_frame_uniform_qp") {
        let source = VideoSource::new(coherence_scene(), SourceConfig::fps30(1.0));
        let frames = [source.frame(0), source.frame(1)];
        let encoder = Encoder::new(EncoderConfig::default());
        let map = QpMap::uniform(encoder.grid_for(&frames[0]), Qp::new(32));
        let mut scratch = EncodeScratch::new();
        let mut encoded = EncodedFrame::placeholder();
        let mut toggle = false;
        hotpaths.push(measure_hotpath(
            "encode_1080p_frame_uniform_qp",
            samples,
            target_sample_ms,
            || {
                toggle = !toggle;
                let frame = &frames[usize::from(toggle)];
                encoder.encode_into(black_box(frame), &map, &mut scratch, &mut encoded);
                encoded.total_bytes()
            },
        ));
    }

    // 2b. Full-frame decode (coverage lists Arc-shared with the encoded blocks).
    if wants(only, "decode_complete_1080p") {
        let source = VideoSource::new(basketball_game(1), SourceConfig::fps30(5.0));
        let encoder = Encoder::new(EncoderConfig::default());
        let encoded = encoder.encode_uniform(&source.frame(0), Qp::new(32));
        let decoder = Decoder::new();
        hotpaths.push(measure_hotpath(
            "decode_complete_1080p",
            samples,
            target_sample_ms,
            || black_box(decoder.decode_complete(black_box(&encoded), None)),
        ));
    }

    // 3. CLIP correlation map over the 1080p patch grid (scratch API; zero allocations/iter).
    if wants(only, "clip_correlation_map_1080p") {
        let source = VideoSource::new(basketball_game(1), SourceConfig::fps30(5.0));
        let frame = source.frame(0);
        let model = ClipModel::mobile_default();
        let query = TextQuery::from_words(
            "Could you tell me the present score of the game?",
            model.ontology(),
        );
        let mut scratch = ClipScratch::new();
        hotpaths.push(measure_hotpath(
            "clip_correlation_map_1080p",
            samples,
            target_sample_ms,
            || {
                let map = model.correlation_map_with(black_box(&frame), &query, &mut scratch);
                map.values().len()
            },
        ));
    }

    // 3b. Incremental CLIP correlation at the calibrated ~10 % dirty rate (two alternating
    // frames of a moving 1080p scene; only motion-dirtied patches are recomputed).
    if wants(only, "clip_correlation_update_10pct_dirty") {
        let source = VideoSource::new(coherence_scene(), SourceConfig::fps30(1.0));
        let frame_a = source.frame(0);
        let frame_b = source.frame(1);
        let model = ClipModel::mobile_default();
        let query = TextQuery::from_words("Where is the player?", model.ontology());
        let frac = dirty_fraction(&frame_a, &frame_b);
        assert!(
            (0.06..=0.15).contains(&frac),
            "coherence scene drifted out of calibration: dirty fraction {frac:.3}"
        );
        println!(
            "(coherence scenario: {:.1} % of patches dirty per step)",
            frac * 100.0
        );
        let mut scratch = ClipScratch::new();
        let _ = model.correlation_map_coherent(&frame_a, &query, &mut scratch);
        let mut toggle = false;
        hotpaths.push(measure_hotpath(
            "clip_correlation_update_10pct_dirty",
            samples,
            target_sample_ms,
            || {
                toggle = !toggle;
                let frame = if toggle { &frame_b } else { &frame_a };
                let map = model.correlation_map_coherent(black_box(frame), &query, &mut scratch);
                map.values().len()
            },
        ));
    }

    // 3c. The primitive under both of the above: one incremental raster update at the same
    // ~10 % dirty rate (mark the moved cells, recompute them, splice the coverage table).
    if wants(only, "grid_content_update_10pct_dirty") {
        let source = VideoSource::new(coherence_scene(), SourceConfig::fps30(1.0));
        let frames = [source.frame(0), source.frame(1)];
        let mut grid = GridContent::new();
        grid.update(&frames[0], 64);
        let mut toggle = false;
        hotpaths.push(measure_hotpath(
            "grid_content_update_10pct_dirty",
            samples,
            target_sample_ms,
            || {
                toggle = !toggle;
                grid.update(black_box(&frames[usize::from(toggle)]), 64);
                grid.dirty_cells().count()
            },
        ));
    }

    // 4. Eq. 2 QP allocation from an importance map (reuse API + threshold-table allocator;
    // zero allocations/iter).
    if wants(only, "eq2_qp_allocation") {
        let source = VideoSource::new(basketball_game(1), SourceConfig::fps30(5.0));
        let frame = source.frame(0);
        let model = ClipModel::mobile_default();
        let query = TextQuery::from_words("How many spectators can be seen?", model.ontology());
        let importance = model.correlation_map(&frame, &query);
        let encoder = Encoder::new(EncoderConfig::default());
        let grid = encoder.grid_for(&frame);
        let allocator = QpAllocator::new(QpAllocatorConfig::paper());
        let mut out = QpMap::empty();
        hotpaths.push(measure_hotpath(
            "eq2_qp_allocation",
            samples,
            target_sample_ms,
            || {
                allocator.allocate_into(black_box(&importance), grid, &mut out);
                out.values().len()
            },
        ));
    }

    // 5. MLLM answer over four decoded frames.
    if wants(only, "mllm_respond_4_frames") {
        let source = VideoSource::new(basketball_game(1), SourceConfig::fps30(5.0));
        let encoder = Encoder::new(EncoderConfig::default());
        let decoder = Decoder::new();
        let frames: Vec<_> = (0..4)
            .map(|i| {
                decoder.decode_complete(&encoder.encode_uniform(&source.frame(i * 30), Qp::new(32)), None)
            })
            .collect();
        let question = Question::from_fact(&basketball_game(1).facts[0], QuestionFormat::MultipleChoice);
        let chat = MllmChat::responder(1);
        hotpaths.push(measure_hotpath(
            "mllm_respond_4_frames",
            samples,
            target_sample_ms,
            || black_box(chat.respond(black_box(&question), &frames, 0)),
        ));
    }

    // 6. A steady-state turn inside a continuous conversation: the persistent-timeline
    // engine with the event queue, emulator, congestion controller, pacer and every
    // compute scratch already warm. One iteration = one more turn of the same long-lived
    // conversation (4-frame 1080p window through the emulated 10 Mbps uplink, 200 ms
    // think gap), so the median is the marginal cost of a warm conversational turn —
    // kernel scheduling included, cold-start excluded.
    if wants(only, "conversation_turn_warm") {
        let source = VideoSource::new(basketball_game(1), SourceConfig::fps30(5.0));
        let frames: Vec<Frame> = (0..4).map(|i| source.frame(i * 15)).collect();
        let question = Question::from_fact(&basketball_game(1).facts[0], QuestionFormat::MultipleChoice);
        let mut options = NetSessionOptions::ai_oriented(1, PathConfig::paper_section_2_2(0.01));
        options.capture_fps = 12.0;
        let mut conversation = Conversation::with_defaults(options, SimDuration::from_millis(200));
        for _ in 0..3 {
            conversation.run_turn(&frames, &question);
        }
        hotpaths.push(measure_hotpath(
            "conversation_turn_warm",
            samples,
            target_sample_ms,
            || {
                let report = conversation.run_turn(black_box(&frames), &question);
                report.frames_decoded
            },
        ));
    }

    // 7. Networked-fleet throughput: 256 persistent conversations spread across the
    // pool by the ConversationChatServer, every one with its own emulated uplink,
    // congestion controller and event kernel. One iteration is one warm turn on every
    // session (256 session-turns), so ns/session-turn = median / 256 — the serving-side
    // counterpart of `conversation_turn_warm`, with pool dispatch and per-session state
    // at fleet scale on the clock.
    if wants(only, "conversation_fleet_throughput_256") {
        let source = VideoSource::new(basketball_game(1), SourceConfig::fps30(5.0));
        let frames: Vec<Frame> = (0..4).map(|i| source.frame(i * 15)).collect();
        let question = Question::from_fact(&basketball_game(1).facts[0], QuestionFormat::MultipleChoice);
        let mut template = NetSessionOptions::ai_oriented(1, PathConfig::paper_section_2_2(0.01));
        template.capture_fps = 12.0;
        let mut server =
            ConversationChatServer::new(pool_lanes, 256, template, SimDuration::from_millis(200));
        for _ in 0..3 {
            server.run_turns(&frames, &question);
        }
        hotpaths.push(measure_hotpath(
            "conversation_fleet_throughput_256",
            samples,
            target_sample_ms,
            || {
                server.run_turns(black_box(&frames), &question);
                server.report(0).frames_decoded
            },
        ));
    }

    hotpaths
}

/// Measures each stage of `conversation_turn_warm` in isolation but in the warm
/// networked turn's exact context — same 4-frame 1080p window, the AI-oriented options'
/// query, rate search and per-frame budget, long-lived scratches throughout — so the
/// stage medians decompose the warm turn's budget. The whole warm turn is appended last
/// as `warm_turn_total`, so `sum(stages) / total` quantifies what the stages do *not*
/// cover: the event-queue kernel, the pacer/link emulation and feedback bookkeeping.
/// See DESIGN.md §"Where the warm turn's microsecond goes".
pub fn measure_warm_turn_breakdown(samples: usize, target_sample_ms: f64) -> Vec<HotpathMeasurement> {
    let source = VideoSource::new(basketball_game(1), SourceConfig::fps30(5.0));
    let frames: Vec<Frame> = (0..4).map(|i| source.frame(i * 15)).collect();
    let question = Question::from_fact(&basketball_game(1).facts[0], QuestionFormat::MultipleChoice);
    let options = {
        let mut o = NetSessionOptions::ai_oriented(1, PathConfig::paper_section_2_2(0.01));
        o.capture_fps = 12.0;
        o
    };
    let model = ClipModel::mobile_default();
    let query = TextQuery::from_words_and_concepts(
        &question.text,
        model.ontology(),
        question.query_concepts.iter().cloned(),
    );
    let allocator = QpAllocator::new(QpAllocatorConfig::paper());
    let encoder = Encoder::new(EncoderConfig::default());
    let decoder = Decoder::new();
    // The per-frame coded-size budget the warm turn's rate search aims at (AI-oriented
    // ABR holds its accuracy floor, so the converged target is estimate-independent).
    let budget_bits = options.abr.target_bitrate(options.gcc.initial_estimate_bps) / options.capture_fps;
    let mut out = Vec::new();

    // Stage 1 — Eq. 1, incremental across the window (the turn's CLIP work: the dirty
    // fraction is set by the window's inter-frame motion, including the wrap back to the
    // first frame at the turn boundary).
    {
        let mut clip = ClipScratch::new();
        out.push(measure_hotpath(
            "warm_clip_coherent_4f",
            samples,
            target_sample_ms,
            || {
                let mut patches = 0usize;
                for frame in &frames {
                    patches += model
                        .correlation_map_coherent(black_box(frame), &query, &mut clip)
                        .values()
                        .len();
                }
                patches
            },
        ));
    }

    // Per-frame Eq. 2 maps, computed exactly as the turn computes them.
    let importance: Vec<_> = frames.iter().map(|f| model.correlation_map(f, &query)).collect();
    let qp_maps: Vec<QpMap> = importance
        .iter()
        .zip(&frames)
        .map(|(imp, f)| allocator.allocate(imp, encoder.grid_for(f)))
        .collect();

    // Stage 2 — Eq. 2 through the threshold table, one QP map per frame.
    {
        let mut qp_map = QpMap::empty();
        out.push(measure_hotpath(
            "warm_eq2_alloc_4f",
            samples,
            target_sample_ms,
            || {
                let mut blocks = 0usize;
                for (imp, frame) in importance.iter().zip(&frames) {
                    allocator.allocate_into(black_box(imp), encoder.grid_for(frame), &mut qp_map);
                    blocks += qp_map.values().len();
                }
                blocks
            },
        ));
    }

    // Stage 3 — rate-plan preparation plus the §3.2 bitrate match, per frame: the
    // rate-control half of `encode_slot_to_budget`, through the same
    // `Encoder::search_rate_plan` and with the same carried-over hint, so after the
    // warm-up iterations every search starts where the previous capture's ended.
    {
        let mut plan = RatePlan::default();
        let mut hint = None;
        out.push(measure_hotpath(
            "warm_rate_probe_search_4f",
            samples,
            target_sample_ms,
            || {
                let mut level_sum = 0i32;
                for (frame, qp_map) in frames.iter().zip(&qp_maps) {
                    encoder.prepare_rate_plan(black_box(frame), Some(qp_map), &mut plan);
                    let search = encoder.search_rate_plan(&plan, budget_bits, hint);
                    hint = Some(search.boundary);
                    level_sum += search.level;
                }
                level_sum
            },
        ));
    }

    // The settled per-frame offset maps and plans, for the encode stage.
    let mut plans: Vec<RatePlan> = Vec::new();
    let mut offset_maps: Vec<QpMap> = Vec::new();
    for (frame, qp_map) in frames.iter().zip(&qp_maps) {
        let mut plan = RatePlan::default();
        encoder.prepare_rate_plan(frame, Some(qp_map), &mut plan);
        let level = encoder.search_rate_plan(&plan, budget_bits, None).level;
        let mut offset_map = QpMap::empty();
        qp_map.offset_all_into(level, &mut offset_map);
        plans.push(plan);
        offset_maps.push(offset_map);
    }

    // Stage 4 — the one real encode per frame, at the searched level, reusing the plan's
    // raster (the materialization half of `encode_slot_to_budget`).
    {
        let mut scratches: Vec<EncodeScratch> = (0..frames.len()).map(|_| EncodeScratch::new()).collect();
        let mut buffer = EncodedFrame::placeholder();
        out.push(measure_hotpath(
            "warm_encode_planned_4f",
            samples,
            target_sample_ms,
            || {
                let mut bytes = 0u64;
                for (((frame, map), plan), scratch) in
                    frames.iter().zip(&offset_maps).zip(&plans).zip(&mut scratches)
                {
                    encoder.encode_into_planned(black_box(frame), map, plan, scratch, &mut buffer);
                    bytes += buffer.total_bytes();
                }
                bytes
            },
        ));
    }

    // The encoded frames the later stages consume, at the turn's real operating point.
    let encoded: Vec<EncodedFrame> = frames
        .iter()
        .zip(&offset_maps)
        .map(|(f, m)| encoder.encode_with_qp_map(f, m))
        .collect();
    let decoded: Vec<DecodedFrame> = encoded.iter().map(|e| decoder.decode_complete(e, None)).collect();

    // Stage 5 — RTP packetization of the turn's four budget-sized frames.
    {
        let mut packetizer = Packetizer::default();
        let mut packets: Vec<RtpPacket> = Vec::new();
        let outgoing: Vec<OutgoingFrame> = encoded
            .iter()
            .map(|e| OutgoingFrame {
                frame_id: e.frame_index,
                capture_ts_us: e.capture_ts_us,
                size_bytes: e.total_bytes(),
                is_keyframe: e.frame_type == aivc_videocodec::FrameType::Intra,
            })
            .collect();
        out.push(measure_hotpath(
            "warm_packetize_4f",
            samples,
            target_sample_ms,
            || {
                let mut count = 0usize;
                for frame in &outgoing {
                    packetizer.packetize_into(black_box(frame), &mut packets);
                    count += packets.len();
                }
                count
            },
        ));
    }

    // Stage 6 — receiver-side decode of the four frames.
    {
        let mut scratch = DecodeScratch::new();
        let mut buffers: Vec<DecodedFrame> =
            (0..encoded.len()).map(|_| DecodedFrame::placeholder()).collect();
        out.push(measure_hotpath(
            "warm_decode_4f",
            samples,
            target_sample_ms,
            || {
                let mut blocks = 0usize;
                for (e, buffer) in encoded.iter().zip(&mut buffers) {
                    let total = e.total_bytes();
                    decoder.decode_into(black_box(e), &[(0, total)], None, &mut scratch, buffer);
                    blocks += buffer.blocks.len();
                }
                blocks
            },
        ));
    }

    // Stage 7 — the MLLM response over the turn's decoded frames.
    {
        let chat = MllmChat::responder(1 ^ 0x5EED);
        let mut scratch = MllmScratch::new();
        out.push(measure_hotpath(
            "warm_mllm_respond",
            samples,
            target_sample_ms,
            || {
                let answer = chat.respond_with(black_box(&question), &decoded, 1, &mut scratch);
                answer.visual_tokens
            },
        ));
    }

    // The whole warm turn, for the gap computation: whatever the stages above do not
    // account for is the transport tax — event-queue kernel, pacer, link emulation,
    // assembler and feedback bookkeeping.
    {
        let mut conversation = Conversation::with_defaults(options, SimDuration::from_millis(200));
        for _ in 0..3 {
            conversation.run_turn(&frames, &question);
        }
        out.push(measure_hotpath(
            "warm_turn_total",
            samples,
            target_sample_ms,
            || {
                let report = conversation.run_turn(black_box(&frames), &question);
                report.frames_decoded
            },
        ));
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coherence_scene_is_calibrated_near_ten_percent() {
        let source = VideoSource::new(coherence_scene(), SourceConfig::fps30(1.0));
        let frac = dirty_fraction(&source.frame(0), &source.frame(1));
        assert!((0.06..=0.15).contains(&frac), "dirty fraction {frac:.3}");
    }

    #[test]
    fn baseline_file_round_trips_through_json() {
        let file = BaselineFile {
            profile: PROFILE.to_string(),
            methodology: METHODOLOGY.to_string(),
            pool_lanes: 4,
            hotpaths: vec![HotpathMeasurement {
                name: "x".to_string(),
                median_ns_per_iter: 12.5,
                iters_per_sample: 3,
                samples: 30,
            }],
            warm_turn_breakdown: vec![HotpathMeasurement {
                name: "warm_stage".to_string(),
                median_ns_per_iter: 3.5,
                iters_per_sample: 2,
                samples: 30,
            }],
        };
        let json = serde_json::to_string_pretty(&file).unwrap();
        let back: BaselineFile = serde_json::from_str(&json).unwrap();
        assert_eq!(back.hotpaths.len(), 1);
        assert_eq!(back.hotpaths[0].name, "x");
        assert_eq!(back.hotpaths[0].median_ns_per_iter, 12.5);
        assert_eq!(back.pool_lanes, 4);
        assert_eq!(back.warm_turn_breakdown[0].name, "warm_stage");
    }
}
