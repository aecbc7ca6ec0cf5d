//! The hot-path measurement suite: the twelve scenarios `bench_check` measures — to compare
//! against the committed `BENCH_hotpaths.json`, or with `--record` to write it — so the gate
//! and the recorder always time exactly the same code.

use crate::{measure_hotpath, HotpathMeasurement};
use aivc_mllm::{MllmChat, Question, QuestionFormat};
use aivc_netsim::PathConfig;
use aivc_rtc::packetizer::{OutgoingFrame, Packetizer};
use aivc_scene::grid_content::GridContent;
use aivc_scene::templates::basketball_game;
use aivc_scene::{Concept, Frame, GridDims, Rect, Scene, SceneObject, SourceConfig, VideoSource};
use aivc_semantics::{ClipModel, ClipScratch, TextQuery};
use aivc_sim::SimDuration;
use aivc_videocodec::{Decoder, EncodeScratch, EncodedFrame, Encoder, EncoderConfig, Qp, QpMap};
use aivchat_core::{Conversation, ConversationChatServer, NetSessionOptions, QpAllocator, QpAllocatorConfig};
use serde::{Deserialize, Serialize};
use std::hint::black_box;

/// Build profile every baseline is recorded under.
pub const PROFILE: &str = "release (lto=thin, codegen-units=1)";
/// Methodology note written into the JSON.
pub const METHODOLOGY: &str =
    "median ns/iter over 30 samples after 150 ms warmup; see aivc_bench::measure_hotpath";
/// Timed samples per entry (the "30 samples" of [`METHODOLOGY`]).
const SAMPLES: usize = 30;
/// Wall-clock each timed sample is sized to fill.
const TARGET_SAMPLE_MS: f64 = 25.0;

/// Every entry the suite measures, in the order [`measure_hotpaths_matching`] returns them
/// and `BENCH_hotpaths.json` lists them.
pub const ENTRIES: [&str; 12] = [
    "packetize_100kB_frame",
    "encode_1080p_frame_uniform_qp",
    "decode_complete_1080p",
    "clip_correlation_map_1080p",
    "clip_correlation_update_10pct_dirty",
    "grid_content_update_10pct_dirty",
    "clip_model_build",
    "eq2_qp_allocation",
    "eq2_table_build",
    "mllm_respond_4_frames",
    "conversation_turn_warm",
    "conversation_fleet_throughput_256",
];

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
}

/// A 1080p scene whose two moving objects dirty ≈ 10 % of the 64-px patch grid per frame
/// step — the calibrated temporal-coherence scenario for the incremental CLIP path.
/// [`measure_hotpaths_matching`] asserts the calibration before measuring.
fn coherence_scene() -> Scene {
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
fn dirty_fraction(a: &Frame, b: &Frame) -> f64 {
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

/// Whether `name` is selected by the optional `--only` filter.
fn wants(only: Option<&[String]>, name: &str) -> bool {
    // `assert!`: the suite only ever runs in `bench_check`'s release build.
    assert!(ENTRIES.contains(&name), "{name} is missing from ENTRIES");
    only.is_none_or(|names| names.iter().any(|n| n == name))
}

fn measure<O>(name: &str, f: impl FnMut() -> O) -> HotpathMeasurement {
    measure_hotpath(name, SAMPLES, TARGET_SAMPLE_MS, f)
}

/// Measures the tracked hot paths named in `only` (all of [`ENTRIES`] when `None`) — the
/// stage entries, then the warm networked turn and the served fleet — in suite order
/// regardless of the order names are given in. A filter lets `bench_check --record --only
/// <name>` re-record a single legitimately-shifted entry without re-measuring (and
/// re-jittering) the rest of the file. `pool_lanes` sizes the pool behind the
/// `conversation_fleet_throughput_*` entry — `bench_check` passes `MiniPool::env_lanes` when
/// recording and the committed file's `pool_lanes` when regression-checking, so compared
/// medians always come from equal lane counts.
pub fn measure_hotpaths_matching(pool_lanes: usize, only: Option<&[String]>) -> Vec<HotpathMeasurement> {
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
        hotpaths.push(measure("packetize_100kB_frame", || {
            packetizer.packetize_into(black_box(&frame), &mut packets);
            packets.len()
        }));
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
        hotpaths.push(measure("encode_1080p_frame_uniform_qp", || {
            toggle = !toggle;
            let frame = &frames[usize::from(toggle)];
            encoder.encode_into(black_box(frame), &map, &mut scratch, &mut encoded);
            encoded.total_bytes()
        }));
    }

    // 2b. Full-frame decode (coverage lists Arc-shared with the encoded blocks).
    if wants(only, "decode_complete_1080p") {
        let source = VideoSource::new(basketball_game(1), SourceConfig::fps30(5.0));
        let encoder = Encoder::new(EncoderConfig::default());
        let encoded = encoder.encode_uniform(&source.frame(0), Qp::new(32));
        let decoder = Decoder::new();
        hotpaths.push(measure("decode_complete_1080p", || {
            black_box(decoder.decode_complete(black_box(&encoded), None))
        }));
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
        hotpaths.push(measure("clip_correlation_map_1080p", || {
            let map = model.correlation_map_with(black_box(&frame), &query, &mut scratch);
            map.values().len()
        }));
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
        hotpaths.push(measure("clip_correlation_update_10pct_dirty", || {
            toggle = !toggle;
            let frame = if toggle { &frame_b } else { &frame_a };
            let map = model.correlation_map_coherent(black_box(frame), &query, &mut scratch);
            map.values().len()
        }));
    }

    // 3c. The primitive under both of the above: one incremental raster update at the same
    // ~10 % dirty rate (mark the moved cells, recompute them, splice the coverage table).
    if wants(only, "grid_content_update_10pct_dirty") {
        let source = VideoSource::new(coherence_scene(), SourceConfig::fps30(1.0));
        let frames = [source.frame(0), source.frame(1)];
        let mut grid = GridContent::new();
        grid.update(&frames[0], 64);
        let mut toggle = false;
        hotpaths.push(measure("grid_content_update_10pct_dirty", || {
            toggle = !toggle;
            grid.update(black_box(&frames[usize::from(toggle)]), 64);
            grid.dirty_cells().count()
        }));
    }

    // 3d. Building the model: the ontology's one-hop closure and the concept space. A
    // server or contention run builds one, and the benchmark's cold leg one per leg.
    if wants(only, "clip_model_build") {
        hotpaths.push(measure("clip_model_build", ClipModel::mobile_default));
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
        hotpaths.push(measure("eq2_qp_allocation", || {
            allocator.allocate_into(black_box(&importance), grid, &mut out);
            out.values().len()
        }));
    }

    // 4b. Building the Eq. 2 threshold table at the paper's γ, its verification sweep
    // included: what every sender a server or contention run builds costs.
    if wants(only, "eq2_table_build") {
        hotpaths.push(measure("eq2_table_build", || {
            QpAllocator::new(black_box(QpAllocatorConfig::paper()))
        }));
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
        hotpaths.push(measure("mllm_respond_4_frames", || {
            black_box(chat.respond(black_box(&question), &frames, 0))
        }));
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
        hotpaths.push(measure("conversation_turn_warm", || {
            let report = conversation.run_turn(black_box(&frames), &question);
            report.frames_decoded
        }));
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
        hotpaths.push(measure("conversation_fleet_throughput_256", || {
            server.run_turns(black_box(&frames), &question);
            server.report(0).frames_decoded
        }));
    }

    hotpaths
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
        };
        let json = serde_json::to_string_pretty(&file).unwrap();
        let back: BaselineFile = serde_json::from_str(&json).unwrap();
        assert_eq!(back.hotpaths.len(), 1);
        assert_eq!(back.hotpaths[0].name, "x");
        assert_eq!(back.hotpaths[0].median_ns_per_iter, 12.5);
        assert_eq!(back.pool_lanes, 4);
    }

    /// The staleness check `bench_check` makes only on a full run on the reference box: the
    /// committed baseline lists exactly the suite's entries, in suite order.
    #[test]
    fn committed_baseline_lists_exactly_the_suite_entries() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hotpaths.json");
        let json = std::fs::read_to_string(path).expect("the committed baseline is readable");
        let file: BaselineFile = serde_json::from_str(&json).expect("the committed baseline parses");
        // No section beyond `BaselineFile`'s fields: the file is what `--record` would write.
        assert_eq!(serde_json::to_string_pretty(&file).unwrap(), json);
        let names: Vec<&str> = file.hotpaths.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ENTRIES);
        assert_eq!(file.pool_lanes, 1);
        assert_eq!(file.profile, PROFILE);
        assert_eq!(file.methodology, METHODOLOGY);
        assert!(METHODOLOGY.contains(&format!("{SAMPLES} samples")));
    }
}
