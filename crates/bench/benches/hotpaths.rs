//! Criterion micro-benchmarks of the per-stage hot paths: packetization, CTU encoding,
//! decoding, CLIP correlation (full and incremental), the raster update, the QP allocator
//! and the MLLM accuracy model. `aivc_bench::hotpath_suite` measures the same scenarios for
//! the committed baseline, next to the turn- and fleet-level entries.

use aivc_bench::hotpath_suite::coherence_scene;
use aivc_mllm::{MllmChat, Question, QuestionFormat};
use aivc_rtc::packetizer::{OutgoingFrame, Packetizer};
use aivc_scene::grid_content::GridContent;
use aivc_scene::templates::basketball_game;
use aivc_scene::{SourceConfig, VideoSource};
use aivc_semantics::{ClipModel, ClipScratch, TextQuery};
use aivc_videocodec::{Decoder, EncodeScratch, EncodedFrame, Encoder, EncoderConfig, Qp, QpMap};
use aivchat_core::{QpAllocator, QpAllocatorConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_packetizer(c: &mut Criterion) {
    c.bench_function("packetize_100kB_frame", |b| {
        // The reuse API the transport session uses: zero heap allocations per iteration
        // once the buffer has warmed up to the frame's packet count.
        let mut packetizer = Packetizer::default();
        let mut packets = Vec::new();
        let frame = OutgoingFrame {
            frame_id: 1,
            capture_ts_us: 0,
            size_bytes: 100_000,
            is_keyframe: true,
        };
        b.iter(|| {
            packetizer.packetize_into(black_box(&frame), &mut packets);
            black_box(packets.len())
        });
    });
    c.bench_function("packetize_100kB_frame_alloc", |b| {
        // The allocating convenience form, kept for comparison against the baseline.
        let mut packetizer = Packetizer::default();
        let frame = OutgoingFrame {
            frame_id: 1,
            capture_ts_us: 0,
            size_bytes: 100_000,
            is_keyframe: true,
        };
        b.iter(|| black_box(packetizer.packetize(black_box(&frame))));
    });
}

fn bench_encoder(c: &mut Criterion) {
    // A held scratch over two alternating frames of the coherence scene: the encode's plan
    // refreshes the blocks that moved, then the walk writes all 510.
    let source = VideoSource::new(coherence_scene(), SourceConfig::fps30(1.0));
    let frames = [source.frame(0), source.frame(1)];
    let encoder = Encoder::new(EncoderConfig::default());
    let map = QpMap::uniform(encoder.grid_for(&frames[0]), Qp::new(32));
    c.bench_function("encode_1080p_frame_uniform_qp", |b| {
        let mut scratch = EncodeScratch::new();
        let mut encoded = EncodedFrame::placeholder();
        let mut toggle = false;
        b.iter(|| {
            toggle = !toggle;
            let frame = &frames[usize::from(toggle)];
            encoder.encode_into(black_box(frame), &map, &mut scratch, &mut encoded);
            black_box(encoded.total_bytes())
        });
    });
}

fn bench_decoder(c: &mut Criterion) {
    let source = VideoSource::new(basketball_game(1), SourceConfig::fps30(5.0));
    let encoder = Encoder::new(EncoderConfig::default());
    let encoded = encoder.encode_uniform(&source.frame(0), Qp::new(32));
    let decoder = Decoder::new();
    c.bench_function("decode_complete_1080p", |b| {
        // Coverage lists are Arc-shared with the encoded blocks, so a full-frame decode
        // performs no per-block coverage copies.
        b.iter(|| black_box(decoder.decode_complete(black_box(&encoded), None)));
    });
}

fn bench_clip_correlation(c: &mut Criterion) {
    let source = VideoSource::new(basketball_game(1), SourceConfig::fps30(5.0));
    let frame = source.frame(0);
    let model = ClipModel::mobile_default();
    let query = TextQuery::from_words(
        "Could you tell me the present score of the game?",
        model.ontology(),
    );
    c.bench_function("clip_correlation_map_1080p", |b| {
        // The scratch API the streamer uses: the query embedding is memoized and every
        // buffer is reused, so iterations are allocation-free after warmup.
        let mut scratch = ClipScratch::new();
        b.iter(|| {
            let map = model.correlation_map_with(black_box(&frame), &query, &mut scratch);
            black_box(map.values().len())
        });
    });
    c.bench_function("clip_correlation_map_1080p_alloc", |b| {
        // The allocating convenience form, kept for comparison against the baseline.
        b.iter(|| black_box(model.correlation_map(black_box(&frame), &query)));
    });
}

fn bench_clip_incremental(c: &mut Criterion) {
    // The temporal-coherence path at the calibrated ~10 % dirty rate: only motion-dirtied
    // patches are recomputed, bit-identical to the full recompute.
    let source = VideoSource::new(coherence_scene(), SourceConfig::fps30(1.0));
    let frame_a = source.frame(0);
    let frame_b = source.frame(1);
    let model = ClipModel::mobile_default();
    let query = TextQuery::from_words("Where is the player?", model.ontology());
    c.bench_function("clip_correlation_update_10pct_dirty", |b| {
        let mut scratch = ClipScratch::new();
        let _ = model.correlation_map_coherent(&frame_a, &query, &mut scratch);
        let mut toggle = false;
        b.iter(|| {
            toggle = !toggle;
            let frame = if toggle { &frame_b } else { &frame_a };
            let map = model.correlation_map_coherent(black_box(frame), &query, &mut scratch);
            black_box(map.values().len())
        });
    });
}

fn bench_grid_update(c: &mut Criterion) {
    // The primitive under the incremental CLIP map and the rate plan: one raster update at
    // the same ~10 % dirty rate.
    let source = VideoSource::new(coherence_scene(), SourceConfig::fps30(1.0));
    let frames = [source.frame(0), source.frame(1)];
    c.bench_function("grid_content_update_10pct_dirty", |b| {
        let mut grid = GridContent::new();
        grid.update(&frames[0], 64);
        let mut toggle = false;
        b.iter(|| {
            toggle = !toggle;
            grid.update(black_box(&frames[usize::from(toggle)]), 64);
            black_box(grid.dirty_cells().count())
        });
    });
}

fn bench_qp_allocation(c: &mut Criterion) {
    let source = VideoSource::new(basketball_game(1), SourceConfig::fps30(5.0));
    let frame = source.frame(0);
    let model = ClipModel::mobile_default();
    let query = TextQuery::from_words("How many spectators can be seen?", model.ontology());
    let importance = model.correlation_map(&frame, &query);
    let encoder = Encoder::new(EncoderConfig::default());
    let grid = encoder.grid_for(&frame);
    let allocator = QpAllocator::new(QpAllocatorConfig::paper());
    c.bench_function("eq2_qp_allocation", |b| {
        // The reuse API over the threshold-table allocator: no `powf`, no allocations.
        let mut out = QpMap::empty();
        b.iter(|| {
            allocator.allocate_into(black_box(&importance), grid, &mut out);
            black_box(out.values().len())
        });
    });
    c.bench_function("eq2_qp_allocation_alloc", |b| {
        // The allocating convenience form, kept for comparison against the baseline.
        b.iter(|| black_box(allocator.allocate(black_box(&importance), grid)));
    });
}

fn bench_mllm_answer(c: &mut Criterion) {
    let source = VideoSource::new(basketball_game(1), SourceConfig::fps30(5.0));
    let encoder = Encoder::new(EncoderConfig::default());
    let decoder = Decoder::new();
    let frames: Vec<_> = (0..4)
        .map(|i| decoder.decode_complete(&encoder.encode_uniform(&source.frame(i * 30), Qp::new(32)), None))
        .collect();
    let question = Question::from_fact(&basketball_game(1).facts[0], QuestionFormat::MultipleChoice);
    let chat = MllmChat::responder(1);
    c.bench_function("mllm_respond_4_frames", |b| {
        b.iter(|| black_box(chat.respond(black_box(&question), &frames, 0)));
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_packetizer, bench_encoder, bench_decoder, bench_clip_correlation, bench_clip_incremental, bench_grid_update, bench_qp_allocation, bench_mllm_answer
}
criterion_main!(benches);
