//! Proof that the reuse APIs make *every* per-frame hot path allocation-free after warmup:
//! a counting global allocator observes zero allocations across many post-warmup iterations
//! of `Packetizer::packetize_into`, `ClipModel::correlation_map_with`,
//! `QpAllocator::allocate_into` (Eq. 2), `Encoder::encode_into`, `Decoder::decode_into`,
//! and the full chat turn — a warm `Conversation` (CLIP → QP → rate match → encode →
//! packetize → emulated link → decode → MLLM respond), standalone, through think gaps, and
//! served as a pooled fleet.
//!
//! This target sets `harness = false` (a plain `main`) so the process has exactly one
//! thread of its own: libtest's harness threads allocate sporadically and would pollute
//! the global counter (observed as a rare flaky nonzero count when this ran under
//! `#[test]`). The `MiniPool` workers spawned for the pooled-server section below are
//! fine: between sections they park on a condvar, and during sections they run exactly
//! the allocation-free per-turn code this test is counting.
//!
//! The pool size for the server section comes from `AIVC_POOL_SIZE` (CI runs both a
//! 1-worker and a multi-worker configuration); the default exercises at least two lanes so
//! the threaded dispatch path is always covered.

use aivc_mllm::{Question, QuestionFormat};
use aivc_netsim::PathConfig;
use aivc_par::MiniPool;
use aivc_rtc::packetizer::{OutgoingFrame, Packetizer};
use aivc_scene::templates::{basketball_game, dog_park};
use aivc_scene::{Frame, Ontology, SourceConfig, VideoSource};
use aivc_semantics::{ClipConfig, ClipModel, ClipScratch, TextQuery};
use aivc_sim::SimDuration;
use aivc_sim::{EventQueue, SimTime};
use aivc_videocodec::{
    DecodeScratch, DecodedFrame, Decoder, EncodeScratch, EncodedFrame, Encoder, EncoderConfig, QpMap,
};
use aivchat_core::{
    Conversation, ConversationChatServer, NetSessionOptions, QpAllocator, QpAllocatorConfig, StreamerConfig,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

fn main() {
    // --- the simulation kernel: once the heap/slab have reached their high-water mark of
    // concurrently pending events, schedule/cancel/pop cycles allocate nothing — the
    // steady-state contract long-lived conversations rely on.
    let mut queue: EventQueue<u64> = EventQueue::new();
    for round in 0..3u64 {
        let ids: Vec<_> = (0..64)
            .map(|i| queue.schedule(SimTime::from_micros(round * 100 + i), i))
            .collect();
        for id in ids.iter().step_by(3) {
            queue.cancel(*id);
        }
        while queue.pop().is_some() {}
    }
    let before = allocations();
    let mut canceled_total = 0u64;
    for round in 0..1_000u64 {
        let mut cancel_me = None;
        for i in 0..64u64 {
            let id = queue.schedule(SimTime::from_micros(round * 100 + i), i);
            if i % 3 == 0 {
                // Cancel it one iteration later, so the tombstone-skip path runs too.
                cancel_me = Some(id);
            } else if let Some(victim) = cancel_me.take() {
                assert!(queue.cancel(victim));
                canceled_total += 1;
            }
        }
        while let Some((t, e)) = queue.pop() {
            black_box((t, e));
        }
    }
    assert!(
        canceled_total >= 20_000,
        "the measured loop must actually exercise cancel (got {canceled_total})"
    );
    let kernel_allocs = allocations() - before;
    assert_eq!(
        kernel_allocs, 0,
        "sim kernel allocated {kernel_allocs} times across 1000 post-warmup schedule/cancel/pop rounds"
    );

    // --- packetize_into: warm the buffer up to the largest frame, then count.
    let mut packetizer = Packetizer::default();
    let mut packets = Vec::new();
    let frame = OutgoingFrame {
        frame_id: 1,
        capture_ts_us: 0,
        size_bytes: 100_000,
        is_keyframe: true,
    };
    for _ in 0..3 {
        packetizer.packetize_into(&frame, &mut packets);
    }
    let before = allocations();
    for _ in 0..1_000 {
        packetizer.packetize_into(black_box(&frame), &mut packets);
        black_box(packets.len());
    }
    let packetize_allocs = allocations() - before;
    assert_eq!(
        packetize_allocs, 0,
        "packetize_into allocated {packetize_allocs} times across 1000 post-warmup iterations"
    );

    // --- correlation_map_with: warm the scratch (query memo + buffers), then count.
    let source = VideoSource::new(basketball_game(1), SourceConfig::fps30(5.0));
    let frame = source.frame(0);
    let model = ClipModel::mobile_default();
    let query = TextQuery::from_words(
        "Could you tell me the present score of the game?",
        model.ontology(),
    );
    let mut scratch = ClipScratch::new();
    for _ in 0..3 {
        let _ = model.correlation_map_with(&frame, &query, &mut scratch);
    }
    let before = allocations();
    for _ in 0..25 {
        let map = model.correlation_map_with(black_box(&frame), &query, &mut scratch);
        black_box(map.values().len());
    }
    let clip_allocs = allocations() - before;
    assert_eq!(
        clip_allocs, 0,
        "correlation_map_with allocated {clip_allocs} times across 25 post-warmup iterations"
    );

    // --- the closed form's tables rebuilt on every call: two questions taking turns rebuild
    // the query dots, two scenes taking turns re-resolve the concepts and rebuild the Gram
    // table too — in the memo's own buffers, once each has been seen.
    let park = VideoSource::new(dog_park(1), SourceConfig::fps30(5.0)).frame(0);
    let season = TextQuery::from_words("Infer what season it might be in the video", model.ontology());
    let alternating = [
        (&frame, &query),
        (&frame, &season),
        (&park, &season),
        (&park, &query),
    ];
    for _ in 0..2 {
        for (f, q) in alternating {
            let _ = model.correlation_map_with(f, q, &mut scratch);
        }
    }
    let before = allocations();
    for _ in 0..10 {
        for (f, q) in alternating {
            black_box(
                model
                    .correlation_map_with(black_box(f), q, &mut scratch)
                    .values()
                    .len(),
            );
        }
    }
    let refresh_allocs = allocations() - before;
    assert_eq!(
        refresh_allocs, 0,
        "rebuilding the Eq. 1 tables allocated {refresh_allocs} times across 40 post-warmup calls"
    );

    // --- and the scratch stays allocation-free across frames of the same turn once every
    // frame in the window has been visited (multi-frame warmup, multi-frame measure).
    let frames: Vec<_> = (0..4).map(|i| source.frame(i * 15)).collect();
    for f in &frames {
        let _ = model.correlation_map_with(f, &query, &mut scratch);
    }
    let before = allocations();
    for _ in 0..5 {
        for f in &frames {
            let _ = black_box(model.correlation_map_with(f, &query, &mut scratch));
        }
    }
    let turn_allocs = allocations() - before;
    assert_eq!(
        turn_allocs, 0,
        "multi-frame turn allocated {turn_allocs} times after warmup"
    );

    // --- allocate_into (Eq. 2): the threshold-table allocator over a 1080p CTU grid.
    let encoder = Encoder::new(EncoderConfig::default());
    let grid = encoder.grid_for(&frame);
    let allocator = QpAllocator::new(QpAllocatorConfig::paper());
    let importance = model.correlation_map(&frame, &query);
    let mut qp_map = QpMap::empty();
    for _ in 0..3 {
        allocator.allocate_into(&importance, grid, &mut qp_map);
    }
    let before = allocations();
    for _ in 0..1_000 {
        allocator.allocate_into(black_box(&importance), grid, &mut qp_map);
        black_box(qp_map.values().len());
    }
    let eq2_allocs = allocations() - before;
    assert_eq!(
        eq2_allocs, 0,
        "allocate_into allocated {eq2_allocs} times across 1000 post-warmup iterations"
    );

    // --- encode_into: a 1080p ROI encode through a warmed scratch (plan, block list and
    // coverage placements all refilled in place).
    let mut encode_scratch = EncodeScratch::new();
    let mut encoded = EncodedFrame::placeholder();
    for _ in 0..3 {
        encoder.encode_into(&frame, &qp_map, &mut encode_scratch, &mut encoded);
    }
    let before = allocations();
    for _ in 0..100 {
        encoder.encode_into(black_box(&frame), &qp_map, &mut encode_scratch, &mut encoded);
        black_box(encoded.total_bytes());
    }
    let encode_allocs = allocations() - before;
    assert_eq!(
        encode_allocs, 0,
        "encode_into allocated {encode_allocs} times across 100 post-warmup iterations"
    );

    // --- decode_into: the full-frame decode of the same 1080p frame.
    let mut decode_scratch = DecodeScratch::new();
    let mut decoded = DecodedFrame::placeholder();
    let decoder = Decoder::new();
    let total = encoded.total_bytes();
    for _ in 0..3 {
        decoder.decode_into(&encoded, &[(0, total)], None, &mut decode_scratch, &mut decoded);
    }
    let before = allocations();
    for _ in 0..200 {
        decoder.decode_into(
            black_box(&encoded),
            &[(0, total)],
            None,
            &mut decode_scratch,
            &mut decoded,
        );
        black_box(decoded.blocks.len());
    }
    let decode_allocs = allocations() - before;
    assert_eq!(
        decode_allocs, 0,
        "decode_into allocated {decode_allocs} times across 200 post-warmup iterations"
    );

    let turn_frames: Vec<Frame> = (0..4).map(|i| source.frame(i * 15)).collect();
    let question = Question::from_fact(&basketball_game(1).facts[0], QuestionFormat::MultipleChoice);

    // --- a warm networked Conversation turn: think gap → captures → rate-adapted ROI
    // encodes → packetize + FEC protect → pace → emulated link → reassembly → decode →
    // MLLM answer → report + retirement, all through the discrete-event loop. On a clean
    // (lossless, jitter-free) path the steady state touches only ring buffers and
    // reusable scratches, so post-warmup turns are allocation-free end to end. (Loss
    // repair is inside the guarantee too: the moving-window section below runs on the
    // paper's 1 % loss path.) Each turn after the first opens with the conversation's
    // 200 ms think gap, in which it keeps the transport alive — matured per-packet feedback
    // folds into GCC straight out of the pending ring ([`FeedbackFold`]), receiver polls
    // re-arm, and departures and arrivals queue in the transport's in-order streams, which
    // keep their capacity. None of that may allocate: a fleet spends most of its
    // wall-clock inside think gaps, so a per-gap allocation would dominate steady state.
    let mut options = NetSessionOptions::ai_oriented(7, PathConfig::paper_section_2_2(0.0));
    options.capture_fps = 12.0;
    let mut conversation = Conversation::with_defaults(options, SimDuration::from_millis(200));
    for _ in 0..3 {
        let _ = conversation.run_turn(&turn_frames, &question);
    }
    let measured_turns = 10;
    conversation.reserve_turns(measured_turns, turn_frames.len());
    let before = allocations();
    for _ in 0..measured_turns {
        let report = conversation.run_turn_in_place(black_box(&turn_frames), &question);
        black_box(report.answer.visual_tokens);
    }
    let conversation_allocs = allocations() - before;
    assert_eq!(
        conversation_allocs, 0,
        "Conversation::run_turn_in_place allocated {conversation_allocs} times across {measured_turns} post-warmup turns"
    );

    // --- motion and loss: the same, cycling sixteen *distinct* moving windows (the
    // end-to-end benchmark's inputs: the basketball clip, window starts 0.35 s apart, 4
    // frames at 12 fps) on the benchmark's path, `paper_section_2_2(0.01)` — 1 % i.i.d.
    // loss, so about one turn in six loses a packet. Every frame's object coverage differs
    // from the slot's previous occupant; frames carry it as one table refilled in place
    // and the rasters splice only the cells that moved. On a turn that loses a packet, gap
    // detection, the NACK poll, the retransmission and XOR recovery all run from buffers
    // kept across turns (the NACK generator's pending list is a sorted `Vec` that is never
    // dropped; `FecRecovery::recoverable` hands its index back by value), so repair is as
    // heap-free as delivery. What may still allocate is a high-water buffer's next
    // doubling when a rarer loss pattern stacks one more concurrent event than any turn
    // before it did (the event queue's slab and heap, the pending-feedback ring: one
    // doubling each inside the first 320 turns at this seed, none in the 3 000 after) —
    // warm-up growth, not per-turn work, hence the twenty warm-up passes.
    let clip = VideoSource::new(basketball_game(1), SourceConfig::fps30(6.0));
    let windows: Vec<Vec<Frame>> = (0..16)
        .map(|k| {
            (0..4)
                .map(|i| clip.frame_at(k as f64 * 0.35 + i as f64 / 12.0))
                .collect()
        })
        .collect();
    let mut options = NetSessionOptions::ai_oriented(11, PathConfig::paper_section_2_2(0.01));
    options.capture_fps = 12.0;
    let mut moving = Conversation::with_defaults(options, SimDuration::from_millis(200));
    for window in windows.iter().cycle().take(20 * windows.len()) {
        let _ = moving.run_turn(window, &question);
    }
    let measured_passes = 4;
    moving.reserve_turns(measured_passes * windows.len(), 4);
    let (before, mut packets_lost) = (allocations(), 0);
    for window in windows.iter().cycle().take(measured_passes * windows.len()) {
        let report = moving.run_turn_in_place(black_box(window), &question);
        packets_lost += report.packets_lost;
        black_box(report.answer.visual_tokens);
    }
    let moving_allocs = allocations() - before;
    assert!(
        packets_lost >= 4,
        "the measured turns must exercise loss repair (lost {packets_lost} packets)"
    );
    assert_eq!(
        moving_allocs, 0,
        "a warm Conversation allocated {moving_allocs} times across {measured_passes} passes \
         over sixteen distinct moving windows at 1 % loss"
    );

    // --- the ConversationChatServer: long-lived conversations, each on its own kernel,
    // spread whole over the lanes of a MiniPool (no stage has a parallel form of its own)
    // with the always-on metrics layer engaged. Pool start-up is part of warmup; post-warmup
    // fleet turns must not allocate (raw-pointer job dispatch, static session→lane mapping).
    // A conversation owns what it carries between turns; the frame buffers of a turn and the
    // CLIP work buffers of a capture belong to its *lane*, which lends them to each of its
    // sessions in order. So the fleet holds two sessions per lane — a 64-px one, whose CLIP
    // reads its rate plan's raster, then a 32-px one, whose 4× finer patch grid is where the
    // lane's CLIP buffers grow — and its turns alternate between a 1080p and a 720p window
    // (the smaller grid's block records fit the larger one's buffers): the lane's buffers
    // and each conversation's rasters grow to the larger geometry during warm-up and the
    // smaller one is served from them afterwards. Once each lane has served both, fleet
    // turns are allocation-free: every event queue sits at its high-water mark, reports are
    // overwritten in place, and every counter bump is a plain `u64` add — no heap.
    let pool_lanes = MiniPool::env_lanes_or(MiniPool::available_lanes().max(2));
    let conv_template = {
        let mut o = NetSessionOptions::ai_oriented(9, PathConfig::paper_section_2_2(0.0));
        o.capture_fps = 12.0;
        o
    };
    let fleet_sessions = 2 * pool_lanes;
    let fleet_models =
        [64, 32].map(|patch_size| Arc::new(ClipModel::new(ClipConfig { patch_size }, Ontology::standard())));
    let fleet = (0..fleet_sessions)
        .map(|i| {
            let mut options = conv_template.clone();
            options.seed += i as u64;
            // Session `i` runs on lane `i % pool_lanes`: each lane's first session is 64-px.
            Conversation::new(
                options,
                StreamerConfig::default(),
                Arc::clone(&fleet_models[i / pool_lanes]),
                SimDuration::from_millis(200),
            )
        })
        .collect();
    let mut conv_server = ConversationChatServer::with_sessions(MiniPool::new(pool_lanes), fleet);
    let small_frames: Vec<Frame> = {
        let mut scene = basketball_game(1);
        (scene.width, scene.height) = (1280, 720);
        let small = VideoSource::new(scene, SourceConfig::fps30(5.0));
        (0..4).map(|i| small.frame(i * 15)).collect()
    };
    let geometries = [&turn_frames, &small_frames];
    for turn in 0..4 {
        conv_server.run_turns(geometries[turn % 2], &question);
    }
    let measured_server_turns = 6;
    conv_server.reserve_turns(measured_server_turns, turn_frames.len());
    let before = allocations();
    for turn in 0..measured_server_turns {
        conv_server.run_turns(black_box(geometries[turn % 2]), &question);
        black_box(conv_server.report(0).map(|r| r.frames_delivered));
    }
    let fleet_allocs = allocations() - before;
    assert_eq!(
        fleet_allocs, 0,
        "ConversationChatServer::run_turns ({pool_lanes} lanes, {fleet_sessions} sessions, two frame \
         geometries) allocated {fleet_allocs} times across {measured_server_turns} post-warmup fleet turns"
    );

    // Reading the always-on counters is also heap-free: snapshots are plain Copy values.
    let before = allocations();
    let snap = conv_server.fleet_metrics();
    black_box(snap.packets_sent);
    black_box(conv_server.metrics_snapshot(0).frames_sent);
    let snapshot_allocs = allocations() - before;
    assert_eq!(
        snapshot_allocs, 0,
        "metrics snapshots allocated {snapshot_allocs} times"
    );

    // Sanity: the counter itself works (a deliberate allocation is observed).
    let before = allocations();
    let v: Vec<u64> = black_box((0..100).collect());
    black_box(v.len());
    assert!(allocations() > before, "counting allocator is not counting");

    // And switching scenes/queries still works correctly with a warmed scratch (values
    // checked against the naive path elsewhere; here we just exercise the invalidation).
    let dog = VideoSource::new(dog_park(1), SourceConfig::fps30(5.0)).frame(0);
    let other = TextQuery::from_words("Infer what season it might be in the video", model.ontology());
    let map = model.correlation_map_with(&dog, &other, &mut scratch);
    assert!(map.values().iter().all(|v| (-1.0..=1.0).contains(v)));

    println!("zero_alloc: hot paths are allocation-free after warmup ... ok");
}
