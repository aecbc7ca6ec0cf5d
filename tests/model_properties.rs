//! Property-based tests of the core models' invariants across crates: Eq. 1 bounds, Eq. 2
//! monotonicity (and LUT ≡ `powf` equivalence), R-D monotonicity, accuracy monotonicity in
//! quality, incremental-correlation ≡ full-recompute equivalence, Eq. 1's closed form
//! against the direct per-patch procedure (the same Eq. 2 QP in every cell, over random
//! scenes and the template corpus), the encode entry points agreeing block for block, and a
//! served fleet ≡ standalone conversations at any pool size.

use aivchat::core::{
    Conversation, ConversationChatServer, NetSessionOptions, QpAllocator, QpAllocatorConfig,
};
use aivchat::mllm::{MllmChat, Question, QuestionFormat};
use aivchat::netsim::{PathConfig, SimDuration};
use aivchat::par::MiniPool;
use aivchat::scene::templates::TemplateKind;
use aivchat::scene::{Frame, Ontology, Rect, Scene, SceneObject, SourceConfig, VideoSource};
use aivchat::semantics::{ClipConfig, ClipModel, ClipScratch, ImportanceMap, TextQuery};
use aivchat::videocodec::{
    rd, Decoder, EncodeScratch, EncodedFrame, Encoder, EncoderConfig, FrameType, Qp, QpMap, RatePlan,
};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::OnceLock;

/// Eq. 2 at every γ the paper's ablation sweeps.
fn ablation_allocators() -> &'static [QpAllocator] {
    static ALLOCATORS: OnceLock<Vec<QpAllocator>> = OnceLock::new();
    ALLOCATORS.get_or_init(|| {
        [0.5, 1.0, 2.0, 3.0, 5.0, 8.0]
            .map(|gamma| QpAllocator::new(QpAllocatorConfig::with_gamma(gamma)))
            .to_vec()
    })
}

/// The cells where a production map and the naive one disagree under the oracle relation of
/// Eq. 1's closed form — by more than 1e-12, or on the Eq. 2 QP at any ablation γ — and the
/// largest |Δρ| over all cells.
fn oracle_misses(map: &ImportanceMap, naive: &ImportanceMap) -> (Vec<usize>, f64) {
    assert_eq!(map.dims(), naive.dims());
    let mut max_delta = 0.0f64;
    let misses = map
        .values()
        .iter()
        .zip(naive.values())
        .enumerate()
        .filter(|&(_, (&rho, &expected))| {
            let delta = (rho - expected).abs();
            max_delta = max_delta.max(delta);
            delta.is_nan()
                || delta > 1e-12
                || ablation_allocators()
                    .iter()
                    .any(|allocator| allocator.qp_for_rho(rho) != allocator.qp_for_rho(expected))
        })
        .map(|(cell, _)| cell)
        .collect();
    (misses, max_delta)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Eq. 2 output always lies in the legal QP range and is monotone in ρ, for any γ.
    #[test]
    fn eq2_is_bounded_and_monotone(gamma in 0.25f64..10.0, rho_a in -1.0f64..1.0, rho_b in -1.0f64..1.0) {
        let allocator = QpAllocator::new(QpAllocatorConfig::with_gamma(gamma));
        let qp_a = allocator.qp_for_rho(rho_a).value();
        let qp_b = allocator.qp_for_rho(rho_b).value();
        prop_assert!(qp_a <= 51 && qp_b <= 51);
        if rho_a < rho_b {
            prop_assert!(qp_a >= qp_b, "rho {rho_a}<{rho_b} but qp {qp_a}<{qp_b}");
        }
    }

    /// The Eq. 2 threshold-table allocator is bit-identical to the transcendental `powf`
    /// oracle for arbitrary ρ ∈ [−1, 1] (and out-of-range ρ), for the paper γ, every γ the
    /// ablation sweeps, and arbitrary temperatures.
    #[test]
    fn eq2_lut_is_bit_identical_to_powf(
        rho in -1.0f64..=1.0,
        wild_rho in -5.0f64..5.0,
        gamma_ablation in [0.5f64, 1.0, 2.0, 3.0, 5.0, 8.0],
        gamma_arbitrary in 0.05f64..12.0,
    ) {
        for gamma in [gamma_ablation, gamma_arbitrary] {
            let allocator = QpAllocator::new(QpAllocatorConfig::with_gamma(gamma));
            for r in [rho, wild_rho, -1.0, 1.0] {
                let lut = allocator.qp_for_rho(r);
                let reference = allocator.qp_for_rho_reference(r);
                prop_assert!(lut == reference, "gamma {gamma} rho {r}: {lut} != {reference}");
            }
        }
    }

    /// The coherent path — full on frame A, incremental onto frame B, back onto A, then a
    /// repeat of A — is bit-identical to a full recompute, for every template, frame step
    /// and question; so is a scratch whose first frame came through the full form. Both
    /// maps meet the naive per-patch procedure under the oracle relation.
    #[test]
    fn incremental_correlation_matches_full_recompute(
        template_idx in 0usize..5,
        seed in 0u64..20,
        fact_idx in 0usize..4,
        start in 0u64..30,
        step in 1u64..40,
    ) {
        let scene = TemplateKind::ALL[template_idx].build(seed);
        let fact = &scene.facts[fact_idx % scene.facts.len()];
        let model = ClipModel::mobile_default();
        let query = TextQuery::from_words_and_concepts(&fact.question, model.ontology(), fact.query_concepts.clone());
        let source = VideoSource::new(scene.clone(), SourceConfig::fps30(3.0));
        let frame_a = source.frame(start);
        let frame_b = source.frame(start + step);
        let full_a = model.correlation_map(&frame_a, &query);
        let full_b = model.correlation_map(&frame_b, &query);
        for (full, frame) in [(&full_a, &frame_a), (&full_b, &frame_b)] {
            let (misses, max_delta) = oracle_misses(full, &model.correlation_map_naive(frame, &query));
            prop_assert!(misses.is_empty(), "cells {misses:?} miss the naive map (max |Δρ| {max_delta:e})");
        }

        let mut scratch = ClipScratch::new();
        for (frame, full) in [(&frame_a, &full_a), (&frame_b, &full_b), (&frame_a, &full_a), (&frame_a, &full_a)] {
            prop_assert_eq!(model.correlation_map_coherent(frame, &query, &mut scratch), full);
        }
        let mut scratch = ClipScratch::new();
        prop_assert_eq!(model.correlation_map_with(&frame_a, &query, &mut scratch), &full_a);
        prop_assert_eq!(model.correlation_map_coherent(&frame_b, &query, &mut scratch), &full_b);
    }

    /// Block bits are monotone non-increasing in QP and monotone non-decreasing in
    /// complexity, for any content.
    #[test]
    fn rd_model_monotonicity(
        complexity in 0.0f64..1.0,
        motion in 0.0f64..1.0,
        qp in 0i32..50,
    ) {
        let bits = |q: i32, c: f64| rd::block_bits(Qp::new(q), 64 * 64, c, motion, FrameType::Inter);
        prop_assert!(bits(qp, complexity) >= bits(qp + 1, complexity));
        if complexity < 0.95 {
            prop_assert!(bits(qp, complexity + 0.05) >= bits(qp, complexity));
        }
        // Quality is monotone too.
        prop_assert!(rd::block_quality(Qp::new(qp), 0.5) >= rd::block_quality(Qp::new(qp + 1), 0.5));
    }
}

// Random scenes are cheap (small frames) and vary in many more ways than the templates do,
// so this property gets more cases.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every scratch-taking correlation form is the one closed form over the one raster, so
    /// all of them — full, coherent (cold, then warm onto an unrelated layout of the same
    /// objects, then onto single-placement nudges of it) — equal a fresh full map bit for
    /// bit and the naive per-patch reference under the oracle relation, over random scenes
    /// with overlapping objects, objects partly or fully outside the frame, out-of-ontology
    /// and zero-weight concepts, an empty query, and frame sizes the patch size does not
    /// divide.
    #[test]
    fn every_correlation_form_matches_naive_on_random_scenes(
        seed in 0u64..1_000_000,
        width in 100u32..900,
        height in 70u32..600,
        object_count in 0usize..14,
        config in [ClipConfig { patch_size: 64 }, ClipConfig { patch_size: 32 }],
        query_idx in 0usize..4,
    ) {
        const CONCEPTS: [&str; 8] =
            ["scoreboard", "score", "crowd", "grass", "dog-head", "jersey", "unheard-of-gizmo", "mystery-widget"];
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut scene = Scene::new("random", width, height).with_background(
            0.3,
            0.1,
            vec![("court".into(), 0.7), ("mystery-backdrop".into(), rng.gen_range(0.0..1.0))],
        );
        for id in 0..object_count as u32 {
            let mut object = SceneObject::new(id + 1, "thing", Rect::new(0, 0, 1, 1));
            for _ in 0..rng.gen_range(0..4) {
                // One weight in four is exactly zero.
                let weight = if rng.gen_range(0..4) == 0 { 0.0 } else { rng.gen_range(0.05..1.0) };
                object = object.with_concept(CONCEPTS[rng.gen_range(0..CONCEPTS.len())], weight);
            }
            scene.add_object(object);
        }
        // Rects from well outside the frame to well inside it, any size up to the frame's:
        // they overlap each other, straddle the borders, and sometimes miss the frame.
        let layout = |rng: &mut ChaCha8Rng| {
            let mut frame = VideoSource::new(scene.clone(), SourceConfig::fps30(1.0)).frame(0);
            for placement in &mut frame.placements {
                placement.region = Rect::new(
                    rng.gen_range(-(width as i64)..width as i64 + 100),
                    rng.gen_range(-(height as i64)..height as i64 + 100),
                    rng.gen_range(1..=width),
                    rng.gen_range(1..=height),
                );
            }
            frame
        };
        let frame_a = layout(&mut rng);
        let frame_b = layout(&mut rng);
        let model = ClipModel::new(config, Ontology::standard());
        let query = match query_idx {
            0 => TextQuery::from_words("what is the score on the scoreboard", model.ontology()),
            1 => TextQuery::from_concepts("find the gizmo", ["unheard-of-gizmo"]),
            2 => TextQuery::from_words("qqq zzz", model.ontology()), // empty query
            _ => TextQuery::from_words_and_concepts("is the dog on the grass", model.ontology(), ["mystery-widget"]),
        };
        let full_a = model.correlation_map(&frame_a, &query);
        let full_b = model.correlation_map(&frame_b, &query);
        for (full, frame) in [(&full_a, &frame_a), (&full_b, &frame_b)] {
            let (misses, max_delta) = oracle_misses(full, &model.correlation_map_naive(frame, &query));
            prop_assert!(misses.is_empty(), "cells {misses:?} miss the naive map (max |Δρ| {max_delta:e})");
        }

        let mut scratch = ClipScratch::new();
        prop_assert_eq!(model.correlation_map_with(&frame_a, &query, &mut scratch), &full_a);
        prop_assert_eq!(model.correlation_map_coherent(&frame_b, &query, &mut scratch), &full_b);
        let mut scratch = ClipScratch::new();
        prop_assert_eq!(model.correlation_map_coherent(&frame_a, &query, &mut scratch), &full_a);
        prop_assert_eq!(model.correlation_map_coherent(&frame_b, &query, &mut scratch), &full_b);
        prop_assert_eq!(model.correlation_map_coherent(&frame_a, &query, &mut scratch), &full_a);

        // A sequence of small steps from there: one placement nudged, resized or dropped
        // off the frame at a time, the coherent map checked after each.
        let mut frame = frame_a;
        for _ in 0..6 {
            if frame.placements.is_empty() {
                break;
            }
            let at = rng.gen_range(0..frame.placements.len());
            let r = frame.placements[at].region;
            frame.placements[at].region = match rng.gen_range(0..3) {
                0 => Rect::new(r.x + rng.gen_range(-40..=40), r.y + rng.gen_range(-40..=40), r.w, r.h),
                1 => Rect::new(r.x, r.y, rng.gen_range(1..=width), rng.gen_range(1..=height)),
                _ => Rect::new(width as i64 + 5, r.y, r.w, r.h),
            };
            let full = model.correlation_map(&frame, &query);
            prop_assert_eq!(model.correlation_map_coherent(&frame, &query, &mut scratch), &full);
            let (misses, max_delta) = oracle_misses(&full, &model.correlation_map_naive(&frame, &query));
            prop_assert!(misses.is_empty(), "cells {misses:?} miss the naive map (max |Δρ| {max_delta:e})");
        }
    }
}

/// Eq. 1's closed form over the template corpus: every template, three scene seeds, every
/// fact's question and eight captures each — consecutive ones and jumps, read coherently the
/// way a conversation does — give every cell the naive per-patch procedure's Eq. 2 QP at
/// every ablation γ, and a ρ within 1e-12 of it.
#[test]
fn closed_form_eq1_gives_every_corpus_cell_the_naive_qp() {
    let model = ClipModel::mobile_default();
    let (mut cells, mut max_delta) = (0usize, 0.0f64);
    for kind in TemplateKind::ALL {
        for seed in 0..3 {
            let scene = kind.build(seed);
            let source = VideoSource::new(scene.clone(), SourceConfig::fps30(10.0));
            for fact in &scene.facts {
                let query = TextQuery::from_words_and_concepts(
                    &fact.question,
                    model.ontology(),
                    fact.query_concepts.clone(),
                );
                let mut scratch = ClipScratch::new();
                for index in [0, 1, 2, 3, 40, 41, 150, 299] {
                    let frame = source.frame(index);
                    let map = model.correlation_map_coherent(&frame, &query, &mut scratch);
                    let (misses, delta) = oracle_misses(map, &model.correlation_map_naive(&frame, &query));
                    assert!(
                        misses.is_empty(),
                        "{kind:?} seed {seed}, {:?}, frame {index}: cells {misses:?} flip",
                        fact.question
                    );
                    cells += map.values().len();
                    max_delta = max_delta.max(delta);
                }
            }
        }
    }
    println!("{cells} corpus cells, no Eq. 2 flip at any ablation gamma, max |Δρ| {max_delta:e}");
}

// The encode-equivalence and pooled-server properties run several full-frame encodes or
// whole turns per case, so they use fewer cases than the scalar properties above (each
// server case already sweeps pool sizes 1, 2 and 8).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The encode entry points are one walk: `encode_into` through a fresh scratch, through
    /// a warm one, and a planned encode (plan prepared with or without a base map) agree
    /// block for block — bytes, QP, detail and the coverage — for every
    /// frame and QP map, and a complete decode hands the coverage on unchanged.
    #[test]
    fn encode_entry_points_agree_block_for_block(
        template_idx in 0usize..5,
        seed in 0u64..20,
        frame_idx in 0u64..60,
        low_qp in 0i32..30,
        high_qp in 30i32..=51,
        split in 1u32..8,
    ) {
        let scene = TemplateKind::ALL[template_idx].build(seed);
        let source = VideoSource::new(scene, SourceConfig::fps30(3.0));
        let frame = source.frame(frame_idx);
        let encoder = Encoder::new(EncoderConfig::default());
        let dims = encoder.grid_for(&frame);
        let mut map = QpMap::uniform(dims, Qp::new(high_qp));
        for row in 0..dims.rows {
            for col in 0..dims.cols * split / 8 {
                map.set(row, col, Qp::new(low_qp));
            }
        }
        let mut reference = EncodedFrame::placeholder();
        encoder.encode_into(&frame, &map, &mut EncodeScratch::new(), &mut reference);
        // A scratch and output that last held another frame at another map.
        let mut scratch = EncodeScratch::new();
        let mut out = EncodedFrame::placeholder();
        let other = source.frame((frame_idx + 17) % 60);
        encoder.encode_into(&other, &QpMap::uniform(dims, Qp::new(low_qp)), &mut scratch, &mut out);
        encoder.encode_into(&frame, &map, &mut scratch, &mut out);
        prop_assert_eq!(&out, &reference);
        let mut plan = RatePlan::new();
        for base in [None, Some(&map)] {
            encoder.prepare_rate_plan(&frame, base, &mut plan);
            encoder.encode_into_planned(&frame, &map, &plan, &mut scratch, &mut out);
            prop_assert_eq!(&out, &reference);
        }
        let decoded = Decoder::new().decode_complete(&reference, None);
        prop_assert_eq!(&decoded.coverage, &reference.coverage);
    }
}

// Every case of the fleet property runs whole networked turns on five servers: ten cases
// vary every dimension and cost a debug build what the 24 compute-only cases used to.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// `ConversationChatServer` turns are bit-identical for any pool size and deterministic
    /// across runs: every conversation's report — a cold turn, a think gap and a warm turn
    /// on the paper's 1 % loss path — equals the standalone conversation's no matter how
    /// many lanes the fleet was spread over, for any scene, question, seed and fleet size.
    #[test]
    fn parallel_chat_server_is_pool_size_independent_and_deterministic(
        template_idx in 0usize..5,
        scene_seed in 0u64..10,
        fact_idx in 0usize..4,
        base_seed in 0u64..1000,
        session_count in 1usize..10,
    ) {
        let scene = TemplateKind::ALL[template_idx].build(scene_seed);
        let fact = &scene.facts[fact_idx % scene.facts.len()];
        let question = Question::from_fact(fact, QuestionFormat::MultipleChoice);
        let source = VideoSource::new(scene.clone(), SourceConfig::fps30(3.0));
        let frames: Vec<Frame> = (0..3).map(|i| source.frame(i * 10)).collect();
        let template = NetSessionOptions::ai_oriented(base_seed, PathConfig::paper_section_2_2(0.01));
        let think = SimDuration::from_millis(200);
        let run = |pool_size: usize| {
            let mut server = ConversationChatServer::new(pool_size, session_count, template.clone(), think);
            server.run_turns(&frames, &question); // cold turn
            server.run_turns(&frames, &question); // warm turn
            (0..session_count).map(|i| server.conversation_report(i)).collect::<Vec<_>>()
        };
        let sequential = run(1);
        prop_assert_eq!(&run(2), &sequential);
        prop_assert_eq!(&run(8), &sequential);
        prop_assert_eq!(&run(8), &sequential); // determinism across runs at equal pool size
        prop_assert_eq!(&run(MiniPool::env_lanes()), &sequential); // the CI-pinned config
        // And each report equals the standalone conversation's.
        for (i, report) in sequential.iter().enumerate() {
            let mut options = template.clone();
            options.seed = base_seed.wrapping_add(i as u64);
            let mut conversation = Conversation::with_defaults(options, think);
            conversation.run_turn(&frames, &question);
            conversation.run_turn(&frames, &question);
            prop_assert_eq!(report, &conversation.report());
        }
    }
}

// Back at the scalar case count for the remaining model invariants.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Eq. 1 correlations stay in [-1, 1] for every template, seed and question.
    #[test]
    fn correlation_maps_respect_eq1_bounds(template_idx in 0usize..5, seed in 0u64..30, fact_idx in 0usize..4) {
        let scene = TemplateKind::ALL[template_idx].build(seed);
        let fact = &scene.facts[fact_idx % scene.facts.len()];
        let model = ClipModel::mobile_default();
        let query = TextQuery::from_words_and_concepts(&fact.question, model.ontology(), fact.query_concepts.clone());
        let frame = VideoSource::new(scene.clone(), SourceConfig::fps30(2.0)).frame(0);
        let map = model.correlation_map(&frame, &query);
        prop_assert!(map.values().iter().all(|v| (-1.0..=1.0).contains(v)));
        prop_assert_eq!(map.values().len(), map.dims().len());
    }

    /// MLLM answer probability is monotone non-increasing in QP (coarser video can never
    /// make the model more likely to answer correctly), and bounded by [floor, 1].
    #[test]
    fn answer_probability_monotone_in_qp(template_idx in 0usize..5, seed in 0u64..10, fact_idx in 0usize..4) {
        let scene = TemplateKind::ALL[template_idx].build(seed);
        let fact = &scene.facts[fact_idx % scene.facts.len()];
        let question = Question::from_fact(fact, QuestionFormat::MultipleChoice);
        let source = VideoSource::new(scene.clone(), SourceConfig::fps30(2.0));
        let encoder = Encoder::new(EncoderConfig::default());
        let decoder = Decoder::new();
        let chat = MllmChat::responder(seed);
        let mut previous = 1.1f64;
        for qp in [20, 30, 40, 50] {
            let frames: Vec<_> = (0..2)
                .map(|i| decoder.decode_complete(&encoder.encode_uniform(&source.frame(i * 30), Qp::new(qp)), None))
                .collect();
            let p = chat.answer_model().probability_correct(&question, &frames);
            prop_assert!(p <= previous + 1e-9, "p increased at qp {qp}");
            prop_assert!((0.0..=1.0).contains(&p));
            prop_assert!(p >= question.format.guess_floor() - 1e-9);
            previous = p;
        }
    }
}
