//! The multi-core smoke gate the ROADMAP asked for: on a runner with more than one core,
//! the data-parallel CLIP form must actually be faster than its sequential equivalent —
//! `correlation_map_par` at a fixed 4-lane pool must achieve ≥ 1.5× the sequential
//! throughput. On a single-core runner the parallel path degenerates to sequential
//! delegation plus dispatch overhead, so the gate skips (the committed
//! `BENCH_hotpaths.json` was recorded on such a box — see ROADMAP.md). The encode has no
//! parallel form: a planned 1080p encode is a few microseconds, less than one pool
//! dispatch.
//!
//! This is a *smoke* gate, not a benchmark: medians over short batches, a generous
//! threshold (the PR 3 target was ≥ 2.5× at 4 lanes), and bit-identical outputs already
//! proven by the equivalence property tests.

use aivc_par::MiniPool;
use aivc_scene::{SourceConfig, VideoSource};
use aivc_semantics::{ClipModel, ClipParScratch, ClipScratch, TextQuery};
use std::hint::black_box;
use std::time::Instant;

/// Median seconds per call of `f` over `reps` timed batches of `batch` calls.
fn median_secs_per_call(reps: usize, batch: usize, mut f: impl FnMut()) -> f64 {
    // Warmup.
    for _ in 0..batch {
        f();
    }
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..batch {
                f();
            }
            start.elapsed().as_secs_f64() / batch as f64
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

#[test]
fn par_clip_speeds_up_at_four_lanes_on_multicore() {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    if cores < 2 {
        println!("skipping par speedup gate: runner reports {cores} core(s)");
        return;
    }
    const LANES: usize = 4;
    // The full ≥1.5x gate needs the 4-lane pool to actually have 4 cores under it. On a
    // 2–3-core runner the pool is oversubscribed (theoretical ceiling ≤ cores), so the
    // gate degrades to a "parallel must still win" sanity bound instead of hard-failing
    // CI on scheduler noise.
    let target: f64 = if cores >= LANES { 1.5 } else { 1.1 };
    let pool = MiniPool::new(LANES);
    let source = VideoSource::new(
        aivc_scene::templates::basketball_game(1),
        SourceConfig::fps30(5.0),
    );
    let frame = source.frame(0);
    let model = ClipModel::mobile_default();
    let query = TextQuery::from_words(
        "Could you tell me the present score of the game?",
        model.ontology(),
    );

    // --- Eq. 1: full correlation map, sequential vs 4-lane parallel.
    let mut seq_scratch = ClipScratch::new();
    let seq = median_secs_per_call(15, 8, || {
        black_box(model.correlation_map_with(black_box(&frame), &query, &mut seq_scratch));
    });
    let mut par_scratch = ClipParScratch::new();
    let par = median_secs_per_call(15, 8, || {
        black_box(model.correlation_map_par(black_box(&frame), &query, &pool, &mut par_scratch));
    });
    let clip_speedup = seq / par;
    println!(
        "correlation_map_par speedup at {LANES} lanes: {clip_speedup:.2}x (seq {seq:.2e}s, par {par:.2e}s)"
    );

    assert!(
        clip_speedup >= target,
        "correlation_map_par speedup {clip_speedup:.2}x below the {target}x gate on a {cores}-core runner"
    );
}
