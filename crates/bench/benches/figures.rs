//! Criterion benchmarks of (scaled-down versions of) the per-figure experiment kernels, so
//! `cargo bench` exercises every experiment path end to end. The full-size experiments are
//! the `aivc-bench` binaries (see DESIGN.md §4).

use aivc_devibench::{Pipeline, PipelineConfig};
use aivc_netsim::LossModel;
use aivc_scene::Corpus;
use aivchat_core::run_accuracy_vs_bitrate;
use aivchat_core::scenarios::{held_rate_sender, stream_for};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_fig3_kernel(c: &mut Criterion) {
    // One Figure 3 point, conversation build included (the sweep builds one per point).
    let options = held_rate_sender(7, LossModel::Iid { rate: 0.05 }, 2_000_000.0);
    c.bench_function("fig3_stream_6s_2mbps_5pct_loss", |b| {
        b.iter(|| black_box(stream_for(black_box(options.clone()), 6.0)));
    });
}

fn bench_devibench_kernel(c: &mut Criterion) {
    let corpus = Corpus::streamingbench_like(5, 2, 15.0, 20.0);
    c.bench_function("devibench_pipeline_2_clips", |b| {
        b.iter(|| black_box(Pipeline::new(PipelineConfig::default()).run(black_box(&corpus))));
    });
}

fn bench_fig9_kernel(c: &mut Criterion) {
    let mut corpus = Corpus::streamingbench_like(31, 2, 8.0, 10.0);
    corpus.set_uniform_fps(30.0);
    c.bench_function("fig9_accuracy_2_clips_1_bitrate", |b| {
        b.iter(|| {
            black_box(run_accuracy_vs_bitrate(
                black_box(&corpus),
                &[430_000.0],
                0.55,
                3,
                7,
            ))
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_fig3_kernel, bench_devibench_kernel, bench_fig9_kernel
}
criterion_main!(benches);
