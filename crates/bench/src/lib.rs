//! # aivc-bench — the experiment harness
//!
//! Three binaries. `experiments` reproduces the paper's tables and figures and the ablations
//! of the design choices it discusses, one module per experiment (DESIGN.md §4 indexes
//! them); each prints a small markdown report with our measured numbers next to the paper's
//! and writes its rows as JSON. `bench_check` gates the hot paths of [`hotpath_suite`]
//! against the committed `BENCH_hotpaths.json`. `benchmark` is the end-to-end benchmark
//! `BENCHMARK.json` declares, built on its own manifest.

pub mod hotpath_suite;

use serde::Serialize;

/// Prints a titled markdown section to stdout.
pub fn print_section(title: &str, body: &str) {
    println!("\n## {title}\n");
    println!("{body}");
}

/// One hot-path measurement, as recorded in `BENCH_hotpaths.json`.
#[derive(Debug, Clone, Serialize)]
pub struct HotpathMeasurement {
    /// Hot-path name (one of `hotpath_suite::ENTRIES`).
    pub name: String,
    /// Median nanoseconds per iteration across the samples.
    pub median_ns_per_iter: f64,
    /// Iterations batched into each timed sample.
    pub iters_per_sample: u64,
    /// Number of timed samples.
    pub samples: usize,
}

/// Measures a closure: warm up for 150 ms, pick an iteration count that fills
/// `target_sample_ms` per sample, then report the median ns/iteration over `samples`
/// samples. The one stopwatch behind [`hotpath_suite`], so the committed baseline and the
/// `bench_check` gate agree on methodology.
pub fn measure_hotpath<O>(
    name: &str,
    samples: usize,
    target_sample_ms: f64,
    mut f: impl FnMut() -> O,
) -> HotpathMeasurement {
    use std::hint::black_box;
    use std::time::{Duration, Instant};
    let warm_start = Instant::now();
    let warm_budget = Duration::from_millis(150);
    let mut warm_iters: u64 = 0;
    while warm_start.elapsed() < warm_budget {
        black_box(f());
        warm_iters += 1;
    }
    let rough_ns = (warm_start.elapsed().as_nanos() as f64 / warm_iters.max(1) as f64).max(0.5);
    let iters_per_sample = ((target_sample_ms * 1e6 / rough_ns) as u64).clamp(1, 50_000_000);
    let mut per_iter: Vec<f64> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        for _ in 0..iters_per_sample {
            black_box(f());
        }
        per_iter.push(start.elapsed().as_nanos() as f64 / iters_per_sample as f64);
    }
    per_iter.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mid = per_iter.len() / 2;
    let median = if per_iter.len().is_multiple_of(2) {
        (per_iter[mid - 1] + per_iter[mid]) / 2.0
    } else {
        per_iter[mid]
    };
    HotpathMeasurement {
        name: name.to_string(),
        median_ns_per_iter: median,
        iters_per_sample,
        samples: per_iter.len(),
    }
}
