//! # aivc-bench — the experiment harness
//!
//! One binary per table/figure of the paper (see DESIGN.md §4 for the index) plus ablation
//! binaries for the design choices the paper discusses. Each binary prints a small markdown
//! report with our measured numbers next to the paper's reported numbers, and (where useful)
//! writes machine-readable JSON next to it.
//!
//! Scale control: every binary honours the `AIVC_SCALE` environment variable
//! (`quick` | `default` | `full`). `quick` runs in seconds and is what the integration tests
//! use; `full` approaches the paper's experiment sizes and can take many minutes.

pub mod hotpath_suite;

use serde::Serialize;
use std::io::Write;

/// Experiment scale selected via the `AIVC_SCALE` environment variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-long smoke run.
    Quick,
    /// The default: minutes-long, statistically meaningful.
    Default,
    /// Paper-sized run.
    Full,
}

impl Scale {
    /// Reads the scale from the environment.
    pub fn from_env() -> Self {
        match std::env::var("AIVC_SCALE")
            .unwrap_or_default()
            .to_lowercase()
            .as_str()
        {
            "quick" => Scale::Quick,
            "full" => Scale::Full,
            _ => Scale::Default,
        }
    }

    /// Picks one of three values according to the scale.
    pub fn pick<T: Copy>(self, quick: T, default: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Default => default,
            Scale::Full => full,
        }
    }
}

/// Prints a titled markdown section to stdout.
pub fn print_section(title: &str, body: &str) {
    println!("\n## {title}\n");
    println!("{body}");
}

/// Writes a JSON results file under `target/experiments/` and reports the path.
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let dir = std::path::Path::new("target/experiments");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let path = dir.join(format!("{name}.json"));
    if let Ok(mut file) = std::fs::File::create(&path) {
        let _ = file.write_all(serde_json::to_string_pretty(value).unwrap_or_default().as_bytes());
        println!("(results written to {})", path.display());
    }
}

/// Formats a bits-per-second value as kbps with one decimal.
pub fn kbps(bps: f64) -> String {
    format!("{:.1} kbps", bps / 1_000.0)
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_pick() {
        assert_eq!(Scale::Quick.pick(1, 2, 3), 1);
        assert_eq!(Scale::Default.pick(1, 2, 3), 2);
        assert_eq!(Scale::Full.pick(1, 2, 3), 3);
    }

    #[test]
    fn kbps_formatting() {
        assert_eq!(kbps(430_000.0), "430.0 kbps");
    }
}
