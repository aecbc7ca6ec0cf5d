//! The hot-path regression gate: re-measures every tracked hot path with the same suite
//! `hotpath_baseline` records, compares the fresh medians against the committed
//! `BENCH_hotpaths.json`, and exits non-zero if any median regressed by more than the
//! tolerance (default 5 %, per ROADMAP.md).
//!
//! ```bash
//! cargo run --release -p aivc-bench --bin bench_check            # compares ./BENCH_hotpaths.json
//! cargo run --release -p aivc-bench --bin bench_check -- path.json
//! BENCH_CHECK_TOLERANCE=0.10 cargo run --release -p aivc-bench --bin bench_check
//! cargo run --release -p aivc-bench --bin bench_check -- --only conversation_fleet_throughput_256
//! ```
//!
//! Paths present in the fresh run but absent from the committed baseline fail the check
//! too — they mean the baseline was not re-recorded after adding a hot path. Improvements
//! are reported but never fail.
//!
//! When *every* entry regresses past tolerance by a similar factor, the check diagnoses
//! host CPU steal ("box noise — re-run") and exits 2 instead of reporting a phantom
//! code regression: real regressions are localized to the code path that changed.
//!
//! The fleet-throughput entries are re-measured **at the committed file's `pool_lanes`**
//! (overridable with `AIVC_POOL_SIZE`), so the comparison is always lane-count-for-lane-count;
//! the `warm_turn_breakdown` section is documentation and is not re-measured here (the whole
//! warm turn it decomposes is gated as `conversation_turn_warm`).

use aivc_bench::hotpath_suite::{measure_hotpaths_matching, BaselineFile};
use aivc_bench::print_section;

const SAMPLES: usize = 30;
const TARGET_SAMPLE_MS: f64 = 25.0;

fn main() {
    // `bench_check [baseline.json] [--only <name>]...` — with `--only`, just the named
    // entries are re-measured and compared (the CI serving-suite uses this to gate the
    // fleet-throughput baseline without paying for the whole suite).
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut baseline_path = "BENCH_hotpaths.json".to_string();
    let mut only: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--only" => {
                i += 1;
                match args.get(i) {
                    Some(name) => only.push(name.clone()),
                    None => {
                        eprintln!("--only requires an entry name");
                        std::process::exit(2);
                    }
                }
            }
            other => baseline_path = other.to_string(),
        }
        i += 1;
    }
    let tolerance: f64 = std::env::var("BENCH_CHECK_TOLERANCE")
        .ok()
        .and_then(|t| t.parse().ok())
        .unwrap_or(0.05);

    let committed_json = std::fs::read_to_string(&baseline_path)
        .unwrap_or_else(|e| panic!("cannot read {baseline_path}: {e}"));
    let committed: BaselineFile = serde_json::from_str(&committed_json)
        .unwrap_or_else(|e| panic!("cannot parse {baseline_path}: {e:?}"));

    let pool_lanes = aivc_par::MiniPool::env_lanes_or(committed.pool_lanes.max(1));
    println!(
        "(re-measuring with pool lanes = {pool_lanes}; committed file used {})",
        committed.pool_lanes
    );

    let filter = if only.is_empty() { None } else { Some(&only[..]) };
    let fresh = measure_hotpaths_matching(SAMPLES, TARGET_SAMPLE_MS, pool_lanes, filter);
    if let Some(names) = filter {
        for name in names {
            if !fresh.iter().any(|m| &m.name == name) {
                eprintln!("--only {name:?} matches no measured hot path");
                std::process::exit(2);
            }
        }
    }

    let mut table = String::from(
        "| hot path | committed ns | fresh ns | delta | verdict |\n| --- | --- | --- | --- | --- |\n",
    );
    let mut failures = Vec::new();
    let mut deltas = Vec::new();
    for measurement in &fresh {
        let Some(reference) = committed.hotpaths.iter().find(|h| h.name == measurement.name) else {
            failures.push(format!(
                "{}: missing from {baseline_path} — re-record it with `cargo run --release -p aivc-bench --bin hotpath_baseline`",
                measurement.name
            ));
            table.push_str(&format!(
                "| {} | — | {:.1} | — | NEW (unrecorded) |\n",
                measurement.name, measurement.median_ns_per_iter
            ));
            continue;
        };
        let delta = measurement.median_ns_per_iter / reference.median_ns_per_iter - 1.0;
        deltas.push(delta);
        let verdict = if delta > tolerance {
            failures.push(format!(
                "{}: {:.1} ns vs committed {:.1} ns (+{:.1} % > {:.0} % tolerance)",
                measurement.name,
                measurement.median_ns_per_iter,
                reference.median_ns_per_iter,
                delta * 100.0,
                tolerance * 100.0
            ));
            "REGRESSED"
        } else if delta < -tolerance {
            "improved"
        } else {
            "ok"
        };
        table.push_str(&format!(
            "| {} | {:.1} | {:.1} | {:+.1} % | {} |\n",
            measurement.name,
            reference.median_ns_per_iter,
            measurement.median_ns_per_iter,
            delta * 100.0,
            verdict
        ));
    }
    // Staleness is only checkable on a full run: under `--only` the unmeasured entries
    // are unmeasured on purpose.
    if filter.is_none() {
        for reference in &committed.hotpaths {
            if !fresh.iter().any(|m| m.name == reference.name) {
                failures.push(format!(
                    "{}: committed in {baseline_path} but no longer measured — stale baseline entry",
                    reference.name
                ));
            }
        }
    }
    print_section(
        &format!(
            "Hot-path check vs {baseline_path} (tolerance {:.0} %)",
            tolerance * 100.0
        ),
        &table,
    );

    if failures.is_empty() {
        println!(
            "bench_check: all {} hot paths within tolerance ... ok",
            fresh.len()
        );
        return;
    }

    // A genuine code regression is localized to the code path it touched; CPU steal on a
    // shared/busy box instead slows *every* entry — CLIP, encode, decode, sim, MLLM alike
    // — by a similar factor. When all entries regress past tolerance with tightly
    // clustered slowdowns, the right response is to re-run on a quiet machine, not to
    // hunt a phantom regression (exit code 2 distinguishes this from a real failure).
    let min_delta = deltas.iter().copied().fold(f64::INFINITY, f64::min);
    let max_delta = deltas.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    // The steal diagnosis needs a spread of independent entries: a handful of `--only`
    // regressions clustering is just as consistent with a real localized regression.
    let uniform_slowdown =
        deltas.len() >= 5 && min_delta > tolerance && (1.0 + max_delta) / (1.0 + min_delta) < 1.0 + tolerance;
    if uniform_slowdown {
        eprintln!(
            "bench_check: every entry regressed by a similar factor ({:+.1} % to {:+.1} %) — \
             box noise (host CPU steal), not a code regression. Re-run on a quiet machine.",
            min_delta * 100.0,
            max_delta * 100.0
        );
        std::process::exit(2);
    }

    eprintln!("bench_check: {} failure(s):", failures.len());
    for failure in &failures {
        eprintln!("  - {failure}");
    }
    std::process::exit(1);
}
