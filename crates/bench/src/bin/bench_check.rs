//! The hot-path regression gate and its recorder: measures the tracked hot paths
//! ([`aivc_bench::hotpath_suite`]) and either compares the fresh medians against the
//! committed `BENCH_hotpaths.json`, exiting non-zero if any median regressed by more than
//! the tolerance (default 5 %, per ROADMAP.md), or — with `--record` — writes them there.
//!
//! ```bash
//! cargo run --release -p aivc-bench --bin bench_check            # compares ./BENCH_hotpaths.json
//! cargo run --release -p aivc-bench --bin bench_check -- path.json
//! BENCH_CHECK_TOLERANCE=0.10 cargo run --release -p aivc-bench --bin bench_check
//! cargo run --release -p aivc-bench --bin bench_check -- --only conversation_fleet_throughput_256
//! cargo run --release -p aivc-bench --bin bench_check -- --record --max-of 3 [--only <name>]...
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
//! The fleet-throughput entry is re-measured **at the committed file's `pool_lanes`**
//! (overridable with `AIVC_POOL_SIZE`), so the comparison is always lane-count-for-lane-count.
//!
//! `--record` **overwrites** the baseline file. With `--only` it re-measures just the named
//! entries and splices them into the existing file, leaving every other committed number
//! untouched; a pooled entry is refused unless the pool has the file's `pool_lanes`.
//! Committed re-recordings follow the max-of-3 rule (ROADMAP.md): `--max-of 3` (which
//! `scripts/bench-check.sh --record` passes) keeps, per entry, the slowest of three measured
//! medians — a conservative bar that later checks won't trip on ordinary noise.

use aivc_bench::hotpath_suite::{measure_hotpaths_matching, BaselineFile, ENTRIES, METHODOLOGY, PROFILE};
use aivc_bench::{print_section, HotpathMeasurement};
use aivc_par::MiniPool;

fn usage_error(message: &str) -> ! {
    eprintln!("{message}");
    eprintln!("usage: bench_check [baseline.json] [--only <name>]... [--record [--max-of <n>]]");
    std::process::exit(2);
}

struct Args {
    baseline_path: String,
    /// Entries to measure; empty = the whole suite.
    only: Vec<String>,
    record: bool,
    /// Measurement runs per recorded entry (each entry keeps its slowest median).
    max_of: usize,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        baseline_path: "BENCH_hotpaths.json".to_string(),
        only: Vec::new(),
        record: false,
        max_of: 1,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--only" => match args.next() {
                Some(name) if ENTRIES.contains(&name.as_str()) => parsed.only.push(name),
                Some(name) => usage_error(&format!(
                    "--only {name:?} is not a hot path; the suite measures:\n  {}",
                    ENTRIES.join("\n  ")
                )),
                None => usage_error("--only requires an entry name"),
            },
            "--record" => parsed.record = true,
            "--max-of" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) if n >= 1 => parsed.max_of = n,
                _ => usage_error("--max-of requires a run count >= 1"),
            },
            flag if flag.starts_with("--") => usage_error(&format!("unknown option {flag:?}")),
            _ => parsed.baseline_path = arg,
        }
    }
    if parsed.max_of > 1 && !parsed.record {
        usage_error("--max-of applies only to --record");
    }
    parsed
}

fn read_baseline(path: &str) -> BaselineFile {
    let json = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    serde_json::from_str(&json).unwrap_or_else(|e| panic!("cannot parse {path}: {e:?}"))
}

/// `conversation_fleet_throughput_N` → `N` (how many session-turns one iteration of a
/// pooled entry performs).
fn sessions_in(name: &str) -> Option<u64> {
    name.strip_prefix("conversation_fleet_throughput_")?.parse().ok()
}

/// Runs the measurement closure `runs` times (every run returns the same entries in the same
/// order) and keeps, per entry, the run with the largest median. Recording the *slowest* of the runs is deliberate: the committed
/// number is the bar later checks are held to, and a lucky fast record would turn
/// ordinary measurement noise into phantom regressions.
fn measure_max_of(
    runs: usize,
    mut measure: impl FnMut() -> Vec<HotpathMeasurement>,
) -> Vec<HotpathMeasurement> {
    let mut kept = measure();
    for run in 1..runs {
        println!("(max-of-{runs}: measurement run {} of {runs})", run + 1);
        for (slot, m) in kept.iter_mut().zip(measure()) {
            if m.median_ns_per_iter > slot.median_ns_per_iter {
                *slot = m;
            }
        }
    }
    kept
}

/// `--record`: measures `only` (everything when `None`) and writes the baseline — whole, or
/// the measured entries spliced over the file's previous ones.
fn record_baseline(path: &str, only: Option<&[String]>, runs: usize) {
    let pool_lanes = MiniPool::env_lanes();
    println!("(pool lanes for throughput entries: {pool_lanes})");
    let previous = match only {
        Some(names) => {
            let previous = read_baseline(path);
            if names.iter().any(|n| sessions_in(n).is_some()) && pool_lanes != previous.pool_lanes {
                eprintln!(
                    "cannot re-record parallel entries at {pool_lanes} lanes into a {}-lane baseline; \
                     set AIVC_POOL_SIZE={} or re-record the whole file",
                    previous.pool_lanes, previous.pool_lanes
                );
                std::process::exit(2);
            }
            previous
        }
        None => BaselineFile {
            profile: PROFILE.to_string(),
            methodology: METHODOLOGY.to_string(),
            pool_lanes,
            hotpaths: Vec::new(),
        },
    };
    if runs > 1 {
        println!("(recording each entry as the max median over {runs} measurement runs)");
    }
    let measured = measure_max_of(runs, || measure_hotpaths_matching(pool_lanes, only));

    let mut table = String::from(
        "| recorded entry | previous ns/iter | new ns/iter | turns/sec |\n| --- | --- | --- | --- |\n",
    );
    for m in &measured {
        let old = previous
            .hotpaths
            .iter()
            .find(|p| p.name == m.name)
            .map_or("—".to_string(), |p| format!("{:.1}", p.median_ns_per_iter));
        let turns = sessions_in(&m.name).map_or("—".to_string(), |n| {
            format!("{:.0}", n as f64 * 1e9 / m.median_ns_per_iter)
        });
        table.push_str(&format!(
            "| {} | {old} | {:.1} | {turns} |\n",
            m.name, m.median_ns_per_iter
        ));
    }
    print_section("Hot-path baseline", &table);

    // Suite order, a measured entry over the file's: an entry the suite no longer has drops out.
    let hotpaths = ENTRIES
        .iter()
        .filter_map(|name| {
            let named = |m: &&HotpathMeasurement| m.name == *name;
            measured
                .iter()
                .find(named)
                .or(previous.hotpaths.iter().find(named))
        })
        .cloned()
        .collect();
    let baseline = BaselineFile { hotpaths, ..previous };
    let json = serde_json::to_string_pretty(&baseline).expect("baseline serializes");
    std::fs::write(path, json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!("(baseline written to {path})");
}

fn main() {
    // With `--only`, just the named entries are measured (the CI serving-suite uses this to
    // gate the fleet-throughput baseline without paying for the whole suite).
    let args = parse_args();
    let filter = (!args.only.is_empty()).then_some(&args.only[..]);
    let baseline_path = args.baseline_path;
    if args.record {
        return record_baseline(&baseline_path, filter, args.max_of);
    }
    let tolerance: f64 = std::env::var("BENCH_CHECK_TOLERANCE")
        .ok()
        .and_then(|t| t.parse().ok())
        .unwrap_or(0.05);

    let committed = read_baseline(&baseline_path);
    let pool_lanes = MiniPool::env_lanes_or(committed.pool_lanes.max(1));
    println!(
        "(re-measuring with pool lanes = {pool_lanes}; committed file used {})",
        committed.pool_lanes
    );
    let fresh = measure_hotpaths_matching(pool_lanes, filter);

    let mut table = String::from(
        "| hot path | committed ns | fresh ns | delta | verdict |\n| --- | --- | --- | --- | --- |\n",
    );
    let mut failures = Vec::new();
    let mut deltas = Vec::new();
    for measurement in &fresh {
        let Some(reference) = committed.hotpaths.iter().find(|h| h.name == measurement.name) else {
            failures.push(format!(
                "{}: missing from {baseline_path} — re-record it with `scripts/bench-check.sh --record`",
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
