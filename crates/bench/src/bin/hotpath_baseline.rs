//! The committed hot-path performance baseline.
//!
//! Measures the per-frame hot paths (via [`aivc_bench::hotpath_suite`], the same suite
//! `bench_check` re-measures; `benches/hotpaths.rs` tracks its stage entries) plus the per-stage
//! decomposition of the warm chat turn, and writes `BENCH_hotpaths.json` into the current
//! directory. The committed copy at the repo root is the trajectory every later perf PR is
//! measured against: medians must not regress by more than 5 % (see ROADMAP.md;
//! `scripts/bench-check.sh` enforces it).
//!
//! The fleet-throughput entries run on a pool of `AIVC_POOL_SIZE` lanes
//! (default: the machine's available parallelism); the recorded lane count is written into
//! the JSON, since parallel medians are only comparable at equal lane counts.
//!
//! Run with the same profile the baseline was recorded under:
//! `cargo run --release -p aivc-bench --bin hotpath_baseline`
//!
//! Committed re-recordings follow the max-of-3 rule (ROADMAP.md): pass `--max-of 3` (or
//! use `scripts/bench-check.sh --record`, which does) so each entry keeps the slowest of
//! three measured medians — a conservative bar that later `bench_check` runs won't trip
//! on ordinary noise.

use aivc_bench::hotpath_suite::{
    measure_all_hotpaths, measure_hotpaths_matching, measure_warm_turn_breakdown, BaselineFile, METHODOLOGY,
    PROFILE,
};
use aivc_bench::print_section;
use aivc_bench::HotpathMeasurement;
use aivc_par::MiniPool;
use std::io::Write;

const SAMPLES: usize = 30;
const TARGET_SAMPLE_MS: f64 = 25.0;

/// Parses `--only <name>` (repeatable; empty = record everything) and `--max-of <n>`
/// (record each entry as the max median over `n` full measurement runs — the ROADMAP
/// re-recording rule is max-of-3, automated by `scripts/bench-check.sh --record`).
fn parse_args() -> (Vec<String>, usize) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut only = Vec::new();
    let mut runs = 1usize;
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
            "--max-of" => {
                i += 1;
                runs = match args.get(i).and_then(|n| n.parse().ok()) {
                    Some(n) if n >= 1 => n,
                    _ => {
                        eprintln!("--max-of requires a run count >= 1");
                        std::process::exit(2);
                    }
                };
            }
            other => {
                eprintln!(
                    "unknown argument {other:?}; usage: hotpath_baseline [--only <name>]... [--max-of <n>]"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }
    (only, runs)
}

/// Runs the measurement closure `runs` times and keeps, per entry, the run with the
/// largest median. Recording the *slowest* of the runs is deliberate: the committed
/// number is the bar later `bench_check` runs are held to, and a lucky fast record
/// would turn ordinary measurement noise into phantom regressions.
fn measure_max_of(
    runs: usize,
    mut measure: impl FnMut() -> Vec<HotpathMeasurement>,
) -> Vec<HotpathMeasurement> {
    let mut kept = measure();
    for run in 1..runs {
        println!("(max-of-{runs}: measurement run {} of {runs})", run + 1);
        for m in measure() {
            match kept.iter_mut().find(|k| k.name == m.name) {
                Some(slot) if m.median_ns_per_iter > slot.median_ns_per_iter => *slot = m,
                Some(_) => {}
                None => kept.push(m),
            }
        }
    }
    kept
}

/// Surgical re-record: re-measures only the named entries and splices their new medians
/// into the existing `BENCH_hotpaths.json`, leaving every other committed number
/// untouched. Names may come from either the `hotpaths` or the `warm_turn_breakdown` section.
fn record_only(only: &[String], pool_lanes: usize, runs: usize) {
    let path = "BENCH_hotpaths.json";
    let existing = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("--only updates an existing {path}, which could not be read: {e}");
        std::process::exit(2);
    });
    let mut baseline: BaselineFile = serde_json::from_str(&existing).expect("existing baseline parses");
    for name in only {
        let known = baseline.hotpaths.iter().any(|m| &m.name == name)
            || baseline.warm_turn_breakdown.iter().any(|m| &m.name == name);
        if !known {
            eprintln!("unknown entry {name:?}; known entries:");
            for m in baseline.hotpaths.iter().chain(&baseline.warm_turn_breakdown) {
                eprintln!("  {}", m.name);
            }
            std::process::exit(2);
        }
    }
    if only.iter().any(|n| sessions_in(n).is_some()) && pool_lanes != baseline.pool_lanes {
        eprintln!(
            "cannot re-record parallel entries at {pool_lanes} lanes into a {}-lane baseline; \
             set AIVC_POOL_SIZE={} or re-record the whole file",
            baseline.pool_lanes, baseline.pool_lanes
        );
        std::process::exit(2);
    }

    let hotpath_names: Vec<String> = only
        .iter()
        .filter(|n| baseline.hotpaths.iter().any(|m| &m.name == *n))
        .cloned()
        .collect();
    let mut table = String::from("| re-recorded entry | old ns/iter | new ns/iter |\n| --- | --- | --- |\n");
    if !hotpath_names.is_empty() {
        let measured = measure_max_of(runs, || {
            measure_hotpaths_matching(SAMPLES, TARGET_SAMPLE_MS, pool_lanes, Some(&hotpath_names))
        });
        for m in measured {
            let slot = baseline
                .hotpaths
                .iter_mut()
                .find(|b| b.name == m.name)
                .expect("validated above");
            table.push_str(&format!(
                "| {} | {:.1} | {:.1} |\n",
                m.name, slot.median_ns_per_iter, m.median_ns_per_iter
            ));
            *slot = m;
        }
    }
    let warm_names: Vec<&String> = only
        .iter()
        .filter(|n| baseline.warm_turn_breakdown.iter().any(|m| &m.name == *n))
        .collect();
    if !warm_names.is_empty() {
        let measured = measure_max_of(runs, || measure_warm_turn_breakdown(SAMPLES, TARGET_SAMPLE_MS));
        for m in measured {
            if !warm_names.iter().any(|n| **n == m.name) {
                continue;
            }
            let slot = baseline
                .warm_turn_breakdown
                .iter_mut()
                .find(|b| b.name == m.name)
                .expect("validated above");
            table.push_str(&format!(
                "| {} | {:.1} | {:.1} |\n",
                m.name, slot.median_ns_per_iter, m.median_ns_per_iter
            ));
            *slot = m;
        }
    }
    print_section("Surgical baseline update", &table);
    write_baseline(path, &baseline);
}

fn write_baseline(path: &str, baseline: &BaselineFile) {
    let json = serde_json::to_string_pretty(baseline).expect("baseline serializes");
    let mut file = std::fs::File::create(path).expect("can create BENCH_hotpaths.json");
    file.write_all(json.as_bytes())
        .expect("can write BENCH_hotpaths.json");
    println!("(baseline written to {path})");
}

/// `conversation_fleet_throughput_N` → `N` (how many session-turns one iteration of a
/// pooled entry performs).
fn sessions_in(name: &str) -> Option<u64> {
    name.strip_prefix("conversation_fleet_throughput_")?.parse().ok()
}

fn main() {
    let pool_lanes = MiniPool::env_lanes();
    println!("(pool lanes for throughput entries: {pool_lanes})");
    let (only, runs) = parse_args();
    if runs > 1 {
        println!("(recording each entry as the max median over {runs} measurement runs)");
    }
    if !only.is_empty() {
        record_only(&only, pool_lanes, runs);
        return;
    }
    let hotpaths = measure_max_of(runs, || {
        measure_all_hotpaths(SAMPLES, TARGET_SAMPLE_MS, pool_lanes)
    });

    let mut table = String::from("| hot path | median ns/iter | turns/sec |\n| --- | --- | --- |\n");
    for m in &hotpaths {
        let turns = sessions_in(&m.name)
            .map(|n| format!("{:.0}", n as f64 * 1e9 / m.median_ns_per_iter))
            .unwrap_or_else(|| "—".to_string());
        table.push_str(&format!(
            "| {} | {:.1} | {} |\n",
            m.name, m.median_ns_per_iter, turns
        ));
    }
    print_section("Hot-path baseline", &table);

    let warm_turn_breakdown = measure_max_of(runs, || measure_warm_turn_breakdown(SAMPLES, TARGET_SAMPLE_MS));
    let warm_total = warm_turn_breakdown
        .iter()
        .find(|m| m.name == "warm_turn_total")
        .map_or(f64::NAN, |m| m.median_ns_per_iter);
    let warm_stage_sum: f64 = warm_turn_breakdown
        .iter()
        .filter(|m| m.name != "warm_turn_total")
        .map(|m| m.median_ns_per_iter)
        .sum();
    let mut table = String::from("| warm-turn stage | median ns | share of turn |\n| --- | --- | --- |\n");
    for m in &warm_turn_breakdown {
        table.push_str(&format!(
            "| {} | {:.0} | {:.1} % |\n",
            m.name,
            m.median_ns_per_iter,
            100.0 * m.median_ns_per_iter / warm_total
        ));
    }
    table.push_str(&format!(
        "\nstage sum {:.0} ns vs whole warm turn {:.0} ns — {:.1} % accounted for \
         (the rest is the transport tax: kernel, pacer, link emulation, feedback)\n",
        warm_stage_sum,
        warm_total,
        100.0 * warm_stage_sum / warm_total
    ));
    print_section("Warm-turn budget (conversation_turn_warm decomposed)", &table);

    let baseline = BaselineFile {
        profile: PROFILE.to_string(),
        methodology: METHODOLOGY.to_string(),
        pool_lanes,
        hotpaths,
        warm_turn_breakdown,
    };
    write_baseline("BENCH_hotpaths.json", &baseline);
}
