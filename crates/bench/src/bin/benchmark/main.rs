//! The repository's end-to-end benchmark (see `README.md` beside this file, and
//! `BENCHMARK.json` at the repository root, which declares what this binary prints).
//!
//! ```text
//! benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--self-check]
//! ```
//!
//! One invocation runs the named workload (all four when `--workload` is absent), checks
//! its outputs, prints every metric by name with its unit, and ends its standard output
//! with one JSON object per workload: `{"correct", "attempted", "failed", "metrics"}` —
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with `--trace 1`. It
//! exits non-zero when a check failed.
//!
//! The benchmark drives only public API and edits no product code. It lives in one
//! directory that is both a package of its own (`Cargo.toml` here, what `BENCHMARK.json`
//! builds) and, through cargo's `src/bin/<name>/main.rs` discovery, the `benchmark`
//! binary of `aivc-bench` — so only that package's dependencies are used.

mod alloc;
mod checks;
mod gated;
mod inputs;
mod replay;
mod report;
mod schema;
mod stats;
mod trace;
mod traced;
mod workloads;

use crate::gated::{run_gated, GatedOutcome};
use crate::inputs::{ai_options, contention_scenarios, traditional_options, SeedPlan};
use crate::schema::{END_TO_END, PER_LAYER, RUN_SECONDS};
use crate::traced::run_traced;
use crate::workloads::Workload;
use serde::{Serialize, Value};
use std::process::ExitCode;

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_check: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        self_check: false,
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i).cloned().ok_or(format!("{flag} needs a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => {
                let name = value(&mut i, "--workload")?;
                let workload = Workload::from_name(&name).ok_or_else(|| {
                    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {name:?}; known: {}", known.join(", "))
                })?;
                parsed.workloads = vec![workload];
            }
            "--seed" => {
                let v = value(&mut i, "--seed")?;
                parsed.seed = v
                    .parse()
                    .map_err(|_| format!("--seed {v:?} is not a whole number"))?;
            }
            "--seconds" => {
                let v = value(&mut i, "--seconds")?;
                parsed.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or(format!("--seconds {v:?} must be in (0, 600]"))?;
            }
            "--trace" => {
                // `--trace 0|1` (the driver's form) or bare `--trace`.
                parsed.trace = match args.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        i += 1;
                        false
                    }
                    Some("1") => {
                        i += 1;
                        true
                    }
                    _ => true,
                };
            }
            "--self-check" => parsed.self_check = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    Ok(parsed)
}

/// The session options (or scenario list) a workload's inputs were generated with, for
/// `params.json`.
fn options_value(workload: Workload, seed: u64) -> Value {
    let plan = SeedPlan::from_seed(seed);
    match workload {
        Workload::AiChatWarm | Workload::Fleet64AiWarm => ai_options(plan).to_value(),
        Workload::TraditionalHighrateLossy => traditional_options(plan).to_value(),
        Workload::ContentionCold => Value::Array(
            contention_scenarios(plan)
                .iter()
                .map(|s| {
                    Value::Object(vec![
                        ("scenario".to_string(), Value::Str(s.name.to_string())),
                        ("seed".to_string(), Value::U64(s.seed)),
                        ("tenants".to_string(), Value::U64(s.tenants as u64)),
                        ("turns".to_string(), Value::U64(s.turns as u64)),
                    ])
                })
                .collect(),
        ),
    }
}

fn warn_io(what: &str, result: std::io::Result<()>) {
    if let Err(e) = result {
        eprintln!("warning: could not write {what}: {e}");
    }
}

/// Runs one workload gated, prints its table and returns the result line.
fn gated_workload(workload: Workload, args: &Args) -> (GatedOutcome, String) {
    let outcome = run_gated(workload, args.seed, args.seconds);
    warn_io(
        "params.json",
        report::write_params(
            workload,
            args.seed,
            args.seconds,
            false,
            outcome.repetitions.len(),
            options_value(workload, args.seed),
        ),
    );
    warn_io("rounds.csv", report::write_rounds(workload, outcome.rounds()));
    let metrics = outcome.metrics();
    report::print_table(
        &format!(
            "{} (seed {}, {} s, tracing off)",
            workload.name(),
            args.seed,
            args.seconds
        ),
        END_TO_END,
        &metrics,
    );
    for (rep, run) in outcome.repetitions.iter().enumerate() {
        let t = &run.outcome.tally;
        println!(
            "  repetition {rep}: {} rounds, {} session-turns attempted, {} succeeded, {} failed, digest {}",
            run.rounds.len(),
            t.attempted,
            t.attempted - t.failed,
            t.failed,
            run.outcome.digest.hex()
        );
    }
    println!(
        "  total: {} rounds, {} attempted, {} failed, report_digest {}{}",
        outcome.rounds().count(),
        outcome.tally.attempted,
        outcome.tally.failed,
        outcome.digest_hex(),
        if outcome.repetitions_agree {
            ""
        } else {
            " (REPETITIONS DISAGREE)"
        }
    );
    for reason in &outcome.tally.reasons {
        println!("  check failed: {reason}");
    }
    let line = report::result_line(
        outcome.correct(),
        outcome.tally.attempted,
        outcome.tally.failed,
        END_TO_END,
        &metrics,
    );
    (outcome, line)
}

/// Runs one workload traced, prints its table and returns `(correct, result line)`.
fn traced_workload(workload: Workload, args: &Args) -> (bool, String) {
    let outcome = run_traced(workload, args.seed, args.seconds);
    warn_io(
        "params.json",
        report::write_params(
            workload,
            args.seed,
            args.seconds,
            true,
            1,
            options_value(workload, args.seed),
        ),
    );
    warn_io(
        "rounds.csv",
        report::write_rounds(workload, outcome.real.rounds.iter()),
    );
    warn_io("trace.jsonl", report::write_trace(workload, &outcome.spans));
    report::print_table(
        &format!(
            "{} (seed {}, {} s, traced)",
            workload.name(),
            args.seed,
            args.seconds
        ),
        PER_LAYER,
        &outcome.metrics,
    );
    let tally = &outcome.real.outcome.tally;
    let real_turns = outcome.real.outcome.sums.turns.max(1) as f64;
    let replayed = outcome.replay.turns.max(1) as f64;
    println!(
        "  replay vs engine, per turn: packets {:.1} vs {:.1}, rtx {:.2} vs {:.2} ({} turns replayed, {} spans)",
        outcome.replay.packets as f64 / replayed,
        outcome.real.outcome.counts.packets_sent as f64 / real_turns,
        outcome.replay.rtx as f64 / replayed,
        outcome.real.outcome.sums.rtx as f64 / real_turns,
        outcome.replay.turns,
        outcome.spans.len()
    );
    match outcome.replay_bytes_match {
        Some(true) => println!("  replay encoded exactly the engine's bytes on every replayed window"),
        Some(false) => println!("  check failed: replay's encoded bytes differ from the engine's"),
        None => println!("  replay byte check not applicable (budget depends on the live estimate)"),
    }
    println!(
        "  sim: event counts are not observable from outside the engine; ns/event is the replay's one schedule+pop per packet hop"
    );
    println!(
        "  {} session-turns attempted, {} failed, report_digest {}",
        tally.attempted,
        tally.failed,
        outcome.real.outcome.digest.hex()
    );
    for reason in &tally.reasons {
        println!("  check failed: {reason}");
    }
    let line = report::result_line(
        outcome.correct(),
        tally.attempted,
        tally.failed,
        PER_LAYER,
        &outcome.metrics,
    );
    (outcome.correct(), line)
}

/// Relative difference of `b` against `a`.
fn relative_difference(a: f64, b: f64) -> f64 {
    if a == b {
        0.0
    } else {
        (b - a).abs() / a.abs().max(f64::MIN_POSITIVE)
    }
}

/// `--self-check`: the gated suite twice, back to back (A/A). Every pair of readings must
/// agree within the metric's own bound, and everything simulated must be identical.
fn self_check(args: &Args) -> bool {
    let mut ok = true;
    for &workload in &args.workloads {
        let (a, _) = gated_workload(workload, args);
        let (b, _) = gated_workload(workload, args);
        println!("## self-check {}: A vs B", workload.name());
        let (ma, mb) = (a.metrics(), b.metrics());
        for (spec, ((_, va), (_, vb))) in END_TO_END.iter().zip(ma.iter().zip(&mb)) {
            let diff = relative_difference(*va, *vb);
            let bound = spec.bound.unwrap_or(0.0);
            let verdict = if diff <= bound { "ok" } else { "EXCEEDS BOUND" };
            println!(
                "  {:<24} {:>16.6} {:>16.6} {:<6} diff {:>8.4} %  bound {:>6.2} %  {verdict}",
                spec.name,
                va,
                vb,
                spec.unit,
                diff * 100.0,
                bound * 100.0
            );
            ok &= diff <= bound;
        }
        let same = a.digest_hex() == b.digest_hex()
            && a.sums() == b.sums()
            && a.repetitions[0].outcome.counts == b.repetitions[0].outcome.counts;
        println!(
            "  simulated outputs (digest {} vs {}, sums, counts): {}",
            a.digest_hex(),
            b.digest_hex(),
            if same { "identical" } else { "DIFFER" }
        );
        ok &= same && a.correct() && b.correct();
    }
    println!("self-check: {}", if ok { "passed" } else { "FAILED" });
    ok
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!(
                "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--self-check]"
            );
            return ExitCode::from(2);
        }
    };
    if args.self_check {
        return if self_check(&args) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let mut all_correct = true;
    let mut lines = Vec::new();
    for &workload in &args.workloads {
        let (correct, line) = if args.trace {
            traced_workload(workload, &args)
        } else {
            let (outcome, line) = gated_workload(workload, &args);
            (outcome.correct(), line)
        };
        all_correct &= correct;
        lines.push(line);
    }
    // The result lines come last: with one workload, the last line of standard output
    // is its JSON object.
    for line in lines {
        println!("{line}");
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn defaults_run_every_workload_gated_with_seed_one() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.workloads, Workload::ALL.to_vec());
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.self_check),
            (1, RUN_SECONDS as f64, false, false)
        );
    }

    #[test]
    fn the_drivers_argument_form_parses() {
        let a = parse(&[
            "--workload",
            "fleet64_ai_warm",
            "--seed",
            "42",
            "--seconds",
            "10",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(a.workloads, vec![Workload::Fleet64AiWarm]);
        assert_eq!((a.seed, a.seconds, a.trace), (42, 10.0, false));
        assert!(parse(&["--trace", "1"]).unwrap().trace);
        assert!(parse(&["--trace"]).unwrap().trace);
        assert!(parse(&["--trace", "--self-check"]).unwrap().self_check);
    }

    #[test]
    fn bad_arguments_are_rejected_with_a_reason() {
        assert!(parse(&["--workload", "nope"]).unwrap_err().contains("known"));
        assert!(parse(&["--seed", "x"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--seconds"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
    }

    #[test]
    fn relative_difference_is_symmetric_in_sign_and_zero_for_equal_values() {
        assert_eq!(relative_difference(2.0, 2.0), 0.0);
        assert_eq!(relative_difference(0.0, 0.0), 0.0);
        assert!((relative_difference(100.0, 103.0) - 0.03).abs() < 1e-12);
        assert!((relative_difference(100.0, 97.0) - 0.03).abs() < 1e-12);
    }
}
