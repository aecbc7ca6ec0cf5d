//! What a run leaves behind: the one-line JSON result the driver reads, the readable
//! table above it, and the per-run rows under `target/benchmark/<workload>/` (the nomos
//! layout: one `params.json` describing the cell, one `rounds.csv` with a row per round,
//! so p10 can be recomputed and the two-state pattern inspected without re-running).

use crate::gated::RoundRow;
use crate::inputs::SeedPlan;
use crate::schema::{MetricSpec, Values};
use crate::trace::{write_jsonl, Span};
use crate::workloads::{Workload, FLEET_SESSIONS, POOL_LANES, WARMUP_TURNS};
use serde::Value;
use std::fs;
use std::io::{BufWriter, Write};
use std::path::PathBuf;

/// The result line: exactly the keys `correct`, `attempted`, `failed`, `metrics`, each
/// metric as `{"value": .., "unit": ..}` with all its digits.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    specs: &[MetricSpec],
    values: &Values,
) -> String {
    let metrics = specs
        .iter()
        .zip(values)
        .map(|(spec, (name, value))| {
            assert_eq!(spec.name, *name);
            (
                spec.name.to_string(),
                Value::Object(vec![
                    ("value".to_string(), Value::F64(*value)),
                    ("unit".to_string(), Value::Str(spec.unit.to_string())),
                ]),
            )
        })
        .collect();
    let line = Value::Object(vec![
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::U64(attempted)),
        ("failed".to_string(), Value::U64(failed)),
        ("metrics".to_string(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&line).expect("values serialize")
}

/// The readable table: one metric per line, name, value, unit.
pub fn print_table(title: &str, specs: &[MetricSpec], values: &Values) {
    println!("## {title}");
    for (spec, (_, value)) in specs.iter().zip(values) {
        println!("  {:<40} {:>16.6} {}", spec.name, value, spec.unit);
    }
}

/// `target/benchmark/<workload>/`, created on demand.
pub fn run_dir(workload: Workload) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from("target").join("benchmark").join(workload.name());
    fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// The commit a checkout is at, read from `.git` without starting a process; `"unknown"`
/// outside a git checkout (where the driver runs).
fn git_rev() -> String {
    let head = match fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => fs::read_to_string(PathBuf::from(".git").join(reference))
            .map(|rev| rev.trim().to_string())
            .unwrap_or_else(|_| head.clone()),
        None => head,
    }
}

/// Writes `params.json`: everything needed to regenerate the run's inputs.
pub fn write_params(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    repetitions: usize,
    options: Value,
) -> std::io::Result<()> {
    let plan = SeedPlan::from_seed(seed);
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let params = Value::Object(vec![
        ("workload".to_string(), Value::Str(workload.name().to_string())),
        ("why".to_string(), Value::Str(workload.why().to_string())),
        ("seed".to_string(), Value::U64(seed)),
        ("scene_seed".to_string(), Value::U64(plan.scene)),
        ("schedule_seed".to_string(), Value::U64(plan.schedule)),
        ("net_seed".to_string(), Value::U64(plan.net)),
        ("seconds".to_string(), Value::F64(seconds)),
        ("trace".to_string(), Value::Bool(trace)),
        ("repetitions".to_string(), Value::U64(repetitions as u64)),
        (
            "fixed_rounds".to_string(),
            Value::U64(workload.fixed_rounds() as u64),
        ),
        ("warmup_turns".to_string(), Value::U64(WARMUP_TURNS as u64)),
        ("fleet_sessions".to_string(), Value::U64(FLEET_SESSIONS as u64)),
        ("pool_lanes".to_string(), Value::U64(POOL_LANES as u64)),
        ("nproc".to_string(), Value::U64(nproc as u64)),
        ("git_rev".to_string(), Value::Str(git_rev())),
        ("options".to_string(), options),
    ]);
    let text = serde_json::to_string_pretty(&params).expect("values serialize");
    fs::write(run_dir(workload)?.join("params.json"), text + "\n")
}

/// Writes `rounds.csv`: one row per timed round.
pub fn write_rounds<'a>(
    workload: Workload,
    rounds: impl Iterator<Item = &'a RoundRow>,
) -> std::io::Result<()> {
    let mut out = BufWriter::new(fs::File::create(run_dir(workload)?.join("rounds.csv"))?);
    writeln!(
        out,
        "repetition,round,kind,spanned,wall_ns,session_turns,alloc_ops,alloc_bytes"
    )?;
    for r in rounds {
        writeln!(
            out,
            "{},{},{},{},{},{},{},{}",
            r.repetition,
            r.index,
            r.kind,
            u8::from(r.spanned),
            r.sample.wall_ns,
            r.sample.turns,
            r.sample.alloc.ops,
            r.sample.alloc.bytes
        )?;
    }
    out.flush()
}

/// Writes `trace.jsonl`: one span per line.
pub fn write_trace(workload: Workload, spans: &[Span]) -> std::io::Result<()> {
    let mut out = BufWriter::new(fs::File::create(run_dir(workload)?.join("trace.jsonl"))?);
    write_jsonl(spans, &mut out)?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{END_TO_END, PER_LAYER};

    fn filled(specs: &[MetricSpec]) -> Values {
        specs
            .iter()
            .enumerate()
            .map(|(i, s)| (s.name, 1.5 + i as f64 / 7.0))
            .collect()
    }

    #[test]
    fn result_line_strict_parses_with_exactly_the_contract_keys() {
        for specs in [END_TO_END, PER_LAYER] {
            let values = filled(specs);
            let line = result_line(true, 960, 0, specs, &values);
            assert!(!line.contains('\n'));
            let parsed: Value = serde_json::from_str(&line).expect("strict parse");
            let Value::Object(pairs) = &parsed else {
                panic!("not an object")
            };
            let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(parsed.field("correct").unwrap(), &Value::Bool(true));
            assert_eq!(parsed.field("attempted").unwrap(), &Value::I64(960));
            let Value::Object(metrics) = parsed.field("metrics").unwrap() else {
                panic!("metrics is not an object")
            };
            // Every metric of the schema exactly once, nothing else, values intact.
            assert_eq!(metrics.len(), specs.len());
            for (spec, (name, expected)) in specs.iter().zip(&values) {
                let hits: Vec<_> = metrics.iter().filter(|(k, _)| k == spec.name).collect();
                assert_eq!(hits.len(), 1, "{} must appear exactly once", spec.name);
                assert_eq!(line.matches(&format!("\"{}\":", spec.name)).count(), 1);
                let entry = &hits[0].1;
                assert_eq!(entry.field("unit").unwrap(), &Value::Str(spec.unit.to_string()));
                assert_eq!(entry.field("value").unwrap(), &Value::F64(*expected), "{name}");
            }
        }
    }
}
