//! The metric lists: one table per kind, shared by the code that fills them in, the JSON
//! emitter and the unit test that holds `BENCHMARK.json` to them.

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricSpec {
    /// The metric's name (`<layer>.<metric>` for per-layer ones).
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of the system sees — reported for every workload with `--trace 0`.
/// The first three are host quantities (the simulator's user: a builder, CI, a researcher
/// sweeping scenarios); the rest are the modelled chat user's quality, exact for a seed.
pub const END_TO_END: &[MetricSpec] = &[
    e2e("turn_host_us", "us", "lower", 0.25),
    e2e("setup_s", "s", "lower", 0.25),
    e2e("peak_heap_mb", "MB", "lower", 0.03),
    e2e("answer_p_correct", "share", "higher", 0.005),
    e2e("evidence_quality", "share", "higher", 0.015),
    e2e("deadline_hit_share", "share", "higher", 0.025),
    e2e("sim_frame_latency_ms", "ms", "lower", 0.10),
];

/// Single-layer figures — reported for every workload with `--trace 1`. Counts are exact
/// (public counters over the fixed block); times come from the spans of the traced run.
pub const PER_LAYER: &[MetricSpec] = &[
    layer("scene.frame_build_us", "us", "lower"),
    layer("semantics.clip_us_per_turn", "us", "lower"),
    layer("semantics.patches_per_turn", "count", "lower"),
    layer("semantics.dirty_patch_share", "share", "lower"),
    layer("semantics.model_build_ms", "ms", "lower"),
    layer("allocator.eq2_us_per_turn", "us", "lower"),
    layer("allocator.blocks_per_turn", "count", "lower"),
    layer("videocodec.rate_plan_us_per_turn", "us", "lower"),
    layer("videocodec.rate_search_us_per_turn", "us", "lower"),
    layer("videocodec.rate_probes_per_turn", "count", "lower"),
    layer("videocodec.encode_us_per_turn", "us", "lower"),
    layer("videocodec.decode_us_per_turn", "us", "lower"),
    layer("videocodec.media_kbps", "kbps", "lower"),
    layer("videocodec.budget_miss_share", "share", "lower"),
    layer("rtc.packetize_ns_per_packet", "ns", "lower"),
    layer("rtc.fec_protect_ns_per_packet", "ns", "lower"),
    layer("rtc.pacer_ns_per_packet", "ns", "lower"),
    layer("rtc.assembler_ns_per_packet", "ns", "lower"),
    layer("rtc.nack_ns_per_packet", "ns", "lower"),
    layer("rtc.fec_recovery_ns_per_packet", "ns", "lower"),
    layer("rtc.gcc_fold_ns_per_report", "ns", "lower"),
    layer("rtc.packets_per_turn", "count", "lower"),
    layer("rtc.rtx_per_turn", "count", "lower"),
    layer("rtc.rtx_share", "share", "lower"),
    layer("rtc.nacks_suppressed_per_turn", "count", "lower"),
    layer("rtc.fec_recovered_frames_per_turn", "count", "lower"),
    layer("rtc.late_seq_drops_per_turn", "count", "lower"),
    layer("rtc.watchdog_fallbacks_per_turn", "count", "lower"),
    layer("rtc.pacer_rate_clamps_per_turn", "count", "lower"),
    layer("netsim.link_send_ns_per_packet", "ns", "lower"),
    layer("netsim.shared_send_ns_per_packet", "ns", "lower"),
    layer("netsim.offered_per_turn", "count", "lower"),
    layer("netsim.lost_random_per_turn", "count", "lower"),
    layer("netsim.queue_drops_per_turn", "count", "lower"),
    layer("netsim.outage_drops_per_turn", "count", "lower"),
    layer("netsim.delivered_kb_per_turn", "kB", "lower"),
    layer("sim.schedule_pop_ns_per_event", "ns", "lower"),
    layer("sim.cancel_ns_per_event", "ns", "lower"),
    layer("mllm.respond_us_per_turn", "us", "lower"),
    layer("mllm.visual_tokens_per_turn", "count", "lower"),
    layer("par.dispatch_us_per_section", "us", "lower"),
    layer("par.fleet_lane_speedup_x", "x", "higher"),
    layer("par.lanes", "count", "higher"),
    layer("metrics.snapshot_ns", "ns", "lower"),
    layer("core.conversation_build_ms", "ms", "lower"),
    layer("core.turn_host_us_p50", "us", "lower"),
    layer("core.turn_host_us_p99", "us", "lower"),
    layer("core.turn_samples", "count", "higher"),
    layer("core.allocs_per_turn", "count", "lower"),
    layer("core.alloc_kb_per_turn", "kB", "lower"),
    layer("core.heap_kb_per_session", "kB", "lower"),
    layer("core.transport_residual_us_per_turn", "us", "lower"),
    layer("core.trace_coverage_share", "share", "higher"),
    layer("core.trace_overhead_share", "share", "lower"),
    layer("core.deadline_miss_share", "share", "lower"),
    layer("core.failed_turn_share", "share", "lower"),
];

/// Seconds one run measures (`BENCHMARK.json`'s `run_seconds`, and `--seconds`' default).
pub const RUN_SECONDS: u64 = 20;

/// A filled-in metric list, in spec order.
pub type Values = Vec<(&'static str, f64)>;

/// Panics unless `values` names exactly the metrics of `specs`, in order — a missing or
/// extra metric is a bug in the benchmark, caught before anything is printed.
pub fn assert_matches(specs: &[MetricSpec], values: &Values) {
    let expected: Vec<&str> = specs.iter().map(|s| s.name).collect();
    let got: Vec<&str> = values.iter().map(|(n, _)| *n).collect();
    assert_eq!(expected, got, "metric list does not match the schema");
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn benchmark_json() -> Value {
        serde_json::from_str(include_str!("../../../../../BENCHMARK.json")).expect("BENCHMARK.json parses")
    }

    fn array<'a>(v: &'a Value, key: &str) -> &'a [Value] {
        match v.field(key).expect("key present") {
            Value::Array(items) => items,
            other => panic!("{key} is {}", other.kind()),
        }
    }

    fn text(v: &Value, key: &str) -> String {
        match v.field(key).expect("key present") {
            Value::Str(s) => s.clone(),
            other => panic!("{key} is {}", other.kind()),
        }
    }

    fn number(v: &Value, key: &str) -> f64 {
        match v.field(key).expect("key present") {
            Value::F64(x) => *x,
            Value::I64(x) => *x as f64,
            Value::U64(x) => *x as f64,
            other => panic!("{key} is {}", other.kind()),
        }
    }

    fn is_name(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_used_once() {
        let mut seen = std::collections::BTreeSet::new();
        for spec in END_TO_END.iter().chain(PER_LAYER) {
            assert!(is_name(spec.name), "bad name {}", spec.name);
            assert!(seen.insert(spec.name), "{} used twice", spec.name);
            assert!(spec.unit.len() <= 16 && !spec.unit.is_empty());
            assert!(spec
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-')));
            assert!(matches!(spec.better, "lower" | "higher"));
        }
        assert!(END_TO_END
            .iter()
            .all(|s| s.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(PER_LAYER.iter().all(|s| s.bound.is_none()));
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let setup = END_TO_END.iter().find(|s| s.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        let largest = END_TO_END.iter().filter_map(|s| s.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest), "setup_s takes the largest bound");
    }

    #[test]
    fn benchmark_json_declares_exactly_this_schema() {
        let file = benchmark_json();
        let Value::Object(pairs) = &file else {
            panic!("BENCHMARK.json is not an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(number(&file, "run_seconds"), RUN_SECONDS as f64);

        let workloads = array(&file, "workloads");
        let declared: Vec<(String, String)> = workloads
            .iter()
            .map(|w| (text(w, "name"), text(w, "why")))
            .collect();
        let expected: Vec<(String, String)> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| (w.name().to_string(), w.why().to_string()))
            .collect();
        assert_eq!(declared, expected);

        for (key, specs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared = array(&file, key);
            assert_eq!(declared.len(), specs.len(), "{key} length");
            for (d, spec) in declared.iter().zip(specs) {
                assert_eq!(text(d, "name"), spec.name);
                assert_eq!(text(d, "unit"), spec.unit, "{}", spec.name);
                assert_eq!(text(d, "better"), spec.better, "{}", spec.name);
                match spec.bound {
                    Some(bound) => assert_eq!(number(d, "bound"), bound, "{}", spec.name),
                    None => assert!(matches!(d.field("bound"), Ok(Value::Null)), "{}", spec.name),
                }
            }
        }
    }

    #[test]
    fn the_command_names_only_the_benchmark_directory() {
        let file = benchmark_json();
        let paths: Vec<String> = array(&file, "paths")
            .iter()
            .map(|p| match p {
                Value::Str(s) => s.clone(),
                other => panic!("path is {}", other.kind()),
            })
            .collect();
        assert_eq!(paths, ["crates/bench/src/bin/benchmark"]);
        for arg in array(&file, "command") {
            let Value::Str(arg) = arg else {
                panic!("command holds a non-string")
            };
            assert!(arg.len() <= 200 && !arg.starts_with('/') && !arg.contains(".."));
            if arg.contains('/') {
                assert!(
                    arg.starts_with(&paths[0]),
                    "{arg} is outside the benchmark's paths"
                );
            }
        }
    }
}
