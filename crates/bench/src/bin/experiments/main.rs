//! The paper's experiments, one module each: Figures 2–10, Table 1, the §1 latency budget
//! and the ablations (DESIGN.md §4 indexes them). `experiments [NAME ...]` runs the named
//! ones, or all fifteen in index order; each prints a markdown section, our numbers next to
//! the paper's, and writes its rows to `target/experiments/<NAME>.json`. `AIVC_SCALE`
//! (`quick` | `default` | `full`, any case; unset or empty is `default`) sizes them: `quick`
//! takes seconds, `full` approaches the paper's sizes. An unknown name or scale, or an
//! artifact that cannot be written, exits 1.

use aivc_bench::print_section;
use aivc_mllm::{Question, QuestionFormat};
use aivc_netsim::SimDuration;
use aivc_scene::templates::basketball_game;
use aivc_scene::{Frame, SourceConfig, VideoSource};
use aivchat_core::{Conversation, NetSessionOptions, NetTurnReport};
use serde::Serialize;
use std::process::ExitCode;

/// An experiment: its name and its body.
type Experiment = (&'static str, fn(Scale) -> Section);

/// Declares each experiment's module and lists it in `EXPERIMENTS` under the module's name.
macro_rules! experiments {
    ($($name:ident),* $(,)?) => {
        $(mod $name;)*

        /// Every experiment, in DESIGN.md §4's order.
        const EXPERIMENTS: &[Experiment] = &[$((stringify!($name), $name::run)),*];
    };
}

experiments! {
    fig2_frame_redundancy, fig3_latency_vs_bitrate, fig4_context_case_study,
    fig5_semantic_correlation, fig6_devibench_pipeline, fig8_qa_distribution,
    fig9_accuracy_vs_bitrate, fig10_qp_map, table1_benchmark_summary, latency_budget,
    ablation_gamma, ablation_patch_size, ablation_fec_rtx, ablation_jitter_buffer,
    ablation_uplink_downlink,
}

/// Experiment scale selected via the `AIVC_SCALE` environment variable: a seconds-long
/// smoke run, the minutes-long statistically meaningful default, or a paper-sized run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scale {
    Quick,
    Default,
    Full,
}

impl Scale {
    /// The scale `AIVC_SCALE` names: unset or empty is `Default`; any other value must name
    /// one of the three scales, in any case.
    fn parse(value: Option<&str>) -> Result<Self, String> {
        match value.map(str::to_lowercase).as_deref() {
            None | Some("" | "default") => Ok(Scale::Default),
            Some("quick") => Ok(Scale::Quick),
            Some("full") => Ok(Scale::Full),
            Some(other) => Err(format!("AIVC_SCALE={other:?}: expected quick | default | full")),
        }
    }

    /// Picks one of three values according to the scale.
    fn pick<T: Copy>(self, quick: T, default: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Default => default,
            Scale::Full => full,
        }
    }
}

/// What an experiment reports: a titled markdown section for stdout and its rows as JSON.
struct Section {
    title: &'static str,
    body: String,
    rows: Result<String, serde_json::Error>,
}

impl Section {
    fn new(title: &'static str, body: String, rows: &impl Serialize) -> Self {
        let rows = serde_json::to_string_pretty(rows);
        Self { title, body, rows }
    }
}

/// Formats a bits-per-second value as kbps with one decimal.
fn kbps(bps: f64) -> String {
    format!("{:.1} kbps", bps / 1_000.0)
}

/// The chat turn the latency budget and the jitter-buffer and uplink/downlink ablations
/// price, each on the network of its `options`: the basketball clip's score question over
/// the last `window_secs` of a 6-s 30-fps capture, as a one-turn `Conversation` at 30 fps.
fn score_turn(mut options: NetSessionOptions, window_secs: f64) -> (Conversation, Vec<Frame>, NetTurnReport) {
    let scene = basketball_game(1);
    let source = VideoSource::new(scene.clone(), SourceConfig::fps30(6.0));
    let question = Question::from_fact(&scene.facts[0], QuestionFormat::FreeResponse);
    options.capture_fps = 30.0;
    let frames = source.window(source.duration_secs() - window_secs, window_secs, 30.0);
    let mut conversation = Conversation::with_defaults(options, SimDuration::ZERO);
    let report = conversation.run_turn(&frames, &question);
    (conversation, frames, report)
}

/// The experiments `names` selects, in the order named; all of them when `names` is empty.
fn select(names: &[String]) -> Result<Vec<Experiment>, String> {
    if names.is_empty() {
        return Ok(EXPERIMENTS.to_vec());
    }
    let known = EXPERIMENTS.iter().map(|e| e.0).collect::<Vec<_>>().join(", ");
    let find = |name: &String| EXPERIMENTS.iter().find(|e| e.0 == *name).copied();
    let unknown = |name| format!("unknown experiment `{name}`; the experiments are: {known}");
    names.iter().map(|n| find(n).ok_or_else(|| unknown(n))).collect()
}

/// Writes an experiment's rows to `target/experiments/<name>.json` and reports the path.
fn write_json(name: &str, rows: Result<String, serde_json::Error>) -> Result<(), String> {
    let path = format!("target/experiments/{name}.json");
    let failed = |err: &dyn std::fmt::Display| format!("cannot write {path}: {err}");
    let json = rows.map_err(|err| failed(&err))?;
    let written = std::fs::create_dir_all("target/experiments").and_then(|()| std::fs::write(&path, json));
    written.map_err(|err| failed(&err))?;
    println!("(results written to {path})");
    Ok(())
}

fn run() -> Result<(), String> {
    let scale = std::env::var_os("AIVC_SCALE");
    let scale = Scale::parse(scale.as_ref().map(|s| s.to_string_lossy()).as_deref())?;
    let names: Vec<String> = std::env::args().skip(1).collect();
    for (name, experiment) in select(&names)? {
        let section = experiment(scale);
        print_section(section.title, &section.body);
        write_json(name, section.rows)?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let Err(err) = run() else {
        return ExitCode::SUCCESS;
    };
    eprintln!("experiments: {err}");
    ExitCode::FAILURE
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
    fn scale_parse_refuses_a_typo() {
        assert_eq!(Scale::parse(None), Ok(Scale::Default));
        assert_eq!(Scale::parse(Some("")), Ok(Scale::Default));
        assert_eq!(Scale::parse(Some("Quick")), Ok(Scale::Quick));
        assert_eq!(Scale::parse(Some("default")), Ok(Scale::Default));
        assert_eq!(Scale::parse(Some("FULL")), Ok(Scale::Full));
        for typo in ["quik", "ful", "fast", " quick"] {
            let err = Scale::parse(Some(typo)).unwrap_err();
            assert!(err.contains("expected quick | default | full"), "{err}");
        }
    }

    #[test]
    fn kbps_formatting() {
        assert_eq!(kbps(430_000.0), "430.0 kbps");
    }

    /// The name table is DESIGN.md §4's experiment index, in its order.
    #[test]
    fn experiments_are_design_section_4_in_order() {
        let design = include_str!("../../../../../DESIGN.md");
        let index = design
            .split("\n## 4. ")
            .nth(1)
            .and_then(|section| section.split("\n## ").next())
            .expect("DESIGN.md has a section 4");
        let listed: Vec<&str> = index
            .lines()
            .filter_map(|line| line.strip_prefix("| `")?.split('`').next())
            .collect();
        let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
        assert_eq!(listed, names);
    }

    #[test]
    fn an_unknown_experiment_lists_all_fifteen() {
        let err = select(&["fig7_nothing".to_string()]).err().unwrap();
        assert!(err.contains("fig7_nothing"), "{err}");
        for (name, _) in EXPERIMENTS {
            assert!(err.contains(name), "{name} missing from: {err}");
        }
        let picked = select(&["latency_budget".into(), "fig2_frame_redundancy".into()]).unwrap();
        let picked: Vec<&str> = picked.iter().map(|(name, _)| *name).collect();
        assert_eq!(picked, ["latency_budget", "fig2_frame_redundancy"]);
        assert_eq!(select(&[]).unwrap().len(), 15);
    }

    #[test]
    fn an_artifact_that_cannot_be_written_fails_naming_its_path() {
        let unserializable = Err(serde_json::Error::custom("no rows"));
        let err = write_json("fig7_nothing", unserializable).unwrap_err();
        assert!(err.contains("target/experiments/fig7_nothing.json"), "{err}");
        assert!(err.contains("no rows"), "{err}");
    }
}
