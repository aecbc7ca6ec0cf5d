//! Figure 6 (+ §3.1 yields): DeViBench's automatic QA construction pipeline.
//!
//! Runs the five-step pipeline over a synthetic corpus and reports each stage's yield next
//! to the paper's numbers: 11.16 % filter acceptance, 70.61 % cross-verification pass rate,
//! 7.8 % end-to-end yield.

use crate::{Scale, Section};
use aivc_devibench::{Pipeline, PipelineConfig};
use aivc_scene::Corpus;
use serde::Serialize;

#[derive(Serialize)]
struct Fig6Report {
    clips: usize,
    corpus_duration_secs: f64,
    generated_candidates: usize,
    filter_accepted: usize,
    cross_verified: usize,
    filter_acceptance_rate: f64,
    verification_pass_rate: f64,
    end_to_end_yield: f64,
    final_samples: usize,
}

pub fn run(scale: Scale) -> Section {
    let clips = scale.pick(6, 30, 400);
    let corpus = Corpus::streamingbench_like(2025, clips, 30.0, 90.0);
    let report = Pipeline::new(PipelineConfig::default()).run(&corpus);

    let out = Fig6Report {
        clips,
        corpus_duration_secs: corpus.stats().total_duration_secs,
        generated_candidates: report.generated,
        filter_accepted: report.filter_accepted,
        cross_verified: report.verified,
        filter_acceptance_rate: report.filter_acceptance_rate(),
        verification_pass_rate: report.verification_pass_rate(),
        end_to_end_yield: report.end_to_end_yield(),
        final_samples: report.dataset.len(),
    };

    let body = format!(
        "| stage | ours | paper |\n|---|---|---|\n\
         | video collection (clips / seconds) | {} / {:.0} | StreamingBench videos / 180,000 s |\n\
         | QA generation (candidates) | {} | — |\n\
         | QA filtering acceptance | {:.2}% | 11.16% |\n\
         | cross-verification pass rate | {:.2}% | 70.61% |\n\
         | end-to-end yield | {:.2}% | 7.8% |\n\
         | final QA samples | {} | 1,074 |\n",
        out.clips,
        out.corpus_duration_secs,
        out.generated_candidates,
        out.filter_acceptance_rate * 100.0,
        out.verification_pass_rate * 100.0,
        out.end_to_end_yield * 100.0,
        out.final_samples
    );
    let title = "Figure 6 / §3.1 — DeViBench automatic QA construction pipeline";
    Section::new(title, body, &out)
}
