//! Table 1: the DeViBench benchmark summary (sample count, sample types, total corpus
//! duration, total money spent, total time cost).
//!
//! Sizes the synthetic corpus to the paper's 180,000 s at `AIVC_SCALE=full` (a scaled-down
//! corpus otherwise) and regenerates the whole table from the pipeline's cost ledger.

use crate::{Scale, Section};
use aivc_devibench::{CostModel, Pipeline, PipelineConfig};
use aivc_scene::Corpus;

pub fn run(scale: Scale) -> Section {
    // The paper's corpus totals 180,000 s; scale down proportionally for the cheaper runs.
    let target_duration = scale.pick(600.0, 6_000.0, 180_000.0);
    let corpus = Corpus::with_total_duration(1_074, target_duration, 120.0);
    let report = Pipeline::new(PipelineConfig::default()).run(&corpus);
    let summary = report.dataset.summary(&CostModel::default());

    let scale_factor = 180_000.0 / corpus.stats().total_duration_secs;
    let mut body = summary.to_markdown();
    body.push_str(&format!(
        "\nCorpus scale: {:.1}% of the paper's 180,000 s ({} clips). Extrapolated to full scale: \
         ~{:.0} QA samples, ~${:.2}, ~{:.0} s of pipeline time.\n",
        100.0 / scale_factor,
        corpus.len(),
        summary.qa_samples as f64 * scale_factor,
        summary.total_money_usd * scale_factor,
        summary.total_time_secs * scale_factor,
    ));
    body.push_str(&format!(
        "\nStage yields: filter acceptance {:.2}% (paper 11.16%), cross-verification {:.2}% (paper 70.61%), end-to-end {:.2}% (paper 7.8%).\n",
        report.filter_acceptance_rate() * 100.0,
        report.verification_pass_rate() * 100.0,
        report.end_to_end_yield() * 100.0
    ));
    Section::new("Table 1 — benchmark summary", body, &summary)
}
