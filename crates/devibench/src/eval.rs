//! Evaluating a streaming method against DeViBench.
//!
//! A "method" is anything that turns a clip into the decoded frames an MLLM gets to see —
//! a uniform-QP baseline at some bitrate, context-aware streaming at a matched bitrate, or
//! a full RTC session with losses. The evaluator asks the responder MLLM every dataset
//! question about the frames the method produced for that clip and reports accuracy, the
//! exact quantity plotted on Figure 9's y-axis.

use crate::dataset::Dataset;
use aivc_mllm::MllmChat;
use aivc_scene::FactCategory;
use aivc_videocodec::DecodedFrame;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The outcome of one evaluation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvalOutcome {
    /// Number of questions evaluated.
    pub questions: usize,
    /// Number answered correctly.
    pub correct: usize,
    /// Mean model-assigned probability of a correct answer (a smoother signal than the
    /// Bernoulli outcomes for small datasets).
    pub mean_probability_correct: f64,
    /// Per-category accuracy.
    pub per_category: Vec<(FactCategory, f64)>,
}

impl EvalOutcome {
    /// Overall accuracy in `[0, 1]`.
    pub fn accuracy(&self) -> f64 {
        if self.questions == 0 {
            0.0
        } else {
            self.correct as f64 / self.questions as f64
        }
    }
}

/// Evaluates a method against a dataset.
///
/// `frames_for_clip` maps a clip id to the decoded frames the method delivers for that
/// clip; `context_tag` namespaces the Bernoulli draws so that evaluating the same dataset
/// under different methods/bitrates yields independent outcomes.
pub fn evaluate_method<F>(
    dataset: &Dataset,
    responder: &MllmChat,
    mut frames_for_clip: F,
    context_tag: u64,
) -> EvalOutcome
where
    F: FnMut(u64) -> Vec<DecodedFrame>,
{
    let mut frames_cache: BTreeMap<u64, Vec<DecodedFrame>> = BTreeMap::new();
    let mut correct = 0usize;
    let mut prob_sum = 0.0;
    let mut per_category_counts: BTreeMap<FactCategory, (usize, usize)> = BTreeMap::new();

    for (idx, sample) in dataset.samples.iter().enumerate() {
        let frames = frames_cache
            .entry(sample.clip_id)
            .or_insert_with(|| frames_for_clip(sample.clip_id));
        let answer = responder.respond(
            &sample.question,
            frames,
            context_tag.wrapping_mul(0x1_0000).wrapping_add(idx as u64),
        );
        prob_sum += answer.probability_correct;
        let entry = per_category_counts.entry(sample.category).or_insert((0, 0));
        entry.1 += 1;
        if answer.correct {
            correct += 1;
            entry.0 += 1;
        }
    }

    let per_category = per_category_counts
        .into_iter()
        .map(|(cat, (c, n))| (cat, if n == 0 { 0.0 } else { c as f64 / n as f64 }))
        .collect();
    EvalOutcome {
        questions: dataset.samples.len(),
        correct,
        mean_probability_correct: if dataset.samples.is_empty() {
            0.0
        } else {
            prob_sum / dataset.samples.len() as f64
        },
        per_category,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Pipeline, PipelineConfig};
    use aivc_scene::Corpus;
    use aivc_videocodec::{transcode_clip, Encoder, EncoderConfig};

    fn build() -> (Dataset, Corpus) {
        let corpus = Corpus::streamingbench_like(21, 6, 20.0, 30.0);
        let report = Pipeline::new(PipelineConfig::default()).run(&corpus);
        (report.dataset, corpus)
    }

    fn frames_at(corpus: &Corpus, clip_id: u64, bitrate: f64) -> Vec<DecodedFrame> {
        let clip = corpus.clips().iter().find(|c| c.id == clip_id).unwrap();
        let enc = Encoder::new(EncoderConfig::default());
        transcode_clip(&enc, &clip.source(), bitrate, 8).0
    }

    #[test]
    fn high_bitrate_beats_low_bitrate_on_devibench() {
        let (dataset, corpus) = build();
        assert!(!dataset.is_empty());
        let responder = MllmChat::responder(99);
        let high = evaluate_method(&dataset, &responder, |id| frames_at(&corpus, id, 4_000_000.0), 1);
        let low = evaluate_method(&dataset, &responder, |id| frames_at(&corpus, id, 200_000.0), 2);
        assert!(
            high.mean_probability_correct > low.mean_probability_correct + 0.2,
            "high {} vs low {}",
            high.mean_probability_correct,
            low.mean_probability_correct
        );
        assert!(
            high.accuracy() > low.accuracy(),
            "high {} low {}",
            high.accuracy(),
            low.accuracy()
        );
        // By construction DeViBench is hard at 200 kbps. The multiple-choice format keeps a
        // 25 % guessing floor and the filter's single Bernoulli draw lets some easier
        // questions slip in (the paper's footnote makes the same point about the MC version
        // being easier than the free-response one), so "hard" means well below the
        // high-bitrate accuracy rather than near zero.
        assert!(
            low.mean_probability_correct < 0.68,
            "low {}",
            low.mean_probability_correct
        );
    }

    #[test]
    fn eval_outcome_bookkeeping() {
        let (dataset, corpus) = build();
        let responder = MllmChat::responder(7);
        let outcome = evaluate_method(&dataset, &responder, |id| frames_at(&corpus, id, 1_000_000.0), 3);
        assert_eq!(outcome.questions, dataset.len());
        assert!(outcome.correct <= outcome.questions);
        let cat_total: f64 = outcome.per_category.iter().map(|(_, a)| *a).sum();
        assert!(cat_total >= 0.0);
    }

    #[test]
    fn empty_dataset_evaluates_to_zero() {
        let responder = MllmChat::responder(1);
        let outcome = evaluate_method(&Dataset::default(), &responder, |_| Vec::new(), 0);
        assert_eq!(outcome.accuracy(), 0.0);
        assert_eq!(outcome.questions, 0);
    }
}
