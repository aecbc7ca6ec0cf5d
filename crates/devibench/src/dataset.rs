//! The finished dataset and its Table-1-style summary.

use crate::cost::{CostModel, CostSummary};
use crate::qa::QaSample;
use crate::stats::CategoryDistribution;
use serde::{Deserialize, Serialize};

/// The DeViBench dataset produced by one pipeline run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Dataset {
    /// Accepted, cross-verified QA samples.
    pub samples: Vec<QaSample>,
    /// Total duration of the underlying video corpus, in seconds.
    pub corpus_duration_secs: f64,
    /// Cost ledger accumulated while building the dataset.
    pub cost: CostSummary,
}

/// The Table 1 row set: benchmark summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetSummary {
    /// Number of QA samples (paper: 1,074).
    pub qa_samples: usize,
    /// Number of QA sample types: 6 categories × {single, multi}-frame (paper: 6*2).
    pub qa_sample_types: usize,
    /// Total corpus duration in seconds (paper: 180,000).
    pub total_duration_secs: f64,
    /// Total money spent in USD (paper: 68.47).
    pub total_money_usd: f64,
    /// Total time cost in seconds (paper: 99,471).
    pub total_time_secs: f64,
}

impl Dataset {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The category/temporal distribution (Figure 8).
    pub fn distribution(&self) -> CategoryDistribution {
        CategoryDistribution::of(&self.samples)
    }

    /// The number of distinct (category, temporal-dependency) type combinations present.
    fn type_count(&self) -> usize {
        let types: std::collections::BTreeSet<_> =
            self.samples.iter().map(|s| (s.category, s.multi_frame)).collect();
        types.len()
    }

    /// The Table 1 summary under a price model.
    pub fn summary(&self, prices: &CostModel) -> DatasetSummary {
        DatasetSummary {
            qa_samples: self.samples.len(),
            qa_sample_types: self.type_count(),
            total_duration_secs: self.corpus_duration_secs,
            total_money_usd: self.cost.total_dollars(prices),
            total_time_secs: self.cost.total_secs(),
        }
    }

    /// Validates every sample, returning all problems found.
    pub fn validate(&self) -> Vec<String> {
        self.samples
            .iter()
            .enumerate()
            .flat_map(|(i, s)| s.validate().into_iter().map(move |p| format!("sample {i}: {p}")))
            .collect()
    }
}

impl DatasetSummary {
    /// Renders the summary as a markdown table next to the paper's Table 1 values.
    pub fn to_markdown(&self) -> String {
        format!(
            "| metric | ours | paper |\n|---|---|---|\n\
             | Number of QA samples | {} | 1,074 |\n\
             | QA sample types | {} | 12 (6*2) |\n\
             | Total duration (s) | {:.0} | 180,000 |\n\
             | Total money spent ($) | {:.2} | 68.47 |\n\
             | Total time cost (s) | {:.0} | 99,471 |\n",
            self.qa_samples,
            self.qa_sample_types,
            self.total_duration_secs,
            self.total_money_usd,
            self.total_time_secs
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aivc_mllm::{Question, QuestionFormat};
    use aivc_scene::{FactCategory, SceneFact};

    fn sample(category: FactCategory, multi: bool) -> QaSample {
        let mut fact = SceneFact::new(category, "q?", "a", vec![1], 0.8).with_distractors(["b", "c", "d"]);
        if multi {
            fact = fact.multi_frame();
        }
        QaSample {
            clip_id: 0,
            question: Question::from_fact(&fact, QuestionFormat::MultipleChoice),
            options: vec!["a".into(), "b".into(), "c".into(), "d".into()],
            correct_option: 0,
            answer: "a".into(),
            multi_frame: multi,
            category,
        }
    }

    fn dataset() -> Dataset {
        Dataset {
            samples: vec![
                sample(FactCategory::TextRich, false),
                sample(FactCategory::TextRich, true),
                sample(FactCategory::Counting, false),
            ],
            corpus_duration_secs: 600.0,
            cost: CostSummary {
                generator_output_tokens: 50_000,
                inference_secs: 120.0,
                encoding_secs: 210.0,
                ..CostSummary::default()
            },
        }
    }

    #[test]
    fn summary_reflects_contents() {
        let d = dataset();
        let s = d.summary(&CostModel::default());
        assert_eq!(s.qa_samples, 3);
        assert_eq!(s.qa_sample_types, 3);
        assert_eq!(s.total_duration_secs, 600.0);
        assert!(s.total_money_usd > 0.0);
        assert_eq!(s.total_time_secs, 330.0);
        assert!(s.to_markdown().contains("68.47"));
    }

    #[test]
    fn validation_flags_broken_samples() {
        let mut d = dataset();
        assert!(d.validate().is_empty());
        d.samples[0].correct_option = 3;
        assert!(!d.validate().is_empty());
    }

    #[test]
    fn distribution_delegates_to_stats() {
        let d = dataset();
        let dist = d.distribution();
        assert_eq!(dist.multi_frame, 1);
        assert_eq!(dist.dominant_category(), FactCategory::TextRich);
    }
}
