//! Dataset distribution statistics — the data behind Figure 8.

use crate::qa::QaSample;
use aivc_scene::FactCategory;
use serde::Serialize;

/// One slice of the category distribution.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DistributionEntry {
    /// Category.
    pub category: FactCategory,
    /// Number of samples.
    pub count: usize,
    /// Share of the dataset in `[0, 1]`.
    pub share: f64,
    /// The share the paper reports for this category (Figure 8), for side-by-side display.
    pub paper_share: f64,
}

/// Category + temporal-dependency distribution of a dataset (Figure 8: outer + inner ring).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CategoryDistribution {
    /// Per-category entries in the paper's reporting order.
    pub entries: Vec<DistributionEntry>,
    /// Number of samples needing multiple frames.
    pub multi_frame: usize,
    /// Number of samples answerable from a single frame.
    pub single_frame: usize,
}

impl CategoryDistribution {
    /// Computes the distribution of a sample set.
    pub fn of(samples: &[QaSample]) -> Self {
        let total = samples.len().max(1);
        let entries = FactCategory::ALL
            .iter()
            .map(|&category| {
                let count = samples.iter().filter(|s| s.category == category).count();
                DistributionEntry {
                    category,
                    count,
                    share: count as f64 / total as f64,
                    paper_share: category.paper_share(),
                }
            })
            .collect();
        let multi_frame = samples.iter().filter(|s| s.multi_frame).count();
        Self {
            entries,
            multi_frame,
            single_frame: samples.len() - multi_frame,
        }
    }

    /// Share of samples that need multiple frames (the paper reports 34.45 %).
    fn multi_frame_share(&self) -> f64 {
        let total = self.multi_frame + self.single_frame;
        if total == 0 {
            0.0
        } else {
            self.multi_frame as f64 / total as f64
        }
    }

    /// Renders the distribution as a markdown table (used by the Figure 8 harness).
    pub fn to_markdown(&self) -> String {
        let mut out = String::from("| category | ours | paper |\n|---|---|---|\n");
        for e in &self.entries {
            out.push_str(&format!(
                "| {} | {:.2}% | {:.2}% |\n",
                e.category.label(),
                e.share * 100.0,
                e.paper_share * 100.0
            ));
        }
        out.push_str(&format!(
            "| multi-frame | {:.2}% | 34.45% |\n",
            self.multi_frame_share() * 100.0
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aivc_mllm::{Question, QuestionFormat};
    use aivc_scene::SceneFact;

    fn sample(category: FactCategory, multi: bool) -> QaSample {
        let mut fact = SceneFact::new(category, "q?", "a", vec![1], 0.8).with_distractors(["b", "c", "d"]);
        if multi {
            fact = fact.multi_frame();
        }
        let question = Question::from_fact(&fact, QuestionFormat::MultipleChoice);
        QaSample {
            clip_id: 0,
            question,
            options: vec!["a".into(), "b".into(), "c".into(), "d".into()],
            correct_option: 0,
            answer: "a".into(),
            multi_frame: multi,
            category,
        }
    }

    #[test]
    fn shares_sum_to_one() {
        let samples: Vec<_> = (0..10)
            .map(|i| sample(FactCategory::ALL[i % 6], i % 3 == 0))
            .collect();
        let dist = CategoryDistribution::of(&samples);
        let total: f64 = dist.entries.iter().map(|e| e.share).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert_eq!(dist.multi_frame + dist.single_frame, 10);
    }

    #[test]
    fn dominant_category_detected() {
        let samples: Vec<_> = (0..8)
            .map(|i| {
                sample(
                    if i < 6 {
                        FactCategory::TextRich
                    } else {
                        FactCategory::Counting
                    },
                    false,
                )
            })
            .collect();
        let dist = CategoryDistribution::of(&samples);
        let dominant = dist.entries.iter().max_by_key(|e| e.count).unwrap();
        assert_eq!(dominant.category, FactCategory::TextRich);
        assert_eq!(dist.multi_frame_share(), 0.0);
    }

    #[test]
    fn markdown_contains_all_categories() {
        let dist = CategoryDistribution::of(&[sample(FactCategory::Counting, true)]);
        let md = dist.to_markdown();
        for c in FactCategory::ALL {
            assert!(md.contains(c.label()), "missing {c}");
        }
        assert!(md.contains("multi-frame"));
    }

    #[test]
    fn empty_dataset_is_safe() {
        let dist = CategoryDistribution::of(&[]);
        assert_eq!(dist.multi_frame_share(), 0.0);
        assert!(dist.entries.iter().all(|e| e.count == 0));
    }
}
