//! QA samples: the unit of DeViBench.

use aivc_mllm::{Question, QuestionFormat};
use aivc_scene::FactCategory;
use serde::{Deserialize, Serialize};

/// A finished, validated DeViBench QA sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QaSample {
    /// Which clip of the corpus the sample refers to.
    pub clip_id: u64,
    /// The question, including evidence metadata used by the evaluation harness.
    pub question: Question,
    /// The four answer options in presentation order (A, B, C, D).
    pub options: Vec<String>,
    /// Index into `options` of the correct answer.
    pub correct_option: usize,
    /// The correct answer text.
    pub answer: String,
    /// Whether answering requires multiple frames (Figure 8's inner ring).
    pub multi_frame: bool,
    /// The question category (Figure 8's outer ring).
    pub category: FactCategory,
}

impl QaSample {
    /// Validates internal consistency; returns problems (empty when valid).
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if self.options.len() != 4 {
            problems.push(format!("expected 4 options, got {}", self.options.len()));
        }
        if self.correct_option >= self.options.len() {
            problems.push("correct_option out of range".to_string());
        } else if self.options[self.correct_option] != self.answer {
            problems.push("correct_option does not point at the answer".to_string());
        }
        if self.question.format != QuestionFormat::MultipleChoice {
            problems.push("DeViBench samples are multiple-choice".to_string());
        }
        if self.question.category != self.category {
            problems.push("category mismatch between question and sample".to_string());
        }
        let distinct: std::collections::BTreeSet<_> = self.options.iter().collect();
        if distinct.len() != self.options.len() {
            problems.push("duplicate options".to_string());
        }
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aivc_scene::{FactCategory, SceneFact};

    fn sample() -> QaSample {
        let fact = SceneFact::new(
            FactCategory::TextRich,
            "What is the score?",
            "78-74",
            vec![1],
            0.9,
        )
        .with_distractors(["70-74", "78-72", "68-74"]);
        let question = Question::from_fact(&fact, QuestionFormat::MultipleChoice);
        QaSample {
            clip_id: 3,
            question,
            options: vec!["70-74".into(), "78-74".into(), "78-72".into(), "68-74".into()],
            correct_option: 1,
            answer: "78-74".into(),
            multi_frame: false,
            category: FactCategory::TextRich,
        }
    }

    #[test]
    fn valid_sample_passes_validation() {
        assert!(sample().validate().is_empty());
    }

    #[test]
    fn mismatched_answer_detected() {
        let mut s = sample();
        s.correct_option = 0;
        assert!(!s.validate().is_empty());
    }

    #[test]
    fn wrong_option_count_detected() {
        let mut s = sample();
        s.options.pop();
        assert!(s.validate().iter().any(|p| p.contains("4 options")));
    }

    #[test]
    fn duplicate_options_detected() {
        let mut s = sample();
        s.options[0] = s.options[2].clone();
        assert!(s.validate().iter().any(|p| p.contains("duplicate")));
    }
}
