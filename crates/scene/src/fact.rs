//! Ground-truth facts: the raw material DeViBench turns into QA samples.
//!
//! A fact states something objectively true about a scene ("the home team's score is 78",
//! "the dog has floppy ears", "there are 5 visible spectators"), which objects carry the
//! evidence, how much decoded detail is required to perceive the evidence, and whether a
//! single frame suffices (Figure 8's inner ring distinguishes single- vs multi-frame
//! questions).

use serde::Serialize;

/// The six QA categories reported in the paper's Figure 8 (outer ring).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub enum FactCategory {
    /// Reading text/numbers in the video (54.84 % of DeViBench).
    TextRich,
    /// What an actor is doing (17.03 %).
    ActionPerception,
    /// Properties of objects: color, shape, ear type… (14.43 %).
    AttributePerception,
    /// How many instances are visible (6 %).
    Counting,
    /// Which objects are present (5.9 %).
    ObjectPerception,
    /// Relative positions (1.8 %).
    SpatialUnderstanding,
}

impl FactCategory {
    /// All categories, in the order the paper reports them.
    pub const ALL: [FactCategory; 6] = [
        FactCategory::TextRich,
        FactCategory::ActionPerception,
        FactCategory::AttributePerception,
        FactCategory::Counting,
        FactCategory::ObjectPerception,
        FactCategory::SpatialUnderstanding,
    ];

    /// The paper's reported share of DeViBench QA samples for this category (Figure 8).
    pub fn paper_share(self) -> f64 {
        match self {
            FactCategory::TextRich => 0.5484,
            FactCategory::ActionPerception => 0.1703,
            FactCategory::AttributePerception => 0.1443,
            FactCategory::Counting => 0.06,
            FactCategory::ObjectPerception => 0.059,
            FactCategory::SpatialUnderstanding => 0.018,
        }
    }

    /// Human-readable label matching the paper's figure.
    pub fn label(self) -> &'static str {
        match self {
            FactCategory::TextRich => "text-rich understanding",
            FactCategory::ActionPerception => "action perception",
            FactCategory::AttributePerception => "attribute perception",
            FactCategory::Counting => "counting",
            FactCategory::ObjectPerception => "object perception",
            FactCategory::SpatialUnderstanding => "spatial understanding",
        }
    }
}

impl std::fmt::Display for FactCategory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A ground-truth fact about a scene.
#[derive(Debug, Clone, PartialEq)]
pub struct SceneFact {
    /// Category of question this fact supports.
    pub category: FactCategory,
    /// A natural-language question a user might ask about the fact.
    pub question: String,
    /// The (single) correct answer.
    pub answer: String,
    /// Plausible-but-wrong alternatives used to build multiple-choice distractors.
    pub distractors: Vec<String>,
    /// IDs of the scene objects that carry the evidence.
    pub evidence_objects: Vec<u32>,
    /// How much decoded detail of the evidence regions is needed to answer, in `[0, 1]`.
    ///
    /// 0.2 means "answerable from a heavily blurred frame"; 0.9 means "needs near-lossless
    /// quality" (small text, counting similar small objects).
    pub required_detail: f64,
    /// Whether answering requires observing multiple frames (temporal dependency).
    pub multi_frame: bool,
    /// Key concepts the question refers to (used by the semantics model for the query text).
    pub query_concepts: Vec<String>,
}

impl SceneFact {
    /// Creates a fact with the mandatory fields; distractors and flags via builder methods.
    pub fn new(
        category: FactCategory,
        question: impl Into<String>,
        answer: impl Into<String>,
        evidence_objects: Vec<u32>,
        required_detail: f64,
    ) -> Self {
        Self {
            category,
            question: question.into(),
            answer: answer.into(),
            distractors: Vec::new(),
            evidence_objects,
            required_detail: required_detail.clamp(0.0, 1.0),
            multi_frame: false,
            query_concepts: Vec::new(),
        }
    }

    /// Adds multiple-choice distractors.
    pub fn with_distractors<I, S>(mut self, distractors: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.distractors.extend(distractors.into_iter().map(Into::into));
        self
    }

    /// Marks the fact as requiring multiple frames to answer.
    pub fn multi_frame(mut self) -> Self {
        self.multi_frame = true;
        self
    }

    /// Declares the concepts mentioned by the question text.
    pub fn with_query_concepts<I, S>(mut self, concepts: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.query_concepts.extend(concepts.into_iter().map(Into::into));
        self
    }

    /// A fact is *quality-sensitive* when its required detail exceeds the given threshold.
    ///
    /// DeViBench is built almost entirely from quality-sensitive facts; StreamingBench-style
    /// benchmarks are built mostly from insensitive ones (§2.3).
    #[cfg(test)]
    pub(crate) fn is_quality_sensitive(&self, threshold: f64) -> bool {
        self.required_detail >= threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_shares_sum_to_one() {
        let total: f64 = FactCategory::ALL.iter().map(|c| c.paper_share()).sum();
        assert!((total - 1.0).abs() < 0.005, "total = {total}");
    }

    #[test]
    fn fact_builder_and_sensitivity() {
        let f = SceneFact::new(
            FactCategory::Counting,
            "How many spectators can be seen?",
            "5",
            vec![7],
            0.8,
        )
        .with_distractors(["3", "4", "6"])
        .with_query_concepts(["spectators", "counting"])
        .multi_frame();
        assert!(f.is_quality_sensitive(0.5));
        assert!(!f.is_quality_sensitive(0.9));
        assert!(f.multi_frame);
        assert_eq!(f.distractors.len(), 3);
        assert_eq!(f.query_concepts, vec!["spectators", "counting"]);
    }

    #[test]
    fn required_detail_is_clamped() {
        let f = SceneFact::new(FactCategory::ObjectPerception, "q", "a", vec![], 7.0);
        assert_eq!(f.required_detail, 1.0);
    }

    #[test]
    fn category_labels_are_distinct() {
        let labels: std::collections::BTreeSet<_> = FactCategory::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), 6);
    }
}
