//! Candidate QA generation (pipeline step 3).
//!
//! The generator MLLM watches the concatenated original+degraded clip and writes candidate
//! multiple-choice questions. Two properties of real MLLM generators matter for the
//! pipeline's statistics and are modelled explicitly:
//!
//! * even when prompted for quality-sensitive questions, most of what a generator produces
//!   is *coarse* (object presence, gist) — this is exactly why the paper's filter only
//!   accepts 11.16 % of candidates, and why StreamingBench-style benchmarks are 92 %
//!   insensitive to 200 Kbps degradation (§2.3). We reproduce it by generating, alongside
//!   each fact-grounded candidate, several "easy variants" about the same objects;
//! * the generator sometimes writes a wrong reference answer (it cannot read the evidence
//!   either, or it hallucinates), which is what the cross-verification step exists to catch.

use crate::qa::QaSample;
use aivc_mllm::roles::{GeneratedQa, QaGenerator};
use aivc_mllm::{Question, QuestionFormat};
use aivc_scene::{FactCategory, SceneFact, VideoClip};
use aivc_videocodec::DecodedFrame;
use serde::{Deserialize, Serialize};

/// Configuration of candidate generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GenerationConfig {
    /// Number of additional coarse ("easy") candidates generated per ground-truth fact.
    ///
    /// 3 reproduces the paper's observation that only ~10 % of generated candidates turn
    /// out to be quality-sensitive.
    pub easy_variants_per_fact: u32,
}

impl Default for GenerationConfig {
    fn default() -> Self {
        Self {
            easy_variants_per_fact: 3,
        }
    }
}

/// A candidate plus the bookkeeping the rest of the pipeline needs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Candidate {
    /// The clip the candidate refers to.
    pub clip_id: u64,
    /// The generator's raw output.
    pub generated: GeneratedQa,
}

impl Candidate {
    /// Converts an accepted, verified candidate into a final [`QaSample`].
    pub fn into_sample(self) -> QaSample {
        let correct_option = self
            .generated
            .options
            .iter()
            .position(|o| *o == self.generated.ground_truth_answer)
            .unwrap_or(0);
        QaSample {
            clip_id: self.clip_id,
            category: self.generated.question.category,
            multi_frame: self.generated.question.multi_frame,
            answer: self.generated.ground_truth_answer.clone(),
            options: self.generated.options.clone(),
            correct_option,
            question: self.generated.question,
        }
    }
}

/// The candidate generator for one pipeline run.
#[derive(Debug, Clone)]
pub struct CandidateGenerator {
    role: QaGenerator,
    config: GenerationConfig,
}

impl CandidateGenerator {
    /// Creates a generator with the default configuration.
    pub fn new(seed: u64) -> Self {
        Self {
            role: QaGenerator::new(seed),
            config: GenerationConfig::default(),
        }
    }

    /// Overrides the generation configuration.
    pub fn with_config(mut self, config: GenerationConfig) -> Self {
        self.config = config;
        self
    }

    /// Generates candidates for one clip after "watching" its high-quality decode.
    ///
    /// `original_frames` is the decode of the original (high-bitrate) clip — the left half of
    /// the paper's concatenated input. Returns the candidates plus the generator's total
    /// output tokens (for the cost model).
    pub fn generate_for_clip(
        &self,
        clip: &VideoClip,
        original_frames: &[DecodedFrame],
        base_tag: u64,
    ) -> (Vec<Candidate>, u64) {
        let mut candidates = Vec::new();
        let mut output_tokens: u64 = 0;
        let mut tag = base_tag;
        for fact in &clip.scene.facts {
            // The fact-grounded candidate.
            let question = Question::from_fact(fact, QuestionFormat::MultipleChoice);
            if let Some(generated) = self.role.attempt_fact(fact, &question, original_frames, tag) {
                output_tokens += generated.generation_output_tokens as u64;
                candidates.push(Candidate {
                    clip_id: clip.id,
                    generated,
                });
            }
            tag += 1;
            // Easy (coarse) variants about the same evidence.
            for variant in 0..self.config.easy_variants_per_fact {
                let easy_fact = easy_variant_of(fact, &clip.scene, variant);
                let easy_question = Question::from_fact(&easy_fact, QuestionFormat::MultipleChoice);
                if let Some(generated) =
                    self.role
                        .attempt_fact(&easy_fact, &easy_question, original_frames, tag)
                {
                    output_tokens += generated.generation_output_tokens as u64;
                    candidates.push(Candidate {
                        clip_id: clip.id,
                        generated,
                    });
                }
                tag += 1;
            }
        }
        (candidates, output_tokens)
    }
}

/// Builds a coarse variant of a fact: a question about the same evidence objects that only
/// needs gist-level detail to answer (object presence, rough location, rough activity).
fn easy_variant_of(fact: &SceneFact, scene: &aivc_scene::Scene, variant: u32) -> SceneFact {
    let object_name = fact
        .evidence_objects
        .first()
        .and_then(|id| scene.object(*id))
        .map(|o| o.name.clone())
        .unwrap_or_else(|| "object".to_string());
    let (category, question, answer, distractors): (FactCategory, String, String, Vec<String>) = match variant
        % 3
    {
        0 => (
            FactCategory::ObjectPerception,
            format!("Is a {object_name} visible in the video?"),
            "Yes".to_string(),
            vec![
                "No".to_string(),
                "Only partially, behind another object".to_string(),
                "It appears only at the very end".to_string(),
            ],
        ),
        1 => (
            FactCategory::SpatialUnderstanding,
            format!("Roughly where does the {object_name} appear in the frame?"),
            "In the main part of the scene".to_string(),
            vec![
                "Completely outside the frame".to_string(),
                "Only in a mirror reflection".to_string(),
                "On a picture-in-picture overlay".to_string(),
            ],
        ),
        _ => (
            FactCategory::ActionPerception,
            format!("Does the scene containing the {object_name} look like an indoor or outdoor setting?"),
            if scene.label.contains("park") || scene.label.contains("street") {
                "Outdoor".to_string()
            } else {
                "Indoor".to_string()
            },
            vec![
                if scene.label.contains("park") || scene.label.contains("street") {
                    "Indoor".to_string()
                } else {
                    "Outdoor".to_string()
                },
                "Underwater".to_string(),
                "In space".to_string(),
            ],
        ),
    };
    SceneFact::new(category, question, answer, fact.evidence_objects.clone(), 0.15)
        .with_distractors(distractors)
        .with_query_concepts(fact.query_concepts.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use aivc_scene::Corpus;
    use aivc_videocodec::{Decoder, Encoder, EncoderConfig, Qp};

    fn clip_and_frames() -> (VideoClip, Vec<DecodedFrame>) {
        let corpus = Corpus::streamingbench_like(1, 1, 20.0, 20.0);
        let clip = corpus.clips()[0].clone();
        let source = clip.source();
        let enc = Encoder::new(EncoderConfig::default());
        let dec = Decoder::new();
        let frames: Vec<_> = (0..6)
            .map(|i| dec.decode_complete(&enc.encode_uniform(&source.frame(i * 60), Qp::new(22)), None))
            .collect();
        (clip, frames)
    }

    #[test]
    fn generates_fact_and_easy_candidates() {
        let (clip, frames) = clip_and_frames();
        let generator = CandidateGenerator::new(3);
        let (candidates, tokens) = generator.generate_for_clip(&clip, &frames, 0);
        // Most facts should yield at least the fact candidate plus several easy ones.
        assert!(
            candidates.len() > clip.fact_count(),
            "{} candidates",
            candidates.len()
        );
        assert!(tokens > 0);
        // Easy candidates dominate.
        let easy = candidates
            .iter()
            .filter(|c| c.generated.question.required_detail < 0.3)
            .count();
        assert!(easy * 2 > candidates.len(), "easy {easy} of {}", candidates.len());
    }

    #[test]
    fn candidates_have_four_options_containing_truth() {
        let (clip, frames) = clip_and_frames();
        let generator = CandidateGenerator::new(4);
        let (candidates, _) = generator.generate_for_clip(&clip, &frames, 10);
        for c in &candidates {
            assert_eq!(c.generated.options.len(), 4);
            assert!(c.generated.options.contains(&c.generated.ground_truth_answer));
        }
    }

    #[test]
    fn into_sample_produces_valid_samples() {
        let (clip, frames) = clip_and_frames();
        let generator = CandidateGenerator::new(5);
        let (candidates, _) = generator.generate_for_clip(&clip, &frames, 20);
        for c in candidates {
            let sample = c.into_sample();
            assert!(sample.validate().is_empty(), "{:?}", sample.validate());
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let (clip, frames) = clip_and_frames();
        let a = CandidateGenerator::new(6).generate_for_clip(&clip, &frames, 0);
        let b = CandidateGenerator::new(6).generate_for_clip(&clip, &frames, 0);
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
    }

    #[test]
    fn easy_variants_are_low_detail() {
        let scene = aivc_scene::templates::basketball_game(1);
        let fact = &scene.facts[1];
        for v in 0..3 {
            let easy = easy_variant_of(fact, &scene, v);
            assert!(easy.required_detail < 0.3);
            assert!(!easy.distractors.is_empty());
            assert_ne!(easy.question, fact.question);
        }
    }
}
