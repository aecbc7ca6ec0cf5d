//! MLLM roles in the DeViBench construction pipeline (§3.1).
//!
//! The pipeline uses three different models:
//!
//! * a **generator** (Qwen3-VL-plus thinking) that watches the concatenated
//!   original+degraded video and writes candidate QA pairs;
//! * a **filter** (Qwen2.5-Omni) that accepts a candidate only if it answers correctly on
//!   the original video *and* incorrectly on the low-bitrate video;
//! * a **cross-verifier** (GLM-4.5V thinking) that answers independently on the original
//!   video and must agree with the generator's answer.
//!
//! Each role here wraps the same underlying accuracy model with a different profile, so the
//! pipeline's acceptance statistics *emerge* from the quality/difficulty distribution of the
//! candidates rather than being hard-coded.

use crate::accuracy::Question;
use crate::chat::MllmChat;
use crate::config::MllmProfile;
use aivc_scene::SceneFact;
use aivc_videocodec::DecodedFrame;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A QA candidate produced by the generator.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratedQa {
    /// The question the generator wrote.
    pub question: Question,
    /// The answer the generator believes is correct.
    pub proposed_answer: String,
    /// The ground-truth answer (unknown to the pipeline, kept for scoring the pipeline itself).
    pub ground_truth_answer: String,
    /// The four multiple-choice options in presentation order.
    pub options: Vec<String>,
    /// Whether the generator's proposed answer actually matches the ground truth.
    pub generator_was_correct: bool,
    /// Output tokens the generator spent writing this candidate (drives the cost model).
    pub generation_output_tokens: u32,
}

/// The QA generator role.
#[derive(Debug, Clone)]
pub struct QaGenerator {
    chat: MllmChat,
    seed: u64,
}

impl QaGenerator {
    /// Creates the generator with its default (strong, "thinking") profile.
    pub fn new(seed: u64) -> Self {
        Self {
            chat: MllmChat::new(MllmProfile::generator(seed)),
            seed,
        }
    }

    /// The underlying chat model.
    pub fn chat(&self) -> &MllmChat {
        &self.chat
    }

    /// Attempts to turn a ground-truth fact into a QA candidate after watching the
    /// high-quality frames.
    ///
    /// The generator can only write a valid QA if it can itself perceive the answer in the
    /// original video; otherwise it either skips the fact or (with the model's slip rate)
    /// writes a QA whose proposed answer is wrong — which is exactly why the paper needs the
    /// cross-verification step.
    pub fn attempt_fact(
        &self,
        fact: &SceneFact,
        question: &Question,
        original_frames: &[DecodedFrame],
        context_tag: u64,
    ) -> Option<GeneratedQa> {
        let perceives_answer = self.chat.answer_model().answer_is_correct(
            question,
            original_frames,
            context_tag.wrapping_mul(3).wrapping_add(1),
        );
        let mut rng = ChaCha8Rng::seed_from_u64(
            self.seed
                .wrapping_mul(0xA24B_AED4)
                .wrapping_add(context_tag)
                .wrapping_add(hash(&fact.question)),
        );
        if !perceives_answer && rng.gen_bool(0.6) {
            // Most of the time the generator simply cannot write a QA about evidence it
            // could not read; occasionally it confabulates one anyway.
            return None;
        }
        let proposed = if perceives_answer {
            fact.answer.clone()
        } else {
            // Confabulated answer: one of the distractors.
            fact.distractors
                .get(rng.gen_range(0..fact.distractors.len().max(1)))
                .cloned()
                .unwrap_or_else(|| fact.answer.clone())
        };
        // Build the shuffled option list: ground truth + three distractors.
        let mut options: Vec<String> = fact.distractors.iter().take(3).cloned().collect();
        options.push(fact.answer.clone());
        // Deterministic Fisher–Yates.
        for i in (1..options.len()).rev() {
            let j = rng.gen_range(0..=i);
            options.swap(i, j);
        }
        let tokens = 160 + rng.gen_range(0..120);
        Some(GeneratedQa {
            question: question.clone(),
            generator_was_correct: proposed == fact.answer,
            proposed_answer: proposed,
            ground_truth_answer: fact.answer.clone(),
            options,
            generation_output_tokens: tokens,
        })
    }
}

/// Outcome of the filter step for one candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FilterOutcome {
    /// The filter model answered correctly on the original (high-quality) video.
    pub correct_on_original: bool,
    /// The filter model answered correctly on the degraded (low-bitrate) video.
    pub correct_on_degraded: bool,
}

impl FilterOutcome {
    /// §3.1: accept iff correct on the original and wrong on the degraded version.
    pub fn accepted(&self) -> bool {
        self.correct_on_original && !self.correct_on_degraded
    }
}

/// The QA filter role.
#[derive(Debug, Clone)]
pub struct QaFilter {
    chat: MllmChat,
}

impl QaFilter {
    /// Creates the filter with its default (Qwen2.5-Omni-like) profile.
    pub fn new(seed: u64) -> Self {
        Self {
            chat: MllmChat::new(MllmProfile::responder(seed)),
        }
    }

    /// The underlying chat model.
    pub fn chat(&self) -> &MllmChat {
        &self.chat
    }

    /// Runs the filter on one candidate.
    pub fn evaluate(
        &self,
        question: &Question,
        original_frames: &[DecodedFrame],
        degraded_frames: &[DecodedFrame],
        context_tag: u64,
    ) -> FilterOutcome {
        let correct_on_original = self.chat.answer_model().answer_is_correct(
            question,
            original_frames,
            context_tag.wrapping_mul(5).wrapping_add(11),
        );
        let correct_on_degraded = self.chat.answer_model().answer_is_correct(
            question,
            degraded_frames,
            context_tag.wrapping_mul(5).wrapping_add(12),
        );
        FilterOutcome {
            correct_on_original,
            correct_on_degraded,
        }
    }
}

/// The cross-verifier role.
#[derive(Debug, Clone)]
pub struct CrossVerifier {
    chat: MllmChat,
}

impl CrossVerifier {
    /// Creates the verifier with its default (GLM-4.5V-like) profile.
    pub fn new(seed: u64) -> Self {
        Self {
            chat: MllmChat::new(MllmProfile::verifier(seed)),
        }
    }

    /// The underlying chat model.
    pub fn chat(&self) -> &MllmChat {
        &self.chat
    }

    /// §3.1: the verifier answers the question independently on the original video; the
    /// candidate passes if the verifier's answer is consistent with the proposed answer.
    ///
    /// In the simulator, the verifier produces the ground-truth answer when its own
    /// accuracy draw succeeds and some distractor otherwise, so "consistent" means: both the
    /// verifier and the generator landed on the same side of the truth. (Two independent
    /// models agreeing on the same *wrong* option is rare and is ignored, as in the paper.)
    pub fn verify(
        &self,
        candidate_proposed_correct: bool,
        question: &Question,
        original_frames: &[DecodedFrame],
        context_tag: u64,
    ) -> bool {
        let verifier_correct = self.chat.answer_model().answer_is_correct(
            question,
            original_frames,
            context_tag.wrapping_mul(7).wrapping_add(23),
        );
        verifier_correct == candidate_proposed_correct && verifier_correct
    }
}

fn hash(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accuracy::QuestionFormat;
    use aivc_scene::templates::basketball_game;
    use aivc_scene::{SourceConfig, VideoSource};
    use aivc_videocodec::{Decoder, Encoder, EncoderConfig, Qp};

    fn frames_at(qp: i32) -> Vec<DecodedFrame> {
        let source = VideoSource::new(basketball_game(1), SourceConfig::fps30(4.0));
        let enc = Encoder::new(EncoderConfig::default());
        let dec = Decoder::new();
        (0..4)
            .map(|i| dec.decode_complete(&enc.encode_uniform(&source.frame(i * 30), Qp::new(qp)), None))
            .collect()
    }

    fn fact_and_question(idx: usize) -> (SceneFact, Question) {
        let scene = basketball_game(1);
        let fact = scene.facts[idx].clone();
        let q = Question::from_fact(&fact, QuestionFormat::MultipleChoice);
        (fact, q)
    }

    #[test]
    fn generator_usually_produces_correct_answers_on_good_video() {
        let generator = QaGenerator::new(3);
        let original = frames_at(22);
        let mut generated = 0;
        let mut correct = 0;
        for tag in 0..40u64 {
            let (fact, q) = fact_and_question((tag % 5) as usize);
            if let Some(qa) = generator.attempt_fact(&fact, &q, &original, tag) {
                generated += 1;
                if qa.generator_was_correct {
                    correct += 1;
                }
                assert_eq!(qa.options.len(), 4);
                assert!(qa.options.contains(&qa.ground_truth_answer));
            }
        }
        assert!(generated > 20, "generated {generated}");
        assert!(correct as f64 / generated as f64 > 0.8);
    }

    #[test]
    fn filter_accepts_detail_questions_that_fail_when_degraded() {
        let filter = QaFilter::new(5);
        let original = frames_at(22);
        let degraded = frames_at(49);
        // The jersey-logo question (detail 0.85) should frequently be accepted.
        let (_, q) = fact_and_question(1);
        let accepted = (0..50u64)
            .filter(|tag| filter.evaluate(&q, &original, &degraded, *tag).accepted())
            .count();
        assert!(accepted > 20, "accepted {accepted}/50");
        // The coarse action question (detail 0.2) should almost never be accepted.
        let (_, easy_q) = fact_and_question(2);
        let accepted_easy = (0..50u64)
            .filter(|tag| filter.evaluate(&easy_q, &original, &degraded, *tag).accepted())
            .count();
        assert!(
            accepted_easy < accepted / 2,
            "easy accepted {accepted_easy}, hard {accepted}"
        );
    }

    #[test]
    fn verifier_mostly_confirms_correct_candidates_and_rejects_wrong_ones() {
        let verifier = CrossVerifier::new(7);
        let original = frames_at(22);
        let (_, q) = fact_and_question(0);
        let confirm_correct = (0..50u64)
            .filter(|tag| verifier.verify(true, &q, &original, *tag))
            .count();
        let confirm_wrong = (0..50u64)
            .filter(|tag| verifier.verify(false, &q, &original, *tag))
            .count();
        assert!(confirm_correct > 35, "confirmed {confirm_correct}/50");
        assert!(confirm_wrong < 10, "wrongly confirmed {confirm_wrong}/50");
    }

    #[test]
    fn filter_outcome_acceptance_rule() {
        assert!(FilterOutcome {
            correct_on_original: true,
            correct_on_degraded: false
        }
        .accepted());
        assert!(!FilterOutcome {
            correct_on_original: true,
            correct_on_degraded: true
        }
        .accepted());
        assert!(!FilterOutcome {
            correct_on_original: false,
            correct_on_degraded: false
        }
        .accepted());
    }

    #[test]
    fn generator_is_deterministic() {
        let g1 = QaGenerator::new(11);
        let g2 = QaGenerator::new(11);
        let original = frames_at(24);
        let (fact, q) = fact_and_question(3);
        assert_eq!(
            g1.attempt_fact(&fact, &q, &original, 42),
            g2.attempt_fact(&fact, &q, &original, 42)
        );
    }
}
