//! The answer-accuracy model: how decoded video quality turns into MLLM correctness.
//!
//! This is the heart of the reproduction of Figure 4 / Figure 9. The paper's empirical
//! claims are:
//!
//! 1. coarse questions ("what is the player doing?") survive heavy compression, detail
//!    questions ("what logo is on his jersey?", "how many spectators?") do not (§2.3);
//! 2. what matters is the decoded quality of the *evidence regions*, not the frame average
//!    — which is why shifting bits toward chat-relevant regions preserves accuracy at a
//!    fraction of the bitrate (§3.2, Figure 9, Figure 10);
//! 3. multiple-choice questions have a 25 % guessing floor (§3.2, footnote 1).
//!
//! The model: the *perceived evidence quality* is the weakest evidence object's decoded
//! quality across the sampled frames; the probability of a correct answer is a logistic
//! function of (perceived quality − quality threshold), where the threshold grows with the
//! question's detail requirement, scaled by model capability and floored at the guessing
//! rate. All constants are here, in one place; DESIGN.md §2's MLLM bullet states the
//! properties they must keep.

use crate::config::MllmConfig;
use aivc_scene::{FactCategory, SceneFact};
use aivc_videocodec::DecodedFrame;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// How the question is posed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuestionFormat {
    /// Four-option multiple choice (DeViBench's final format) — 25 % guessing floor.
    MultipleChoice,
    /// Free-form answer (DeViBench's earlier version, used in Figure 9) — ~2 % lucky-guess
    /// floor.
    FreeResponse,
}

impl QuestionFormat {
    /// The probability of answering correctly with no usable visual evidence at all.
    pub fn guess_floor(self) -> f64 {
        match self {
            QuestionFormat::MultipleChoice => 0.25,
            QuestionFormat::FreeResponse => 0.02,
        }
    }
}

/// A question posed to the MLLM about a video.
#[derive(Debug, Clone, PartialEq)]
pub struct Question {
    /// Natural-language question text.
    pub text: String,
    /// Question category.
    pub category: FactCategory,
    /// Format (multiple choice vs free response).
    pub format: QuestionFormat,
    /// Scene-object ids that carry the evidence.
    pub evidence_objects: Vec<u32>,
    /// Detail requirement in `[0, 1]` (see [`SceneFact::required_detail`]).
    pub required_detail: f64,
    /// Whether the answer requires observing more than one frame.
    pub multi_frame: bool,
    /// Concepts mentioned by the question (used by the context-aware allocator).
    pub query_concepts: Vec<String>,
}

impl Question {
    /// Builds a question from a ground-truth fact.
    pub fn from_fact(fact: &SceneFact, format: QuestionFormat) -> Self {
        Self {
            text: fact.question.clone(),
            category: fact.category,
            format,
            evidence_objects: fact.evidence_objects.clone(),
            required_detail: fact.required_detail,
            multi_frame: fact.multi_frame,
            query_concepts: fact.query_concepts.clone(),
        }
    }
}

/// Calibration constants of the accuracy model.
#[derive(Debug, Clone, Copy, PartialEq)]
struct AccuracyCalibration {
    /// Quality threshold per unit of detail requirement: a question with `required_detail`
    /// needs roughly `threshold_per_detail * required_detail` decoded quality on its
    /// evidence to become answerable.
    pub threshold_per_detail: f64,
    /// Logistic slope (quality units per e-fold) of the answerability curve.
    pub slope: f64,
    /// Perceived quality assigned to evidence that is not visible in any sampled frame.
    pub invisible_quality: f64,
    /// Multiplier applied to the answerable probability when a multi-frame (temporal)
    /// question could only be observed in fewer than two frames — the motion itself is then
    /// unobservable no matter how sharp the single frame is.
    pub missing_temporal_evidence_factor: f64,
    /// Minimum object coverage for a block to count as showing an object.
    pub min_object_coverage: f64,
}

impl Default for AccuracyCalibration {
    fn default() -> Self {
        Self {
            threshold_per_detail: 0.45,
            slope: 0.07,
            invisible_quality: 0.05,
            missing_temporal_evidence_factor: 0.25,
            min_object_coverage: 0.02,
        }
    }
}

/// The answer-accuracy model for one MLLM profile.
#[derive(Debug, Clone)]
pub struct AnswerModel {
    config: MllmConfig,
    calibration: AccuracyCalibration,
    seed_stream: u64,
}

impl AnswerModel {
    /// Creates an answer model.
    pub fn new(config: MllmConfig, seed_stream: u64) -> Self {
        Self {
            config,
            calibration: AccuracyCalibration::default(),
            seed_stream,
        }
    }

    /// The *perceived evidence quality* of a question over the frames the MLLM sampled:
    /// per evidence object, the best view across frames; across evidence objects, the worst
    /// (all evidence must be legible).
    pub fn perceived_evidence_quality(&self, question: &Question, frames: &[DecodedFrame]) -> f64 {
        self.perceived_evidence_quality_iter(question, frames.iter())
    }

    /// [`AnswerModel::perceived_evidence_quality`] over any re-iterable frame view — the
    /// form `MllmChat::respond_with` uses to score sampled frames without cloning them.
    /// Identical arithmetic (same accumulation order) to the slice form.
    fn perceived_evidence_quality_iter<'a, I>(&self, question: &Question, frames: I) -> f64
    where
        I: ExactSizeIterator<Item = &'a DecodedFrame> + Clone,
    {
        if frames.len() == 0 {
            return self.calibration.invisible_quality;
        }
        let detail = question.required_detail;
        if question.evidence_objects.is_empty() {
            // No specific evidence: the question is about the gist; use the mean frame quality
            // conditioned on the question's detail requirement.
            let count = frames.len();
            let mean = frames.map(|f| f.mean_quality_for_detail(detail)).sum::<f64>() / count as f64;
            return mean;
        }
        let mut worst_evidence: f64 = 1.0;
        for &object_id in &question.evidence_objects {
            let mut best_view: Option<f64> = None;
            for frame in frames.clone() {
                if let Some(q) =
                    frame.object_quality_for_detail(object_id, self.calibration.min_object_coverage, detail)
                {
                    best_view = Some(best_view.map_or(q, |b: f64| b.max(q)));
                }
            }
            let q = best_view.unwrap_or(self.calibration.invisible_quality);
            worst_evidence = worst_evidence.min(q);
        }
        worst_evidence
    }

    /// True when a multi-frame (temporal) question has its evidence visible in at least two
    /// of the sampled frames, i.e. the motion/temporal change is actually observable.
    fn has_temporal_evidence_iter<'a, I>(&self, question: &Question, frames: I) -> bool
    where
        I: ExactSizeIterator<Item = &'a DecodedFrame> + Clone,
    {
        if !question.multi_frame {
            return true;
        }
        if question.evidence_objects.is_empty() {
            return frames.len() >= 2;
        }
        question.evidence_objects.iter().all(|&object_id| {
            frames
                .clone()
                .filter(|f| {
                    f.coverage
                        .cells_covered_by(object_id, self.calibration.min_object_coverage)
                        .next()
                        .is_some()
                })
                .count()
                >= 2
        })
    }

    /// Probability of a correct answer given the decoded frames the MLLM looked at.
    pub fn probability_correct(&self, question: &Question, frames: &[DecodedFrame]) -> f64 {
        self.probability_correct_iter(question, frames.iter())
    }

    /// Iterator form of [`AnswerModel::probability_correct`].
    fn probability_correct_iter<'a, I>(&self, question: &Question, frames: I) -> f64
    where
        I: ExactSizeIterator<Item = &'a DecodedFrame> + Clone,
    {
        let perceived = self.perceived_evidence_quality_iter(question, frames.clone());
        self.probability_given(question, perceived, frames)
    }

    /// The answer probability once the evidence has been scored: `perceived` must be
    /// [`AnswerModel::perceived_evidence_quality_iter`] of the same question and frames.
    fn probability_given<'a, I>(&self, question: &Question, perceived: f64, frames: I) -> f64
    where
        I: ExactSizeIterator<Item = &'a DecodedFrame> + Clone,
    {
        let threshold = self.calibration.threshold_per_detail * question.required_detail;
        let x = (perceived - threshold) / self.calibration.slope;
        let mut answerable = 1.0 / (1.0 + (-x).exp());
        if !self.has_temporal_evidence_iter(question, frames) {
            answerable *= self.calibration.missing_temporal_evidence_factor;
        }
        let skill = self.config.capability * (1.0 - self.config.slip_rate) * answerable;
        let floor = question.format.guess_floor();
        (floor + (1.0 - floor) * skill).clamp(0.0, 1.0)
    }

    /// Samples a concrete correct/incorrect outcome.
    ///
    /// The RNG is derived from the model's seed stream, the question text and the caller's
    /// `context_tag`, so the same (model, question, context) always yields the same outcome
    /// regardless of evaluation order — the "frozen random seed" the paper describes.
    pub fn answer_is_correct(&self, question: &Question, frames: &[DecodedFrame], context_tag: u64) -> bool {
        self.answer_is_correct_iter(question, frames.iter(), context_tag)
    }

    /// Iterator form of [`AnswerModel::answer_is_correct`].
    fn answer_is_correct_iter<'a, I>(&self, question: &Question, frames: I, context_tag: u64) -> bool
    where
        I: ExactSizeIterator<Item = &'a DecodedFrame> + Clone,
    {
        self.draw_correct(
            question,
            self.probability_correct_iter(question, frames),
            context_tag,
        )
    }

    /// The frozen-seed Bernoulli draw at probability `p`.
    fn draw_correct(&self, question: &Question, p: f64, context_tag: u64) -> bool {
        let seed = self
            .seed_stream
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(hash_str(&question.text))
            .wrapping_add(context_tag.wrapping_mul(0x85EB_CA6B));
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        rng.gen_bool(p.clamp(0.0, 1.0))
    }

    /// `(perceived evidence quality, probability correct, sampled outcome)` from one walk
    /// over the evidence — what [`AnswerModel::perceived_evidence_quality_iter`],
    /// [`AnswerModel::probability_correct_iter`] and [`AnswerModel::answer_is_correct_iter`]
    /// return, bit for bit, without the latter two each re-scoring every evidence block.
    pub(crate) fn assess_iter<'a, I>(
        &self,
        question: &Question,
        frames: I,
        context_tag: u64,
    ) -> (f64, f64, bool)
    where
        I: ExactSizeIterator<Item = &'a DecodedFrame> + Clone,
    {
        let perceived = self.perceived_evidence_quality_iter(question, frames.clone());
        let probability = self.probability_given(question, perceived, frames);
        (
            perceived,
            probability,
            self.draw_correct(question, probability, context_tag),
        )
    }
}

fn hash_str(s: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        hash ^= *b as u64;
        hash = hash.wrapping_mul(0x1000_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use aivc_scene::templates::basketball_game;
    use aivc_scene::{SourceConfig, VideoSource};
    use aivc_videocodec::{Decoder, Encoder, EncoderConfig, Qp};

    fn decoded_at_qp(qp: i32) -> Vec<DecodedFrame> {
        let source = VideoSource::new(basketball_game(1), SourceConfig::fps30(4.0));
        let enc = Encoder::new(EncoderConfig::default());
        let dec = Decoder::new();
        (0..4)
            .map(|i| dec.decode_complete(&enc.encode_uniform(&source.frame(i * 30), Qp::new(qp)), None))
            .collect()
    }

    fn question(fact_idx: usize, format: QuestionFormat) -> Question {
        let scene = basketball_game(1);
        Question::from_fact(&scene.facts[fact_idx], format)
    }

    fn model() -> AnswerModel {
        AnswerModel::new(MllmConfig::qwen_omni_like(), 7)
    }

    #[test]
    fn coarse_action_question_survives_low_bitrate() {
        // Fact 2 is "What is the player on the right doing?" (required_detail 0.2).
        let m = model();
        let q = question(2, QuestionFormat::FreeResponse);
        let p_high = m.probability_correct(&q, &decoded_at_qp(24));
        let p_low = m.probability_correct(&q, &decoded_at_qp(44));
        assert!(p_high > 0.85, "high-quality p {p_high}");
        assert!(p_low > 0.7, "coarse question should survive QP 44, p {p_low}");
    }

    #[test]
    fn detail_question_collapses_at_low_bitrate() {
        // Fact 1 is the jersey-logo question (required_detail 0.85).
        let m = model();
        let q = question(1, QuestionFormat::FreeResponse);
        let p_high = m.probability_correct(&q, &decoded_at_qp(24));
        let p_low = m.probability_correct(&q, &decoded_at_qp(44));
        assert!(p_high > 0.8, "high-quality p {p_high}");
        assert!(
            p_low < 0.25,
            "detail question should collapse at QP 44, p {p_low}"
        );
    }

    #[test]
    fn multiple_choice_has_guessing_floor() {
        let m = model();
        let q = question(1, QuestionFormat::MultipleChoice);
        let p_low = m.probability_correct(&q, &decoded_at_qp(50));
        assert!(p_low >= 0.25, "MC floor violated: {p_low}");
        let q_free = question(1, QuestionFormat::FreeResponse);
        assert!(m.probability_correct(&q_free, &decoded_at_qp(50)) < p_low);
    }

    #[test]
    fn probability_is_monotone_in_quality() {
        let m = model();
        let q = question(3, QuestionFormat::FreeResponse); // spectators counting
        let mut prev = 1.1;
        for qp in [22, 30, 36, 42, 48] {
            let p = m.probability_correct(&q, &decoded_at_qp(qp));
            assert!(p <= prev + 1e-9, "p increased at qp {qp}");
            prev = p;
        }
    }

    #[test]
    fn invisible_evidence_drops_to_floor() {
        let m = model();
        let q = question(1, QuestionFormat::FreeResponse);
        let p = m.probability_correct(&q, &[]);
        assert!(p < 0.1, "no frames => near guess floor, got {p}");
    }

    #[test]
    fn perceived_quality_uses_weakest_evidence() {
        let m = model();
        let frames = decoded_at_qp(30);
        // The jersey-logo question needs both the logo (detail 0.88) and the covering player;
        // its perceived quality can be no better than the logo region's decoded quality.
        let q = question(1, QuestionFormat::FreeResponse);
        let perceived = m.perceived_evidence_quality(&q, &frames);
        let logo_quality = frames
            .iter()
            .filter_map(|f| f.object_quality_for_detail(3, 0.02, q.required_detail))
            .fold(0.0_f64, f64::max);
        assert!(perceived <= logo_quality + 1e-9);
    }

    #[test]
    fn sampled_outcomes_are_deterministic_per_context() {
        let m = model();
        let q = question(0, QuestionFormat::MultipleChoice);
        let frames = decoded_at_qp(34);
        let a: Vec<bool> = (0..20).map(|tag| m.answer_is_correct(&q, &frames, tag)).collect();
        let b: Vec<bool> = (0..20).map(|tag| m.answer_is_correct(&q, &frames, tag)).collect();
        assert_eq!(a, b);
        // And across tags there is some variation (it is a Bernoulli sample, not a constant).
        let p = m.probability_correct(&q, &frames);
        if p > 0.05 && p < 0.95 {
            assert!(a.iter().any(|x| *x) || a.iter().any(|x| !*x));
        }
    }

    #[test]
    fn higher_capability_model_is_more_accurate() {
        let strong = AnswerModel::new(MllmConfig::generator_like(), 1);
        let weak = AnswerModel::new(MllmConfig::qwen_omni_like(), 1);
        let q = question(0, QuestionFormat::FreeResponse);
        let frames = decoded_at_qp(32);
        assert!(strong.probability_correct(&q, &frames) > weak.probability_correct(&q, &frames));
    }

    #[test]
    fn multi_frame_question_needs_multiple_frames() {
        let m = model();
        // Build a multi-frame question on the dog-park "what is the dog doing" fact.
        let scene = aivc_scene::templates::dog_park(1);
        let fact = scene.facts.iter().find(|f| f.multi_frame).unwrap();
        let q = Question::from_fact(fact, QuestionFormat::FreeResponse);
        let source = VideoSource::new(scene.clone(), SourceConfig::fps30(4.0));
        let enc = Encoder::new(EncoderConfig::default());
        let dec = Decoder::new();
        let one_frame = vec![dec.decode_complete(&enc.encode_uniform(&source.frame(0), Qp::new(24)), None)];
        let many_frames: Vec<_> = (0..4)
            .map(|i| dec.decode_complete(&enc.encode_uniform(&source.frame(i * 30), Qp::new(24)), None))
            .collect();
        assert!(m.probability_correct(&q, &many_frames) > m.probability_correct(&q, &one_frame) + 0.2);
    }
}
