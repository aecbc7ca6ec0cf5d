//! The chat-facing MLLM facade: sampling + tokenization + latency + accuracy in one call.
//!
//! [`MllmChat::respond`] is what the end-to-end AI Video Chat session (in `aivchat-core`)
//! invokes once the uplink has delivered frames: it picks the frames the model would really
//! look at, accounts for tokens and inference latency, and produces an answer whose
//! correctness follows the accuracy model.

use crate::accuracy::{AnswerModel, Question};
use crate::config::{MllmConfig, MllmProfile};
use crate::latency::{InferenceLatency, InferenceLatencyModel};
use crate::sampler::{Downsampler, FrameSampler, SamplingStats};
use crate::tokens::VisionTokenizer;
use aivc_videocodec::DecodedFrame;
use serde::{Deserialize, Serialize};

/// The MLLM's response to one question.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Answer {
    /// Whether the answer matches the ground truth.
    pub correct: bool,
    /// The probability the accuracy model assigned to a correct answer.
    pub probability_correct: f64,
    /// Perceived quality of the question's evidence regions.
    pub perceived_evidence_quality: f64,
    /// Inference latency breakdown.
    pub latency: InferenceLatency,
    /// Number of visual tokens the request consumed.
    pub visual_tokens: u32,
    /// How many of the offered frames the model actually ingested.
    pub frames_ingested: usize,
    /// Sampling statistics over the offered frames.
    pub sampling: SamplingStats,
}

/// Reusable buffers for [`MllmChat::respond_with`]: the capture-order and sampling index
/// lists, so a response over already-decoded frames performs no heap allocation after
/// warmup (frames are referenced by index instead of cloned).
#[derive(Debug, Clone, Default)]
pub struct MllmScratch {
    /// Indices of the offered frames in capture-timestamp order.
    order: Vec<usize>,
    /// Indices of the frames the sampler admitted, in capture order.
    taken: Vec<usize>,
}

impl MllmScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A chat-capable MLLM instance.
#[derive(Debug, Clone)]
pub struct MllmChat {
    profile: MllmProfile,
    answer_model: AnswerModel,
    latency_model: InferenceLatencyModel,
}

impl MllmChat {
    /// Creates a chat model from a profile.
    pub fn new(profile: MllmProfile) -> Self {
        let answer_model = AnswerModel::new(profile.config, profile.seed_stream);
        let latency_model = InferenceLatencyModel::new(profile.config);
        Self {
            profile,
            answer_model,
            latency_model,
        }
    }

    /// The default cloud responder.
    pub fn responder(seed: u64) -> Self {
        Self::new(MllmProfile::responder(seed))
    }

    /// The model's profile.
    pub fn profile(&self) -> &MllmProfile {
        &self.profile
    }

    /// The model's configuration.
    pub fn config(&self) -> MllmConfig {
        self.profile.config
    }

    /// Direct access to the accuracy model (used by the DeViBench roles).
    pub fn answer_model(&self) -> &AnswerModel {
        &self.answer_model
    }

    /// Selects the frames the model would ingest out of everything the receiver decoded.
    pub fn ingest(&self, offered: &[DecodedFrame]) -> (Vec<DecodedFrame>, SamplingStats) {
        let mut sampler = FrameSampler::new(&self.profile.config);
        let mut taken = Vec::new();
        let mut ordered: Vec<&DecodedFrame> = offered.iter().collect();
        ordered.sort_by_key(|f| f.capture_ts_us);
        for frame in ordered {
            if sampler.offer_frame(frame) {
                taken.push(frame.clone());
            }
        }
        (taken, sampler.stats())
    }

    /// Answers `question` after looking at the offered decoded frames.
    ///
    /// `context_tag` distinguishes repeated evaluations of the same question under different
    /// conditions (bitrates, methods) so their Bernoulli draws are independent.
    ///
    /// Allocates per call (sampling clones the admitted frames); per-turn loops should hold
    /// an [`MllmScratch`] and call [`MllmChat::respond_with`], which references frames by
    /// index and is allocation-free after warmup. Answers are identical.
    pub fn respond(&self, question: &Question, offered: &[DecodedFrame], context_tag: u64) -> Answer {
        let mut scratch = MllmScratch::new();
        self.respond_with(question, offered, context_tag, &mut scratch)
    }

    /// [`MllmChat::respond`] with caller-owned sampling/token scratch buffers.
    pub fn respond_with(
        &self,
        question: &Question,
        offered: &[DecodedFrame],
        context_tag: u64,
        scratch: &mut MllmScratch,
    ) -> Answer {
        let MllmScratch { order, taken } = scratch;
        // Capture order, index-stable for equal timestamps — the same ordering the stable
        // sort in `MllmChat::ingest` produces.
        order.clear();
        order.extend(0..offered.len());
        order.sort_unstable_by_key(|&i| (offered[i].capture_ts_us, i));
        let mut sampler = FrameSampler::new(&self.profile.config);
        taken.clear();
        for &i in order.iter() {
            if sampler.offer_frame(&offered[i]) {
                taken.push(i);
            }
        }
        let sampling = sampler.stats();
        let downsampler = Downsampler::new(&self.profile.config);
        let tokenizer = VisionTokenizer::new(&self.profile.config);
        let pixels = taken
            .first()
            .map(|&i| {
                downsampler
                    .decide(offered[i].width, offered[i].height)
                    .retained_pixels
            })
            .unwrap_or(0);
        let (visual_tokens, frames_kept) = if taken.is_empty() {
            (0, 0)
        } else {
            tokenizer.tokens_for_frames(taken.len(), pixels)
        };
        let considered = &taken[taken.len() - frames_kept..];
        let frames = considered.iter().map(|&i| &offered[i]);
        let (perceived, probability, correct) = self.answer_model.assess_iter(question, frames, context_tag);
        let latency = self.latency_model.typical(visual_tokens);
        Answer {
            correct,
            probability_correct: probability,
            perceived_evidence_quality: perceived,
            latency,
            visual_tokens,
            frames_ingested: frames_kept,
            sampling,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accuracy::QuestionFormat;
    use aivc_scene::templates::basketball_game;
    use aivc_scene::{SourceConfig, VideoSource};
    use aivc_videocodec::{Decoder, Encoder, EncoderConfig, Qp};

    fn offered_frames(qp: i32, count: u64, fps: f64) -> Vec<DecodedFrame> {
        let source = VideoSource::new(
            basketball_game(1),
            SourceConfig {
                fps,
                duration_secs: count as f64 / fps,
            },
        );
        let enc = Encoder::new(EncoderConfig::default());
        let dec = Decoder::new();
        (0..count)
            .map(|i| {
                dec.decode_complete(
                    &enc.encode_uniform(&source.frame(i), Qp::new(qp)),
                    Some(i * 33_333),
                )
            })
            .collect()
    }

    fn score_question() -> Question {
        let scene = basketball_game(1);
        Question::from_fact(&scene.facts[0], QuestionFormat::FreeResponse)
    }

    #[test]
    fn ingest_downsamples_30fps_to_2fps() {
        let chat = MllmChat::responder(1);
        let offered = offered_frames(30, 90, 30.0); // 3 seconds at 30 FPS
        let (taken, stats) = chat.ingest(&offered);
        assert!(taken.len() <= 7, "taken {}", taken.len());
        assert_eq!(stats.offered, 90);
        assert!(stats.redundant_fraction() > 0.9);
    }

    #[test]
    fn respond_reports_tokens_latency_and_correctness() {
        let chat = MllmChat::responder(2);
        let offered = offered_frames(26, 60, 30.0);
        let answer = chat.respond(&score_question(), &offered, 0);
        assert!(answer.visual_tokens > 0);
        assert!(answer.latency.total_ms() > 232.0);
        assert!(
            answer.probability_correct > 0.6,
            "p {}",
            answer.probability_correct
        );
        assert!(answer.frames_ingested >= 1);
    }

    #[test]
    fn respond_with_no_frames_is_a_guess() {
        let chat = MllmChat::responder(3);
        let answer = chat.respond(&score_question(), &[], 0);
        assert_eq!(answer.visual_tokens, 0);
        assert!(answer.probability_correct < 0.1);
        assert_eq!(answer.frames_ingested, 0);
    }

    #[test]
    fn quality_affects_answer_probability_through_the_facade() {
        let chat = MllmChat::responder(4);
        let good = chat.respond(&score_question(), &offered_frames(24, 30, 30.0), 1);
        let bad = chat.respond(&score_question(), &offered_frames(48, 30, 30.0), 1);
        assert!(good.probability_correct > bad.probability_correct + 0.3);
    }

    #[test]
    fn responses_are_deterministic() {
        let chat = MllmChat::responder(5);
        let offered = offered_frames(30, 30, 30.0);
        let a = chat.respond(&score_question(), &offered, 9);
        let b = chat.respond(&score_question(), &offered, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn respond_with_matches_respond_across_conditions() {
        let chat = MllmChat::responder(6);
        let mut scratch = MllmScratch::new();
        let q = score_question();
        // Different frame counts, qualities and rates through the same reused scratch —
        // including the empty-offer edge case.
        for (qp, count, fps) in [(26, 60, 30.0), (44, 12, 30.0), (30, 1, 30.0), (30, 0, 30.0)] {
            let offered = if count == 0 {
                Vec::new()
            } else {
                offered_frames(qp, count, fps)
            };
            for tag in [0u64, 7] {
                let with_scratch = chat.respond_with(&q, &offered, tag, &mut scratch);
                assert_eq!(
                    with_scratch,
                    chat.respond(&q, &offered, tag),
                    "qp {qp} count {count}"
                );
            }
        }
    }

    /// `respond_with` scores the evidence once and derives the probability and the draw
    /// from that score; the public `AnswerModel` forms each re-score it. Same inputs, same
    /// expressions — so every float must agree to the bit, whichever branch of the
    /// accuracy model the question takes and whatever transport loss concealed.
    #[test]
    fn respond_with_equals_the_three_call_formulation_bit_for_bit() {
        let scene = aivc_scene::templates::dog_park(1);
        let source = VideoSource::new(scene.clone(), SourceConfig::fps30(4.0));
        let enc = Encoder::new(EncoderConfig::default());
        let dec = Decoder::new();
        // Four frames 1 s apart (the 2 fps sampler admits them all): complete, then
        // losing the tail, the middle and all but the head of the bitstream.
        let offered: Vec<DecodedFrame> = (0..4u64)
            .map(|i| {
                let encoded = enc.encode_uniform(&source.frame(i * 30), Qp::new(26 + 6 * i as i32));
                let total = encoded.total_bytes();
                let received = [
                    vec![(0, total)],
                    vec![(0, total * 2 / 3)],
                    vec![(0, total / 3), (total * 2 / 3, total)],
                    vec![(0, total / 8)],
                ];
                dec.decode_with_received(&encoded, &received[i as usize], Some(i * 1_000_000))
            })
            .collect();
        assert!(offered.iter().skip(1).all(|f| f.received_fraction() < 1.0));

        let temporal = scene
            .facts
            .iter()
            .find(|f| f.multi_frame)
            .expect("a temporal fact");
        let evidence = scene
            .facts
            .iter()
            .find(|f| !f.multi_frame && !f.evidence_objects.is_empty())
            .expect("a single-frame fact with evidence objects");
        let mut gist = Question::from_fact(evidence, QuestionFormat::MultipleChoice);
        gist.evidence_objects.clear();
        let mut temporal_gist = gist.clone();
        temporal_gist.multi_frame = true;
        let questions = [
            Question::from_fact(evidence, QuestionFormat::FreeResponse),
            Question::from_fact(temporal, QuestionFormat::FreeResponse),
            gist,
            temporal_gist,
        ];

        let chat = MllmChat::responder(8);
        let model = chat.answer_model();
        let mut scratch = MllmScratch::new();
        for question in &questions {
            // One frame starves the temporal questions of their second view.
            for offered in [&offered[..], &offered[..1], &[]] {
                for tag in [0u64, 3, 11] {
                    let answer = chat.respond_with(question, offered, tag, &mut scratch);
                    assert_eq!(answer.frames_ingested, offered.len());
                    let (taken, _) = chat.ingest(offered);
                    let kept = &taken[taken.len() - answer.frames_ingested..];
                    assert_eq!(
                        answer.perceived_evidence_quality.to_bits(),
                        model.perceived_evidence_quality(question, kept).to_bits(),
                        "{question:?}"
                    );
                    assert_eq!(
                        answer.probability_correct.to_bits(),
                        model.probability_correct(question, kept).to_bits(),
                        "{question:?}"
                    );
                    assert_eq!(answer.correct, model.answer_is_correct(question, kept, tag));
                }
            }
        }
    }

    #[test]
    fn respond_with_handles_out_of_order_offers() {
        // Frames arriving out of capture order must be sampled identically to the cloning
        // path (which stable-sorts by capture timestamp).
        let chat = MllmChat::responder(7);
        let mut offered = offered_frames(28, 20, 30.0);
        offered.reverse();
        offered.swap(3, 11);
        let q = score_question();
        let mut scratch = MllmScratch::new();
        assert_eq!(
            chat.respond_with(&q, &offered, 1, &mut scratch),
            chat.respond(&q, &offered, 1)
        );
    }
}
