//! The five-step automatic QA construction pipeline (§3.1, Figure 6).
//!
//! Steps: video collection (the corpus) → video preprocessing (transcode to 200 Kbps) →
//! QA generation (strong MLLM) → QA filtering (correct on original, wrong on degraded) →
//! cross-verification (independent strong MLLM agrees). The pipeline reports the same
//! yield statistics the paper does: the filter acceptance rate (paper: 11.16 %), the
//! cross-verification pass rate (paper: 70.61 %) and the end-to-end yield (paper: 7.8 %),
//! along with the cost ledger behind Table 1.

use crate::cost::CostSummary;
use crate::dataset::Dataset;
use crate::generation::{CandidateGenerator, GenerationConfig};
use aivc_mllm::roles::{CrossVerifier, QaFilter};
use aivc_mllm::{InferenceLatencyModel, MllmConfig, VisionTokenizer};
use aivc_scene::Corpus;
use aivc_videocodec::{transcode_clip, Encoder, EncoderConfig};

/// Pipeline configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// Master seed; every role derives its own stream from it.
    pub seed: u64,
    /// Bitrate of the "original" (high-quality) rendition in bits per second.
    pub original_bitrate_bps: f64,
    /// Bitrate of the degraded rendition (paper: 200 Kbps).
    pub degraded_bitrate_bps: f64,
    /// Number of frames per clip shown to the MLLMs (the ≤2 FPS budget over a clip).
    pub frames_per_clip: usize,
    /// Candidate generation settings.
    pub generation: GenerationConfig,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            seed: 7,
            original_bitrate_bps: 4_000_000.0,
            degraded_bitrate_bps: 200_000.0,
            frames_per_clip: 8,
            generation: GenerationConfig::default(),
        }
    }
}

/// The pipeline's run report: the dataset plus the yield statistics of every stage.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// The resulting dataset.
    pub dataset: Dataset,
    /// Candidates the generator produced.
    pub generated: usize,
    /// Candidates accepted by the filter (correct on original, wrong on degraded).
    pub filter_accepted: usize,
    /// Accepted candidates that passed cross-verification.
    pub verified: usize,
}

impl PipelineReport {
    /// Filter acceptance rate (paper: 11.16 %).
    pub fn filter_acceptance_rate(&self) -> f64 {
        if self.generated == 0 {
            0.0
        } else {
            self.filter_accepted as f64 / self.generated as f64
        }
    }

    /// Cross-verification pass rate among accepted candidates (paper: 70.61 %).
    pub fn verification_pass_rate(&self) -> f64 {
        if self.filter_accepted == 0 {
            0.0
        } else {
            self.verified as f64 / self.filter_accepted as f64
        }
    }

    /// End-to-end yield: valid samples per generated candidate (paper: 7.8 %).
    pub fn end_to_end_yield(&self) -> f64 {
        if self.generated == 0 {
            0.0
        } else {
            self.verified as f64 / self.generated as f64
        }
    }
}

/// The pipeline itself.
#[derive(Debug, Clone)]
pub struct Pipeline {
    config: PipelineConfig,
    encoder: Encoder,
}

impl Pipeline {
    /// Creates a pipeline with the default encoder.
    pub fn new(config: PipelineConfig) -> Self {
        Self {
            config,
            encoder: Encoder::new(EncoderConfig::default()),
        }
    }

    /// The configuration.
    pub fn config(&self) -> PipelineConfig {
        self.config
    }

    /// Runs the full pipeline over a corpus.
    pub fn run(&self, corpus: &Corpus) -> PipelineReport {
        let cfg = self.config;
        let generator = CandidateGenerator::new(cfg.seed).with_config(cfg.generation);
        let filter = QaFilter::new(cfg.seed.wrapping_add(101));
        let verifier = CrossVerifier::new(cfg.seed.wrapping_add(202));

        // Latency/token accounting helpers for the cost ledger.
        let generator_latency = InferenceLatencyModel::new(MllmConfig::generator_like());
        let filter_latency = InferenceLatencyModel::new(MllmConfig::qwen_omni_like());
        let verifier_latency = InferenceLatencyModel::new(MllmConfig::verifier_like());
        let tokenizer = VisionTokenizer::new(&MllmConfig::qwen_omni_like());
        // One downsampled frame is ≤602,112 px.
        let tokens_per_frame = tokenizer.tokens_for_pixels(602_112) as u64;

        let mut dataset = Dataset::default();
        let mut cost = CostSummary::default();
        let mut generated = 0usize;
        let mut accepted = 0usize;
        let mut verified = 0usize;

        for (clip_idx, clip) in corpus.clips().iter().enumerate() {
            let source = clip.source();
            let (original_frames, original_summary) = transcode_clip(
                &self.encoder,
                &source,
                cfg.original_bitrate_bps,
                cfg.frames_per_clip,
            );
            let (degraded_frames, degraded_summary) = transcode_clip(
                &self.encoder,
                &source,
                cfg.degraded_bitrate_bps,
                cfg.frames_per_clip,
            );
            // Encoding wall-clock: both renditions plus the trial-and-error iterations the
            // rate matching needed (the paper's footnote complains about exactly this cost):
            // the mean of the two renditions' measured probe counts.
            let trials = f64::from(original_summary.probes + degraded_summary.probes) / 2.0;
            cost.encoding_secs += clip.duration_secs * 0.35 * 2.0 * trials / 2.0;
            debug_assert!(original_summary.mean_quality >= degraded_summary.mean_quality);

            // --- QA generation: one call watching the concatenated (2x frames) video.
            let concat_tokens = 2 * tokens_per_frame * original_frames.len() as u64 + 800;
            let (candidates, gen_output_tokens) =
                generator.generate_for_clip(clip, &original_frames, (clip_idx as u64) << 20);
            cost.generator_input_tokens += concat_tokens;
            cost.generator_output_tokens += gen_output_tokens;
            cost.inference_secs += generator_latency
                .infer(
                    concat_tokens.min(u32::MAX as u64) as u32,
                    gen_output_tokens.min(4_000) as u32,
                )
                .total_ms()
                / 1_000.0;

            for (cand_idx, candidate) in candidates.into_iter().enumerate() {
                generated += 1;
                let tag = ((clip_idx as u64) << 20) | (cand_idx as u64);

                // --- Filtering: answer on original and on degraded.
                let outcome = filter.evaluate(
                    &candidate.generated.question,
                    &original_frames,
                    &degraded_frames,
                    tag,
                );
                let per_eval_tokens = tokens_per_frame * original_frames.len() as u64 + 120;
                cost.filter_input_tokens += 2 * per_eval_tokens;
                cost.filter_output_tokens += 2 * 12;
                cost.inference_secs += 2.0
                    * filter_latency
                        .infer(per_eval_tokens.min(u32::MAX as u64) as u32, 12)
                        .total_ms()
                    / 1_000.0;
                if !outcome.accepted() {
                    continue;
                }
                accepted += 1;

                // --- Cross-verification on the original rendition.
                let passes = verifier.verify(
                    candidate.generated.generator_was_correct,
                    &candidate.generated.question,
                    &original_frames,
                    tag,
                );
                cost.verifier_input_tokens += per_eval_tokens;
                cost.verifier_output_tokens += 40;
                cost.inference_secs += verifier_latency
                    .infer(per_eval_tokens.min(u32::MAX as u64) as u32, 40)
                    .total_ms()
                    / 1_000.0;
                if !passes {
                    continue;
                }
                verified += 1;
                dataset.samples.push(candidate.into_sample());
            }
        }

        dataset.corpus_duration_secs = corpus.stats().total_duration_secs;
        dataset.cost = cost;
        PipelineReport {
            dataset,
            generated,
            filter_accepted: accepted,
            verified,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;

    fn small_corpus() -> Corpus {
        Corpus::streamingbench_like(11, 10, 20.0, 40.0)
    }

    #[test]
    fn pipeline_produces_valid_quality_sensitive_samples() {
        let report = Pipeline::new(PipelineConfig::default()).run(&small_corpus());
        assert!(report.generated > 100, "generated {}", report.generated);
        assert!(report.verified > 5, "verified {}", report.verified);
        assert!(
            report.dataset.validate().is_empty(),
            "{:?}",
            report.dataset.validate()
        );
        // The accepted samples should skew heavily toward high-detail questions.
        let mean_detail: f64 = report
            .dataset
            .samples
            .iter()
            .map(|s| s.question.required_detail)
            .sum::<f64>()
            / report.dataset.len().max(1) as f64;
        assert!(mean_detail > 0.4, "mean detail {mean_detail}");
    }

    #[test]
    fn yield_rates_are_in_the_papers_ballpark() {
        let report = Pipeline::new(PipelineConfig::default()).run(&small_corpus());
        let acceptance = report.filter_acceptance_rate();
        let verification = report.verification_pass_rate();
        let end_to_end = report.end_to_end_yield();
        // Paper: 11.16 % / 70.61 % / 7.8 %. We accept a generous band — the shape that
        // matters is "only a small minority of generated QAs survive filtering, most of
        // those survive verification".
        assert!(acceptance > 0.04 && acceptance < 0.30, "acceptance {acceptance}");
        assert!(verification > 0.5, "verification {verification}");
        assert!(end_to_end > 0.02 && end_to_end < 0.25, "end-to-end {end_to_end}");
        assert!(end_to_end < acceptance);
    }

    #[test]
    fn pipeline_is_deterministic() {
        let corpus = Corpus::streamingbench_like(3, 3, 20.0, 30.0);
        let a = Pipeline::new(PipelineConfig::default()).run(&corpus);
        let b = Pipeline::new(PipelineConfig::default()).run(&corpus);
        assert_eq!(a.generated, b.generated);
        assert_eq!(a.verified, b.verified);
        assert_eq!(a.dataset.len(), b.dataset.len());
    }

    #[test]
    fn cost_ledger_is_populated() {
        let report =
            Pipeline::new(PipelineConfig::default()).run(&Corpus::streamingbench_like(5, 3, 20.0, 30.0));
        let summary = report.dataset.summary(&CostModel::default());
        assert!(summary.total_money_usd > 0.0);
        assert!(summary.total_time_secs > 0.0);
        assert!(summary.total_duration_secs > 0.0);
        assert_eq!(summary.qa_samples, report.dataset.len());
    }

    #[test]
    fn samples_cover_multiple_categories_and_temporal_kinds() {
        let report = Pipeline::new(PipelineConfig::default()).run(&small_corpus());
        let dist = report.dataset.distribution();
        let populated = dist.entries.iter().filter(|e| e.count > 0).count();
        assert!(populated >= 3, "only {populated} categories populated");
    }
}
