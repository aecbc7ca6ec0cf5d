//! MLLM configuration and named profiles.
//!
//! The constants are calibrated against the figures the paper quotes: ≤2 FPS processing and
//! ≤602,112-pixel downsampling for Qwen2.5-Omni-class models (§2.1), and ≥232 ms inference
//! latency for audio-only input (§1). Capability/noise knobs differentiate the pipeline
//! roles (generator / filter / verifier) without changing the underlying model.

/// Static configuration of a simulated MLLM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MllmConfig {
    /// Maximum video frame rate the model ingests, in frames per second (§2.1: 2 FPS).
    pub max_input_fps: f64,
    /// Maximum pixels per frame after mandatory downsampling (§2.1: 602,112 px).
    pub max_pixels_per_frame: u64,
    /// Context length in tokens available for visual input.
    pub visual_token_budget: u32,
    /// Pixels represented by one visual token (Qwen-style 28×28 patches).
    pub pixels_per_token: u32,
    /// Fixed prefill latency in milliseconds (audio/system prompt processing).
    pub prefill_fixed_ms: f64,
    /// Additional prefill latency per visual token, in milliseconds.
    pub prefill_per_token_ms: f64,
    /// Decode latency per output token, in milliseconds.
    pub decode_per_token_ms: f64,
    /// Typical number of output tokens in a short chat answer.
    pub typical_output_tokens: u32,
    /// Overall capability factor in `(0, 1]`: scales the non-guessing component of accuracy.
    pub capability: f64,
    /// Probability of a "slip" — answering incorrectly despite sufficient evidence
    /// (hallucination, mis-grounding). Keeps even perfect-quality accuracy below 1.0.
    pub slip_rate: f64,
}

impl MllmConfig {
    /// Qwen2.5-Omni-like responder: the model used for DeViBench filtering and the Figure 9
    /// evaluation.
    pub fn qwen_omni_like() -> Self {
        Self {
            max_input_fps: 2.0,
            max_pixels_per_frame: 602_112,
            visual_token_budget: 16_384,
            pixels_per_token: 28 * 28,
            prefill_fixed_ms: 180.0,
            prefill_per_token_ms: 0.055,
            decode_per_token_ms: 11.0,
            typical_output_tokens: 24,
            capability: 0.96,
            slip_rate: 0.04,
        }
    }

    /// A stronger "thinking" model (Qwen3-VL-plus-like) used as the DeViBench QA generator.
    pub fn generator_like() -> Self {
        Self {
            capability: 0.985,
            slip_rate: 0.03,
            prefill_fixed_ms: 450.0,
            decode_per_token_ms: 25.0,
            typical_output_tokens: 220,
            ..Self::qwen_omni_like()
        }
    }

    /// A different strong model (GLM-4.5V-thinking-like) used as the cross-verifier.
    pub fn verifier_like() -> Self {
        Self {
            capability: 0.97,
            slip_rate: 0.05,
            prefill_fixed_ms: 380.0,
            decode_per_token_ms: 20.0,
            typical_output_tokens: 60,
            ..Self::qwen_omni_like()
        }
    }
}

/// A named profile bundling a configuration with an identifying label and RNG stream.
#[derive(Debug, Clone, PartialEq)]
pub struct MllmProfile {
    /// Human-readable name (e.g. `"qwen2.5-omni"`).
    pub name: String,
    /// The model configuration.
    pub config: MllmConfig,
    /// Seed stream distinguishing this model's stochastic behaviour from other models'.
    pub seed_stream: u64,
}

impl MllmProfile {
    /// The default responder profile.
    pub fn responder(seed_stream: u64) -> Self {
        Self {
            name: "qwen2.5-omni".into(),
            config: MllmConfig::qwen_omni_like(),
            seed_stream,
        }
    }

    /// The QA-generator profile.
    pub fn generator(seed_stream: u64) -> Self {
        Self {
            name: "qwen3-vl-plus-thinking".into(),
            config: MllmConfig::generator_like(),
            seed_stream,
        }
    }

    /// The cross-verifier profile.
    pub fn verifier(seed_stream: u64) -> Self {
        Self {
            name: "glm-4.5v-thinking".into(),
            config: MllmConfig::verifier_like(),
            seed_stream,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_cited_limits_are_respected() {
        let c = MllmConfig::qwen_omni_like();
        assert_eq!(c.max_input_fps, 2.0);
        assert_eq!(c.max_pixels_per_frame, 602_112);
    }

    #[test]
    fn audio_only_inference_exceeds_232ms() {
        // §1: even audio-only input costs at least 232 ms. With zero visual tokens the fixed
        // prefill plus a typical short answer must exceed that bound.
        let c = MllmConfig::qwen_omni_like();
        let total = c.prefill_fixed_ms + c.decode_per_token_ms * c.typical_output_tokens as f64;
        assert!(total >= 232.0, "audio-only latency {total} ms");
    }

    #[test]
    fn profiles_differ_where_expected() {
        let responder = MllmConfig::qwen_omni_like();
        let generator = MllmConfig::generator_like();
        assert!(generator.capability > responder.capability);
        assert!(generator.typical_output_tokens > responder.typical_output_tokens);
    }

    #[test]
    fn named_profiles_have_distinct_names() {
        let names: std::collections::BTreeSet<_> = [
            MllmProfile::responder(1).name,
            MllmProfile::generator(2).name,
            MllmProfile::verifier(3).name,
        ]
        .into_iter()
        .collect();
        assert_eq!(names.len(), 3);
    }
}
