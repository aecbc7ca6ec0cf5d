//! Autoregressive inference latency.
//!
//! The paper's core tension: the 300 ms conversational budget is nearly exhausted by MLLM
//! inference alone (≥232 ms even for audio-only input), leaving ≤68 ms for the entire RTC
//! pipeline (§1). This model splits latency into a fixed prefill term, a per-visual-token
//! prefill term and a per-output-token decode term, so the §4 token-pruning discussion can
//! be quantified too.

use crate::config::MllmConfig;
use serde::Serialize;

/// Breakdown of one inference call's latency, in milliseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct InferenceLatency {
    /// Fixed prefill cost (system prompt, audio tokens, scheduling).
    pub prefill_fixed_ms: f64,
    /// Visual-token-dependent prefill cost.
    pub prefill_visual_ms: f64,
    /// Time until the first output token is ready (prefill total + one decode step).
    pub time_to_first_token_ms: f64,
    /// Full decode cost for the complete answer.
    pub decode_ms: f64,
}

impl InferenceLatency {
    /// Total latency until the complete answer is available.
    pub fn total_ms(&self) -> f64 {
        self.prefill_fixed_ms + self.prefill_visual_ms + self.decode_ms
    }
}

/// The latency model.
#[derive(Debug, Clone, Copy)]
pub struct InferenceLatencyModel {
    config: MllmConfig,
}

impl InferenceLatencyModel {
    /// Creates a latency model for a configuration.
    pub fn new(config: MllmConfig) -> Self {
        Self { config }
    }

    /// Latency of one request with `visual_tokens` of visual prefill and `output_tokens` of
    /// generated answer.
    pub fn infer(&self, visual_tokens: u32, output_tokens: u32) -> InferenceLatency {
        let prefill_visual = visual_tokens as f64 * self.config.prefill_per_token_ms;
        let decode = output_tokens.max(1) as f64 * self.config.decode_per_token_ms;
        InferenceLatency {
            prefill_fixed_ms: self.config.prefill_fixed_ms,
            prefill_visual_ms: prefill_visual,
            time_to_first_token_ms: self.config.prefill_fixed_ms
                + prefill_visual
                + self.config.decode_per_token_ms,
            decode_ms: decode,
        }
    }

    /// Latency of a typical short chat answer given `visual_tokens` of context.
    pub fn typical(&self, visual_tokens: u32) -> InferenceLatency {
        self.infer(visual_tokens, self.config.typical_output_tokens)
    }

    /// The transmission budget left inside `response_budget_ms` once inference (time to
    /// first token — what a user perceives as "the AI started answering") is paid.
    ///
    /// §1 computes this as 300 − 232 = 68 ms; the method generalizes it.
    pub fn remaining_transport_budget_ms(&self, response_budget_ms: f64, visual_tokens: u32) -> f64 {
        (response_budget_ms - self.typical(visual_tokens).time_to_first_token_ms).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn audio_only_time_to_first_token_is_at_least_232ms() {
        let m = InferenceLatencyModel::new(MllmConfig::qwen_omni_like());
        // No visual tokens at all — the paper's audio-only bound.
        let lat = m.infer(0, 24);
        assert!(lat.time_to_first_token_ms >= 180.0);
        assert!(lat.total_ms() >= 232.0, "total {}", lat.total_ms());
    }

    #[test]
    fn transport_budget_is_a_few_tens_of_ms() {
        let m = InferenceLatencyModel::new(MllmConfig::qwen_omni_like());
        // One downsampled frame (768 visual tokens) in context, 300 ms budget.
        let left = m.remaining_transport_budget_ms(300.0, 768);
        assert!(left > 0.0 && left < 100.0, "left {left}");
    }

    #[test]
    fn more_visual_tokens_cost_more_prefill() {
        let m = InferenceLatencyModel::new(MllmConfig::qwen_omni_like());
        assert!(m.infer(4 * 768, 24).total_ms() > m.infer(768, 24).total_ms());
    }

    #[test]
    fn token_pruning_recovers_latency() {
        // §4: pruning 80 % of visual tokens should shave measurable prefill time.
        let m = InferenceLatencyModel::new(MllmConfig::qwen_omni_like());
        let full = m.infer(4 * 768, 24).total_ms();
        let pruned = m.infer((4.0_f64 * 768.0 * 0.2) as u32, 24).total_ms();
        assert!(full - pruned > 100.0, "saved {}", full - pruned);
    }

    #[test]
    fn longer_answers_take_longer() {
        let m = InferenceLatencyModel::new(MllmConfig::qwen_omni_like());
        assert!(m.infer(768, 200).total_ms() > m.infer(768, 10).total_ms());
    }

    #[test]
    fn budget_never_goes_negative() {
        let m = InferenceLatencyModel::new(MllmConfig::generator_like());
        assert_eq!(m.remaining_transport_budget_ms(100.0, 10_000), 0.0);
    }
}
