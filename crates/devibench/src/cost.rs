//! The money/time cost model behind Table 1.
//!
//! The paper reports that building DeViBench cost $68.47 and 99,471 s of wall-clock time for
//! 1,074 accepted samples over a 180,000 s corpus. The pipeline here tracks the same two
//! ledgers: API dollars (token-priced calls to the generator / filter / verifier models) and
//! wall-clock seconds (model latencies plus encoding time), so Table 1 can be regenerated
//! from first principles instead of being hard-coded.

/// Per-model token prices and per-call constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Generator price per 1k input tokens (USD).
    pub generator_input_per_1k: f64,
    /// Generator price per 1k output tokens (USD).
    pub generator_output_per_1k: f64,
    /// Filter price per 1k input tokens (USD).
    pub filter_input_per_1k: f64,
    /// Filter price per 1k output tokens (USD).
    pub filter_output_per_1k: f64,
    /// Verifier price per 1k input tokens (USD).
    pub verifier_input_per_1k: f64,
    /// Verifier price per 1k output tokens (USD).
    pub verifier_output_per_1k: f64,
    /// Wall-clock seconds of video encoding (transcode + concatenation) per second of
    /// source video (x265 at this resolution runs a bit faster than real time).
    pub encode_secs_per_video_sec: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        // Public list prices of comparable hosted models (USD per 1k tokens), rounded.
        Self {
            generator_input_per_1k: 0.002,
            generator_output_per_1k: 0.008,
            filter_input_per_1k: 0.0008,
            filter_output_per_1k: 0.002,
            verifier_input_per_1k: 0.0011,
            verifier_output_per_1k: 0.0028,
            encode_secs_per_video_sec: 0.35,
        }
    }
}

/// Accumulated cost ledger.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CostSummary {
    /// Input tokens consumed by the generator model.
    pub generator_input_tokens: u64,
    /// Output tokens produced by the generator model.
    pub generator_output_tokens: u64,
    /// Input tokens consumed by the filter model.
    pub filter_input_tokens: u64,
    /// Output tokens produced by the filter model.
    pub filter_output_tokens: u64,
    /// Input tokens consumed by the verifier model.
    pub verifier_input_tokens: u64,
    /// Output tokens produced by the verifier model.
    pub verifier_output_tokens: u64,
    /// Wall-clock seconds spent in model inference.
    pub inference_secs: f64,
    /// Wall-clock seconds spent encoding/transcoding video.
    pub encoding_secs: f64,
}

impl CostSummary {
    /// Total dollars under a price model.
    pub fn total_dollars(&self, prices: &CostModel) -> f64 {
        (self.generator_input_tokens as f64 * prices.generator_input_per_1k
            + self.generator_output_tokens as f64 * prices.generator_output_per_1k
            + self.filter_input_tokens as f64 * prices.filter_input_per_1k
            + self.filter_output_tokens as f64 * prices.filter_output_per_1k
            + self.verifier_input_tokens as f64 * prices.verifier_input_per_1k
            + self.verifier_output_tokens as f64 * prices.verifier_output_per_1k)
            / 1_000.0
    }

    /// Total wall-clock seconds.
    pub fn total_secs(&self) -> f64 {
        self.inference_secs + self.encoding_secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dollars_scale_with_tokens() {
        let prices = CostModel::default();
        let mut ledger = CostSummary {
            generator_output_tokens: 10_000,
            ..CostSummary::default()
        };
        assert!((ledger.total_dollars(&prices) - 0.08).abs() < 1e-9);
        ledger.generator_output_tokens *= 2;
        assert!((ledger.total_dollars(&prices) - 0.16).abs() < 1e-9);
    }

    #[test]
    fn empty_ledger_costs_nothing() {
        assert_eq!(CostSummary::default().total_dollars(&CostModel::default()), 0.0);
        assert_eq!(CostSummary::default().total_secs(), 0.0);
    }
}
