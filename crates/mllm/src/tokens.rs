//! Vision tokenization and the context-length budget.
//!
//! MLLMs convert each (downsampled) frame into visual tokens — continuous embeddings, one
//! per pixel patch — and the context length bounds how many tokens (and therefore frames)
//! fit into one request (§2.1). Token counts also drive prefill latency, so the token
//! accounting here feeds [`crate::latency::InferenceLatencyModel`] and the §4 token-pruning
//! discussion.

use crate::config::MllmConfig;

/// Converts frames/pixels into visual tokens and enforces the context budget.
#[derive(Debug, Clone, Copy)]
pub struct VisionTokenizer {
    pixels_per_token: u32,
    budget: u32,
}

impl VisionTokenizer {
    /// Creates a tokenizer from the model configuration.
    pub fn new(config: &MllmConfig) -> Self {
        Self {
            pixels_per_token: config.pixels_per_token,
            budget: config.visual_token_budget,
        }
    }

    /// Tokens produced by one frame of `pixels` pixels (at least 1).
    pub fn tokens_for_pixels(&self, pixels: u64) -> u32 {
        ((pixels as f64 / self.pixels_per_token as f64).ceil() as u32).max(1)
    }

    /// Tokens produced by `frames` frames of `pixels_each` pixels, truncated to the budget.
    ///
    /// Returns `(tokens_used, frames_kept)`: when the budget is exceeded the *oldest* frames
    /// are dropped first (models keep the most recent context), mirroring how streaming MLLM
    /// systems manage their windows.
    pub fn tokens_for_frames(&self, frames: usize, pixels_each: u64) -> (u32, usize) {
        let per_frame = self.tokens_for_pixels(pixels_each);
        let max_frames = (self.budget / per_frame).max(1) as usize;
        let kept = frames.min(max_frames);
        (per_frame * kept as u32, kept)
    }

    /// The visual-token budget.
    pub fn budget(&self) -> u32 {
        self.budget
    }

    /// Applies a token-pruning ratio (the §4 "context-aware token pruning" discussion):
    /// returns the token count after dropping `prune_fraction` of the visual tokens.
    pub fn pruned(&self, tokens: u32, prune_fraction: f64) -> u32 {
        let keep = 1.0 - prune_fraction.clamp(0.0, 1.0);
        ((tokens as f64 * keep).round() as u32).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qwen_like_1080p_downsampled_frame_is_hundreds_of_tokens() {
        let t = VisionTokenizer::new(&MllmConfig::qwen_omni_like());
        // 602,112 pixels at 28x28 per token = 768 tokens.
        assert_eq!(t.tokens_for_pixels(602_112), 768);
    }

    #[test]
    fn tokens_scale_with_pixels() {
        let t = VisionTokenizer::new(&MllmConfig::qwen_omni_like());
        assert!(t.tokens_for_pixels(1_000_000) > t.tokens_for_pixels(100_000));
        assert_eq!(t.tokens_for_pixels(1), 1);
    }

    #[test]
    fn budget_truncates_oldest_frames() {
        let t = VisionTokenizer::new(&MllmConfig {
            visual_token_budget: 2_000,
            ..MllmConfig::qwen_omni_like()
        });
        // Each 602k-pixel frame is 768 tokens, so only 2 frames fit a 2000-token budget.
        let (tokens, kept) = t.tokens_for_frames(10, 602_112);
        assert_eq!(kept, 2);
        assert!(tokens <= 2_000);
    }

    #[test]
    fn small_requests_fit_entirely() {
        let t = VisionTokenizer::new(&MllmConfig::qwen_omni_like());
        let (tokens, kept) = t.tokens_for_frames(4, 602_112);
        assert_eq!(kept, 4);
        assert_eq!(tokens, 4 * 768);
    }

    #[test]
    fn pruning_reduces_tokens_but_never_to_zero() {
        let t = VisionTokenizer::new(&MllmConfig::qwen_omni_like());
        assert_eq!(t.pruned(1000, 0.8), 200);
        assert_eq!(t.pruned(1000, 1.0), 1);
        assert_eq!(t.pruned(1000, 0.0), 1000);
    }
}
