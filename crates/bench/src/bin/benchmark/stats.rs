//! Estimators and the report digest.
//!
//! The box has two speed states that flip on a seconds scale (README §"Noise model"),
//! so wall-clock figures are *fast-state* estimates: a low nearest-rank quantile over
//! rounds that all do the same work. Medians and high quantiles are reported beside
//! them as per-layer diagnostics only.

/// Nearest-rank quantile of `samples` (`q` in `(0, 1]`): the smallest sample such that at
/// least `q` of the samples are less than or equal to it — rank `ceil(q · n)`, 1-based.
/// Always an observed value, never interpolated. `None` on an empty slice.
pub fn nearest_rank(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// The quantile every gated wall-clock metric uses.
pub const FAST_STATE_QUANTILE: f64 = 0.10;

/// FNV-1a (64-bit) over a byte stream: the `report_digest` of a workload is this hash of
/// every serialized report of its fixed block, in order. Not cryptographic — it only has
/// to make "same simulated outputs" a one-word comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self::new()
    }
}

impl Digest {
    /// The empty-stream digest.
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` in.
    pub fn update(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest as 16 hex digits.
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// SplitMix64: derives the independent sub-seeds (scene, schedule, network) of a run
/// from the one `--seed`.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_returns_observed_values_at_the_documented_ranks() {
        let s = [50.0, 10.0, 40.0, 20.0, 30.0, 60.0, 70.0, 80.0, 90.0, 100.0];
        assert_eq!(nearest_rank(&s, 0.10), Some(10.0)); // ceil(1.0) = rank 1
        assert_eq!(nearest_rank(&s, 0.11), Some(20.0)); // ceil(1.1) = rank 2
        assert_eq!(nearest_rank(&s, 0.50), Some(50.0));
        assert_eq!(nearest_rank(&s, 0.99), Some(100.0));
        assert_eq!(nearest_rank(&s, 1.0), Some(100.0));
        // Small samples: p10 of fewer than ten values is the minimum.
        assert_eq!(nearest_rank(&[3.0, 1.0, 2.0], 0.10), Some(1.0));
        assert_eq!(nearest_rank(&[7.5], 0.10), Some(7.5));
        assert_eq!(nearest_rank(&[], 0.10), None);
    }

    #[test]
    fn digest_depends_on_content_and_order() {
        let hash = |parts: &[&str]| {
            let mut d = Digest::new();
            for p in parts {
                d.update(p.as_bytes());
            }
            d
        };
        assert_eq!(hash(&["ab", "c"]), hash(&["a", "bc"]));
        assert_ne!(hash(&["abc"]), hash(&["acb"]));
        assert_eq!(Digest::new().hex(), "cbf29ce484222325");
        assert_eq!(hash(&["a"]).hex(), "af63dc4c8601ec8c"); // FNV-1a reference vector
    }

    #[test]
    fn splitmix_streams_differ_by_seed_and_repeat_for_the_same_seed() {
        let (mut a, mut b, mut c) = (1u64, 1u64, 2u64);
        let (xa, xb, xc) = (splitmix64(&mut a), splitmix64(&mut b), splitmix64(&mut c));
        assert_eq!(xa, xb);
        assert_ne!(xa, xc);
        assert_ne!(splitmix64(&mut a), xa);
    }
}
