//! Statistics collectors used across the emulator and the experiment harness.

use aivc_sim::SimDuration;

/// Jain's fairness index over per-flow allocations: `(Σx)² / (k·Σx²)`.
///
/// Ranges over `[1/k, 1]` for non-negative inputs — 1 when every flow gets the same
/// share, `1/k` when a single flow takes everything. Degenerate inputs (no flows, or
/// all-zero allocations where no flow is being treated worse than another) report 1.0,
/// the "nothing unfair happened" reading.
pub fn jain_index(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    let sum: f64 = values.iter().sum();
    let sum_sq: f64 = values.iter().map(|v| v * v).sum();
    if sum_sq <= 0.0 {
        return 1.0;
    }
    (sum * sum) / (values.len() as f64 * sum_sq)
}

/// Latency sample collector with exact percentiles.
///
/// Stores every sample (in milliseconds); the experiment runs here are short enough
/// (hundreds of thousands of frames) that exact percentiles are affordable and make the
/// reproduced figures easier to reason about than approximate sketches would.
#[derive(Debug, Clone, Default)]
pub struct LatencyStats {
    samples_ms: Vec<f64>,
    sorted: bool,
}

impl LatencyStats {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forgets all samples, keeping the buffer's capacity — turns a long-lived collector
    /// into an allocation-free scratch for per-window percentiles.
    pub fn clear(&mut self) {
        self.samples_ms.clear();
        self.sorted = false;
    }

    /// Records a latency sample.
    pub fn record(&mut self, latency: SimDuration) {
        self.samples_ms.push(latency.as_millis_f64());
        self.sorted = false;
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples_ms.len()
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples_ms.is_empty()
    }

    /// Mean latency in milliseconds.
    pub fn mean_ms(&self) -> f64 {
        if self.samples_ms.is_empty() {
            return 0.0;
        }
        self.samples_ms.iter().sum::<f64>() / self.samples_ms.len() as f64
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
            self.sorted = true;
        }
    }

    /// The `q`-quantile (nearest-rank), `q` in `[0, 1]`, in milliseconds.
    pub fn percentile_ms(&mut self, q: f64) -> f64 {
        if self.samples_ms.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let q = q.clamp(0.0, 1.0);
        let idx = ((self.samples_ms.len() as f64 - 1.0) * q).round() as usize;
        self.samples_ms[idx]
    }

    /// 95th-percentile latency in milliseconds.
    pub fn p95_ms(&mut self) -> f64 {
        self.percentile_ms(0.95)
    }

    /// 99th-percentile latency in milliseconds.
    pub fn p99_ms(&mut self) -> f64 {
        self.percentile_ms(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_percentiles() {
        let mut l = LatencyStats::new();
        for i in 1..=100u64 {
            l.record(SimDuration::from_millis(i));
        }
        assert_eq!(l.count(), 100);
        assert!((l.percentile_ms(0.5) - 50.0).abs() <= 1.0);
        assert!((l.p95_ms() - 95.0).abs() <= 1.0);
        assert!((l.p99_ms() - 99.0).abs() <= 1.0);
        assert!((l.mean_ms() - 50.5).abs() < 1e-9);
        assert_eq!(l.percentile_ms(1.0), 100.0);
    }

    #[test]
    fn percentile_after_interleaved_records() {
        let mut l = LatencyStats::new();
        l.record(SimDuration::from_millis(10));
        let _ = l.percentile_ms(0.5);
        l.record(SimDuration::from_millis(1000));
        assert!(l.p99_ms() >= 999.0);
    }

    #[test]
    fn jain_index_known_values() {
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0.0, 0.0, 0.0]), 1.0);
        assert!((jain_index(&[5.0, 5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
        // One hog among four flows: exactly 1/k.
        assert!((jain_index(&[8.0, 0.0, 0.0, 0.0]) - 0.25).abs() < 1e-12);
        // Textbook example: (1+2+3)^2 / (3 * (1+4+9)) = 36/42.
        assert!((jain_index(&[1.0, 2.0, 3.0]) - 36.0 / 42.0).abs() < 1e-12);
    }

    #[test]
    fn empty_latency_stats_are_zero() {
        let mut l = LatencyStats::new();
        assert_eq!(l.percentile_ms(0.5), 0.0);
        assert_eq!(l.mean_ms(), 0.0);
        assert!(l.is_empty());
    }
}
