//! The jitter buffer — and why AI receivers can delete it.
//!
//! Traditional RTC delays every frame by a target amount so that playback proceeds at a
//! smooth cadence despite network jitter (§2.1, [47]). An MLLM receiver does not play the
//! video back in real time: its perception of time comes from capture timestamps, so frames
//! can be forwarded the instant they are complete. [`JitterBuffer`] implements the
//! traditional behaviour (adaptive target delay based on observed jitter); "AI mode" is
//! simply a zero-delay configuration, and the jitter-buffer-removal ablation quantifies the
//! latency saved.

use aivc_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Jitter-buffer configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JitterBufferConfig {
    /// Fixed minimum buffering delay.
    pub min_delay: SimDuration,
    /// Maximum buffering delay the adaptive logic may reach.
    pub max_delay: SimDuration,
    /// How many standard deviations of inter-arrival jitter to absorb.
    pub jitter_multiplier: f64,
}

impl JitterBufferConfig {
    /// A typical conversational-video jitter buffer (10–200 ms adaptive).
    pub fn traditional() -> Self {
        Self {
            min_delay: SimDuration::from_millis(10),
            max_delay: SimDuration::from_millis(200),
            jitter_multiplier: 3.0,
        }
    }

    /// The AI Video Chat setting: no buffering at all (§2.1).
    pub fn disabled() -> Self {
        Self {
            min_delay: SimDuration::ZERO,
            max_delay: SimDuration::ZERO,
            jitter_multiplier: 0.0,
        }
    }
}

/// An adaptive jitter buffer.
#[derive(Debug, Clone)]
pub struct JitterBuffer {
    config: JitterBufferConfig,
    /// Exponentially weighted mean of |inter-arrival − inter-capture| in microseconds.
    jitter_estimate_us: f64,
    last_arrival: Option<(SimTime, u64)>,
}

impl JitterBuffer {
    /// Creates a buffer.
    pub fn new(config: JitterBufferConfig) -> Self {
        Self {
            config,
            jitter_estimate_us: 0.0,
            last_arrival: None,
        }
    }

    /// Whether the buffer is a no-op (AI mode).
    fn is_disabled(&self) -> bool {
        self.config.max_delay == SimDuration::ZERO
    }

    /// Current adaptive target delay.
    fn target_delay(&self) -> SimDuration {
        if self.is_disabled() {
            return SimDuration::ZERO;
        }
        let adaptive =
            SimDuration::from_micros((self.jitter_estimate_us * self.config.jitter_multiplier) as u64);
        adaptive.max(self.config.min_delay).min(self.config.max_delay)
    }

    /// Observes a completed frame (arrival + capture time) and returns the time at which the
    /// receiver releases it downstream (to the renderer, or to the MLLM).
    pub fn on_frame(&mut self, arrival: SimTime, capture_ts_us: u64) -> SimTime {
        if let Some((prev_arrival, prev_capture)) = self.last_arrival {
            let inter_arrival = arrival.saturating_since(prev_arrival).as_micros() as f64;
            let inter_capture = capture_ts_us.saturating_sub(prev_capture) as f64;
            let jitter = (inter_arrival - inter_capture).abs();
            // RFC 3550-style EWMA (1/16 gain).
            self.jitter_estimate_us += (jitter - self.jitter_estimate_us) / 16.0;
        }
        self.last_arrival = Some((arrival, capture_ts_us));
        arrival + self.target_delay()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_buffer_releases_immediately() {
        let mut jb = JitterBuffer::new(JitterBufferConfig::disabled());
        assert!(jb.is_disabled());
        for i in 0..50u64 {
            let arrival = SimTime::from_millis(33 * i + (i % 7) * 5);
            assert_eq!(jb.on_frame(arrival, i * 33_333), arrival);
        }
        assert_eq!(jb.target_delay(), SimDuration::ZERO);
    }

    #[test]
    fn smooth_arrivals_keep_delay_at_minimum() {
        let mut jb = JitterBuffer::new(JitterBufferConfig::traditional());
        for i in 0..100u64 {
            jb.on_frame(SimTime::from_micros(i * 33_333 + 40_000), i * 33_333);
        }
        assert_eq!(jb.target_delay(), SimDuration::from_millis(10));
        assert!(jb.jitter_estimate_us < 200.0);
    }

    #[test]
    fn jittery_arrivals_grow_the_delay() {
        let mut jb = JitterBuffer::new(JitterBufferConfig::traditional());
        // Alternate early/late arrivals by ±20 ms.
        for i in 0..200u64 {
            let noise: i64 = if i % 2 == 0 { 20_000 } else { -20_000 };
            let arrival = (i as i64 * 33_333 + 40_000 + noise) as u64;
            jb.on_frame(SimTime::from_micros(arrival), i * 33_333);
        }
        assert!(jb.target_delay() > SimDuration::from_millis(50));
        assert!(jb.target_delay() <= SimDuration::from_millis(200));
    }

    #[test]
    fn release_time_adds_target_delay() {
        let mut jb = JitterBuffer::new(JitterBufferConfig::traditional());
        let release = jb.on_frame(SimTime::from_millis(100), 0);
        assert!(release >= SimTime::from_millis(110));
    }

    #[test]
    fn delay_is_capped_at_max() {
        let mut jb = JitterBuffer::new(JitterBufferConfig::traditional());
        for i in 0..100u64 {
            let noise: i64 = if i % 2 == 0 { 400_000 } else { -400_000 };
            let arrival = (i as i64 * 33_333 + 500_000 + noise).max(0) as u64;
            jb.on_frame(SimTime::from_micros(arrival), i * 33_333);
        }
        assert_eq!(jb.target_delay(), SimDuration::from_millis(200));
    }
}
