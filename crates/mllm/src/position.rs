//! Positional encoding over capture timestamps.
//!
//! §2.1, "Jitter has no impact": MLLMs order and time-reference frames via positional
//! encodings computed from the frames' *capture* timestamps, not from when packets happen to
//! arrive. This module provides that computation plus the invariance property the paper
//! leans on — two deliveries of the same frames with different arrival jitter produce
//! *identical* positional encodings, so the jitter buffer can be removed without changing
//! what the model perceives.

use aivc_videocodec::DecodedFrame;
use serde::{Deserialize, Serialize};

/// Positional encoding of one frame within a request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FramePosition {
    /// Ordinal position after sorting by capture time (0-based).
    pub order: u32,
    /// Capture time relative to the first frame in the request, in microseconds.
    pub relative_ts_us: u64,
    /// The rotary-style phase angle derived from the relative timestamp (radians, wrapped).
    pub phase: f64,
}

/// Computes positional encodings for a set of decoded frames.
///
/// Frames are ordered by capture timestamp; arrival times (`received_at_us`) are ignored by
/// construction. The phase uses a 1 Hz base frequency: φ = 2π · t_seconds mod 2π.
pub fn positional_encoding(frames: &[DecodedFrame]) -> Vec<FramePosition> {
    let mut order: Vec<usize> = (0..frames.len()).collect();
    order.sort_by_key(|&i| frames[i].capture_ts_us);
    let Some(&first_idx) = order.first() else {
        return Vec::new();
    };
    let t0 = frames[first_idx].capture_ts_us;
    let mut positions = vec![
        FramePosition {
            order: 0,
            relative_ts_us: 0,
            phase: 0.0
        };
        frames.len()
    ];
    for (rank, &idx) in order.iter().enumerate() {
        let rel = frames[idx].capture_ts_us - t0;
        let seconds = rel as f64 / 1e6;
        positions[idx] = FramePosition {
            order: rank as u32,
            relative_ts_us: rel,
            phase: (2.0 * std::f64::consts::PI * seconds) % (2.0 * std::f64::consts::PI),
        };
    }
    positions
}

#[cfg(test)]
mod tests {
    use super::*;
    use aivc_videocodec::{DecodedFrame, FrameType};

    fn frame(capture_ts_us: u64, received_at_us: Option<u64>) -> DecodedFrame {
        DecodedFrame {
            frame_index: capture_ts_us / 500_000,
            capture_ts_us,
            received_at_us,
            frame_type: FrameType::Inter,
            width: 64,
            height: 64,
            block_size: 64,
            ..DecodedFrame::placeholder()
        }
    }

    #[test]
    fn ordering_follows_capture_time() {
        let frames = vec![frame(1_000_000, None), frame(0, None), frame(500_000, None)];
        let pos = positional_encoding(&frames);
        assert_eq!(pos[0].order, 2);
        assert_eq!(pos[1].order, 0);
        assert_eq!(pos[2].order, 1);
        assert_eq!(pos[1].relative_ts_us, 0);
        assert_eq!(pos[0].relative_ts_us, 1_000_000);
    }

    #[test]
    fn jitter_in_arrival_times_does_not_change_encoding() {
        // Same capture times, wildly different arrival times (jitter + reordering).
        let smooth = vec![
            frame(0, Some(40_000)),
            frame(500_000, Some(540_000)),
            frame(1_000_000, Some(1_040_000)),
        ];
        let jittery = vec![
            frame(0, Some(310_000)),
            frame(500_000, Some(512_345)),
            frame(1_000_000, Some(1_900_000)),
        ];
        assert_eq!(positional_encoding(&smooth), positional_encoding(&jittery));
    }

    #[test]
    fn phase_wraps_every_second() {
        let frames = vec![frame(0, None), frame(250_000, None), frame(1_000_000, None)];
        let pos = positional_encoding(&frames);
        assert!((pos[1].phase - std::f64::consts::FRAC_PI_2).abs() < 1e-9);
        assert!(
            pos[2].phase.abs() < 1e-9,
            "full second wraps to 0, got {}",
            pos[2].phase
        );
    }

    #[test]
    fn empty_input_gives_empty_output() {
        assert!(positional_encoding(&[]).is_empty());
    }
}
