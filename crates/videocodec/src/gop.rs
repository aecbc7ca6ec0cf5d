//! Group-of-pictures structure: which frames are intra-coded.
//!
//! Real-time encoders use periodic IDR frames (or intra refresh) so a receiver can join or
//! recover; the GOP length trades bitrate (intra frames are several times larger) against
//! recovery latency. The prototype runs one periodic GOP, Kvazaar's low-delay default
//! ballpark.

use crate::frame::FrameType;

/// Distance between intra frames, in frames: 2 s at 30 FPS, 1 s at 60 FPS. Frame 0 is
/// intra, then every `GOP_LENGTH`-th frame after it.
pub const GOP_LENGTH: u64 = 60;

/// The frame type of frame `index`.
pub fn frame_type(index: u64) -> FrameType {
    if index.is_multiple_of(GOP_LENGTH) {
        FrameType::Intra
    } else {
        FrameType::Inter
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn periodicity() {
        assert_eq!(frame_type(0), FrameType::Intra);
        assert_eq!(frame_type(1), FrameType::Inter);
        assert_eq!(frame_type(GOP_LENGTH - 1), FrameType::Inter);
        assert_eq!(frame_type(GOP_LENGTH), FrameType::Intra);
        assert_eq!(frame_type(GOP_LENGTH + 1), FrameType::Inter);
        assert_eq!(frame_type(3 * GOP_LENGTH), FrameType::Intra);
    }
}
