//! Video sources: turn a static [`Scene`] into a stream of timestamped [`Frame`]s.
//!
//! The paper's capture side runs at the camera's native rate (e.g. 60 FPS, §3.2) while the
//! MLLM consumes at most 2 FPS — the sampling mismatch illustrated in Figure 2. The source
//! therefore exposes both an iterator over all captured frames and random access by time,
//! so the MLLM-side sampler can pick its own (sparser) instants.

use crate::frame::{shared_content, Frame, SharedContent};
use crate::scene::Scene;

/// Configuration of a capture source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SourceConfig {
    /// Capture frame rate in frames per second.
    pub fps: f64,
    /// Clip duration in seconds.
    pub duration_secs: f64,
}

impl SourceConfig {
    /// A 30 FPS source (typical RTC camera).
    pub fn fps30(duration_secs: f64) -> Self {
        Self {
            fps: 30.0,
            duration_secs,
        }
    }

    /// Number of frames the clip contains.
    pub fn frame_count(&self) -> u64 {
        (self.fps * self.duration_secs).floor() as u64
    }

    /// Frame interval in microseconds.
    pub fn frame_interval_us(&self) -> u64 {
        (1_000_000.0 / self.fps).round() as u64
    }
}

/// A deterministic video source sampling a [`Scene`].
///
/// The scene's objects and background concepts are copied once, here, and every frame
/// the source produces holds handles to that copy.
#[derive(Debug, Clone)]
pub struct VideoSource {
    scene: Scene,
    shared: SharedContent,
    config: SourceConfig,
}

impl VideoSource {
    /// Creates a source for a scene.
    pub fn new(scene: Scene, config: SourceConfig) -> Self {
        assert!(config.fps > 0.0, "fps must be positive");
        assert!(config.duration_secs > 0.0, "duration must be positive");
        Self {
            shared: shared_content(&scene),
            scene,
            config,
        }
    }

    /// The underlying scene.
    pub fn scene(&self) -> &Scene {
        &self.scene
    }

    /// The source configuration.
    pub fn config(&self) -> SourceConfig {
        self.config
    }

    /// Number of frames this source will produce.
    pub fn frame_count(&self) -> u64 {
        self.config.frame_count()
    }

    /// Duration in seconds.
    pub fn duration_secs(&self) -> f64 {
        self.config.duration_secs
    }

    /// Capture timestamp (µs) of frame `index`.
    fn timestamp_us(&self, index: u64) -> u64 {
        (index as f64 * 1_000_000.0 / self.config.fps).round() as u64
    }

    /// Produces the frame with the given index.
    pub fn frame(&self, index: u64) -> Frame {
        let ts = self.timestamp_us(index);
        Frame::sample_shared(&self.scene, &self.shared, index, ts, ts as f64 / 1e6)
    }

    /// Produces the frame nearest to time `t_secs`.
    pub fn frame_at(&self, t_secs: f64) -> Frame {
        let index = ((t_secs * self.config.fps).round() as u64).min(self.frame_count().saturating_sub(1));
        self.frame(index)
    }

    /// What a camera running at `fps` films in the `secs` seconds from `start_secs` on: one
    /// frame per `1 / fps` (at least one), each the clip's nearest, wrapping at the clip's
    /// end — so a long run can be cut into consecutive windows of a short clip.
    pub fn window(&self, start_secs: f64, secs: f64, fps: f64) -> Vec<Frame> {
        let count = (secs * fps).floor().max(1.0) as usize;
        (0..count)
            .map(|i| self.frame_at((start_secs + i as f64 / fps) % self.duration_secs()))
            .collect()
    }

    /// Up to `max_frames` frames spread uniformly over the clip, starting at frame 0 — the
    /// handful of instants an offline evaluation shows the MLLM (it only consumes ~2 FPS
    /// anyway, §2.1).
    pub fn sample_frames(&self, max_frames: usize) -> Vec<Frame> {
        assert!(max_frames > 0, "must sample at least one frame");
        let total = self.frame_count().max(1);
        let step = (total as f64 / max_frames as f64).max(1.0);
        let mut out = Vec::new();
        let mut i = 0.0;
        while (i as u64) < total && out.len() < max_frames {
            out.push(self.frame(i as u64));
            i += step;
        }
        out
    }

    /// Iterates over every captured frame, in order.
    pub fn frames(&self) -> FrameIter<'_> {
        FrameIter {
            source: self,
            next: 0,
        }
    }
}

/// Iterator over a source's frames.
pub struct FrameIter<'a> {
    source: &'a VideoSource,
    next: u64,
}

impl Iterator for FrameIter<'_> {
    type Item = Frame;

    fn next(&mut self) -> Option<Frame> {
        if self.next >= self.source.frame_count() {
            return None;
        }
        let f = self.source.frame(self.next);
        self.next += 1;
        Some(f)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.source.frame_count() - self.next) as usize;
        (left, Some(left))
    }
}

impl ExactSizeIterator for FrameIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Rect;
    use crate::object::SceneObject;

    fn source() -> VideoSource {
        let mut s = Scene::new("t", 640, 480);
        s.add_object(SceneObject::new(1, "ball", Rect::new(0, 0, 64, 64)).with_motion(0.9, (120.0, 60.0)));
        VideoSource::new(s, SourceConfig::fps30(2.0))
    }

    #[test]
    fn frame_count_and_timestamps() {
        let src = source();
        assert_eq!(src.frame_count(), 60);
        assert_eq!(src.timestamp_us(0), 0);
        assert_eq!(src.timestamp_us(30), 1_000_000);
        assert_eq!(src.frames().len(), 60);
    }

    #[test]
    fn frames_are_monotone_in_time() {
        let src = source();
        let frames: Vec<_> = src.frames().collect();
        assert!(frames.windows(2).all(|w| w[0].capture_ts_us < w[1].capture_ts_us));
        assert_eq!(frames.last().unwrap().index, 59);
    }

    #[test]
    fn moving_object_changes_position_between_frames() {
        let src = source();
        let first = src.frame(0);
        let later = src.frame(45);
        assert_ne!(
            first.placement(1).unwrap().region,
            later.placement(1).unwrap().region
        );
    }

    #[test]
    fn window_steps_at_its_own_rate_and_wraps() {
        let src = source(); // 30 FPS, 2 s
        let indices = |w: Vec<Frame>| w.iter().map(|f| f.index).collect::<Vec<_>>();
        assert_eq!(indices(src.window(0.0, 0.4, 10.0)), [0, 3, 6, 9]);
        assert_eq!(indices(src.window(1.9, 0.3, 10.0)), [57, 0, 3]);
        assert_eq!(indices(src.window(4.0, 0.0, 30.0)), [0]);
    }

    #[test]
    fn sample_frames_spread_over_the_clip_and_cap_at_its_length() {
        let src = source(); // 60 frames
        let indices = |frames: Vec<Frame>| frames.iter().map(|f| f.index).collect::<Vec<_>>();
        assert_eq!(indices(src.sample_frames(5)), [0, 12, 24, 36, 48]);
        assert_eq!(indices(src.sample_frames(1)), [0]);
        assert_eq!(src.sample_frames(1000).len(), 60);
    }

    #[test]
    fn frames_share_the_scene_and_sharing_is_invisible() {
        use std::sync::Arc;
        let src = source();
        let (a, b) = (src.frame(3), src.frame(40));
        assert!(Arc::ptr_eq(&a.objects, &b.objects));
        assert!(Arc::ptr_eq(&a.background_concepts, &b.background_concepts));
        // The two entry points give one value.
        let ts = src.timestamp_us(3);
        assert_eq!(Frame::sample(src.scene(), 3, ts, ts as f64 / 1e6), a);
        // An edit copies on write: neither the sibling nor a later capture sees it.
        let mut edited = a.clone();
        Arc::make_mut(&mut edited.objects)[0].texture_complexity = 0.123;
        assert_ne!(edited, a);
        assert!(!Arc::ptr_eq(&edited.objects, &b.objects));
        assert_eq!(b.objects[0], src.scene().objects[0]);
        assert_eq!(src.frame(3), a);
    }

    #[test]
    fn frame_at_clamps_to_clip_end() {
        let src = source();
        assert_eq!(src.frame_at(100.0).index, 59);
        assert_eq!(src.frame_at(0.0).index, 0);
    }

    #[test]
    fn sixty_fps_config_counts_and_spaces_frames() {
        let c = SourceConfig {
            fps: 60.0,
            duration_secs: 1.0,
        };
        assert_eq!(c.frame_count(), 60);
        assert_eq!(c.frame_interval_us(), 16_667);
    }
}
