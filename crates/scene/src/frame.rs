//! Frames: time-sampled views of a scene, queried region-by-region.
//!
//! A [`Frame`] does not hold pixels. It holds the object layout at a capture instant and
//! exposes [`Frame::region_content`]: given any pixel rectangle, it reports the spatial
//! complexity, motion and object coverage of that region. The codec simulator queries it
//! per CTU; the CLIP-like patch encoder queries it per patch; the MLLM accuracy model
//! queries it per evidence region. All consumers therefore observe a mutually consistent
//! content model.

use crate::concept::Concept;
use crate::geometry::{GridDims, Rect};
use crate::object::SceneObject;
use crate::scene::Scene;
use std::sync::Arc;

/// Per-object layout at a capture instant.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectPlacement {
    /// The object id (refers back into the scene).
    pub object_id: u32,
    /// Where the object is at this frame's capture time.
    pub region: Rect,
}

/// Aggregated content descriptor for an arbitrary pixel region of a frame.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionContent {
    /// Area-weighted spatial complexity in `[0, 1]`.
    pub complexity: f64,
    /// Area-weighted motion magnitude in `[0, 1]`.
    pub motion: f64,
    /// Area-weighted fine-detail level in `[0, 1]`.
    pub detail: f64,
    /// Coverage of the region by each overlapping object: `(object_id, fraction)` with
    /// fractions in `[0, 1]` relative to the region's own area.
    pub object_coverage: Vec<(u32, f64)>,
    /// Fraction of the region that is background (no object).
    pub background_fraction: f64,
}

impl RegionContent {
    /// An all-background descriptor, the natural initial state for reusable buffers passed
    /// to [`Frame::region_content_into`].
    pub fn empty() -> Self {
        Self {
            complexity: 0.0,
            motion: 0.0,
            detail: 0.0,
            object_coverage: Vec::new(),
            background_fraction: 1.0,
        }
    }
}

/// What a frame shares with its scene's other frames: the objects and the background
/// concepts, in that order.
pub(crate) type SharedContent = (Arc<[SceneObject]>, Arc<[(Concept, f64)]>);

/// One copy of `scene`'s [`SharedContent`].
pub(crate) fn shared_content(scene: &Scene) -> SharedContent {
    (
        scene.objects.as_slice().into(),
        scene.background_concepts.as_slice().into(),
    )
}

/// A captured frame: object layout plus references to scene-wide content parameters.
///
/// Only `placements` is the frame's own; the objects and background concepts are handles
/// to one immutable copy per source, so a clone costs the placements and two reference
/// counts. Editing them (`Arc::make_mut`) copies on write and reaches no other frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Sequential frame index within its clip (0-based).
    pub index: u64,
    /// Capture timestamp in microseconds since the start of the clip.
    ///
    /// MLLM positional encoding uses this value, *not* the network arrival time — which is
    /// exactly why jitter does not affect MLLM perception (§2.1).
    pub capture_ts_us: u64,
    /// Frame width in pixels.
    pub width: u32,
    /// Frame height in pixels.
    pub height: u32,
    /// Background complexity copied from the scene.
    pub background_complexity: f64,
    /// Background motion copied from the scene.
    pub background_motion: f64,
    /// Background concepts (shared with every frame of its source).
    pub background_concepts: Arc<[(Concept, f64)]>,
    /// Snapshot of every object's placement at the capture time.
    pub placements: Vec<ObjectPlacement>,
    /// Full object descriptions (shared with every frame of its source).
    pub objects: Arc<[SceneObject]>,
}

impl Frame {
    /// Samples `scene` at `t_secs`, producing the frame with the given index and timestamp.
    ///
    /// The frame gets handles of its own to a copy of the scene's objects; a
    /// [`VideoSource`](crate::VideoSource) makes that copy once and shares it.
    pub fn sample(scene: &Scene, index: u64, capture_ts_us: u64, t_secs: f64) -> Self {
        Self::sample_shared(scene, &shared_content(scene), index, capture_ts_us, t_secs)
    }

    /// [`Frame::sample`] with `shared` = `scene`'s objects and background concepts, whose
    /// handles the frame clones instead of copying the content.
    pub(crate) fn sample_shared(
        scene: &Scene,
        shared: &SharedContent,
        index: u64,
        capture_ts_us: u64,
        t_secs: f64,
    ) -> Self {
        let (objects, background_concepts) = shared;
        let placements = objects
            .iter()
            .map(|o| ObjectPlacement {
                object_id: o.id,
                region: o.region_at(t_secs, scene.width, scene.height),
            })
            .collect();
        Frame {
            index,
            capture_ts_us,
            width: scene.width,
            height: scene.height,
            background_complexity: scene.background_complexity,
            background_motion: scene.background_motion,
            background_concepts: Arc::clone(background_concepts),
            placements,
            objects: Arc::clone(objects),
        }
    }

    /// The full-frame rectangle.
    pub fn rect(&self) -> Rect {
        Rect::new(0, 0, self.width, self.height)
    }

    /// Looks up an object description carried by this frame.
    pub fn object(&self, id: u32) -> Option<&SceneObject> {
        self.objects.iter().find(|o| o.id == id)
    }

    /// The placement of an object at this frame's capture time.
    pub fn placement(&self, id: u32) -> Option<&ObjectPlacement> {
        self.placements.iter().find(|p| p.object_id == id)
    }

    /// Computes the aggregated content descriptor for an arbitrary region.
    ///
    /// Complexity/motion/detail are the area-weighted mixture of background and overlapping
    /// objects. Overlap between objects is resolved additively then clamped — good enough
    /// for the block-level R-D and perception models that consume it.
    pub fn region_content(&self, region: &Rect) -> RegionContent {
        let mut out = RegionContent {
            complexity: 0.0,
            motion: 0.0,
            detail: 0.0,
            object_coverage: Vec::new(),
            background_fraction: 1.0,
        };
        self.region_content_into(region, &mut out);
        out
    }

    /// [`Frame::region_content`] into a caller-owned buffer, so per-block/per-patch loops
    /// (the encoder's CTU walk, the CLIP patch walk) stay allocation-free after warmup.
    pub fn region_content_into(&self, region: &Rect, out: &mut RegionContent) {
        out.object_coverage.clear();
        let region = region.intersect(&self.rect());
        if region.is_empty() {
            out.complexity = 0.0;
            out.motion = 0.0;
            out.detail = 0.0;
            out.background_fraction = 1.0;
            return;
        }
        let mut covered_total = 0.0_f64;
        let mut complexity = 0.0_f64;
        let mut motion = 0.0_f64;
        let mut detail = 0.0_f64;
        for placement in &self.placements {
            let frac = region.coverage_by(&placement.region);
            if frac <= 0.0 {
                continue;
            }
            let Some(obj) = self.object(placement.object_id) else {
                continue;
            };
            out.object_coverage.push((placement.object_id, frac));
            covered_total += frac;
            complexity += frac * obj.texture_complexity;
            motion += frac * obj.motion;
            detail += frac * obj.detail;
        }
        let covered = covered_total.min(1.0);
        let background_fraction = (1.0 - covered).max(0.0);
        complexity += background_fraction * self.background_complexity;
        motion += background_fraction * self.background_motion;
        // Background carries essentially no chat-relevant detail.
        out.complexity = complexity.clamp(0.0, 1.0);
        out.motion = motion.clamp(0.0, 1.0);
        out.detail = detail.clamp(0.0, 1.0);
        out.background_fraction = background_fraction;
    }

    /// Computes [`RegionContent`] for every cell of a regular grid (row-major order).
    pub fn grid_content(&self, cell: u32) -> (GridDims, Vec<RegionContent>) {
        let dims = GridDims::for_frame(self.width, self.height, cell);
        let mut out = Vec::with_capacity(dims.len());
        for row in 0..dims.rows {
            for col in 0..dims.cols {
                let rect = dims.cell_rect(row, col, self.width, self.height);
                out.push(self.region_content(&rect));
            }
        }
        (dims, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Coverage fraction of `object_id` in a region's content (0 when absent).
    fn coverage_of(content: &RegionContent, object_id: u32) -> f64 {
        content
            .object_coverage
            .iter()
            .find(|(id, _)| *id == object_id)
            .map_or(0.0, |(_, f)| *f)
    }

    fn test_scene() -> Scene {
        let mut s = Scene::new("t", 640, 480).with_background(0.2, 0.1, vec![(Concept::new("court"), 1.0)]);
        s.add_object(
            SceneObject::new(1, "scoreboard", Rect::new(0, 0, 320, 240))
                .with_concept("scoreboard", 1.0)
                .with_detail(0.9)
                .with_texture(0.8),
        );
        s.add_object(
            SceneObject::new(2, "player", Rect::new(320, 240, 320, 240))
                .with_concept("player", 1.0)
                .with_detail(0.3)
                .with_texture(0.5)
                .with_motion(0.7, (0.0, 0.0)),
        );
        s
    }

    #[test]
    fn full_coverage_region_matches_object() {
        let f = Frame::sample(&test_scene(), 0, 0, 0.0);
        let c = f.region_content(&Rect::new(0, 0, 320, 240));
        assert!((coverage_of(&c, 1) - 1.0).abs() < 1e-12);
        assert!((c.complexity - 0.8).abs() < 1e-9);
        assert!((c.detail - 0.9).abs() < 1e-9);
        assert!(c.background_fraction.abs() < 1e-12);
    }

    #[test]
    fn background_only_region() {
        let f = Frame::sample(&test_scene(), 0, 0, 0.0);
        let c = f.region_content(&Rect::new(320, 0, 320, 240));
        assert!(c.object_coverage.is_empty());
        assert!((c.complexity - 0.2).abs() < 1e-9);
        assert!((c.background_fraction - 1.0).abs() < 1e-12);
        assert_eq!(c.detail, 0.0);
    }

    #[test]
    fn mixed_region_is_weighted() {
        let f = Frame::sample(&test_scene(), 0, 0, 0.0);
        // Straddles the scoreboard (left half) and background (right half).
        let c = f.region_content(&Rect::new(160, 0, 320, 240));
        assert!((coverage_of(&c, 1) - 0.5).abs() < 1e-9);
        let expected = 0.5 * 0.8 + 0.5 * 0.2;
        assert!((c.complexity - expected).abs() < 1e-9);
    }

    #[test]
    fn out_of_frame_region_is_empty() {
        let f = Frame::sample(&test_scene(), 0, 0, 0.0);
        let c = f.region_content(&Rect::new(10_000, 10_000, 64, 64));
        assert_eq!(c.background_fraction, 1.0);
        assert_eq!(c.complexity, 0.0);
    }

    #[test]
    fn grid_content_covers_all_cells() {
        let f = Frame::sample(&test_scene(), 0, 0, 0.0);
        let (dims, cells) = f.grid_content(64);
        assert_eq!(cells.len(), dims.len());
        assert_eq!(dims.cols, 10);
        assert_eq!(dims.rows, 8 /* 480/64 = 7.5 -> 8 */);
        // Top-left cell fully inside scoreboard.
        assert!((coverage_of(&cells[0], 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn frame_is_self_contained() {
        let scene = test_scene();
        let f = Frame::sample(&scene, 3, 50_000, 0.05);
        assert_eq!(f.index, 3);
        assert_eq!(f.capture_ts_us, 50_000);
        assert_eq!(f.objects.len(), scene.objects.len());
        assert!(f.object(1).is_some());
        assert!(f.placement(2).is_some());
    }
}
