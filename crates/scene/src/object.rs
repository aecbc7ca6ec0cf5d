//! Scene objects: the atomic unit of ground truth.
//!
//! An object is a rectangular region with semantics (concepts), encoding cost drivers
//! (texture complexity, motion) and an understanding-difficulty driver (`detail`). The
//! `detail` level is the key quantity for the paper's argument: *detail-rich* content (text
//! on a scoreboard, a small logo, individual spectators) needs high decoded quality to be
//! understood by the MLLM, whereas coarse content (a player's overall pose) survives heavy
//! compression (§2.3, Figure 4).

use crate::concept::Concept;
use crate::geometry::Rect;
use serde::{Deserialize, Serialize};

/// A labelled object inside a [`crate::Scene`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SceneObject {
    /// Stable identifier, unique within its scene.
    pub id: u32,
    /// Human-readable name, e.g. `"scoreboard"`.
    pub name: String,
    /// Weighted semantic labels; weights in `[0, 1]`, the dominant concept first.
    pub concepts: Vec<(Concept, f64)>,
    /// Position and size at scene time zero, in pixels.
    pub region: Rect,
    /// How much fine-grained detail the object carries, in `[0, 1]`.
    ///
    /// 0.9+ for small text, ~0.6 for logos and faces, ~0.3 for body pose, ~0.1 for sky.
    /// Questions about high-detail objects are quality-sensitive (DeViBench targets these).
    pub detail: f64,
    /// Spatial texture complexity in `[0, 1]`; drives bits-per-block in the codec R-D model.
    pub texture_complexity: f64,
    /// Temporal motion magnitude in `[0, 1]`; drives inter-frame residual cost.
    pub motion: f64,
    /// Velocity in pixels per second (dx, dy); the object translates linearly and bounces
    /// off the frame borders.
    pub velocity: (f64, f64),
    /// Text carried by the object (scoreboard content, sign, slide bullet), if any.
    pub text_content: Option<String>,
    /// Free-form attributes usable as QA answers (e.g. `("ear-type", "floppy")`).
    pub attributes: Vec<(String, String)>,
}

impl SceneObject {
    /// Creates an object with neutral defaults; use the builder-style methods to refine it.
    pub fn new(id: u32, name: impl Into<String>, region: Rect) -> Self {
        Self {
            id,
            name: name.into(),
            concepts: Vec::new(),
            region,
            detail: 0.3,
            texture_complexity: 0.3,
            motion: 0.0,
            velocity: (0.0, 0.0),
            text_content: None,
            attributes: Vec::new(),
        }
    }

    /// Adds a weighted concept label.
    pub fn with_concept(mut self, concept: impl Into<Concept>, weight: f64) -> Self {
        self.concepts.push((concept.into(), weight.clamp(0.0, 1.0)));
        self
    }

    /// Sets the detail level.
    pub fn with_detail(mut self, detail: f64) -> Self {
        self.detail = detail.clamp(0.0, 1.0);
        self
    }

    /// Sets the texture complexity.
    pub fn with_texture(mut self, complexity: f64) -> Self {
        self.texture_complexity = complexity.clamp(0.0, 1.0);
        self
    }

    /// Sets the motion magnitude and velocity.
    pub fn with_motion(mut self, motion: f64, velocity: (f64, f64)) -> Self {
        self.motion = motion.clamp(0.0, 1.0);
        self.velocity = velocity;
        self
    }

    /// Attaches text content (marks the object as text-rich).
    pub fn with_text(mut self, text: impl Into<String>) -> Self {
        self.text_content = Some(text.into());
        self
    }

    /// Attaches a named attribute (e.g. `("ear-type", "floppy")`).
    pub fn with_attribute(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.attributes.push((key.into(), value.into()));
        self
    }

    /// Looks up an attribute value by key.
    pub fn attribute(&self, key: &str) -> Option<&str> {
        self.attributes
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The object's position at time `t` seconds, bouncing inside a `width x height` canvas.
    ///
    /// Linear motion with elastic reflection keeps objects on screen for arbitrarily long
    /// clips while remaining deterministic and cheap to evaluate at any time offset.
    pub fn region_at(&self, t_secs: f64, width: u32, height: u32) -> Rect {
        if self.velocity == (0.0, 0.0) || t_secs == 0.0 {
            return self.region.clamped_to(width, height);
        }
        let travel_x = width.saturating_sub(self.region.w).max(1) as f64;
        let travel_y = height.saturating_sub(self.region.h).max(1) as f64;
        let x = bounce(self.region.x as f64 + self.velocity.0 * t_secs, travel_x);
        let y = bounce(self.region.y as f64 + self.velocity.1 * t_secs, travel_y);
        Rect::new(x.round() as i64, y.round() as i64, self.region.w, self.region.h).clamped_to(width, height)
    }
}

/// Reflects a coordinate into `[0, travel]` (triangle-wave / elastic bounce).
fn bounce(pos: f64, travel: f64) -> f64 {
    if travel <= 0.0 {
        return 0.0;
    }
    let period = 2.0 * travel;
    let mut p = pos % period;
    if p < 0.0 {
        p += period;
    }
    if p > travel {
        period - p
    } else {
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj() -> SceneObject {
        SceneObject::new(1, "scoreboard", Rect::new(100, 50, 300, 120))
            .with_concept("scoreboard", 1.0)
            .with_concept("text", 0.8)
            .with_detail(0.9)
            .with_texture(0.7)
            .with_text("HOME 78 - 74 AWAY")
            .with_attribute("home-score", "78")
    }

    #[test]
    fn builder_sets_fields() {
        let o = obj();
        assert_eq!(o.concepts[0].0.name(), "scoreboard");
        assert_eq!(o.attribute("home-score"), Some("78"));
        assert_eq!(o.text_content.as_deref(), Some("HOME 78 - 74 AWAY"));
        assert!((o.detail - 0.9).abs() < 1e-12);
    }

    #[test]
    fn static_object_does_not_move() {
        let o = obj();
        assert_eq!(o.region_at(0.0, 1920, 1080), o.region_at(17.3, 1920, 1080));
    }

    #[test]
    fn moving_object_stays_in_canvas() {
        let o =
            SceneObject::new(2, "player", Rect::new(500, 400, 200, 400)).with_motion(0.8, (333.0, -140.0));
        for i in 0..200 {
            let t = i as f64 * 0.25;
            let r = o.region_at(t, 1920, 1080);
            assert!(r.x >= 0 && r.y >= 0, "t={t} r={r:?}");
            assert!(r.right() <= 1920 && r.bottom() <= 1080, "t={t} r={r:?}");
            assert_eq!(r.w, 200);
            assert_eq!(r.h, 400);
        }
    }

    #[test]
    fn bounce_is_triangle_wave() {
        assert!((bounce(0.0, 10.0) - 0.0).abs() < 1e-12);
        assert!((bounce(7.0, 10.0) - 7.0).abs() < 1e-12);
        assert!((bounce(13.0, 10.0) - 7.0).abs() < 1e-12);
        assert!((bounce(23.0, 10.0) - 3.0).abs() < 1e-12);
        assert!((bounce(-3.0, 10.0) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn clamped_weights() {
        let o = SceneObject::new(3, "x", Rect::new(0, 0, 10, 10))
            .with_concept("y", 3.0)
            .with_detail(-1.0);
        assert_eq!(o.concepts[0].1, 1.0);
        assert_eq!(o.detail, 0.0);
    }
}
