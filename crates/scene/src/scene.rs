//! A [`Scene`] is a static description of a shot: canvas size, background, objects and
//! ground-truth facts. Time evolution (object motion, content events) is handled by
//! [`crate::VideoSource`], which samples a scene into [`crate::Frame`]s.

use crate::concept::Concept;
use crate::fact::SceneFact;
use crate::object::SceneObject;

/// A complete synthetic scene with ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct Scene {
    /// Short identifier, e.g. `"basketball-game"`.
    pub label: String,
    /// Canvas width in pixels.
    pub width: u32,
    /// Canvas height in pixels.
    pub height: u32,
    /// Background spatial complexity in `[0, 1]` (bits cost of non-object area).
    pub background_complexity: f64,
    /// Background motion in `[0, 1]` (e.g. camera shake, crowd microflutter).
    pub background_motion: f64,
    /// Concepts describing the background (e.g. `court`, `sky`).
    pub background_concepts: Vec<(Concept, f64)>,
    /// Foreground objects.
    pub objects: Vec<SceneObject>,
    /// Ground-truth facts about the scene.
    pub facts: Vec<SceneFact>,
}

impl Scene {
    /// Creates an empty scene on a `width x height` canvas.
    pub fn new(label: impl Into<String>, width: u32, height: u32) -> Self {
        assert!(width > 0 && height > 0, "scene canvas must be non-empty");
        Self {
            label: label.into(),
            width,
            height,
            background_complexity: 0.2,
            background_motion: 0.05,
            background_concepts: vec![(Concept::new("background"), 1.0)],
            objects: Vec::new(),
            facts: Vec::new(),
        }
    }

    /// Sets the background properties; concept weights are clamped into `[0, 1]`, as
    /// [`SceneObject::with_concept`] clamps an object's.
    ///
    /// # Panics
    ///
    /// Panics, naming the concept, when a concept weight is NaN or infinite.
    pub fn with_background(
        mut self,
        complexity: f64,
        motion: f64,
        mut concepts: Vec<(Concept, f64)>,
    ) -> Self {
        self.background_complexity = complexity.clamp(0.0, 1.0);
        self.background_motion = motion.clamp(0.0, 1.0);
        for (concept, weight) in &mut concepts {
            assert!(
                weight.is_finite(),
                "background_concepts: the weight of concept {concept} must be finite, got {weight}"
            );
            *weight = weight.clamp(0.0, 1.0);
        }
        if !concepts.is_empty() {
            self.background_concepts = concepts;
        }
        self
    }

    /// Adds an object, returning its id.
    pub fn add_object(&mut self, object: SceneObject) -> u32 {
        let id = object.id;
        debug_assert!(
            self.objects.iter().all(|o| o.id != id),
            "duplicate object id {id} in scene {}",
            self.label
        );
        self.objects.push(object);
        id
    }

    /// Adds a ground-truth fact.
    pub fn add_fact(&mut self, fact: SceneFact) {
        self.facts.push(fact);
    }

    /// Looks up an object by id.
    pub fn object(&self, id: u32) -> Option<&SceneObject> {
        self.objects.iter().find(|o| o.id == id)
    }

    /// Validates internal consistency (object regions inside canvas after clamping, fact
    /// evidence referencing existing objects). Returns a list of problems, empty when valid.
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        for o in &self.objects {
            if o.region.w == 0 || o.region.h == 0 {
                problems.push(format!("object {} ({}) has an empty region", o.id, o.name));
            }
            if o.region.w > self.width || o.region.h > self.height {
                problems.push(format!("object {} ({}) is larger than the canvas", o.id, o.name));
            }
        }
        for (i, f) in self.facts.iter().enumerate() {
            for id in &f.evidence_objects {
                if self.object(*id).is_none() {
                    problems.push(format!("fact #{i} references missing object {id}"));
                }
            }
            if f.distractors.is_empty() {
                problems.push(format!("fact #{i} ({}) has no distractors", f.question));
            }
        }
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fact::FactCategory;
    use crate::geometry::Rect;

    fn scene() -> Scene {
        let mut s = Scene::new("test", 1280, 720);
        s.add_object(
            SceneObject::new(1, "scoreboard", Rect::new(40, 40, 400, 100))
                .with_concept("scoreboard", 1.0)
                .with_detail(0.9),
        );
        s.add_object(
            SceneObject::new(2, "player", Rect::new(500, 200, 250, 450))
                .with_concept("player", 1.0)
                .with_detail(0.3),
        );
        s.add_fact(
            SceneFact::new(
                FactCategory::TextRich,
                "What is the score?",
                "78-74",
                vec![1],
                0.85,
            )
            .with_distractors(["70-74", "78-72", "68-74"]),
        );
        s
    }

    #[test]
    fn object_lookup_and_validation() {
        let s = scene();
        assert!(s.object(1).is_some());
        assert!(s.object(99).is_none());
        assert!(s.validate().is_empty(), "{:?}", s.validate());
    }

    #[test]
    fn invalid_fact_reference_detected() {
        let mut s = scene();
        s.add_fact(
            SceneFact::new(FactCategory::Counting, "?", "3", vec![42], 0.7).with_distractors(["1", "2", "4"]),
        );
        let problems = s.validate();
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("missing object 42"));
    }

    #[test]
    fn quality_sensitive_subset() {
        let s = scene();
        let sensitive = |threshold| {
            s.facts
                .iter()
                .filter(|f| f.is_quality_sensitive(threshold))
                .count()
        };
        assert_eq!(sensitive(0.5), 1);
        assert_eq!(sensitive(0.95), 0);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_canvas_panics() {
        let _ = Scene::new("bad", 0, 720);
    }
}
