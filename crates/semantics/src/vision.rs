//! The "visual encoder" side of Eq. 1: patch content → embedding.
//!
//! A patch's embedding pools the concept embeddings of the objects covering it, weighted by
//! how much of the patch each object covers and how strongly the object carries each
//! concept. Background contributes its own (weak) concepts. The result plays the role of
//! CLIP's `φ_v(P_mn)` in the paper: patches showing the dog's head embed close to the text
//! "dog head", patches of empty court embed close to nothing in particular.

use crate::embedding::Embedding;
use aivc_scene::{Concept, Frame, Ontology, Rect};
use std::collections::BTreeMap;

/// Concept-embedding table shared by the text and vision encoders.
///
/// `embedding(c) = normalize( Σ_{c'} relatedness(c, c') · base(c') )`, where `base(c')` is a
/// deterministic pseudo-random unit direction. Related concepts therefore share components
/// and their embeddings have high cosine similarity, which is exactly the property CLIP's
/// joint training produces for semantically related text/image content.
#[derive(Debug, Clone)]
pub struct ConceptSpace {
    dim: usize,
    /// Index-keyed embedding table (the hot-path representation: embeddings are looked up
    /// by integer index, never cloned).
    table: Vec<Embedding>,
    /// Concept → index into [`ConceptSpace::table`].
    index: BTreeMap<Concept, u32>,
}

impl ConceptSpace {
    /// Builds the concept space for an ontology.
    pub fn build(ontology: &Ontology, dim: usize) -> Self {
        assert!(
            dim >= 8,
            "embedding dimension too small to keep concepts separable"
        );
        // All-pairs relatedness by concept rank in one pass (`Ontology::relatedness` per
        // pair is cubic in string clones). Rows accumulate in the same lexicographic
        // order as the pairwise form did, so every embedding keeps its exact bits.
        let related = ontology.relatedness_table();
        let bases: Vec<Embedding> = ontology
            .concepts()
            .map(|c| Embedding::seeded_direction(c.name(), dim))
            .collect();
        let mut table = Vec::with_capacity(bases.len());
        let mut index = BTreeMap::new();
        for (c, row) in ontology.concepts().zip(related.chunks_exact(bases.len().max(1))) {
            let mut acc = Embedding::zeros(dim);
            for (base, &w) in bases.iter().zip(row) {
                if w > 0.0 {
                    acc.add_scaled(base, w);
                }
            }
            index.insert(c.clone(), table.len() as u32);
            table.push(acc.normalized());
        }
        Self { dim, table, index }
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of concepts in the table.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// True when the space is empty.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// The table index of a known concept.
    pub fn concept_index(&self, concept: &Concept) -> Option<u32> {
        self.index.get(concept).copied()
    }

    /// The embedding at a table index.
    pub fn embedding_at(&self, index: u32) -> &Embedding {
        &self.table[index as usize]
    }

    /// The embedding of a concept. Unknown concepts get a deterministic direction of their
    /// own (they simply will not correlate with anything in the ontology).
    fn concept_embedding(&self, concept: &Concept) -> Embedding {
        match self.index.get(concept) {
            Some(&i) => self.table[i as usize].clone(),
            None => Embedding::seeded_direction(concept.name(), self.dim),
        }
    }

    /// Pools a weighted set of concepts into a single normalized embedding.
    pub fn pool(&self, concepts: &[(Concept, f64)]) -> Embedding {
        let mut acc = Embedding::zeros(self.dim);
        for (c, w) in concepts {
            if *w <= 0.0 {
                continue;
            }
            acc.add_scaled(&self.concept_embedding(c), *w);
        }
        acc.normalized()
    }
}

/// Visual patch encoder.
#[derive(Debug, Clone)]
pub struct PatchEncoder<'a> {
    space: &'a ConceptSpace,
    /// Weight given to background concepts relative to object concepts.
    background_weight: f64,
}

impl<'a> PatchEncoder<'a> {
    /// Creates a patch encoder over a concept space.
    pub fn new(space: &'a ConceptSpace) -> Self {
        Self {
            space,
            background_weight: 0.25,
        }
    }

    /// Weight applied to background concepts relative to object concepts.
    pub fn background_weight(&self) -> f64 {
        self.background_weight
    }

    /// Embeds the content of `patch` within `frame` — the φ_v(P_mn) of Eq. 1.
    pub fn embed_patch(&self, frame: &Frame, patch: &Rect) -> Embedding {
        let content = frame.region_content(patch);
        let mut weighted: Vec<(Concept, f64)> = Vec::new();
        for (object_id, coverage) in &content.object_coverage {
            let Some(obj) = frame.object(*object_id) else {
                continue;
            };
            for (concept, concept_weight) in &obj.concepts {
                weighted.push((concept.clone(), coverage * concept_weight));
            }
        }
        for (concept, w) in frame.background_concepts.iter() {
            weighted.push((
                concept.clone(),
                content.background_fraction * w * self.background_weight,
            ));
        }
        self.space.pool(&weighted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aivc_scene::templates::{basketball_game, dog_park};
    use aivc_scene::{SourceConfig, VideoSource};

    fn space() -> ConceptSpace {
        ConceptSpace::build(&Ontology::standard(), 64)
    }

    #[test]
    fn concept_embeddings_are_unit_norm_and_deterministic() {
        let s1 = space();
        let s2 = space();
        for c in Ontology::standard().concepts() {
            let e1 = s1.concept_embedding(c);
            let e2 = s2.concept_embedding(c);
            assert_eq!(e1, e2);
            assert!((e1.norm() - 1.0).abs() < 1e-9, "{c}");
        }
    }

    /// The build as it was before the all-pairs table: one `Ontology::relatedness` call
    /// per ordered pair.
    fn pairwise_table(ontology: &Ontology, dim: usize) -> Vec<Embedding> {
        let concepts: Vec<&Concept> = ontology.concepts().collect();
        concepts
            .iter()
            .map(|c| {
                let mut acc = Embedding::zeros(dim);
                for other in &concepts {
                    let w = ontology.relatedness(c, other);
                    if w > 0.0 {
                        acc.add_scaled(&Embedding::seeded_direction(other.name(), dim), w);
                    }
                }
                acc.normalized()
            })
            .collect()
    }

    #[test]
    fn concept_space_build_matches_pairwise_relatedness_build() {
        let mut random = Ontology::new();
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        for _ in 0..40 {
            let (a, b) = (next() % 13, next() % 13);
            let weight = f64::from(next() % 1000) / 999.0;
            random.relate(
                Concept::new(format!("c{a}")),
                Concept::new(format!("c{b}")),
                weight,
            );
        }
        random.add_concept("isolated");
        for ontology in [Ontology::standard(), random] {
            let space = ConceptSpace::build(&ontology, 32);
            assert_eq!(space.table, pairwise_table(&ontology, 32));
            for (rank, c) in ontology.concepts().enumerate() {
                assert_eq!(space.concept_index(c), Some(rank as u32));
            }
        }
    }

    #[test]
    fn related_concepts_have_higher_cosine_than_unrelated() {
        let s = space();
        let sim = |a: &str, b: &str| {
            s.concept_embedding(&Concept::new(a))
                .cosine(&s.concept_embedding(&Concept::new(b)))
        };
        assert!(sim("scoreboard", "score") > 0.6);
        assert!(sim("dog", "dog-head") > 0.6);
        assert!(sim("grass", "season") > 0.25);
        assert!(sim("dog", "scoreboard") < 0.35);
        assert!(sim("scoreboard", "score") > sim("scoreboard", "grass"));
    }

    #[test]
    fn patch_over_object_embeds_close_to_object_concept() {
        let s = space();
        let frame = VideoSource::new(basketball_game(1), SourceConfig::fps30(5.0)).frame(0);
        let enc = PatchEncoder::new(&s);
        // The scoreboard occupies (60, 40, 420, 110).
        let on_scoreboard = enc.embed_patch(&frame, &Rect::new(100, 60, 64, 64));
        let on_background = enc.embed_patch(&frame, &Rect::new(1700, 900, 64, 64));
        let scoreboard_concept = s.concept_embedding(&Concept::new("scoreboard"));
        let sim_on = on_scoreboard.cosine(&scoreboard_concept);
        let sim_off = on_background.cosine(&scoreboard_concept);
        assert!(sim_on > 0.6, "on-scoreboard similarity {sim_on}");
        // The empty court background still carries basketball-game context, so it is not
        // orthogonal to "scoreboard" — but it must be clearly less similar than the patch
        // that actually shows the scoreboard.
        assert!(sim_on > sim_off + 0.25, "on {sim_on} vs off {sim_off}");
    }

    #[test]
    fn empty_patch_embeds_to_background_only() {
        let s = space();
        let frame = VideoSource::new(dog_park(1), SourceConfig::fps30(5.0)).frame(0);
        let enc = PatchEncoder::new(&s);
        let sky_patch = enc.embed_patch(&frame, &Rect::new(900, 10, 64, 64));
        // It should still be a unit vector (background concepts), not zero.
        assert!((sky_patch.norm() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pool_of_nothing_is_zero() {
        let s = space();
        assert!(s.pool(&[]).is_zero());
    }

    #[test]
    fn unknown_concept_still_gets_an_embedding() {
        let s = space();
        let e = s.concept_embedding(&Concept::new("totally-novel-thing"));
        assert!((e.norm() - 1.0).abs() < 1e-9);
    }
}
