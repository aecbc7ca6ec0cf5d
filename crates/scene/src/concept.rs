//! Semantic concepts and the relatedness ontology.
//!
//! The paper uses CLIP to relate *user words* to *video regions*, including indirect,
//! high-level relations (e.g. "season" relates to "grass" because grass growth implies the
//! season, Figure 5). Our CLIP substitute (`aivc-semantics`) needs a notion of which
//! concepts are related and how strongly. That knowledge lives here, next to the scene
//! templates that use the same vocabulary, so scene ground truth and semantic embeddings
//! always agree on terminology.

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// A semantic concept, identified by a lowercase kebab-case name (e.g. `"dog-head"`).
///
/// Concepts are cheap, order-comparable string newtypes; the interesting structure (which
/// concepts relate to which) lives in [`Ontology`].
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Concept(pub String);

impl Concept {
    /// Creates a concept from any string-like name. Names are normalized to lowercase.
    pub fn new(name: impl Into<String>) -> Self {
        Concept(name.into().to_lowercase())
    }

    /// The concept's name.
    pub fn name(&self) -> &str {
        &self.0
    }
}

impl From<&str> for Concept {
    fn from(s: &str) -> Self {
        Concept::new(s)
    }
}

impl std::fmt::Display for Concept {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// A symmetric, weighted relatedness graph over concepts.
///
/// `relatedness(a, b)` ∈ `[0, 1]`: `1.0` for identical concepts, values around `0.6..0.9`
/// for strong direct relations (dog ↔ dog-head), `0.3..0.6` for inferential relations
/// (grass ↔ season), and `0.0` for unrelated concepts. The graph also performs one hop of
/// transitive closure at a discount so that e.g. "floppy ears" relates (weakly) to "dog".
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Ontology {
    concepts: BTreeSet<Concept>,
    /// Direct relation weights, keyed by the ordered pair (min, max).
    relations: BTreeMap<(Concept, Concept), f64>,
}

impl Ontology {
    /// Creates an empty ontology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of registered concepts.
    pub fn len(&self) -> usize {
        self.concepts.len()
    }

    /// True when no concepts are registered.
    pub fn is_empty(&self) -> bool {
        self.concepts.is_empty()
    }

    /// Registers a concept (idempotent).
    pub fn add_concept(&mut self, c: impl Into<Concept>) -> Concept {
        let c = c.into();
        self.concepts.insert(c.clone());
        c
    }

    /// Returns true if the concept has been registered.
    pub fn contains(&self, c: &Concept) -> bool {
        self.concepts.contains(c)
    }

    /// Iterates over all registered concepts in lexicographic order.
    pub fn concepts(&self) -> impl Iterator<Item = &Concept> {
        self.concepts.iter()
    }

    /// Declares a symmetric relation of strength `weight` ∈ `[0, 1]` between two concepts,
    /// registering both as a side effect. Re-declaring keeps the maximum weight.
    pub fn relate(&mut self, a: impl Into<Concept>, b: impl Into<Concept>, weight: f64) {
        let a = self.add_concept(a);
        let b = self.add_concept(b);
        if a == b {
            return;
        }
        let key = Self::key(a, b);
        let w = weight.clamp(0.0, 1.0);
        let entry = self.relations.entry(key).or_insert(0.0);
        if w > *entry {
            *entry = w;
        }
    }

    fn key(a: Concept, b: Concept) -> (Concept, Concept) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Direct relation weight between two concepts (0 when none was declared).
    fn direct_relatedness(&self, a: &Concept, b: &Concept) -> f64 {
        if a == b {
            return 1.0;
        }
        let key = Self::key(a.clone(), b.clone());
        self.relations.get(&key).copied().unwrap_or(0.0)
    }

    /// Relatedness with one hop of transitive closure at a 0.5 discount.
    ///
    /// `relatedness(a, b) = max(direct(a, b), 0.5 * max_c direct(a, c) * direct(c, b))`.
    /// This captures chains such as *floppy-ears — dog-head — dog* without requiring every
    /// pair to be declared explicitly.
    pub fn relatedness(&self, a: &Concept, b: &Concept) -> f64 {
        let direct = self.direct_relatedness(a, b);
        if direct >= 1.0 {
            return 1.0;
        }
        let mut best = direct;
        for c in &self.concepts {
            if c == a || c == b {
                continue;
            }
            let via = 0.5 * self.direct_relatedness(a, c) * self.direct_relatedness(c, b);
            if via > best {
                best = via;
            }
        }
        best
    }

    /// [`Ontology::relatedness`] for every ordered pair at once: a row-major `len × len`
    /// table indexed by concept rank (position in [`Ontology::concepts`]), each entry
    /// bit-identical to the pairwise call.
    ///
    /// The pairwise form scans every concept per pair and clones two `String`s per
    /// look-up, which makes an all-pairs caller cubic in allocations; this resolves the
    /// declared relations to ranks once and walks only the declared graph: from each
    /// concept `a` to its neighbours `c`, then to theirs, `b`. A pair no such walk reaches
    /// has a 0 for every hop, which never beats its direct weight (`relate` clamps weights
    /// into `[0, 1]`), and a maximum does not depend on the order candidates arrive in — so
    /// each entry is the dense `n³` closure's, bit for bit, in time proportional to the sum
    /// over concepts of their squared degree.
    pub fn relatedness_table(&self) -> Vec<f64> {
        let n = self.concepts.len();
        let rank: BTreeMap<&Concept, usize> = self.concepts.iter().enumerate().map(|(i, c)| (c, i)).collect();
        let mut direct = vec![0.0; n * n];
        for i in 0..n {
            direct[i * n + i] = 1.0;
        }
        let mut neighbours = vec![Vec::new(); n];
        for ((a, b), &w) in &self.relations {
            // Only registered concepts are ever asked about (`relate` registers both ends).
            let (Some(&i), Some(&j)) = (rank.get(a), rank.get(b)) else {
                continue;
            };
            direct[i * n + j] = w;
            direct[j * n + i] = w;
            neighbours[i].push(j);
            neighbours[j].push(i);
        }
        let mut table = direct.clone();
        for a in 0..n {
            for &c in neighbours[a].iter().filter(|&&c| c != a) {
                for &b in neighbours[c].iter().filter(|&&b| b != c) {
                    if direct[a * n + b] >= 1.0 {
                        continue;
                    }
                    let via = 0.5 * direct[a * n + c] * direct[c * n + b];
                    let best = &mut table[a * n + b];
                    if via > *best {
                        *best = via;
                    }
                }
            }
        }
        table
    }

    /// The standard ontology used by the built-in scene templates.
    ///
    /// Covers the paper's running examples (basketball game with scoreboard/jersey/spectators,
    /// dog with ears in a park with grass/seasons, text-rich lecture slides, cooking, street
    /// scenes) plus generic background concepts.
    pub fn standard() -> Self {
        let mut o = Ontology::new();
        // --- sports / basketball (Figures 4 and 10) ---
        o.relate("basketball-game", "player", 0.85);
        o.relate("basketball-game", "scoreboard", 0.8);
        o.relate("basketball-game", "court", 0.8);
        o.relate("basketball-game", "spectators", 0.7);
        o.relate("basketball-game", "jersey", 0.6);
        o.relate("player", "jersey", 0.85);
        o.relate("player", "mouth", 0.5);
        o.relate("player", "action", 0.7);
        o.relate("player", "person", 0.9);
        o.relate("jersey", "logo", 0.9);
        o.relate("jersey", "number", 0.8);
        o.relate("scoreboard", "score", 0.95);
        o.relate("scoreboard", "text", 0.85);
        o.relate("scoreboard", "number", 0.85);
        o.relate("score", "number", 0.9);
        o.relate("spectators", "crowd", 0.95);
        o.relate("spectators", "person", 0.7);
        o.relate("spectators", "counting", 0.6);
        o.relate("crowd", "counting", 0.55);
        o.relate("mouth", "face", 0.85);
        o.relate("face", "person", 0.85);
        o.relate("logo", "text", 0.6);
        o.relate("logo", "brand", 0.9);
        // --- dog / park / seasons (Figure 5) ---
        o.relate("dog", "dog-head", 0.9);
        o.relate("dog", "animal", 0.9);
        o.relate("dog-head", "ears", 0.9);
        o.relate("ears", "floppy-ears", 0.85);
        o.relate("ears", "erect-ears", 0.85);
        o.relate("dog", "tail", 0.75);
        o.relate("dog", "fur", 0.7);
        o.relate("park", "grass", 0.8);
        o.relate("park", "tree", 0.75);
        o.relate("park", "bench", 0.6);
        o.relate("grass", "season", 0.55);
        o.relate("tree", "season", 0.5);
        o.relate("grass", "lawn", 0.9);
        o.relate("sky", "weather", 0.7);
        o.relate("weather", "season", 0.6);
        // --- text-rich / lecture / documents ---
        o.relate("slide", "text", 0.9);
        o.relate("slide", "title", 0.8);
        o.relate("slide", "diagram", 0.7);
        o.relate("whiteboard", "text", 0.85);
        o.relate("document", "text", 0.9);
        o.relate("sign", "text", 0.85);
        o.relate("text", "reading", 0.8);
        o.relate("text", "word", 0.9);
        o.relate("title", "text", 0.85);
        o.relate("caption", "text", 0.85);
        o.relate("number", "text", 0.7);
        o.relate("lecturer", "person", 0.85);
        o.relate("lecture", "slide", 0.8);
        o.relate("lecture", "lecturer", 0.8);
        // --- cooking ---
        o.relate("kitchen", "cooking", 0.85);
        o.relate("cooking", "food", 0.85);
        o.relate("cooking", "chef", 0.8);
        o.relate("cooking", "pan", 0.75);
        o.relate("chef", "person", 0.85);
        o.relate("food", "ingredient", 0.85);
        o.relate("ingredient", "vegetable", 0.7);
        o.relate("recipe", "text", 0.6);
        o.relate("recipe", "cooking", 0.8);
        o.relate("pan", "stove", 0.8);
        o.relate("kitchen", "stove", 0.75);
        // --- street / traffic ---
        o.relate("street", "car", 0.8);
        o.relate("street", "pedestrian", 0.75);
        o.relate("street", "traffic-light", 0.7);
        o.relate("car", "license-plate", 0.8);
        o.relate("license-plate", "text", 0.8);
        o.relate("license-plate", "number", 0.8);
        o.relate("pedestrian", "person", 0.9);
        o.relate("traffic-light", "color", 0.7);
        o.relate("car", "color", 0.5);
        o.relate("street", "sign", 0.6);
        // --- generic spatial / attribute / counting hooks ---
        o.relate("counting", "number", 0.6);
        o.relate("color", "attribute", 0.7);
        o.relate("attribute", "appearance", 0.8);
        o.relate("spatial", "position", 0.9);
        o.relate("position", "left", 0.6);
        o.relate("position", "right", 0.6);
        o.relate("action", "motion", 0.8);
        o.relate("person", "clothing", 0.6);
        o.relate("clothing", "color", 0.6);
        o.relate("clothing", "jersey", 0.6);
        // --- background concepts present in most scenes ---
        for c in ["background", "wall", "floor", "sky", "ground", "audience-stand"] {
            o.add_concept(c);
        }
        o.relate("audience-stand", "spectators", 0.7);
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concept_normalizes_case() {
        assert_eq!(Concept::new("Dog-Head"), Concept::new("dog-head"));
        assert_eq!(Concept::from("GRASS").name(), "grass");
    }

    #[test]
    fn relatedness_is_symmetric_and_bounded() {
        let o = Ontology::standard();
        for a in o.concepts() {
            for b in o.concepts() {
                let ab = o.relatedness(a, b);
                let ba = o.relatedness(b, a);
                assert!((ab - ba).abs() < 1e-12, "asymmetric for {a} / {b}");
                assert!((0.0..=1.0).contains(&ab));
            }
        }
    }

    #[test]
    fn relatedness_table_matches_pairwise_relatedness_bit_for_bit() {
        // Seeded pseudo-random ontologies next to the standard one, from a handful of edges
        // over many concepts to several per concept over few — so that pairs range from
        // unreachable to reached by many competing one-hop paths — with weight-1.0 and
        // weight-0 edges, self-relations (ignored) and isolated concepts.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        let mut ontologies = vec![Ontology::standard(), Ontology::new()];
        for _ in 0..64 {
            let mut random = Ontology::new();
            let concepts = 2 + next() % 30;
            let edges = next() % (4 * concepts);
            for _ in 0..edges {
                let (a, b) = (next() % concepts, next() % concepts);
                let weight = match next() % 8 {
                    0 => 1.0,
                    1 => 0.0,
                    _ => f64::from(next() % 1000) / 999.0,
                };
                random.relate(
                    Concept::new(format!("c{a}")),
                    Concept::new(format!("c{b}")),
                    weight,
                );
            }
            for i in 0..next() % 3 {
                random.add_concept(Concept::new(format!("isolated{i}")));
            }
            ontologies.push(random);
        }
        for o in ontologies {
            let table = o.relatedness_table();
            let n = o.len();
            assert_eq!(table.len(), n * n);
            for (i, a) in o.concepts().enumerate() {
                for (j, b) in o.concepts().enumerate() {
                    assert_eq!(
                        table[i * n + j].to_bits(),
                        o.relatedness(a, b).to_bits(),
                        "table diverges for {a} / {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn identity_relatedness_is_one() {
        let o = Ontology::standard();
        let dog = Concept::new("dog");
        assert_eq!(o.relatedness(&dog, &dog), 1.0);
    }

    #[test]
    fn direct_relations_from_standard_ontology() {
        let o = Ontology::standard();
        assert!(o.relatedness(&"scoreboard".into(), &"score".into()) > 0.9);
        assert!(o.relatedness(&"grass".into(), &"season".into()) > 0.5);
        assert!(o.relatedness(&"dog".into(), &"scoreboard".into()) < 0.2);
    }

    #[test]
    fn transitive_hop_connects_ears_to_dog() {
        let o = Ontology::standard();
        // floppy-ears -- ears -- dog-head -- dog: at least one intermediate hop should give
        // a nonzero relatedness between floppy-ears and dog-head.
        let w = o.relatedness(&"floppy-ears".into(), &"dog-head".into());
        assert!(w > 0.3, "expected transitive relation, got {w}");
    }

    #[test]
    fn relate_keeps_maximum_weight() {
        let mut o = Ontology::new();
        o.relate("a", "b", 0.3);
        o.relate("b", "a", 0.7);
        o.relate("a", "b", 0.5);
        assert!((o.direct_relatedness(&"a".into(), &"b".into()) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn self_relation_is_ignored() {
        let mut o = Ontology::new();
        o.relate("x", "x", 0.4);
        assert_eq!(o.relatedness(&"x".into(), &"x".into()), 1.0);
        assert_eq!(o.len(), 1);
    }
}
