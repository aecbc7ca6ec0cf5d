//! Text queries: the "user words" side of Eq. 1.
//!
//! A [`TextQuery`] is the tokenized user utterance plus the ontology concepts it mentions.
//! Concept extraction is a deterministic lexical matcher over the ontology vocabulary
//! (multi-word concept names like `dog-head` match "dog head" or "dog's head"); callers that
//! already know the intended concepts (e.g. DeViBench facts carry `query_concepts`) can add
//! them explicitly, mirroring how a real text encoder would pick up the semantics regardless
//! of surface form.

use aivc_scene::{Concept, Ontology};
use serde::{Deserialize, Serialize};

/// A user utterance prepared for semantic matching.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TextQuery {
    /// The raw words as the user typed/spoke them.
    pub text: String,
    /// Ontology concepts the query refers to, with weights.
    pub concepts: Vec<(Concept, f64)>,
}

impl TextQuery {
    /// Builds a query by lexically matching `text` against the ontology vocabulary.
    pub fn from_words(text: &str, ontology: &Ontology) -> Self {
        let normalized = normalize(text);
        let padded = format!(" {normalized} ");
        // The normalized text's words, empty when the text is (`split` then yields one "").
        let words: Vec<&str> = normalized.split(' ').collect();
        let mut concepts = Vec::new();
        for concept in ontology.concepts() {
            let name = concept.name();
            // Either surface form below starts with its first word between two spaces of
            // `padded` — a whole word of the text — so a concept whose first word (up to a
            // space, or for the spaced form also a hyphen) is not one cannot match: skip it
            // before formatting anything.
            let head = name.split(' ').next().unwrap_or_default();
            let spaced_head = head.split('-').next().unwrap_or_default();
            if !words.iter().any(|&word| word == head || word == spaced_head) {
                continue;
            }
            // A concept "dog-head" should match the surface forms "dog-head", "dog head".
            let surface = format!(" {} ", name.replace('-', " "));
            let hyphened = format!(" {name} ");
            if padded.contains(&surface) || padded.contains(&hyphened) {
                // Multi-word concepts are more specific; weight them a little higher.
                let weight = if name.contains('-') { 1.0 } else { 0.9 };
                concepts.push((concept.clone(), weight));
            }
        }
        Self {
            text: text.to_string(),
            concepts,
        }
    }

    /// Builds a query from explicit concepts (the path DeViBench facts use).
    pub fn from_concepts<I, S>(text: &str, concepts: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Self {
            text: text.to_string(),
            concepts: concepts
                .into_iter()
                .map(|c| (Concept::new(c.into()), 1.0))
                .collect(),
        }
    }

    /// Builds a query from the words, then merges in explicit concepts (deduplicated,
    /// keeping the maximum weight).
    pub fn from_words_and_concepts<I, S>(text: &str, ontology: &Ontology, extra: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut q = Self::from_words(text, ontology);
        for c in extra {
            let concept = Concept::new(c.into());
            if let Some(entry) = q.concepts.iter_mut().find(|(existing, _)| *existing == concept) {
                entry.1 = entry.1.max(1.0);
            } else {
                q.concepts.push((concept, 1.0));
            }
        }
        q
    }

    /// True when no concepts could be extracted (the proactive-context open question in §4:
    /// without user words there is nothing to anchor the correlation on).
    pub fn is_empty(&self) -> bool {
        self.concepts.is_empty()
    }
}

/// Lowercases and strips punctuation/possessives so lexical matching is robust.
fn normalize(text: &str) -> String {
    let lowered = text.to_lowercase().replace("'s", " ");
    lowered
        .chars()
        .map(|c| if c.is_alphanumeric() || c == '-' { c } else { ' ' })
        .collect::<String>()
        .split_whitespace()
        .collect::<Vec<_>>()
        .join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ontology() -> Ontology {
        Ontology::standard()
    }

    #[test]
    fn extracts_direct_mentions() {
        let q = TextQuery::from_words("Could you tell me the present score of the game?", &ontology());
        let names: Vec<_> = q.concepts.iter().map(|(c, _)| c.name().to_string()).collect();
        assert!(names.contains(&"score".to_string()), "{names:?}");
    }

    #[test]
    fn extracts_multiword_concepts_from_spaced_form() {
        let q = TextQuery::from_words("Is the dog's head showing floppy ears?", &ontology());
        let names: Vec<_> = q.concepts.iter().map(|(c, _)| c.name().to_string()).collect();
        assert!(names.contains(&"dog-head".to_string()), "{names:?}");
        assert!(names.contains(&"ears".to_string()), "{names:?}");
        assert!(names.contains(&"dog".to_string()), "{names:?}");
    }

    #[test]
    fn season_question_mentions_season() {
        let q = TextQuery::from_words("Infer what season it might be in the video", &ontology());
        assert!(q.concepts.iter().any(|(c, _)| c.name() == "season"));
    }

    #[test]
    fn unrelated_text_yields_empty_query() {
        let q = TextQuery::from_words("zzz qqq xyzzy", &ontology());
        assert!(q.is_empty());
    }

    #[test]
    fn explicit_concepts_are_merged_without_duplicates() {
        let q = TextQuery::from_words_and_concepts(
            "What logo is on the jersey?",
            &ontology(),
            ["logo", "jersey", "player"],
        );
        let logo_count = q.concepts.iter().filter(|(c, _)| c.name() == "logo").count();
        assert_eq!(logo_count, 1);
        assert!(q.concepts.iter().any(|(c, _)| c.name() == "player"));
    }

    #[test]
    fn normalization_handles_punctuation() {
        assert_eq!(normalize("The DOG'S head, please!"), "the dog head please");
    }

    /// The matcher without the word pre-filter: every concept's two surface forms searched
    /// for in the padded text — what [`TextQuery::from_words`] must agree with.
    fn from_words_reference(text: &str, ontology: &Ontology) -> TextQuery {
        let normalized = normalize(text);
        let padded = format!(" {normalized} ");
        let mut concepts = Vec::new();
        for concept in ontology.concepts() {
            let name = concept.name();
            let surface = format!(" {} ", name.replace('-', " "));
            let hyphened = format!(" {name} ");
            if padded.contains(&surface) || padded.contains(&hyphened) {
                let weight = if name.contains('-') { 1.0 } else { 0.9 };
                concepts.push((concept.clone(), weight));
            }
        }
        TextQuery {
            text: text.to_string(),
            concepts,
        }
    }

    /// The word pre-filter skips only concepts the substring matcher would reject: on
    /// random texts — words, hyphens, possessives, punctuation, capitals and empty pieces —
    /// over the standard ontology plus random names with spaces, empty hyphen segments,
    /// leading or trailing hyphens and the empty name, both return the same concepts in the
    /// same order with the same weights.
    #[test]
    fn word_prefilter_matches_the_substring_matcher() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move |bound: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % bound
        };
        let words = [
            "dog", "head", "ice", "cream", "a", "b", "x", "score", "floppy", "ears",
        ];
        let joints = ["-", " ", "--", "", "'s ", ", "];
        let mut ontology = ontology();
        ontology.add_concept("");
        for _ in 0..120 {
            let mut name = String::new();
            if next(6) == 0 {
                name.push('-');
            }
            for piece in 0..1 + next(3) {
                if piece > 0 {
                    name.push_str(["-", " ", "--", "- "][next(4)]);
                }
                name.push_str(words[next(words.len())]);
            }
            if next(6) == 0 {
                name.push('-');
            }
            ontology.add_concept(name.as_str());
        }
        let vocabulary: Vec<String> = ontology.concepts().map(|c| c.name().to_string()).collect();
        let mut matched = 0;
        for _ in 0..4_000 {
            let mut text = String::new();
            for _ in 0..next(8) {
                let mut piece = match next(3) {
                    0 => vocabulary[next(vocabulary.len())].clone(),
                    1 => words[next(words.len())].to_string(),
                    _ => ["", "-", "'s", "?", "!", ".", "'"][next(7)].to_string(),
                };
                if next(5) == 0 {
                    piece = piece.to_uppercase();
                }
                text.push_str(&piece);
                text.push_str(joints[next(joints.len())]);
            }
            let query = TextQuery::from_words(&text, &ontology);
            assert_eq!(query, from_words_reference(&text, &ontology), "text {text:?}");
            matched += usize::from(!query.is_empty());
        }
        // Not vacuous: most texts name some concept.
        assert!(matched > 2_000, "{matched} of 4000 texts matched a concept");
    }
}
