//! # aivc-semantics — a CLIP-like image/text embedding model over scene concepts
//!
//! The paper computes the semantic correlation between the user's words and video regions
//! with (Mobile-)CLIP: both are mapped into a shared feature space and compared by cosine
//! similarity (Eq. 1). We cannot run a pretrained CLIP here, so this crate provides a
//! deterministic substitute with the same interface and the same *behavioural* properties:
//!
//! * text mentioning an object correlates strongly with the patches that show it;
//! * correlation extends to *related* concepts through an ontology (the paper's "grass
//!   implies the season" example in Figure 5) — no exact keyword match needed;
//! * unrelated regions (background, other objects) receive near-zero correlation;
//! * correlations live in `[-1, 1]`, exactly as Eq. 1 requires, so the downstream QP
//!   mapping (Eq. 2) is exercised over its full input range.
//!
//! The construction: every concept gets a deterministic pseudo-random base direction in a
//! `d`-dimensional space (hash-seeded Gaussian, normalized), and a concept's embedding is the
//! relatedness-weighted sum of base directions of all ontology concepts. Text embeddings pool
//! the concepts mentioned by the words; patch embeddings pool the concepts of the objects
//! covering the patch, weighted by coverage. Cosine similarity of such embeddings behaves
//! like a (noiseless, miniature) CLIP over the scene vocabulary.

pub mod clip;
pub mod embedding;
pub mod importance;
pub mod text;
pub mod vision;

pub use clip::{ClipConfig, ClipMemo, ClipModel, ClipScratch, ClipWork, ZeroPatchSize};
pub use embedding::Embedding;
pub use importance::ImportanceMap;
pub use text::TextQuery;
