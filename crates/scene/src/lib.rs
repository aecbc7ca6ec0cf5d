//! # aivc-scene — synthetic video scenes with ground-truth annotations
//!
//! The paper evaluates on real footage (StreamingBench videos) that we cannot ship or decode
//! here. This crate provides the substitute substrate: **synthetic scenes** that are
//! compositions of labelled objects. Every object carries
//!
//! * a set of semantic [`Concept`]s (what it *is*, for the CLIP-like model),
//! * a spatial region and motion (what it *costs* to encode, for the codec simulator),
//! * a detail level and optional text content (how *sensitive* it is to quality degradation,
//!   for the MLLM accuracy model), and
//! * ground-truth [`SceneFact`]s (what questions can be asked about it, for DeViBench).
//!
//! Because the downstream models (codec R-D, CLIP correlation, MLLM accuracy) only consume
//! these per-region descriptors — never raw pixels — a synthetic scene exercises exactly the
//! same code paths as a decoded real video would, while making the ground truth explicit.
//!
//! The crate is fully deterministic: all randomness goes through seeded ChaCha RNGs.

pub mod concept;
pub mod corpus;
pub mod fact;
pub mod frame;
pub mod geometry;
pub mod grid_content;
pub mod object;
pub mod scene;
pub mod source;
pub mod templates;

pub use concept::{Concept, Ontology};
pub use corpus::{Corpus, VideoClip};
pub use fact::{FactCategory, SceneFact};
pub use frame::{Frame, RegionContent};
pub use geometry::{GridDims, Rect};
pub use grid_content::CoverageTable;
pub use object::SceneObject;
pub use scene::Scene;
pub use source::{SourceConfig, VideoSource};
