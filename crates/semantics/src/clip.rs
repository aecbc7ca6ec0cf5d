//! The CLIP-model facade: text encoder + patch encoder + Eq. 1.
//!
//! [`ClipModel::correlation_map`] implements the paper's §3.2 procedure: partition the
//! frame into N×N patches, embed each patch with the visual encoder, embed the user words
//! with the language encoder, and output the cosine similarity ρ_mn per patch.
//! [`ClipModel::correlation_map_naive`] writes that procedure out patch by patch — pool the
//! concepts, normalize, cosine — and is the reference the production path is tested against.
//!
//! **Eq. 1 in closed form.** Concept pooling is linear. A patch's pooled vector is
//! `v = Σᵢ aᵢ Pᵢ`, where `Pᵢ` is one frame object's weighted concept sum (the concepts of
//! positive weight, the naive path's filter) or the background's, and `aᵢ` is that object's
//! coverage of the patch (the background's: its uncovered fraction × 0.25). Normalizing `v`
//! only rescales it, so with the query embedding `q`, the per-term dots `pᵢ = Pᵢ·q` and the
//! Gram table `Gᵢⱼ = Pᵢ·Pⱼ` over the frame's objects and its background,
//!
//! ```text
//! ρ = calibrate( Σᵢ aᵢ pᵢ / ( √(Σᵢⱼ aᵢ aⱼ Gᵢⱼ) · ‖q‖ ) )
//! ```
//!
//! with the naive path's guard: a pooled vector of norm below `1e-12` (or a NaN norm)
//! correlates 0. A [`ClipMemo`] builds `p` when the query or the concepts change and `G`
//! when the concepts change, so a patch costs a few dozen flops over its two or three terms
//! where the pool → normalize → cosine sequence costs several hundred over 64 dimensions.
//!
//! **Error.** The closed form computes the naive path's real numbers in another order:
//! each dimension's products are summed per term first. Every sum has a handful of terms,
//! and concept embeddings are relatedness-weighted sums of near-orthogonal directions, so no
//! two terms nearly cancel: the two orders differ by a few ulps of ρ (≤ 1.2e-15 over the
//! template corpus). The tests hold `|ρ − ρ_naive| ≤ 1e-12` and, what the sender reads,
//! the same Eq. 2 QP in every cell at every γ the ablation sweeps. Production forms
//! compared with each other — coherent against full, a borrowed raster after any lender
//! history — stay equal bit for bit: a patch's ρ is one fixed expression of its raster
//! cell and the memo's tables.
//!
//! **The raster is borrowed.** The one entry, [`ClipModel::correlation_map_on_raster`],
//! owns no raster: what it keeps across captures is a [`ClipMemo`] (the resolved concepts,
//! the query embedding, `p`, `G` and the map). The turn engine lends it the rate plan's CTU
//! raster — the paper's 64-px patches *are* the CTUs — so a conversation rasterizes each
//! capture once; [`ClipScratch`] bundles a raster of its own for every other caller, and
//! [`ClipModel::correlation_map_coherent`] is "update that raster, call the entry".
//!
//! **What moved is the raster's decision.** [`GridContent::update`] remembers the previous
//! capture and reports the cells whose coverage can differ; this module only decides
//! whether the map it holds is still *about* that capture (same model, query, concepts and
//! geometry, and a raster one update past the generation the memo last read) — if so the
//! raster's dirty cells are re-evaluated, otherwise all of them — and reports which
//! ([`Rewritten`]), so the sender re-runs Eq. 2 on those cells alone.

use crate::embedding::Embedding;
use crate::importance::ImportanceMap;
use crate::text::TextQuery;
use crate::vision::{ConceptSpace, PatchEncoder};
use aivc_scene::grid_content::GridContent;
use aivc_scene::{Concept, Frame, GridDims, Ontology, SceneObject};
use std::sync::Arc;

/// Shared embedding dimension `d` of the Mobile-CLIP-like prototype (§3.2).
const EMBEDDING_DIM: usize = 64;
/// Per-patch visual-encoder compute latency in microseconds on the reference mobile device
/// (Mobile-CLIP class models run a 1080p patch grid in a few milliseconds).
const PATCH_ENCODE_LATENCY_US: f64 = 14.0;
/// Text-encoder latency in microseconds.
const TEXT_ENCODE_LATENCY_US: u64 = 1_500;
/// Contrastive calibration bias: the typical cosine similarity between *unrelated*
/// text/patch pairs, subtracted (and rescaled) before reporting ρ. Raw CLIP similarities
/// cluster well above zero even for unrelated pairs; calibrating them keeps Eq. 2 from
/// spending bitrate on regions that are merely "scene-typical".
const SIMILARITY_BIAS: f64 = 0.22;

/// CLIP model configuration: the patch size, the one value the paper's experiments vary
/// (`ablation_patch_size`); dimension, latencies and calibration bias are the constants above.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClipConfig {
    /// Patch edge length `N` in pixels; at least 1.
    pub patch_size: u32,
}

impl ClipConfig {
    /// The paper's prototype (§3.2): Mobile-CLIP-like, 64-pixel patches.
    fn mobile_clip() -> Self {
        Self { patch_size: 64 }
    }
}

/// Why [`ClipModel::try_new`] rejected a configuration: `patch_size` is zero, and a frame
/// cannot be partitioned into patches of no pixels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZeroPatchSize;

impl core::fmt::Display for ZeroPatchSize {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("CLIP config invalid: patch_size must be at least 1 pixel, got 0")
    }
}

/// A frame's concept content resolved to embedding-table indices: what the Gram table is
/// built from instead of `BTreeMap<Concept, _>` string look-ups.
#[derive(Debug, Clone, Default)]
struct ResolvedConcepts {
    /// `(object_id, start, end)` — each frame object's slice of [`ResolvedConcepts::flat`],
    /// in frame order: term `i` of the Gram table is object `i`, the last term the background.
    object_entries: Vec<(u32, u32, u32)>,
    /// Flattened `(concept_index, weight)` lists for every object of the frame.
    flat: Vec<(u32, f64)>,
    /// Resolved `(concept_index, weight)` list of the frame's background concepts.
    background_flat: Vec<(u32, f64)>,
    /// Embeddings of out-of-ontology concepts; indices `>= ConceptSpace::len()` in the flat
    /// lists point here (offset by the table length). Persists across frames: a seeded
    /// direction depends only on the concept name and the model's dim, and the flat lists
    /// that reference it are rebuilt on every resolve, so stale entries are merely unused —
    /// while repeated out-of-ontology concepts stay allocation-free across a turn.
    extra: Vec<(Concept, Embedding)>,
}

impl ResolvedConcepts {
    /// Resolves the frame's object and background concepts, reusing the flat buffers.
    /// Out-of-ontology concepts get deterministic directions in `extra` (identical values
    /// to the directions `ConceptSpace::pool` gives them).
    fn resolve_frame(&mut self, model: &ClipModel, frame: &Frame) {
        self.object_entries.clear();
        self.flat.clear();
        self.background_flat.clear();
        for object in frame.objects.iter() {
            let start = self.flat.len() as u32;
            for (concept, weight) in &object.concepts {
                let idx = self.resolve_concept(model, concept);
                self.flat.push((idx, *weight));
            }
            self.object_entries
                .push((object.id, start, self.flat.len() as u32));
        }
        for (concept, weight) in frame.background_concepts.iter() {
            let idx = self.resolve_concept(model, concept);
            self.background_flat.push((idx, *weight));
        }
    }

    fn resolve_concept(&mut self, model: &ClipModel, concept: &Concept) -> u32 {
        if let Some(idx) = model.space.concept_index(concept) {
            return idx;
        }
        let table_len = model.space.len() as u32;
        if let Some(pos) = self.extra.iter().position(|(c, _)| c == concept) {
            return table_len + pos as u32;
        }
        self.extra.push((
            concept.clone(),
            Embedding::seeded_direction(concept.name(), EMBEDDING_DIM),
        ));
        table_len + (self.extra.len() - 1) as u32
    }

    fn embedding<'a>(&'a self, model: &'a ClipModel, concept_idx: u32) -> &'a Embedding {
        let table_len = model.space.len() as u32;
        if concept_idx < table_len {
            model.space.embedding_at(concept_idx)
        } else {
            &self.extra[(concept_idx - table_len) as usize].1
        }
    }

    /// Terms of the Gram table: one per frame object, then the background.
    fn terms(&self) -> usize {
        self.object_entries.len() + 1
    }

    /// The term of the first frame object with id `object_id` (the object the naive path's
    /// `Frame::object` finds), or `None` for a placement of an object the frame lacks.
    fn term_of(&self, object_id: u32) -> Option<usize> {
        self.object_entries.iter().position(|&(id, _, _)| id == object_id)
    }

    /// `Pᵢ` into `out`: term `term`'s concepts of positive weight, weight times embedding,
    /// summed in list order.
    fn pool_term(&self, model: &ClipModel, term: usize, out: &mut [f64; EMBEDDING_DIM]) {
        let concepts = match self.object_entries.get(term) {
            Some(&(_, start, end)) => &self.flat[start as usize..end as usize],
            None => &self.background_flat[..],
        };
        out.fill(0.0);
        for &(concept_idx, weight) in concepts {
            if weight > 0.0 {
                for (acc, e) in out.iter_mut().zip(self.embedding(model, concept_idx).values()) {
                    *acc += e * weight;
                }
            }
        }
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Whether two frames' objects carry the same concepts: the same ids in the same order, and
/// the same concept names and weight bits — all Eq. 1 reads of an object besides its
/// placements, which the raster compares.
fn same_object_concepts(a: &[SceneObject], b: &[SceneObject]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(a, b)| a.id == b.id && same_concept_weights(&a.concepts, &b.concepts))
}

fn same_concept_weights(a: &[(Concept, f64)], b: &[(Concept, f64)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|((ca, wa), (cb, wb))| ca == cb && wa.to_bits() == wb.to_bits())
}

/// The cells of its map one [`ClipModel::correlation_map_on_raster`] call wrote: what a
/// reader holding per-cell state derived from the previous map must refresh.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rewritten {
    /// Every cell: the map was rebuilt.
    Every,
    /// The raster's [`GridContent::dirty_cells`]; every other cell holds the value the
    /// previous call gave it.
    Dirty,
}

/// What Eq. 1 carries from one capture of a video to the next: the frame's resolved
/// concepts and the query embedding, the closed form's tables built from them, and the map
/// of the previous capture.
///
/// The tables are rebuilt only when what they are built from changes: the concepts when the
/// frame's objects or background carry other concepts or weights (checked exactly — the memo
/// holds the frame's `Arc`s, so an equal pointer is the same content — and field by field
/// otherwise), `p` when the query changes too. The map is kept while it is still *about*
/// the raster being read — same model, query, concepts and geometry, and a raster updated
/// exactly once since the memo last read it ([`GridContent::follows`]) — so only the cells
/// that update recomputed are re-evaluated. The model is checked by identity: handing the
/// memo to a different model drops everything, so a memo may be shared between models (at
/// the price of a full rebuild on every switch).
///
/// A memo holds no raster of its own: [`ClipModel::correlation_map_on_raster`] reads one it
/// is lent (a conversation's rate plan holds the CTU raster its 64-px patches share), and a
/// [`ClipScratch`] bundles one with a memo for callers without a raster to lend.
#[derive(Debug, Clone)]
pub struct ClipMemo {
    /// Identity of the model the memoized state below belongs to.
    model: Option<u64>,
    /// The objects and background concepts [`ClipMemo::concepts`] was resolved from.
    objects: Option<Arc<[SceneObject]>>,
    background: Option<Arc<[(Concept, f64)]>>,
    /// Concept lists of those objects and that background.
    concepts: ResolvedConcepts,
    /// The query whose embedding is currently memoized.
    cached_query: Option<TextQuery>,
    /// Memoized text embedding of [`ClipMemo::cached_query`].
    query_embedding: Embedding,
    /// Memoized [`Embedding::norm`] of [`ClipMemo::query_embedding`].
    query_norm: f64,
    /// `pᵢ = Pᵢ·q` per term of [`ResolvedConcepts`].
    query_dot: Vec<f64>,
    /// `Gᵢⱼ = Pᵢ·Pⱼ`, row-major over the same terms.
    gram: Vec<f64>,
    /// One cell's `(term, coefficient)` list, refilled per cell.
    cell_terms: Vec<(usize, f64)>,
    /// The output map, refilled in place.
    map: ImportanceMap,
    /// [`GridContent::generation`] of the raster [`ClipMemo::map`] was computed from.
    raster_generation: u64,
    /// Whether [`ClipMemo::map`] holds a result the incremental path may build on.
    prev_valid: bool,
}

impl Default for ClipMemo {
    fn default() -> Self {
        Self::new()
    }
}

impl ClipMemo {
    /// Creates an empty memo.
    pub fn new() -> Self {
        Self {
            model: None,
            objects: None,
            background: None,
            concepts: ResolvedConcepts::default(),
            cached_query: None,
            query_embedding: Embedding::zeros(0),
            query_norm: 0.0,
            query_dot: Vec::new(),
            gram: Vec::new(),
            cell_terms: Vec::new(),
            map: ImportanceMap::empty(),
            raster_generation: 0,
            prev_valid: false,
        }
    }

    /// Binds the memo to `model`. Everything memoized — the query embedding, the
    /// out-of-ontology directions, the resolved concepts and the tables, the coherence state
    /// — was computed against one model's concept table, so a model over another ontology
    /// starts from nothing. (One that differs in `patch_size` alone shares the table; the
    /// patch grid of the map held is compared per call.)
    fn bind_model(&mut self, model: &ClipModel) {
        if self.model != Some(model.identity) {
            self.model = Some(model.identity);
            self.cached_query = None;
            self.objects = None;
            self.background = None;
            self.concepts.extra.clear();
            self.prev_valid = false;
        }
    }

    /// Whether the resolved concepts are `frame`'s. A content match by value takes over the
    /// frame's handles, so the next frame of the same source matches by pointer.
    fn adopt_concepts(&mut self, frame: &Frame) -> bool {
        let same = match (&self.objects, &self.background) {
            (Some(objects), Some(background)) => {
                (Arc::ptr_eq(objects, &frame.objects) || same_object_concepts(objects, &frame.objects))
                    && (Arc::ptr_eq(background, &frame.background_concepts)
                        || same_concept_weights(background, &frame.background_concepts))
            }
            _ => false,
        };
        self.objects = Some(Arc::clone(&frame.objects));
        self.background = Some(Arc::clone(&frame.background_concepts));
        same
    }

    /// Brings the resolved concepts, the query embedding and the tables to `frame` and
    /// `query`, rebuilding only what they changed. Returns whether everything was kept.
    fn refresh(&mut self, model: &ClipModel, frame: &Frame, query: &TextQuery) -> bool {
        let concepts_kept = self.adopt_concepts(frame);
        if !concepts_kept {
            self.concepts.resolve_frame(model, frame);
        }
        let query_kept = self.cached_query.as_ref() == Some(query);
        if !query_kept {
            model.space.pool_into(&query.concepts, &mut self.query_embedding);
            self.query_norm = self.query_embedding.norm();
            match &mut self.cached_query {
                Some(cached) => copy_query(cached, query),
                empty => *empty = Some(query.clone()),
            }
        }
        if !(concepts_kept && query_kept) {
            self.build_tables(model, !concepts_kept);
        }
        concepts_kept && query_kept
    }

    /// Builds `p` — and `G` too when `gram` is set — from the resolved concepts and the
    /// query. `Pⱼ` is pooled again for every pair rather than kept, so the only buffers are
    /// the tables themselves: `G` has `(n + 1)²` entries for a frame of `n` objects.
    fn build_tables(&mut self, model: &ClipModel, gram: bool) {
        let terms = self.concepts.terms();
        let (mut p_i, mut p_j) = ([0.0; EMBEDDING_DIM], [0.0; EMBEDDING_DIM]);
        self.query_dot.clear();
        if gram {
            self.gram.clear();
            self.gram.resize(terms * terms, 0.0);
        }
        for i in 0..terms {
            self.concepts.pool_term(model, i, &mut p_i);
            self.query_dot.push(dot(&p_i, self.query_embedding.values()));
            if gram {
                for j in 0..i {
                    self.concepts.pool_term(model, j, &mut p_j);
                    let g = dot(&p_i, &p_j);
                    self.gram[i * terms + j] = g;
                    self.gram[j * terms + i] = g;
                }
                self.gram[i * terms + i] = dot(&p_i, &p_i);
            }
        }
    }

    /// Whether the memoized query has no recognizable concept ([`Embedding::is_zero`]).
    fn query_is_empty(&self) -> bool {
        self.query_norm < 1e-12
    }

    /// Eq. 1 for one cell of coverage `coverage` and uncovered fraction `background`, in
    /// closed form (see the module docs).
    fn cell_rho(
        &mut self,
        coverage: impl Iterator<Item = (u32, f64)>,
        background: f64,
        background_weight: f64,
    ) -> f64 {
        let concepts = &self.concepts;
        self.cell_terms.clear();
        self.cell_terms.extend(
            coverage.filter_map(|(object_id, fraction)| Some((concepts.term_of(object_id)?, fraction))),
        );
        if background > 0.0 {
            self.cell_terms
                .push((concepts.terms() - 1, background * background_weight));
        }
        let terms = concepts.terms();
        let (mut along_query, mut norm_sq) = (0.0, 0.0);
        for &(i, a_i) in &self.cell_terms {
            along_query += a_i * self.query_dot[i];
            let row = &self.gram[i * terms..(i + 1) * terms];
            norm_sq += a_i * self.cell_terms.iter().map(|&(j, a_j)| a_j * row[j]).sum::<f64>();
        }
        let norm = norm_sq.sqrt();
        // A NaN root — of a sum rounded below zero — fails the test too: a pooled vector
        // that small is the naive path's zero vector.
        let raw = if norm >= 1e-12 {
            (along_query / (norm * self.query_norm)).clamp(-1.0, 1.0)
        } else {
            0.0
        };
        calibrate(raw)
    }
}

/// Copies `source` into `target` in place: strings and lists keep their allocations, so two
/// questions taking turns cost no allocation once each has been seen.
fn copy_query(target: &mut TextQuery, source: &TextQuery) {
    target.text.clone_from(&source.text);
    target.concepts.truncate(source.concepts.len());
    for ((concept, weight), (from, from_weight)) in target.concepts.iter_mut().zip(&source.concepts) {
        concept.0.clone_from(&from.0);
        *weight = *from_weight;
    }
    let copied = target.concepts.len();
    target.concepts.extend_from_slice(&source.concepts[copied..]);
}

/// Contrastive calibration: subtract the unrelated-pair baseline and rescale so the
/// reported correlation still spans [-1, 1].
fn calibrate(raw: f64) -> f64 {
    ((raw - SIMILARITY_BIAS) / (1.0 - SIMILARITY_BIAS)).clamp(-1.0, 1.0)
}

/// Everything the raster-owning correlation forms need: a patch-grid raster brought to
/// each frame they are handed and the [`ClipMemo`] that reads it.
///
/// One scratch per video (or per thread) removes every per-frame heap allocation from the
/// correlation hot path. [`ClipModel::correlation_map_with`] and
/// [`ClipModel::correlation_map_coherent`] update the scratch's raster and then run the one
/// Eq. 1 entry, [`ClipModel::correlation_map_on_raster`], on it — so these forms and a
/// caller lending its own raster share one pipeline.
#[derive(Debug, Clone, Default)]
pub struct ClipScratch {
    /// Patch-grid raster of the frames handed in, brought forward capture by capture.
    raster: GridContent,
    memo: ClipMemo,
}

impl ClipScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Moves the most recent result out of the scratch.
    fn take_map(&mut self) -> ImportanceMap {
        self.memo.prev_valid = false;
        std::mem::replace(&mut self.memo.map, ImportanceMap::empty())
    }
}

/// The CLIP-like model: ontology-grounded concept space + encoders.
#[derive(Debug, Clone)]
pub struct ClipModel {
    config: ClipConfig,
    ontology: Ontology,
    space: ConceptSpace,
    /// FNV-1a hash of the concept table (names and embeddings, in index order) — everything
    /// a memo depends on besides frame, query, patch grid and raster, which it compares
    /// itself — so a [`ClipMemo`] notices that it changed hands.
    identity: u64,
}

impl ClipModel {
    /// Builds the model over an ontology.
    ///
    /// # Panics
    ///
    /// Panics with [`ClipModel::try_new`]'s error when `patch_size` is zero.
    pub fn new(config: ClipConfig, ontology: Ontology) -> Self {
        Self::try_new(config, ontology).unwrap_or_else(|error| panic!("{error}"))
    }

    /// [`ClipModel::new`], returning the rejection instead of panicking with it.
    pub fn try_new(config: ClipConfig, ontology: Ontology) -> Result<Self, ZeroPatchSize> {
        if config.patch_size == 0 {
            return Err(ZeroPatchSize);
        }
        let space = ConceptSpace::build(&ontology, EMBEDDING_DIM);
        let fnv = |hash: u64, word: u64| (hash ^ word).wrapping_mul(0x1000_0000_01b3);
        let mut identity = 0xcbf2_9ce4_8422_2325;
        for (idx, concept) in ontology.concepts().enumerate() {
            debug_assert_eq!(space.concept_index(concept), Some(idx as u32));
            identity = concept
                .name()
                .bytes()
                .fold(identity, |hash, b| fnv(hash, b as u64));
            for value in space.embedding_at(idx as u32).values() {
                identity = fnv(identity, value.to_bits());
            }
        }
        Ok(Self {
            config,
            ontology,
            space,
            identity,
        })
    }

    /// Builds the model with the standard ontology and Mobile-CLIP configuration.
    pub fn mobile_default() -> Self {
        Self::new(ClipConfig::mobile_clip(), Ontology::standard())
    }

    /// The configuration.
    pub fn config(&self) -> ClipConfig {
        self.config
    }

    /// The ontology the model is grounded in.
    pub fn ontology(&self) -> &Ontology {
        &self.ontology
    }

    /// Encodes user words into the shared space — φ_l(T) in Eq. 1.
    fn encode_text(&self, query: &TextQuery) -> Embedding {
        self.space.pool(&query.concepts)
    }

    /// Computes the per-patch semantic correlation map ρ_mn (Eq. 1) for a frame and query.
    ///
    /// An empty query (no recognizable concepts) yields an all-zero map: with nothing to
    /// anchor on, every region is equally (un)important, and the downstream QP allocator
    /// degrades gracefully to near-uniform QP.
    ///
    /// This convenience form allocates its own scratch; per-frame loops should hold a
    /// [`ClipScratch`] and call [`ClipModel::correlation_map_with`] (or, for consecutive
    /// frames of a video, [`ClipModel::correlation_map_coherent`]) instead, which is
    /// allocation-free after warmup and encodes the text query only once per turn.
    pub fn correlation_map(&self, frame: &Frame, query: &TextQuery) -> ImportanceMap {
        let mut scratch = ClipScratch::new();
        self.correlation_map_with(frame, query, &mut scratch);
        scratch.take_map()
    }

    /// [`ClipModel::correlation_map`] with caller-owned scratch buffers: every cell is
    /// evaluated, whatever the scratch held before.
    ///
    /// The returned map lives inside `scratch` and is valid until the next call. After the
    /// first call with a given frame/query shape, the routine performs no heap allocation.
    pub fn correlation_map_with<'s>(
        &self,
        frame: &Frame,
        query: &TextQuery,
        scratch: &'s mut ClipScratch,
    ) -> &'s ImportanceMap {
        scratch.memo.prev_valid = false;
        self.correlation_map_coherent(frame, query, scratch)
    }

    /// Incremental form of [`ClipModel::correlation_map_with`], exploiting the temporal
    /// coherence of video: brings the scratch's raster to `frame` ([`GridContent::update`])
    /// and runs [`ClipModel::correlation_map_on_raster`] on it, so only patches whose
    /// content can have changed since the previous frame are re-evaluated. A drop-in
    /// replacement for `correlation_map_with` with identical output for any frame sequence
    /// (see the equivalence tests and `tests/model_properties.rs`).
    pub fn correlation_map_coherent<'s>(
        &self,
        frame: &Frame,
        query: &TextQuery,
        scratch: &'s mut ClipScratch,
    ) -> &'s ImportanceMap {
        scratch.raster.update(frame, self.config.patch_size);
        self.correlation_map_on_raster(&scratch.raster, frame, query, &mut scratch.memo)
            .0
    }

    /// The one Eq. 1 entry: the correlation map of `frame` from `raster` — a raster of
    /// `frame` on this model's patch grid (filled or updated with `patch_size`), owned by
    /// the caller — kept in `memo`.
    ///
    /// When the map `memo` holds is about the raster's previous content (same model, query,
    /// concepts and geometry, and the raster [`GridContent::follows`] the generation the
    /// memo last read), only the raster's dirty cells are re-evaluated — every patch
    /// overlapping the previous *or* current placement of an object that moved, minus the
    /// patches lying fully inside both. Otherwise (first frame, concept, query, geometry or
    /// model change, a raster update the memo did not see, a different raster, a stolen
    /// map) the whole grid is evaluated, after rebuilding whichever of the concept lists,
    /// the query embedding and the closed form's tables changed. Either way every cell's ρ
    /// is the closed form of the module docs, and the map comes back with the cells the call
    /// wrote ([`Rewritten`]).
    ///
    /// # Panics
    ///
    /// Panics when `raster` is not on this model's patch grid for `frame`.
    pub fn correlation_map_on_raster<'m>(
        &self,
        raster: &GridContent,
        frame: &Frame,
        query: &TextQuery,
        memo: &'m mut ClipMemo,
    ) -> (&'m ImportanceMap, Rewritten) {
        let dims = GridDims::for_frame(frame.width, frame.height, self.config.patch_size);
        assert_eq!(
            raster.dims(),
            dims,
            "the raster is not on the model's patch grid for this frame"
        );
        memo.bind_model(self);
        let kept = memo.refresh(self, frame, query)
            && memo.prev_valid
            && memo.map.dims() == dims
            && memo.map.width() == frame.width
            && memo.map.height() == frame.height
            && raster.follows(memo.raster_generation);
        memo.raster_generation = raster.generation();
        if !kept {
            // Zero-filled, which is already the (frame-independent) empty-query map.
            memo.map.begin_refill(dims, frame.width, frame.height);
            memo.prev_valid = true;
        }
        if !memo.query_is_empty() {
            let background_weight = PatchEncoder::new(&self.space).background_weight();
            let mut evaluate = |idx: usize| {
                let rho = memo.cell_rho(
                    raster.coverage().cell(idx),
                    raster.background_fraction()[idx],
                    background_weight,
                );
                memo.map.set_value(idx, rho);
            };
            if kept {
                raster.dirty_cells().for_each(&mut evaluate);
            } else {
                (0..dims.len()).for_each(&mut evaluate);
            }
        }
        let rewritten = if kept { Rewritten::Dirty } else { Rewritten::Every };
        (&memo.map, rewritten)
    }

    /// The direct per-patch procedure — pool, normalize, cosine, calibrate, allocating per
    /// patch — kept as the reference the closed form is tested against.
    #[doc(hidden)]
    pub fn correlation_map_naive(&self, frame: &Frame, query: &TextQuery) -> ImportanceMap {
        let dims = GridDims::for_frame(frame.width, frame.height, self.config.patch_size);
        let text_embedding = self.encode_text(query);
        if text_embedding.is_zero() {
            return ImportanceMap::uniform(dims, frame.width, frame.height, 0.0);
        }
        let patch_encoder = PatchEncoder::new(&self.space);
        let mut rho = Vec::with_capacity(dims.len());
        for row in 0..dims.rows {
            for col in 0..dims.cols {
                let rect = dims.cell_rect(row, col, frame.width, frame.height);
                let patch_embedding = patch_encoder.embed_patch(frame, &rect);
                rho.push(calibrate(patch_embedding.cosine(&text_embedding)));
            }
        }
        ImportanceMap::new(dims, frame.width, frame.height, rho)
    }

    /// Estimated compute latency of one correlation-map evaluation, in microseconds.
    /// Used by the end-to-end latency budget (the paper's "client-side computation" concern).
    pub fn inference_latency_us(&self, frame_width: u32, frame_height: u32) -> u64 {
        let dims = GridDims::for_frame(frame_width, frame_height, self.config.patch_size);
        TEXT_ENCODE_LATENCY_US + (dims.len() as f64 * PATCH_ENCODE_LATENCY_US).round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aivc_scene::templates::{basketball_game, dog_park};
    use aivc_scene::{Rect, SourceConfig, VideoSource};

    /// The γ values of the paper's ablation (`ablation_gamma`).
    const GAMMAS: [f64; 6] = [0.5, 1.0, 2.0, 3.0, 5.0, 8.0];

    /// Eq. 2's `powf` expression, the QP the allocator downstream (`aivchat-core`) gives ρ.
    fn eq2_qp(gamma: f64, rho: f64) -> f64 {
        (51.0 * (1.0 - ((rho.clamp(-1.0, 1.0) + 1.0) / 2.0).powf(gamma))).round()
    }

    /// The oracle relation of the closed form: every cell within 1e-12 of the naive map's,
    /// and given the same Eq. 2 QP at every γ the ablation sweeps — what the sender reads.
    fn assert_matches_naive(map: &ImportanceMap, naive: &ImportanceMap, what: &str) {
        assert_eq!(
            (map.dims(), map.width(), map.height()),
            (naive.dims(), naive.width(), naive.height()),
            "{what}: geometry"
        );
        for (idx, (&rho, &expected)) in map.values().iter().zip(naive.values()).enumerate() {
            assert!(
                (rho - expected).abs() <= 1e-12,
                "{what}: cell {idx} has rho {rho}, the naive path {expected}"
            );
            for gamma in GAMMAS {
                assert_eq!(
                    eq2_qp(gamma, rho),
                    eq2_qp(gamma, expected),
                    "{what}: cell {idx} at gamma {gamma}"
                );
            }
        }
    }

    fn frame_of(scene: aivc_scene::Scene) -> Frame {
        VideoSource::new(scene, SourceConfig::fps30(5.0)).frame(0)
    }

    /// Mean rho of the patches overlapping a rectangle.
    fn mean_rho_in(map: &ImportanceMap, rect: &Rect) -> f64 {
        let dims = map.dims();
        let mut sum = 0.0;
        let mut n = 0usize;
        for row in 0..dims.rows {
            for col in 0..dims.cols {
                let cell = dims.cell_rect(row, col, map.width(), map.height());
                if cell.coverage_by(rect) > 0.5 {
                    sum += map.get(row, col);
                    n += 1;
                }
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    #[test]
    fn score_question_highlights_scoreboard() {
        let model = ClipModel::mobile_default();
        let frame = frame_of(basketball_game(1));
        let query = TextQuery::from_words(
            "Could you tell me the present score of the game?",
            model.ontology(),
        );
        let map = model.correlation_map(&frame, &query);
        let scoreboard = frame.placement(1).unwrap().region;
        let spectators = frame.placement(5).unwrap().region;
        let background = Rect::new(1600, 950, 256, 128);
        let rho_board = mean_rho_in(&map, &scoreboard);
        let rho_crowd = mean_rho_in(&map, &spectators);
        let rho_bg = mean_rho_in(&map, &background);
        assert!(rho_board > 0.5, "scoreboard rho {rho_board}");
        assert!(
            rho_board > rho_crowd,
            "scoreboard {rho_board} vs crowd {rho_crowd}"
        );
        assert!(
            rho_board > rho_bg + 0.3,
            "scoreboard {rho_board} vs background {rho_bg}"
        );
    }

    #[test]
    fn ear_question_highlights_dog_head_over_grass() {
        let model = ClipModel::mobile_default();
        let frame = frame_of(dog_park(1));
        let query = TextQuery::from_words(
            "Is the dog in the video erect-eared or floppy-eared?",
            model.ontology(),
        );
        let map = model.correlation_map(&frame, &query);
        let head = frame.placement(2).unwrap().region;
        let grass = frame.placement(3).unwrap().region;
        let rho_head = mean_rho_in(&map, &head);
        let rho_grass = mean_rho_in(&map, &grass);
        assert!(rho_head > rho_grass, "head {rho_head} vs grass {rho_grass}");
    }

    #[test]
    fn season_question_highlights_grass_via_inference() {
        // Figure 5's third dialogue: "Infer what season it might be" — no object named
        // explicitly, yet grass must light up through the grass↔season relation.
        let model = ClipModel::mobile_default();
        let frame = frame_of(dog_park(1));
        let query = TextQuery::from_words("Infer what season it might be in the video", model.ontology());
        let map = model.correlation_map(&frame, &query);
        let grass = frame.placement(3).unwrap().region;
        let dog = frame.placement(1).unwrap().region;
        let rho_grass = mean_rho_in(&map, &grass);
        let rho_dog = mean_rho_in(&map, &dog);
        assert!(rho_grass > rho_dog, "grass {rho_grass} vs dog {rho_dog}");
        assert!(rho_grass > 0.2, "grass rho {rho_grass}");
    }

    #[test]
    fn empty_query_gives_uniform_zero_map() {
        let model = ClipModel::mobile_default();
        let frame = frame_of(basketball_game(1));
        let query = TextQuery::from_words("qqq zzz", model.ontology());
        let map = model.correlation_map(&frame, &query);
        assert!(map.values().iter().all(|v| *v == 0.0));
    }

    #[test]
    fn correlations_are_within_eq1_bounds() {
        let model = ClipModel::mobile_default();
        let frame = frame_of(basketball_game(2));
        let query = TextQuery::from_words(
            "What logo is seen on the jersey of the player covering his mouth?",
            model.ontology(),
        );
        let map = model.correlation_map(&frame, &query);
        assert!(map.values().iter().all(|v| (-1.0..=1.0).contains(v)));
        assert_eq!(map.dims().cell, model.config().patch_size);
    }

    #[test]
    fn finer_patches_give_finer_grid_and_more_latency() {
        let coarse = ClipModel::new(ClipConfig::mobile_clip(), Ontology::standard());
        let fine = ClipModel::new(ClipConfig { patch_size: 32 }, Ontology::standard());
        let frame = frame_of(basketball_game(1));
        let q = TextQuery::from_words("score", coarse.ontology());
        assert!(
            fine.correlation_map(&frame, &q).dims().len() > coarse.correlation_map(&frame, &q).dims().len()
        );
        assert!(fine.inference_latency_us(1920, 1080) > coarse.inference_latency_us(1920, 1080));
    }

    #[test]
    fn a_zero_patch_size_is_rejected_at_construction() {
        let config = ClipConfig { patch_size: 0 };
        let error = ClipModel::try_new(config, Ontology::standard()).expect_err("must be rejected");
        assert_eq!(error, ZeroPatchSize);
        let message = error.to_string();
        assert!(
            message.contains("patch_size") && message.ends_with("got 0"),
            "{message}"
        );
        let panic = std::panic::catch_unwind(|| ClipModel::new(config, Ontology::standard()))
            .expect_err("new must refuse it too");
        assert_eq!(panic.downcast_ref::<String>(), Some(&message));
        // One pixel and one patch for the whole frame both run.
        let frame = VideoSource::new(
            aivc_scene::Scene::new("tiny", 7, 5).with_background(0.3, 0.1, vec![]),
            SourceConfig::fps30(1.0),
        )
        .frame(0);
        for patch_size in [1, u32::MAX] {
            let model = ClipModel::new(ClipConfig { patch_size }, Ontology::standard());
            let query = TextQuery::from_words("score", model.ontology());
            let map = model.correlation_map(&frame, &query);
            let naive = model.correlation_map_naive(&frame, &query);
            assert_matches_naive(&map, &naive, &format!("{patch_size}-px patches"));
            assert_eq!(map.dims().len(), if patch_size == 1 { 35 } else { 1 });
        }
    }

    #[test]
    fn scratch_path_matches_naive_on_basketball_game() {
        let model = ClipModel::mobile_default();
        let mut scratch = ClipScratch::new();
        let scene = basketball_game(1);
        let source = VideoSource::new(scene, SourceConfig::fps30(5.0));
        let query = TextQuery::from_words(
            "Could you tell me the present score of the game?",
            model.ontology(),
        );
        for frame_idx in [0, 15, 30, 60] {
            let frame = source.frame(frame_idx);
            let naive = model.correlation_map_naive(&frame, &query);
            let optimized = model.correlation_map_with(&frame, &query, &mut scratch);
            assert_matches_naive(optimized, &naive, &format!("frame {frame_idx}"));
        }
    }

    #[test]
    fn scratch_path_matches_naive_on_dog_park() {
        let model = ClipModel::mobile_default();
        let mut scratch = ClipScratch::new();
        let source = VideoSource::new(dog_park(1), SourceConfig::fps30(5.0));
        for (text, frame_idx) in [
            ("Is the dog in the video erect-eared or floppy-eared?", 0),
            ("Infer what season it might be in the video", 10),
            ("qqq zzz", 20), // empty query: both paths must give the all-zero map
        ] {
            let frame = source.frame(frame_idx);
            let query = TextQuery::from_words(text, model.ontology());
            let naive = model.correlation_map_naive(&frame, &query);
            let optimized = model.correlation_map_with(&frame, &query, &mut scratch);
            assert_matches_naive(optimized, &naive, &format!("query {text:?}"));
        }
    }

    #[test]
    fn convenience_form_matches_scratch_form_and_naive() {
        let model = ClipModel::mobile_default();
        let frame = frame_of(basketball_game(2));
        let query = TextQuery::from_words("How many spectators can be seen?", model.ontology());
        let via_convenience = model.correlation_map(&frame, &query);
        let mut scratch = ClipScratch::new();
        assert_eq!(
            &via_convenience,
            model.correlation_map_with(&frame, &query, &mut scratch)
        );
        let naive = model.correlation_map_naive(&frame, &query);
        assert_matches_naive(&via_convenience, &naive, "convenience form");
    }

    #[test]
    fn scratch_memoizes_the_query_across_frames() {
        let model = ClipModel::mobile_default();
        let mut scratch = ClipScratch::new();
        let source = VideoSource::new(basketball_game(1), SourceConfig::fps30(5.0));
        let query = TextQuery::from_words("score", model.ontology());
        let first = model
            .correlation_map_with(&source.frame(0), &query, &mut scratch)
            .clone();
        // Re-running the same frame after other frames (same memoized query) reproduces it.
        let _ = model.correlation_map_with(&source.frame(30), &query, &mut scratch);
        let again = model.correlation_map_with(&source.frame(0), &query, &mut scratch);
        assert_eq!(again, &first);
        // Switching the query invalidates the memo and still gives the right answer.
        let other = TextQuery::from_words("How many spectators can be seen?", model.ontology());
        let switched = model.correlation_map_with(&source.frame(0), &other, &mut scratch);
        assert_eq!(switched, &model.correlation_map(&source.frame(0), &other));
        let naive = model.correlation_map_naive(&source.frame(0), &other);
        assert_matches_naive(switched, &naive, "switched query");
    }

    #[test]
    fn out_of_ontology_concepts_still_match_naive() {
        // Objects can carry concepts the ontology has never seen; the scratch path caches
        // their deterministic directions and must still agree with the naive path.
        use aivc_scene::{Scene, SceneObject};
        let mut scene = Scene::new("novel", 640, 384).with_background(
            0.2,
            0.1,
            vec![(Concept::new("mystery-backdrop"), 1.0)],
        );
        scene.add_object(
            SceneObject::new(1, "gizmo", aivc_scene::Rect::new(64, 64, 128, 128))
                .with_concept("unheard-of-gizmo", 1.0)
                .with_detail(0.5)
                .with_texture(0.5),
        );
        let model = ClipModel::mobile_default();
        let frame = VideoSource::new(scene, SourceConfig::fps30(1.0)).frame(0);
        let query = TextQuery::from_concepts("find the gizmo", ["unheard-of-gizmo"]);
        let naive = model.correlation_map_naive(&frame, &query);
        let mut scratch = ClipScratch::new();
        let optimized = model.correlation_map_with(&frame, &query, &mut scratch);
        assert_matches_naive(optimized, &naive, "out-of-ontology concepts");
    }

    #[test]
    fn coherent_path_matches_full_recompute_across_a_moving_sequence() {
        let model = ClipModel::mobile_default();
        let mut scratch = ClipScratch::new();
        let source = VideoSource::new(basketball_game(1), SourceConfig::fps30(5.0));
        let query = TextQuery::from_words(
            "Could you tell me the present score of the game?",
            model.ontology(),
        );
        // Consecutive frames (small motion), a jump (large motion), and a revisit.
        for frame_idx in [0u64, 1, 2, 3, 30, 31, 90, 0] {
            let frame = source.frame(frame_idx);
            let incremental = model
                .correlation_map_coherent(&frame, &query, &mut scratch)
                .clone();
            assert_eq!(
                incremental,
                model.correlation_map(&frame, &query),
                "frame {frame_idx}"
            );
            let naive = model.correlation_map_naive(&frame, &query);
            assert_matches_naive(&incremental, &naive, &format!("frame {frame_idx}"));
        }
    }

    #[test]
    fn coherent_path_survives_query_and_scene_switches() {
        let model = ClipModel::mobile_default();
        let mut scratch = ClipScratch::new();
        let basketball = VideoSource::new(basketball_game(1), SourceConfig::fps30(5.0));
        let park = VideoSource::new(dog_park(1), SourceConfig::fps30(5.0));
        let score = TextQuery::from_words("score", model.ontology());
        let season = TextQuery::from_words("Infer what season it might be", model.ontology());
        for (frame, query) in [
            (basketball.frame(0), &score),
            (basketball.frame(1), &score),
            (basketball.frame(2), &season), // query switch: full recompute
            (park.frame(0), &season),       // scene switch: full recompute
            (park.frame(1), &season),       // incremental again
        ] {
            let incremental = model
                .correlation_map_coherent(&frame, query, &mut scratch)
                .clone();
            assert_eq!(incremental, model.correlation_map(&frame, query));
            let naive = model.correlation_map_naive(&frame, query);
            assert_matches_naive(&incremental, &naive, "after a switch");
        }
    }

    #[test]
    fn taking_the_map_invalidates_the_coherence_state() {
        let model = ClipModel::mobile_default();
        let mut scratch = ClipScratch::new();
        let source = VideoSource::new(basketball_game(1), SourceConfig::fps30(5.0));
        let query = TextQuery::from_words("score", model.ontology());
        let _ = model.correlation_map_coherent(&source.frame(0), &query, &mut scratch);
        let _ = scratch.take_map();
        // The stolen (now empty) map must not be "updated"; the next call recomputes fully.
        let frame = source.frame(1);
        let map = model.correlation_map_coherent(&frame, &query, &mut scratch);
        assert_eq!(map, &model.correlation_map(&frame, &query));
        assert_matches_naive(map, &model.correlation_map_naive(&frame, &query), "stolen map");
    }

    #[test]
    fn closed_form_matches_naive_on_every_small_grid() {
        // Frame sizes chosen so the patch count sweeps 1..=20 plus the 1080p grid (510).
        use aivc_scene::{Scene, SceneObject};
        let model = ClipModel::mobile_default();
        let query = TextQuery::from_words("score scoreboard", model.ontology());
        for patches in (1u32..=20).chain([510]) {
            let (cols, rows) = match patches {
                510 => (30, 17),
                n if n <= 5 => (n, 1),
                n => (5, n.div_ceil(5)),
            };
            if cols * rows != patches && patches != 510 {
                continue; // only exact grids exercise a precise patch count
            }
            let width = cols * 64;
            let height = rows * 64;
            let mut scene = Scene::new("tail-sweep", width, height).with_background(
                0.3,
                0.1,
                vec![(Concept::new("crowd"), 0.8)],
            );
            scene.add_object(
                SceneObject::new(1, "board", Rect::new(10, 10, width / 2, height / 2))
                    .with_concept("scoreboard", 1.0)
                    .with_detail(0.9)
                    .with_texture(0.4),
            );
            let frame = VideoSource::new(scene, SourceConfig::fps30(1.0)).frame(0);
            let naive = model.correlation_map_naive(&frame, &query);
            let mut scratch = ClipScratch::new();
            let optimized = model.correlation_map_with(&frame, &query, &mut scratch);
            assert_matches_naive(optimized, &naive, &format!("{patches} patches ({cols}x{rows})"));
        }
    }

    #[test]
    fn closed_form_matches_naive_on_a_frame_with_no_objects() {
        // One term, the background's: a Gram table of one entry.
        use aivc_scene::Scene;
        let model = ClipModel::mobile_default();
        let scene =
            Scene::new("empty", 640, 384).with_background(0.3, 0.1, vec![(Concept::new("grass"), 1.0)]);
        let frame = VideoSource::new(scene, SourceConfig::fps30(1.0)).frame(0);
        let query = TextQuery::from_words("grass season", model.ontology());
        let naive = model.correlation_map_naive(&frame, &query);
        let mut scratch = ClipScratch::new();
        let map = model.correlation_map_with(&frame, &query, &mut scratch);
        assert_matches_naive(map, &naive, "no objects");
        assert_eq!(scratch.memo.gram.len(), 1);
    }

    #[test]
    fn correlation_map_is_deterministic() {
        let model = ClipModel::mobile_default();
        let frame = frame_of(basketball_game(3));
        let q = TextQuery::from_words("How many spectators can be seen?", model.ontology());
        assert_eq!(
            model.correlation_map(&frame, &q),
            model.correlation_map(&frame, &q)
        );
    }

    #[test]
    fn scratch_shared_by_two_models_recomputes_for_the_second() {
        // A finer patch grid over the same concept table (told apart by the map's grid), and
        // equal patch sizes with nothing but the model identity to tell them apart: an
        // ontology with one more relation, one more concept.
        let first = ClipModel::mobile_default();
        let fine = ClipModel::new(ClipConfig { patch_size: 32 }, Ontology::standard());
        let mut related = Ontology::standard();
        related.relate("score", "grass", 0.9);
        let related = ClipModel::new(ClipConfig::mobile_clip(), related);
        let mut grown = Ontology::standard();
        grown.add_concept("aardvark"); // sorts first: shifts every table index
        let grown = ClipModel::new(ClipConfig::mobile_clip(), grown);
        let frame = frame_of(basketball_game(1));
        let query = TextQuery::from_words("Could you tell me the present score?", first.ontology());
        for second in [&fine, &related, &grown] {
            let expected = second.correlation_map(&frame, &query);
            assert_matches_naive(
                &expected,
                &second.correlation_map_naive(&frame, &query),
                "second model",
            );
            let mut scratch = ClipScratch::new();
            let _ = first.correlation_map_coherent(&frame, &query, &mut scratch);
            assert_eq!(
                second.correlation_map_coherent(&frame, &query, &mut scratch),
                &expected
            );
            let _ = first.correlation_map_with(&frame, &query, &mut scratch);
            assert_eq!(
                second.correlation_map_with(&frame, &query, &mut scratch),
                &expected
            );
            // And back again.
            let back = first.correlation_map_coherent(&frame, &query, &mut scratch);
            assert_eq!(back, &first.correlation_map(&frame, &query));
        }
    }

    /// Deterministic generator for the property-style tests below.
    struct Lcg(u64);

    impl Lcg {
        /// A value in `lo..hi`.
        fn range(&mut self, lo: i64, hi: i64) -> i64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            lo + ((self.0 >> 33) % (hi - lo) as u64) as i64
        }
    }

    /// The dirty-cell count of the rule the raster's tight dirty set replaced: every cell
    /// overlapping the old or the new rect of a placement that moved.
    fn rect_union_rule_cells(
        dims: GridDims,
        frame: &Frame,
        before: &[aivc_scene::frame::ObjectPlacement],
    ) -> usize {
        let mut dirty = vec![false; dims.len()];
        for (old, new) in before.iter().zip(&frame.placements) {
            if old.region == new.region {
                continue;
            }
            for (idx, cell_dirty) in dirty.iter_mut().enumerate() {
                let (row, col) = dims.position(idx);
                let cell = dims.cell_rect(row, col, frame.width, frame.height);
                *cell_dirty |= [old, new].iter().any(|p| !cell.intersect(&p.region).is_empty());
            }
        }
        dirty.iter().filter(|d| **d).count()
    }

    #[test]
    fn tight_dirty_set_matches_a_fresh_map_and_never_exceeds_the_rect_union_rule() {
        use aivc_scene::{Scene, SceneObject};
        let model = ClipModel::mobile_default();
        let query = TextQuery::from_words("score scoreboard crowd", model.ontology());
        let (mut tight_total, mut union_total) = (0usize, 0usize);
        for seed in 0..10u64 {
            let mut rng = Lcg(seed);
            // Neither edge is a multiple of the 64-pixel patch.
            let (width, height) = (700 + 37 * seed as u32, 410 + 23 * seed as u32);
            let mut scene = Scene::new("motion", width, height).with_background(
                0.3,
                0.1,
                vec![(Concept::new("court"), 0.6)],
            );
            for (id, concept) in ["scoreboard", "crowd", "player", "score", "jersey", "unheard-of"]
                .into_iter()
                .enumerate()
            {
                scene.add_object(
                    SceneObject::new(id as u32 + 1, concept, Rect::new(0, 0, 1, 1))
                        .with_concept(concept, 0.9),
                );
            }
            let mut frame = VideoSource::new(scene, SourceConfig::fps30(1.0)).frame(0);
            for placement in &mut frame.placements {
                // Large enough to hold whole cells, so "fully inside both" occurs.
                placement.region = Rect::new(
                    rng.range(-100, width as i64),
                    rng.range(-100, height as i64),
                    rng.range(40, 400) as u32,
                    rng.range(40, 300) as u32,
                );
            }
            let dims = GridDims::for_frame(width, height, model.config().patch_size);
            let mut scratch = ClipScratch::new();
            let _ = model.correlation_map_coherent(&frame, &query, &mut scratch);
            for step in 0..60 {
                let before = frame.placements.clone();
                let count = frame.placements.len() as i64;
                for _ in 0..rng.range(1, 4) {
                    let at = rng.range(0, count) as usize;
                    let other = rng.range(0, count) as usize;
                    let r = frame.placements[at].region;
                    frame.placements[at].region = match rng.range(0, 5) {
                        // Sub-cell move.
                        0 => Rect::new(r.x + rng.range(-20, 21), r.y + rng.range(-20, 21), r.w, r.h),
                        // Jump anywhere, including off the frame.
                        1 => Rect::new(
                            rng.range(-500, width as i64 + 200),
                            rng.range(-400, height as i64 + 200),
                            r.w,
                            r.h,
                        ),
                        // Resize in place.
                        2 => Rect::new(r.x, r.y, rng.range(1, 500) as u32, rng.range(1, 400) as u32),
                        // Cross another object: land on top of it.
                        3 => {
                            let o = frame.placements[other].region;
                            Rect::new(o.x + rng.range(-30, 31), o.y + rng.range(-30, 31), o.w, o.h)
                        }
                        // Leave the frame.
                        _ => Rect::new(width as i64 + 10, r.y, r.w, r.h),
                    };
                }
                let coherent = model.correlation_map_coherent(&frame, &query, &mut scratch);
                assert_eq!(
                    coherent,
                    &model.correlation_map(&frame, &query),
                    "seed {seed} step {step}"
                );
                let tight = scratch.raster.dirty_cells().count();
                let union = rect_union_rule_cells(dims, &frame, &before);
                assert!(tight <= union, "seed {seed} step {step}: {tight} > {union}");
                tight_total += tight;
                union_total += union;
            }
        }
        assert!(
            tight_total < union_total,
            "the sub-cell moves should have skipped interior cells: {tight_total} vs {union_total}"
        );
    }

    /// The entry on a borrowed raster, whatever the lender did to it between two reads:
    /// brought it forward once (the engine's case: the rate plan's raster, one update per
    /// capture), twice (a capture the memo never saw), handed over a clone at the generation
    /// just read (`encode_at_bitrate`'s per-frame plans) or one a clone brought forward on
    /// its own, or a raster of the same frames with another history. Every map equals a
    /// fresh full map bit for bit and the naive one under the oracle relation, and only the
    /// first case is served incrementally — which the entry reports as [`Rewritten::Dirty`].
    #[test]
    fn borrowed_raster_reads_match_naive_after_any_lender_history() {
        use aivc_scene::{Scene, SceneObject};
        let model = ClipModel::mobile_default();
        let patch = model.config().patch_size;
        let query = TextQuery::from_words("score scoreboard crowd", model.ontology());
        let (mut incremental, mut full) = (0usize, 0usize);
        for seed in 0..8u64 {
            let mut rng = Lcg(seed ^ 0xB0B);
            let (width, height) = (640 + 53 * seed as u32, 384 + 29 * seed as u32);
            let mut scene = Scene::new("walk", width, height).with_background(
                0.3,
                0.1,
                vec![(Concept::new("court"), 0.6)],
            );
            for (id, concept) in ["scoreboard", "crowd", "player", "score"].into_iter().enumerate() {
                scene.add_object(
                    SceneObject::new(id as u32 + 1, concept, Rect::new(0, 0, 1, 1))
                        .with_concept(concept, 0.9),
                );
            }
            let mut frame = VideoSource::new(scene, SourceConfig::fps30(1.0)).frame(0);
            let walk = |frame: &mut Frame, rng: &mut Lcg| {
                let at = rng.range(0, frame.placements.len() as i64) as usize;
                let r = frame.placements[at].region;
                frame.placements[at].region = match rng.range(0, 3) {
                    0 => Rect::new(r.x + rng.range(-40, 41), r.y + rng.range(-40, 41), r.w, r.h),
                    1 => Rect::new(
                        rng.range(-100, width as i64),
                        rng.range(-100, height as i64),
                        rng.range(20, 300) as u32,
                        rng.range(20, 200) as u32,
                    ),
                    _ => r,
                };
            };
            walk(&mut frame, &mut rng);
            let (mut lent, mut other) = (GridContent::new(), GridContent::new());
            lent.update(&frame, patch);
            let mut memo = ClipMemo::new();
            let mut read = |raster: &GridContent, frame: &Frame, memo: &mut ClipMemo, what: &str| {
                let served_incrementally = memo.prev_valid && raster.follows(memo.raster_generation);
                if served_incrementally {
                    incremental += 1;
                } else {
                    full += 1;
                }
                let (map, rewritten) = model.correlation_map_on_raster(raster, frame, &query, memo);
                let what = format!("seed {seed}: {what}");
                assert_eq!(map, &model.correlation_map(frame, &query), "{what}");
                assert_matches_naive(map, &model.correlation_map_naive(frame, &query), &what);
                assert_eq!(rewritten == Rewritten::Dirty, served_incrementally, "{what}");
            };
            read(&lent, &frame, &mut memo, "first read");
            for step in 0..40 {
                walk(&mut frame, &mut rng);
                lent.update(&frame, patch);
                match rng.range(0, 5) {
                    0 => {
                        walk(&mut frame, &mut rng);
                        lent.update(&frame, patch);
                        read(
                            &lent,
                            &frame,
                            &mut memo,
                            &format!("step {step}: two updates later"),
                        );
                    }
                    1 => {
                        read(
                            &lent,
                            &frame,
                            &mut memo,
                            &format!("step {step}: one update later"),
                        );
                        let clone = lent.clone();
                        read(
                            &clone,
                            &frame,
                            &mut memo,
                            &format!("step {step}: clone, same generation"),
                        );
                    }
                    2 => {
                        read(
                            &lent,
                            &frame,
                            &mut memo,
                            &format!("step {step}: one update later"),
                        );
                        let mut clone = lent.clone();
                        let mut moved = frame.clone();
                        walk(&mut moved, &mut rng);
                        clone.update(&moved, patch);
                        read(
                            &clone,
                            &moved,
                            &mut memo,
                            &format!("step {step}: clone brought forward"),
                        );
                        read(
                            &lent,
                            &frame,
                            &mut memo,
                            &format!("step {step}: back to the lender"),
                        );
                    }
                    3 => {
                        other.update(&frame, patch);
                        read(
                            &other,
                            &frame,
                            &mut memo,
                            &format!("step {step}: another history"),
                        );
                    }
                    _ => read(
                        &lent,
                        &frame,
                        &mut memo,
                        &format!("step {step}: one update later"),
                    ),
                }
            }
        }
        assert!(
            incremental > 100 && full > 100,
            "{incremental} incremental and {full} full reads"
        );
        // A raster that is not of the frame on the model's grid is refused, not misread.
        let frame = frame_of(basketball_game(1));
        let mut coarse = GridContent::new();
        coarse.fill(&frame, 2 * patch);
        for raster in [GridContent::new(), coarse] {
            let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = model.correlation_map_on_raster(&raster, &frame, &query, &mut ClipMemo::new());
            }));
            assert!(refused.is_err(), "a raster of {:?} was read", raster.dims());
        }
    }

    #[test]
    fn concept_lists_are_kept_while_valid_and_re_resolved_when_not() {
        let model = ClipModel::mobile_default();
        let source = VideoSource::new(basketball_game(1), SourceConfig::fps30(5.0));
        let score = TextQuery::from_words("score", model.ontology());
        let crowd = TextQuery::from_words("How many spectators can be seen?", model.ontology());
        let mut scratch = ClipScratch::new();
        // A trailing entry no object's slice refers to: harmless to the maps, gone after
        // any re-resolution.
        let plant = |scratch: &mut ClipScratch| scratch.memo.concepts.flat.push((0, 0.0));
        let planted = |scratch: &ClipScratch, frame: &Frame| {
            let mut fresh = ResolvedConcepts::default();
            fresh.resolve_frame(&model, frame);
            assert_eq!(scratch.memo.concepts.object_entries, fresh.object_entries);
            assert_eq!(scratch.memo.concepts.background_flat, fresh.background_flat);
            match scratch.memo.concepts.flat.strip_suffix(&[(0, 0.0)]) {
                Some(rest) if rest == fresh.flat => true,
                _ => {
                    assert_eq!(scratch.memo.concepts.flat, fresh.flat);
                    false
                }
            }
        };
        let check = |map: &ImportanceMap, frame: &Frame, query: &TextQuery, what: &str| {
            assert_eq!(map, &model.correlation_map(frame, query), "{what}");
            assert_matches_naive(map, &model.correlation_map_naive(frame, query), what);
        };
        let _ = model.correlation_map_coherent(&source.frame(0), &score, &mut scratch);
        plant(&mut scratch);
        // Same scene, same query, objects moved: the lists are kept.
        let frame = source.frame(1);
        let map = model.correlation_map_coherent(&frame, &score, &mut scratch);
        check(map, &frame, &score, "moved");
        assert!(planted(&scratch, &frame));
        // A query change rebuilds `p` from the kept lists.
        let frame = source.frame(2);
        let map = model.correlation_map_coherent(&frame, &crowd, &mut scratch);
        check(map, &frame, &crowd, "query change");
        assert!(planted(&scratch, &frame));
        // Equal concepts behind another pointer are the same concepts.
        let mut copied = source.frame(3);
        copied.objects = copied.objects.iter().cloned().collect();
        copied.background_concepts = copied.background_concepts.iter().cloned().collect();
        let map = model.correlation_map_coherent(&copied, &crowd, &mut scratch);
        check(map, &copied, &crowd, "copied concepts");
        assert!(planted(&scratch, &copied));
        // An object's concept renamed re-resolves, although the raster sees the same
        // objects at the same rects.
        let mut edited = source.frame(4);
        Arc::make_mut(&mut edited.objects)[0].concepts[0].0 = Concept::new("grass");
        let map = model.correlation_map_coherent(&edited, &crowd, &mut scratch);
        check(map, &edited, &crowd, "concept renamed");
        assert!(!planted(&scratch, &edited));
        assert_eq!(scratch.raster.dirty_cells().count(), 62);
        // So does a weight moved by one ulp, on an object or the background.
        for step in 0..2 {
            plant(&mut scratch);
            let weight = if step == 0 {
                &mut Arc::make_mut(&mut edited.objects)[1].concepts[0].1
            } else {
                &mut Arc::make_mut(&mut edited.background_concepts)[0].1
            };
            *weight = f64::from_bits(weight.to_bits() - 1);
            let map = model.correlation_map_coherent(&edited, &crowd, &mut scratch);
            check(map, &edited, &crowd, "weight nudged");
            assert!(!planted(&scratch, &edited));
        }
        // An edit the raster's key covers but the concepts do not (an object's texture):
        // every cell re-evaluated, the lists kept.
        plant(&mut scratch);
        Arc::make_mut(&mut edited.objects)[0].texture_complexity = 0.123;
        let map = model.correlation_map_coherent(&edited, &crowd, &mut scratch);
        check(map, &edited, &crowd, "texture edited");
        assert_eq!(scratch.raster.dirty_cells().count(), 510);
        assert!(planted(&scratch, &edited));
        // A stolen map is rebuilt from the kept lists.
        let _ = scratch.take_map();
        let map = model.correlation_map_coherent(&edited, &crowd, &mut scratch);
        check(map, &edited, &crowd, "stolen map");
        assert!(planted(&scratch, &edited));
    }
}
