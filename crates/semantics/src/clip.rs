//! The CLIP-model facade: text encoder + patch encoder + Eq. 1.
//!
//! [`ClipModel::correlation_map`] implements the paper's §3.2 procedure verbatim: partition
//! the frame into N×N patches, embed each patch with the visual encoder, embed the user
//! words with the language encoder, and output the cosine similarity ρ_mn per patch.

use crate::embedding::Embedding;
use crate::importance::ImportanceMap;
use crate::text::TextQuery;
use crate::vision::{ConceptSpace, PatchEncoder};
use aivc_par::MiniPool;
use aivc_scene::grid_content::GridContent;
use aivc_scene::{Concept, Frame, GridDims, Ontology, Rect, RegionContent};
use serde::{Deserialize, Serialize};

/// Chunks handed to the pool per lane by the data-parallel paths: a few per lane smooth
/// out load imbalance across patch rows while keeping chunks large enough that the
/// per-chunk dispatch cost stays invisible next to the per-patch work.
const PAR_CHUNKS_PER_LANE: usize = 4;

/// Lane width of the Eq. 1 vector kernel: patches evaluated in lockstep by
/// [`patch_rho_batch`]. Eight f64 lanes fill two AVX2 registers (four NEON ones) per
/// step, and the lane-transposed tile (`dim × 8` values — 4 kB at `dim = 64`) stays
/// comfortably inside L1 alongside the query embedding.
const RHO_LANES: usize = 8;

/// CLIP model configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClipConfig {
    /// Shared embedding dimension `d`.
    pub dim: usize,
    /// Patch edge length `N` in pixels.
    pub patch_size: u32,
    /// Per-patch visual-encoder compute latency in microseconds on the reference mobile
    /// device (Mobile-CLIP class models run a 1080p patch grid in a few milliseconds).
    pub patch_encode_latency_us: f64,
    /// Text-encoder latency in microseconds.
    pub text_encode_latency_us: u64,
    /// Contrastive calibration bias: the typical cosine similarity between *unrelated*
    /// text/patch pairs, subtracted (and rescaled) before reporting ρ. Raw CLIP similarities
    /// cluster well above zero even for unrelated pairs; calibrating them keeps Eq. 2 from
    /// spending bitrate on regions that are merely "scene-typical".
    pub similarity_bias: f64,
}

impl ClipConfig {
    /// The Mobile-CLIP-like configuration used by the paper's prototype (§3.2):
    /// 64-dimensional shared space, 64-pixel patches.
    pub fn mobile_clip() -> Self {
        Self {
            dim: 64,
            patch_size: 64,
            patch_encode_latency_us: 14.0,
            text_encode_latency_us: 1_500,
            similarity_bias: 0.22,
        }
    }

    /// A finer-grained (more expensive) configuration for the patch-size ablation.
    pub fn mobile_clip_fine() -> Self {
        Self {
            dim: 64,
            patch_size: 32,
            patch_encode_latency_us: 14.0,
            text_encode_latency_us: 1_500,
            similarity_bias: 0.22,
        }
    }
}

/// Reusable buffers for [`ClipModel::correlation_map_with`].
///
/// One scratch per streaming turn (or per thread) removes every per-frame heap allocation
/// from the correlation hot path: the output map, the per-patch region descriptor, the
/// concept-pooling accumulators and the per-frame object→concept index lists all live here
/// and are reused, and the text-query embedding is memoized so a multi-frame turn encodes
/// the user's words exactly once.
#[derive(Debug, Clone)]
pub struct ClipScratch {
    /// Per-patch region descriptor (filled by [`Frame::region_content_into`]) — used by the
    /// incremental paths, where only a handful of patches are touched per frame.
    content: RegionContent,
    /// Whole-frame patch-grid raster used by the full paths: one placement-by-placement
    /// rasterization replaces the per-patch `region_content_into` walk (bit-identical
    /// coverage lists and background fractions, a fraction of the intersection work).
    grid: GridContent,
    /// `(object_id, start, end)` — each frame object's slice of [`ClipScratch::flat`].
    object_entries: Vec<(u32, u32, u32)>,
    /// Flattened `(concept_index, weight)` lists for every object of the current frame.
    flat: Vec<(u32, f64)>,
    /// Resolved `(concept_index, weight)` list of the frame's background concepts.
    background_flat: Vec<(u32, f64)>,
    /// Embeddings of out-of-ontology concepts encountered in the current frame; indices
    /// `>= ConceptSpace::len()` in the flat lists point here (offset by the table length).
    extra: Vec<(Concept, Embedding)>,
    /// Concept-pooling accumulator.
    accumulator: Embedding,
    /// Unit-norm form of the accumulator.
    normalized: Embedding,
    /// Per-lane concept-pooling accumulators of the vector kernel: lane `l` owns the
    /// contiguous slice `[l·dim, (l+1)·dim)`, so phase A writes stay unit-stride.
    lane_acc: Vec<f64>,
    /// Lane-transposed (dimension-major SoA) copy of the accumulators: dimension `d`'s
    /// values for all [`RHO_LANES`] lanes sit side by side at `[d·LANES, (d+1)·LANES)`,
    /// the layout phase B's lockstep reductions walk with unit stride.
    tile: Vec<f64>,
    /// The query whose embedding is currently memoized.
    cached_query: Option<TextQuery>,
    /// Memoized text embedding of [`ClipScratch::cached_query`].
    query_embedding: Embedding,
    /// Memoized [`Embedding::norm`] of [`ClipScratch::query_embedding`] (same f64 value
    /// the scalar path recomputes per patch inside `cosine`).
    query_norm: f64,
    /// The output map, refilled in place.
    map: ImportanceMap,
    /// Object placements `(id, rect)` of the frame [`ClipScratch::map`] was computed for
    /// (the temporal-coherence state behind [`ClipModel::correlation_map_coherent`]).
    prev_placements: Vec<(u32, Rect)>,
    /// Content fingerprint (objects, concepts, background, geometry) of that frame.
    prev_fingerprint: u64,
    /// Whether [`ClipScratch::map`] holds a result the incremental paths may update.
    prev_valid: bool,
    /// Scratch list of dirty patch indices.
    dirty: Vec<u32>,
}

impl Default for ClipScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl ClipScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self {
            content: RegionContent::empty(),
            grid: GridContent::new(),
            object_entries: Vec::new(),
            flat: Vec::new(),
            background_flat: Vec::new(),
            extra: Vec::new(),
            accumulator: Embedding::zeros(0),
            normalized: Embedding::zeros(0),
            lane_acc: Vec::new(),
            tile: Vec::new(),
            cached_query: None,
            query_embedding: Embedding::zeros(0),
            query_norm: 0.0,
            map: ImportanceMap::empty(),
            prev_placements: Vec::new(),
            prev_fingerprint: 0,
            prev_valid: false,
            dirty: Vec::new(),
        }
    }

    /// Moves the most recent result out of the scratch.
    pub fn take_map(&mut self) -> ImportanceMap {
        self.prev_valid = false;
        std::mem::replace(&mut self.map, ImportanceMap::empty())
    }

    /// Records which frame the scratch's map now describes, enabling later incremental
    /// updates against it.
    fn record_prev(&mut self, frame: &Frame) {
        self.prev_placements.clear();
        self.prev_placements
            .extend(frame.placements.iter().map(|p| (p.object_id, p.region)));
        self.prev_fingerprint = frame_fingerprint(frame);
        self.prev_valid = true;
    }

    /// Ensures the memoized text embedding matches `query` (and the model's embedding
    /// dimension), re-encoding only on change.
    ///
    /// A scratch is intended to be reused with one model at a time; switching models
    /// mid-scratch is detected by dimension (which also guards the `extra` cache) and falls
    /// back to re-encoding rather than panicking on a dimension mismatch. Two same-dim
    /// models with different ontologies still require separate scratches.
    fn memoize_query(&mut self, model: &ClipModel, query: &TextQuery) {
        if self.query_embedding.dim() != model.config.dim {
            self.cached_query = None;
            self.extra.clear();
        }
        if self.cached_query.as_ref() != Some(query) {
            self.query_embedding = model.encode_text(query);
            self.query_norm = self.query_embedding.norm();
            self.cached_query = Some(query.clone());
        }
    }

    /// Resolves the frame's object and background concepts to table indices, reusing the
    /// flat buffers. Out-of-ontology concepts get deterministic directions in
    /// [`ClipScratch::extra`] (identical values to [`ConceptSpace::concept_embedding`]).
    fn prepare_frame(&mut self, model: &ClipModel, frame: &Frame) {
        self.object_entries.clear();
        self.flat.clear();
        self.background_flat.clear();
        // `extra` deliberately persists across frames: a seeded direction depends only on
        // the concept name and the (dimension-guarded) model dim, and the flat lists that
        // reference it are rebuilt every frame, so stale entries are merely unused — while
        // repeated out-of-ontology concepts stay allocation-free across a turn.
        for object in &frame.objects {
            let start = self.flat.len() as u32;
            for (concept, weight) in &object.concepts {
                let idx = self.resolve_concept(model, concept);
                self.flat.push((idx, *weight));
            }
            self.object_entries
                .push((object.id, start, self.flat.len() as u32));
        }
        for (concept, weight) in &frame.background_concepts {
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
            Embedding::seeded_direction(concept.name(), model.config.dim),
        ));
        table_len + (self.extra.len() - 1) as u32
    }
}

/// Per-lane working state of the data-parallel correlation path: exactly the buffers one
/// evaluation of [`patch_rho`] mutates. Everything else a patch needs (the flat concept
/// lists, the memoized query embedding) is shared read-only across lanes.
#[derive(Debug, Clone)]
struct ClipLaneScratch {
    /// Concept-pooling accumulator for this lane (scalar-tail patches).
    accumulator: Embedding,
    /// Unit-norm form of the accumulator for this lane (scalar-tail patches).
    normalized: Embedding,
    /// This pool lane's private [`ClipScratch::lane_acc`] for the vector kernel.
    lane_acc: Vec<f64>,
    /// This pool lane's private [`ClipScratch::tile`] for the vector kernel.
    tile: Vec<f64>,
}

impl ClipLaneScratch {
    fn new() -> Self {
        Self {
            accumulator: Embedding::zeros(0),
            normalized: Embedding::zeros(0),
            lane_acc: Vec::new(),
            tile: Vec::new(),
        }
    }
}

/// Reusable buffers for [`ClipModel::correlation_map_par`]: the sequential scratch (which
/// owns the output map, the query memo and the shared per-frame concept lists) plus one
/// private lane scratch per pool lane, created on first use and reused ever after — so
/// post-warmup parallel evaluations perform zero heap allocations, exactly like the
/// sequential path.
#[derive(Debug, Clone, Default)]
pub struct ClipParScratch {
    /// The sequential scratch; also serves `pool_size = 1` delegation unchanged.
    seq: ClipScratch,
    /// One private working set per pool lane.
    lanes: Vec<ClipLaneScratch>,
}

impl ClipParScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Moves the most recent result out of the scratch.
    pub fn take_map(&mut self) -> ImportanceMap {
        self.seq.take_map()
    }
}

/// The CLIP-like model: ontology-grounded concept space + encoders.
#[derive(Debug, Clone)]
pub struct ClipModel {
    config: ClipConfig,
    ontology: Ontology,
    space: ConceptSpace,
}

impl ClipModel {
    /// Builds the model over an ontology.
    pub fn new(config: ClipConfig, ontology: Ontology) -> Self {
        let space = ConceptSpace::build(&ontology, config.dim);
        Self {
            config,
            ontology,
            space,
        }
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
    pub fn encode_text(&self, query: &TextQuery) -> Embedding {
        self.space.pool(&query.concepts)
    }

    /// Convenience: builds a [`TextQuery`] from raw words and encodes it.
    pub fn encode_words(&self, words: &str) -> Embedding {
        self.encode_text(&TextQuery::from_words(words, &self.ontology))
    }

    /// Computes the per-patch semantic correlation map ρ_mn (Eq. 1) for a frame and query.
    ///
    /// An empty query (no recognizable concepts) yields an all-zero map: with nothing to
    /// anchor on, every region is equally (un)important, and the downstream QP allocator
    /// degrades gracefully to near-uniform QP.
    ///
    /// This convenience form allocates its own scratch; per-frame loops should hold a
    /// [`ClipScratch`] and call [`ClipModel::correlation_map_with`] instead, which is
    /// allocation-free after warmup and encodes the text query only once per turn.
    pub fn correlation_map(&self, frame: &Frame, query: &TextQuery) -> ImportanceMap {
        let mut scratch = ClipScratch::new();
        self.correlation_map_with(frame, query, &mut scratch);
        scratch.take_map()
    }

    /// [`ClipModel::correlation_map`] with caller-owned scratch buffers.
    ///
    /// The returned map lives inside `scratch` and is valid until the next call. After the
    /// first call with a given frame/query shape, the routine performs no heap allocation:
    /// the text embedding is memoized per [`TextQuery`], the frame's object-concept lists
    /// are resolved once per frame into index-keyed flat buffers, and every per-patch
    /// accumulator is reused. Output is bit-identical to the naive per-patch procedure
    /// (see the equivalence tests).
    pub fn correlation_map_with<'s>(
        &self,
        frame: &Frame,
        query: &TextQuery,
        scratch: &'s mut ClipScratch,
    ) -> &'s ImportanceMap {
        let dims = GridDims::for_frame(frame.width, frame.height, self.config.patch_size);
        scratch.memoize_query(self, query);
        scratch.map.begin_refill(dims, frame.width, frame.height);
        if scratch.query_embedding.is_zero() {
            for _ in 0..dims.len() {
                scratch.map.push_value(0.0);
            }
            scratch.map.finish_refill();
            scratch.record_prev(frame);
            return &scratch.map;
        }
        scratch.prepare_frame(self, frame);
        scratch.grid.fill(frame, self.config.patch_size);
        let bias = self.config.similarity_bias;
        let background_weight = PatchEncoder::new(&self.space).background_weight();
        let query_norm = scratch.query_norm;
        let ClipScratch {
            grid,
            object_entries,
            flat,
            background_flat,
            extra,
            accumulator,
            normalized,
            lane_acc,
            tile,
            query_embedding,
            map,
            ..
        } = scratch;
        let grid = &*grid;
        let total = dims.len();
        let mut rho = [0.0f64; RHO_LANES];
        let mut idx = 0usize;
        while idx + RHO_LANES <= total {
            patch_rho_batch_grid(
                self,
                grid,
                idx,
                bias,
                background_weight,
                object_entries,
                flat,
                background_flat,
                extra,
                lane_acc,
                tile,
                query_embedding,
                query_norm,
                &mut rho,
            );
            for &value in &rho {
                map.push_value(value);
            }
            idx += RHO_LANES;
        }
        // Scalar tail: fewer than RHO_LANES patches remain.
        while idx < total {
            let calibrated = patch_rho_cell(
                self,
                grid,
                idx,
                bias,
                background_weight,
                object_entries,
                flat,
                background_flat,
                extra,
                accumulator,
                normalized,
                query_embedding,
            );
            map.push_value(calibrated);
            idx += 1;
        }
        scratch.map.finish_refill();
        scratch.record_prev(frame);
        &scratch.map
    }

    /// Data-parallel form of [`ClipModel::correlation_map_with`]: the patch grid is split
    /// into contiguous raster-order chunks (≈ groups of patch rows) and evaluated across
    /// the pool's lanes, each lane writing its disjoint slice of the output map through its
    /// own private accumulators.
    ///
    /// Output is **bit-identical** to the sequential path for any pool size: every patch
    /// runs the exact same [`patch_rho`] procedure against the same shared per-frame
    /// concept lists, and patch values never depend on one another (see the equivalence
    /// tests and `tests/model_properties.rs`). With a one-lane pool this delegates to
    /// [`ClipModel::correlation_map_with`] — the sequential path stays the default.
    /// Post-warmup calls perform no heap allocation (lane scratches are created once).
    pub fn correlation_map_par<'s>(
        &self,
        frame: &Frame,
        query: &TextQuery,
        pool: &MiniPool,
        scratch: &'s mut ClipParScratch,
    ) -> &'s ImportanceMap {
        if pool.lanes() == 1 {
            return self.correlation_map_with(frame, query, &mut scratch.seq);
        }
        let dims = GridDims::for_frame(frame.width, frame.height, self.config.patch_size);
        scratch.seq.memoize_query(self, query);
        if scratch.seq.query_embedding.is_zero() {
            // refill_values_mut zero-fills, which is exactly the empty-query map.
            let _ = scratch.seq.map.refill_values_mut(dims, frame.width, frame.height);
            scratch.seq.map.finish_refill();
            scratch.seq.record_prev(frame);
            return &scratch.seq.map;
        }
        scratch.seq.prepare_frame(self, frame);
        scratch.seq.grid.fill(frame, self.config.patch_size);
        while scratch.lanes.len() < pool.lanes() {
            scratch.lanes.push(ClipLaneScratch::new());
        }
        let bias = self.config.similarity_bias;
        let background_weight = PatchEncoder::new(&self.space).background_weight();
        let query_norm = scratch.seq.query_norm;
        let ClipParScratch { seq, lanes } = scratch;
        let seq_ref = &mut *seq;
        let ClipScratch {
            grid,
            object_entries,
            flat,
            background_flat,
            extra,
            query_embedding,
            map,
            ..
        } = seq_ref;
        // Shared read-only views for the lanes.
        let grid: &GridContent = grid;
        let object_entries: &[(u32, u32, u32)] = object_entries;
        let flat: &[(u32, f64)] = flat;
        let background_flat: &[(u32, f64)] = background_flat;
        let extra: &[(Concept, Embedding)] = extra;
        let query_embedding: &Embedding = query_embedding;
        let values = map.refill_values_mut(dims, frame.width, frame.height);
        let chunks = (pool.lanes() * PAR_CHUNKS_PER_LANE).min(values.len());
        pool.for_each_chunk(values, chunks, lanes, |ctx, part, lane| {
            let mut rho = [0.0f64; RHO_LANES];
            let mut offset = 0usize;
            while offset + RHO_LANES <= part.len() {
                patch_rho_batch_grid(
                    self,
                    grid,
                    ctx.start + offset,
                    bias,
                    background_weight,
                    object_entries,
                    flat,
                    background_flat,
                    extra,
                    &mut lane.lane_acc,
                    &mut lane.tile,
                    query_embedding,
                    query_norm,
                    &mut rho,
                );
                part[offset..offset + RHO_LANES].copy_from_slice(&rho);
                offset += RHO_LANES;
            }
            // Scalar tail of this chunk.
            for (tail_offset, value) in part.iter_mut().enumerate().skip(offset) {
                let idx = ctx.start + tail_offset;
                // Same ρ-range invariant `ImportanceMap::push_value` asserts on the
                // sequential path; direct slice writes must not lose it.
                *value = patch_rho_cell(
                    self,
                    grid,
                    idx,
                    bias,
                    background_weight,
                    object_entries,
                    flat,
                    background_flat,
                    extra,
                    &mut lane.accumulator,
                    &mut lane.normalized,
                    query_embedding,
                );
                debug_assert!((-1.0..=1.0).contains(value), "rho out of [-1, 1]");
            }
        });
        seq.map.finish_refill();
        seq.record_prev(frame);
        &seq.map
    }

    /// Incremental form of [`ClipModel::correlation_map_with`], exploiting the temporal
    /// coherence of video: only patches whose content could have changed since the previous
    /// frame are recomputed; everything else keeps its value from the map already held in
    /// `scratch`.
    ///
    /// The dirty set is derived automatically from object motion — every patch overlapping
    /// the previous *or* current placement of an object that moved. When no compatible
    /// previous result exists (first frame, scene/query/geometry change, stolen map), the
    /// call transparently falls back to the full recompute, so this is a drop-in
    /// replacement for `correlation_map_with` with identical output for any frame sequence
    /// (see the equivalence tests and `tests/model_properties.rs`).
    pub fn correlation_map_coherent<'s>(
        &self,
        frame: &Frame,
        query: &TextQuery,
        scratch: &'s mut ClipScratch,
    ) -> &'s ImportanceMap {
        let dims = GridDims::for_frame(frame.width, frame.height, self.config.patch_size);
        if !self.can_update_incrementally(frame, query, scratch, dims)
            || scratch.prev_fingerprint != frame_fingerprint(frame)
            || scratch.prev_placements.len() != frame.placements.len()
            || !scratch
                .prev_placements
                .iter()
                .zip(&frame.placements)
                .all(|((id, _), p)| *id == p.object_id)
        {
            return self.correlation_map_with(frame, query, scratch);
        }
        if scratch.query_embedding.is_zero() {
            // The all-zero map is frame-independent; only the coherence state moves on.
            scratch.record_prev(frame);
            return &scratch.map;
        }
        // Dirty = patches overlapping the old or new rect of any object that moved.
        let ClipScratch {
            prev_placements,
            dirty,
            ..
        } = scratch;
        dirty.clear();
        for ((_, prev_rect), placement) in prev_placements.iter().zip(&frame.placements) {
            if *prev_rect != placement.region {
                mark_dirty_cells(dims, frame.width, frame.height, prev_rect, dirty);
                mark_dirty_cells(dims, frame.width, frame.height, &placement.region, dirty);
            }
        }
        dirty.sort_unstable();
        dirty.dedup();
        if !scratch.dirty.is_empty() {
            self.recompute_dirty_patches(frame, scratch);
        }
        scratch.record_prev(frame);
        &scratch.map
    }

    /// Low-level incremental update with a caller-supplied dirty-patch set (flat raster
    /// indices into the patch grid).
    ///
    /// Contract: `dirty_patches` must include every patch whose content changed versus the
    /// frame the scratch's map was computed for — the routine recomputes exactly those
    /// patches and trusts the rest. A superset (including the full range) is always safe.
    /// When no compatible previous result exists, falls back to the full recompute and the
    /// dirty set is ignored. Out-of-range indices are ignored.
    pub fn correlation_map_update<'s>(
        &self,
        frame: &Frame,
        query: &TextQuery,
        dirty_patches: &[usize],
        scratch: &'s mut ClipScratch,
    ) -> &'s ImportanceMap {
        let dims = GridDims::for_frame(frame.width, frame.height, self.config.patch_size);
        if !self.can_update_incrementally(frame, query, scratch, dims) {
            return self.correlation_map_with(frame, query, scratch);
        }
        if scratch.query_embedding.is_zero() {
            scratch.record_prev(frame);
            return &scratch.map;
        }
        scratch.dirty.clear();
        scratch.dirty.extend(
            dirty_patches
                .iter()
                .filter(|&&i| i < dims.len())
                .map(|&i| i as u32),
        );
        scratch.dirty.sort_unstable();
        scratch.dirty.dedup();
        if !scratch.dirty.is_empty() {
            self.recompute_dirty_patches(frame, scratch);
        }
        scratch.record_prev(frame);
        &scratch.map
    }

    /// Whether the scratch holds a previous result the incremental paths may update for
    /// this frame geometry and query (the memoized query must match byte-for-byte so the
    /// retained patch values were computed against the same embedding).
    fn can_update_incrementally(
        &self,
        frame: &Frame,
        query: &TextQuery,
        scratch: &ClipScratch,
        dims: GridDims,
    ) -> bool {
        scratch.prev_valid
            && scratch.map.dims() == dims
            && scratch.map.width() == frame.width
            && scratch.map.height() == frame.height
            && scratch.query_embedding.dim() == self.config.dim
            && scratch.cached_query.as_ref() == Some(query)
    }

    /// Recomputes the patches listed in `scratch.dirty` in place, through exactly the same
    /// per-patch procedure as the full path.
    fn recompute_dirty_patches(&self, frame: &Frame, scratch: &mut ClipScratch) {
        scratch.prepare_frame(self, frame);
        let dims = scratch.map.dims();
        let bias = self.config.similarity_bias;
        let background_weight = PatchEncoder::new(&self.space).background_weight();
        let query_norm = scratch.query_norm;
        let ClipScratch {
            content,
            object_entries,
            flat,
            background_flat,
            extra,
            accumulator,
            normalized,
            lane_acc,
            tile,
            query_embedding,
            map,
            dirty,
            ..
        } = scratch;
        let mut rects = [Rect::new(0, 0, 0, 0); RHO_LANES];
        let mut rho = [0.0f64; RHO_LANES];
        for group in dirty.chunks(RHO_LANES) {
            if group.len() == RHO_LANES {
                for (rect, &idx) in rects.iter_mut().zip(group) {
                    let (row, col) = dims.position(idx as usize);
                    *rect = dims.cell_rect(row, col, frame.width, frame.height);
                }
                patch_rho_batch(
                    self,
                    frame,
                    &rects,
                    bias,
                    background_weight,
                    content,
                    object_entries,
                    flat,
                    background_flat,
                    extra,
                    lane_acc,
                    tile,
                    query_embedding,
                    query_norm,
                    &mut rho,
                );
                for (&idx, &value) in group.iter().zip(&rho) {
                    map.set_value(idx as usize, value);
                }
            } else {
                // Scalar tail: fewer than RHO_LANES dirty patches remain.
                for &idx in group {
                    let (row, col) = dims.position(idx as usize);
                    let rect = dims.cell_rect(row, col, frame.width, frame.height);
                    let calibrated = patch_rho(
                        self,
                        frame,
                        &rect,
                        bias,
                        background_weight,
                        content,
                        object_entries,
                        flat,
                        background_flat,
                        extra,
                        accumulator,
                        normalized,
                        query_embedding,
                    );
                    map.set_value(idx as usize, calibrated);
                }
            }
        }
    }

    /// The original, allocation-per-patch implementation of [`ClipModel::correlation_map`],
    /// kept as the reference the optimized path is proven bit-identical against.
    #[doc(hidden)]
    pub fn correlation_map_naive(&self, frame: &Frame, query: &TextQuery) -> ImportanceMap {
        let dims = GridDims::for_frame(frame.width, frame.height, self.config.patch_size);
        let text_embedding = self.encode_text(query);
        if text_embedding.is_zero() {
            return ImportanceMap::uniform(dims, frame.width, frame.height, 0.0);
        }
        let patch_encoder = PatchEncoder::new(&self.space);
        let bias = self.config.similarity_bias;
        let mut rho = Vec::with_capacity(dims.len());
        for row in 0..dims.rows {
            for col in 0..dims.cols {
                let rect = dims.cell_rect(row, col, frame.width, frame.height);
                let patch_embedding = patch_encoder.embed_patch(frame, &rect);
                let raw = patch_embedding.cosine(&text_embedding);
                let calibrated = ((raw - bias) / (1.0 - bias)).clamp(-1.0, 1.0);
                rho.push(calibrated);
            }
        }
        ImportanceMap::new(dims, frame.width, frame.height, rho)
    }

    /// Estimated compute latency of one correlation-map evaluation, in microseconds.
    /// Used by the end-to-end latency budget (the paper's "client-side computation" concern).
    pub fn inference_latency_us(&self, frame_width: u32, frame_height: u32) -> u64 {
        let dims = GridDims::for_frame(frame_width, frame_height, self.config.patch_size);
        self.config.text_encode_latency_us
            + (dims.len() as f64 * self.config.patch_encode_latency_us).round() as u64
    }
}

/// Phase A of every ρ path: pools one patch's concepts given its coverage list and
/// background fraction, invoking `add(embedding, weight)` in exactly the order
/// `PatchEncoder::embed_patch` + `ConceptSpace::pool` visit them — objects in coverage
/// order, then background concepts — so every caller accumulates the identical f64
/// sequence regardless of where the coverage came from (a `region_content_into` call or
/// the [`GridContent`] raster, which produce equal lists by construction).
#[allow(clippy::too_many_arguments)]
fn pool_patch_concepts(
    model: &ClipModel,
    coverage: &[(u32, f64)],
    background_fraction: f64,
    background_weight: f64,
    object_entries: &[(u32, u32, u32)],
    flat: &[(u32, f64)],
    background_flat: &[(u32, f64)],
    extra: &[(Concept, Embedding)],
    mut add: impl FnMut(&Embedding, f64),
) {
    let table_len = model.space.len() as u32;
    for &(object_id, object_coverage) in coverage {
        let Some(&(_, start, end)) = object_entries.iter().find(|(id, _, _)| *id == object_id) else {
            continue;
        };
        for &(concept_idx, concept_weight) in &flat[start as usize..end as usize] {
            let w = object_coverage * concept_weight;
            if w <= 0.0 {
                continue;
            }
            let embedding = if concept_idx < table_len {
                model.space.embedding_at(concept_idx)
            } else {
                &extra[(concept_idx - table_len) as usize].1
            };
            add(embedding, w);
        }
    }
    for &(concept_idx, base_weight) in background_flat {
        let w = background_fraction * base_weight * background_weight;
        if w <= 0.0 {
            continue;
        }
        let embedding = if concept_idx < table_len {
            model.space.embedding_at(concept_idx)
        } else {
            &extra[(concept_idx - table_len) as usize].1
        };
        add(embedding, w);
    }
}

/// One patch of Eq. 1 through the index-keyed table and reused buffers: pools the patch's
/// concepts exactly as `PatchEncoder::embed_patch` + `ConceptSpace::pool` do — same
/// products, same accumulation order — then applies the contrastive calibration. Used by
/// the incremental paths (which touch few patches per frame, so a per-patch
/// `region_content_into` beats rasterizing the whole grid).
#[allow(clippy::too_many_arguments)]
fn patch_rho(
    model: &ClipModel,
    frame: &Frame,
    rect: &Rect,
    bias: f64,
    background_weight: f64,
    content: &mut RegionContent,
    object_entries: &[(u32, u32, u32)],
    flat: &[(u32, f64)],
    background_flat: &[(u32, f64)],
    extra: &[(Concept, Embedding)],
    accumulator: &mut Embedding,
    normalized: &mut Embedding,
    query_embedding: &Embedding,
) -> f64 {
    frame.region_content_into(rect, content);
    accumulator.reset_zero(model.config.dim);
    pool_patch_concepts(
        model,
        &content.object_coverage,
        content.background_fraction,
        background_weight,
        object_entries,
        flat,
        background_flat,
        extra,
        |embedding, w| accumulator.add_scaled(embedding, w),
    );
    normalized.assign_normalized_from(accumulator);
    let raw = normalized.cosine(query_embedding);
    // Contrastive calibration: subtract the unrelated-pair baseline and rescale so the
    // reported correlation still spans [-1, 1].
    ((raw - bias) / (1.0 - bias)).clamp(-1.0, 1.0)
}

/// [`patch_rho`] reading cell `idx` of the whole-frame raster instead of running
/// `region_content_into` — the scalar tail of the grid-fed full paths. Bit-identical to
/// [`patch_rho`] because the raster's coverage list and background fraction equal the
/// per-region walk's and the pooling/normalize/cosine sequence is shared.
#[allow(clippy::too_many_arguments)]
fn patch_rho_cell(
    model: &ClipModel,
    grid: &GridContent,
    idx: usize,
    bias: f64,
    background_weight: f64,
    object_entries: &[(u32, u32, u32)],
    flat: &[(u32, f64)],
    background_flat: &[(u32, f64)],
    extra: &[(Concept, Embedding)],
    accumulator: &mut Embedding,
    normalized: &mut Embedding,
    query_embedding: &Embedding,
) -> f64 {
    accumulator.reset_zero(model.config.dim);
    pool_patch_concepts(
        model,
        grid.coverage(idx),
        grid.background_fraction()[idx],
        background_weight,
        object_entries,
        flat,
        background_flat,
        extra,
        |embedding, w| accumulator.add_scaled(embedding, w),
    );
    normalized.assign_normalized_from(accumulator);
    let raw = normalized.cosine(query_embedding);
    ((raw - bias) / (1.0 - bias)).clamp(-1.0, 1.0)
}

/// [`patch_rho`] over [`RHO_LANES`] patches in lockstep — the Eq. 1 vector kernel.
///
/// Phase A pools each patch's concepts scalar-per-lane into lane `l`'s contiguous slice of
/// `lane_acc`, running exactly `patch_rho`'s accumulation sequence (same products, same
/// order, unit-stride writes). Phase B then runs the normalize → cosine reductions for all
/// eight lanes simultaneously: the accumulators are transposed into the dimension-major SoA
/// `tile` (dimension `d`'s eight lane values adjacent), so every per-dimension step walks
/// unit-stride memory and the fixed-width lane loops are the axis LLVM turns into packed
/// SIMD. Bit-identity to the scalar path holds because each *lane's* reduction still sums
/// in ascending-dimension order — the exact order of [`Embedding::norm`] and
/// [`Embedding::dot`] — and lanes never mix. The `norm < 1e-12` copy branch of
/// [`Embedding::assign_normalized_from`] is reproduced branchlessly by dividing by 1.0
/// (IEEE division by 1.0 is exact), and `query_norm` is the memoized value of the same
/// deterministic `norm()` the scalar `cosine` recomputes per patch.
#[allow(clippy::too_many_arguments)]
fn patch_rho_batch(
    model: &ClipModel,
    frame: &Frame,
    rects: &[Rect; RHO_LANES],
    bias: f64,
    background_weight: f64,
    content: &mut RegionContent,
    object_entries: &[(u32, u32, u32)],
    flat: &[(u32, f64)],
    background_flat: &[(u32, f64)],
    extra: &[(Concept, Embedding)],
    lane_acc: &mut Vec<f64>,
    tile: &mut Vec<f64>,
    query_embedding: &Embedding,
    query_norm: f64,
    out: &mut [f64; RHO_LANES],
) {
    let dim = model.config.dim;
    ensure_lane_buffers(lane_acc, tile, dim);
    // Phase A: pool each lane's concepts — the scalar `patch_rho` loop verbatim, writing
    // into the lane's private contiguous accumulator slice.
    for (lane, rect) in rects.iter().enumerate() {
        frame.region_content_into(rect, content);
        let acc = &mut lane_acc[lane * dim..(lane + 1) * dim];
        pool_patch_concepts(
            model,
            &content.object_coverage,
            content.background_fraction,
            background_weight,
            object_entries,
            flat,
            background_flat,
            extra,
            |embedding, w| {
                for (a, b) in acc.iter_mut().zip(embedding.values()) {
                    *a += b * w;
                }
            },
        );
    }
    rho_reduce_lanes(lane_acc, tile, query_embedding, query_norm, bias, out);
}

/// [`patch_rho_batch`] fed by the whole-frame raster: the eight consecutive patches
/// starting at `base` pool straight from [`GridContent`]'s per-cell coverage lists —
/// no per-patch placement intersections at all — then share the same lockstep phase B.
/// This is the kernel the full (non-incremental) correlation paths run.
#[allow(clippy::too_many_arguments)]
fn patch_rho_batch_grid(
    model: &ClipModel,
    grid: &GridContent,
    base: usize,
    bias: f64,
    background_weight: f64,
    object_entries: &[(u32, u32, u32)],
    flat: &[(u32, f64)],
    background_flat: &[(u32, f64)],
    extra: &[(Concept, Embedding)],
    lane_acc: &mut Vec<f64>,
    tile: &mut Vec<f64>,
    query_embedding: &Embedding,
    query_norm: f64,
    out: &mut [f64; RHO_LANES],
) {
    let dim = model.config.dim;
    ensure_lane_buffers(lane_acc, tile, dim);
    for lane in 0..RHO_LANES {
        let idx = base + lane;
        let acc = &mut lane_acc[lane * dim..(lane + 1) * dim];
        pool_patch_concepts(
            model,
            grid.coverage(idx),
            grid.background_fraction()[idx],
            background_weight,
            object_entries,
            flat,
            background_flat,
            extra,
            |embedding, w| {
                for (a, b) in acc.iter_mut().zip(embedding.values()) {
                    *a += b * w;
                }
            },
        );
    }
    rho_reduce_lanes(lane_acc, tile, query_embedding, query_norm, bias, out);
}

/// Sizes (or zeroes) the per-lane accumulator block and its transposed tile for `dim`.
fn ensure_lane_buffers(lane_acc: &mut Vec<f64>, tile: &mut Vec<f64>, dim: usize) {
    if lane_acc.len() != RHO_LANES * dim {
        lane_acc.clear();
        lane_acc.resize(RHO_LANES * dim, 0.0);
        tile.clear();
        tile.resize(RHO_LANES * dim, 0.0);
    } else {
        lane_acc.fill(0.0);
    }
    debug_assert_eq!(tile.len(), lane_acc.len());
}

/// Phase B of the vector kernel, shared by both batch variants: transpose the lane
/// accumulators into the dimension-major tile, then run the normalize → cosine →
/// calibration reductions for all [`RHO_LANES`] lanes in lockstep.
fn rho_reduce_lanes(
    lane_acc: &[f64],
    tile: &mut [f64],
    query_embedding: &Embedding,
    query_norm: f64,
    bias: f64,
    out: &mut [f64; RHO_LANES],
) {
    let dim = lane_acc.len() / RHO_LANES;
    for lane in 0..RHO_LANES {
        let acc = &lane_acc[lane * dim..(lane + 1) * dim];
        for (d, &v) in acc.iter().enumerate() {
            tile[d * RHO_LANES + lane] = v;
        }
    }
    let mut norm_sq = [0.0f64; RHO_LANES];
    for row in tile.chunks_exact(RHO_LANES) {
        for lane in 0..RHO_LANES {
            norm_sq[lane] += row[lane] * row[lane];
        }
    }
    // A unit divisor reproduces `assign_normalized_from`'s `norm < 1e-12` copy branch
    // exactly (x / 1.0 == x), keeping the division loop below branch-free.
    let mut divisor = [1.0f64; RHO_LANES];
    for (div, &n_sq) in divisor.iter_mut().zip(&norm_sq) {
        let n = n_sq.sqrt();
        if n >= 1e-12 {
            *div = n;
        }
    }
    let mut self_sq = [0.0f64; RHO_LANES];
    let mut dot = [0.0f64; RHO_LANES];
    for (row, &q) in tile.chunks_exact(RHO_LANES).zip(query_embedding.values()) {
        for lane in 0..RHO_LANES {
            let v = row[lane] / divisor[lane];
            self_sq[lane] += v * v;
            dot[lane] += v * q;
        }
    }
    for (lane, value) in out.iter_mut().enumerate() {
        let na = self_sq[lane].sqrt();
        let raw = if na < 1e-12 || query_norm < 1e-12 {
            0.0
        } else {
            (dot[lane] / (na * query_norm)).clamp(-1.0, 1.0)
        };
        *value = ((raw - bias) / (1.0 - bias)).clamp(-1.0, 1.0);
        debug_assert!((-1.0..=1.0).contains(value), "rho out of [-1, 1]");
    }
}

/// Pushes the flat indices of every grid cell overlapping `rect` (clipped to the frame).
fn mark_dirty_cells(dims: GridDims, width: u32, height: u32, rect: &Rect, dirty: &mut Vec<u32>) {
    let r = rect.intersect(&Rect::new(0, 0, width, height));
    if r.is_empty() {
        return;
    }
    let cell = dims.cell as i64;
    let col0 = (r.x / cell) as u32;
    let row0 = (r.y / cell) as u32;
    let col1 = (((r.right() - 1) / cell) as u32).min(dims.cols - 1);
    let row1 = (((r.bottom() - 1) / cell) as u32).min(dims.rows - 1);
    for row in row0..=row1 {
        for col in col0..=col1 {
            dirty.push(dims.index(row, col) as u32);
        }
    }
}

fn fnv_bytes(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x1000_0000_01b3);
    }
    hash
}

fn fnv_u64(hash: u64, value: u64) -> u64 {
    fnv_bytes(hash, &value.to_le_bytes())
}

/// Fingerprint of everything about a frame, other than object placements, that the
/// correlation map depends on: geometry and the concept content of objects and background.
/// Two frames of the same scene share a fingerprint; placements are compared exactly.
fn frame_fingerprint(frame: &Frame) -> u64 {
    let mut hash = fnv_u64(0xcbf2_9ce4_8422_2325, frame.width as u64);
    hash = fnv_u64(hash, frame.height as u64);
    hash = fnv_u64(hash, frame.objects.len() as u64);
    for object in &frame.objects {
        hash = fnv_u64(hash, object.id as u64);
        hash = fnv_u64(hash, object.concepts.len() as u64);
        for (concept, weight) in &object.concepts {
            hash = fnv_bytes(hash, concept.name().as_bytes());
            hash = fnv_u64(hash, weight.to_bits());
        }
    }
    hash = fnv_u64(hash, frame.background_concepts.len() as u64);
    for (concept, weight) in &frame.background_concepts {
        hash = fnv_bytes(hash, concept.name().as_bytes());
        hash = fnv_u64(hash, weight.to_bits());
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use aivc_scene::templates::{basketball_game, dog_park};
    use aivc_scene::{Rect, SourceConfig, VideoSource};

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
        let fine = ClipModel::new(ClipConfig::mobile_clip_fine(), Ontology::standard());
        let frame = frame_of(basketball_game(1));
        let q = TextQuery::from_words("score", coarse.ontology());
        assert!(
            fine.correlation_map(&frame, &q).dims().len() > coarse.correlation_map(&frame, &q).dims().len()
        );
        assert!(fine.inference_latency_us(1920, 1080) > coarse.inference_latency_us(1920, 1080));
    }

    #[test]
    fn scratch_path_is_bit_identical_to_naive_on_basketball_game() {
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
            assert_eq!(optimized, &naive, "frame {frame_idx}");
        }
    }

    #[test]
    fn scratch_path_is_bit_identical_to_naive_on_dog_park() {
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
            assert_eq!(optimized, &naive, "query {text:?}");
        }
    }

    #[test]
    fn convenience_form_matches_scratch_form_and_naive() {
        let model = ClipModel::mobile_default();
        let frame = frame_of(basketball_game(2));
        let query = TextQuery::from_words("How many spectators can be seen?", model.ontology());
        let via_convenience = model.correlation_map(&frame, &query);
        let naive = model.correlation_map_naive(&frame, &query);
        assert_eq!(via_convenience, naive);
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
        assert_eq!(switched, &model.correlation_map_naive(&source.frame(0), &other));
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
        let frame = Frame::sample(&scene, 0, 0, 0.0);
        let query = TextQuery::from_concepts("find the gizmo", ["unheard-of-gizmo"]);
        let naive = model.correlation_map_naive(&frame, &query);
        let mut scratch = ClipScratch::new();
        let optimized = model.correlation_map_with(&frame, &query, &mut scratch);
        assert_eq!(optimized, &naive);
    }

    #[test]
    fn scratch_survives_model_switch_with_different_dim() {
        // Sharing one scratch across models is discouraged but must not panic: the memoized
        // query embedding and the extra-concept cache are invalidated by dimension.
        let coarse = ClipModel::mobile_default();
        let wide = ClipModel::new(
            ClipConfig {
                dim: 128,
                ..ClipConfig::mobile_clip()
            },
            Ontology::standard(),
        );
        let frame = frame_of(basketball_game(1));
        let query = TextQuery::from_words("score", coarse.ontology());
        let mut scratch = ClipScratch::new();
        let a = coarse.correlation_map_with(&frame, &query, &mut scratch).clone();
        let b = wide.correlation_map_with(&frame, &query, &mut scratch).clone();
        let c = coarse.correlation_map_with(&frame, &query, &mut scratch);
        assert_eq!(c, &a);
        assert_eq!(&b, &wide.correlation_map_naive(&frame, &query));
        assert_eq!(&a, &coarse.correlation_map_naive(&frame, &query));
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
            let full = model.correlation_map_naive(&frame, &query);
            assert_eq!(incremental, full, "frame {frame_idx}");
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
            assert_eq!(incremental, model.correlation_map_naive(&frame, query));
        }
    }

    #[test]
    fn explicit_dirty_update_matches_full_recompute() {
        let model = ClipModel::mobile_default();
        let mut scratch = ClipScratch::new();
        let source = VideoSource::new(basketball_game(1), SourceConfig::fps30(5.0));
        let query = TextQuery::from_words("score", model.ontology());
        let a = source.frame(0);
        let b = source.frame(1);
        let _ = model.correlation_map_with(&a, &query, &mut scratch);
        // The full range is always a safe dirty set.
        let dims = model.correlation_map_naive(&b, &query).dims();
        let everything: Vec<usize> = (0..dims.len()).collect();
        let updated = model.correlation_map_update(&b, &query, &everything, &mut scratch);
        assert_eq!(updated, &model.correlation_map_naive(&b, &query));
        // Out-of-range indices are ignored; an empty dirty set on an identical frame is a
        // no-op that still matches.
        let updated = model.correlation_map_update(&b, &query, &[usize::MAX], &mut scratch);
        assert_eq!(updated, &model.correlation_map_naive(&b, &query));
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
        assert_eq!(map, &model.correlation_map_naive(&frame, &query));
    }

    #[test]
    fn parallel_path_is_bit_identical_to_sequential_for_every_pool_size() {
        let model = ClipModel::mobile_default();
        let source = VideoSource::new(basketball_game(1), SourceConfig::fps30(5.0));
        let query = TextQuery::from_words(
            "Could you tell me the present score of the game?",
            model.ontology(),
        );
        for lanes in [1usize, 2, 3, 8] {
            let pool = MiniPool::new(lanes);
            let mut scratch = ClipParScratch::new();
            for frame_idx in [0u64, 15, 30, 0] {
                let frame = source.frame(frame_idx);
                let naive = model.correlation_map_naive(&frame, &query);
                let par = model.correlation_map_par(&frame, &query, &pool, &mut scratch);
                assert_eq!(par, &naive, "lanes {lanes} frame {frame_idx}");
            }
        }
    }

    #[test]
    fn parallel_path_handles_empty_queries_and_query_switches() {
        let model = ClipModel::mobile_default();
        let pool = MiniPool::new(4);
        let mut scratch = ClipParScratch::new();
        let frame = frame_of(dog_park(1));
        // Empty query: the all-zero map, same as the naive path.
        let empty = TextQuery::from_words("qqq zzz", model.ontology());
        let map = model.correlation_map_par(&frame, &empty, &pool, &mut scratch);
        assert_eq!(map, &model.correlation_map_naive(&frame, &empty));
        // Switching to a real query through the same scratch still matches.
        let real = TextQuery::from_words("Is the dog erect-eared?", model.ontology());
        let map = model.correlation_map_par(&frame, &real, &pool, &mut scratch);
        assert_eq!(map, &model.correlation_map_naive(&frame, &real));
        // And the scratch composes with the sequential/coherent paths: the recorded
        // coherence state lets a follow-up frame take the incremental path correctly.
        let source = VideoSource::new(dog_park(1), SourceConfig::fps30(5.0));
        let next = source.frame(1);
        let coherent = model.correlation_map_coherent(&next, &real, &mut scratch.seq);
        assert_eq!(coherent, &model.correlation_map_naive(&next, &real));
    }

    #[test]
    fn parallel_path_matches_on_out_of_ontology_concepts() {
        use aivc_scene::{Scene, SceneObject};
        let mut scene = Scene::new("novel", 1920, 1080).with_background(
            0.2,
            0.1,
            vec![(Concept::new("mystery-backdrop"), 1.0)],
        );
        scene.add_object(
            SceneObject::new(1, "gizmo", aivc_scene::Rect::new(640, 256, 512, 384))
                .with_concept("unheard-of-gizmo", 1.0)
                .with_detail(0.5)
                .with_texture(0.5),
        );
        let model = ClipModel::mobile_default();
        let frame = Frame::sample(&scene, 0, 0, 0.0);
        let query = TextQuery::from_concepts("find the gizmo", ["unheard-of-gizmo"]);
        let naive = model.correlation_map_naive(&frame, &query);
        let pool = MiniPool::new(3);
        let mut scratch = ClipParScratch::new();
        assert_eq!(
            model.correlation_map_par(&frame, &query, &pool, &mut scratch),
            &naive
        );
    }

    #[test]
    fn batch_kernel_matches_naive_for_every_tail_length() {
        // Frame sizes chosen so the patch count sweeps 1..=20 plus the 1080p grid (510):
        // pure-tail grids (fewer patches than the 8 kernel lanes), exact multiples of the
        // lane width, and every tail remainder in between.
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
            let frame = Frame::sample(&scene, 0, 0, 0.0);
            let naive = model.correlation_map_naive(&frame, &query);
            let mut scratch = ClipScratch::new();
            let optimized = model.correlation_map_with(&frame, &query, &mut scratch);
            assert_eq!(optimized, &naive, "{patches} patches ({cols}x{rows})");
            for lanes in [2usize, 8] {
                let pool = MiniPool::new(lanes);
                let mut par_scratch = ClipParScratch::new();
                let par = model.correlation_map_par(&frame, &query, &pool, &mut par_scratch);
                assert_eq!(par, &naive, "{patches} patches, {lanes} lanes");
            }
        }
    }

    #[test]
    fn batch_kernel_matches_naive_on_a_frame_with_no_objects() {
        // Empty input for phase A: only background concepts contribute.
        use aivc_scene::Scene;
        let model = ClipModel::mobile_default();
        let scene =
            Scene::new("empty", 640, 384).with_background(0.3, 0.1, vec![(Concept::new("grass"), 1.0)]);
        let frame = Frame::sample(&scene, 0, 0, 0.0);
        let query = TextQuery::from_words("grass season", model.ontology());
        let naive = model.correlation_map_naive(&frame, &query);
        let mut scratch = ClipScratch::new();
        assert_eq!(model.correlation_map_with(&frame, &query, &mut scratch), &naive);
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
}
