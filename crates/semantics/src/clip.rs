//! The CLIP-model facade: text encoder + patch encoder + Eq. 1.
//!
//! [`ClipModel::correlation_map`] implements the paper's §3.2 procedure: partition the
//! frame into N×N patches, embed each patch with the visual encoder, embed the user words
//! with the language encoder, and output the cosine similarity ρ_mn per patch.
//!
//! **One pipeline.** For a fixed query and frame content, a patch's ρ is a pure function
//! of its `(coverage list, background fraction)`, and a frame holds far fewer distinct
//! such *classes* than patches (a 1080p frame of the benchmark scene: 510 patches, ≈ 23
//! classes). Every form ends in one entry, [`ClipModel::correlation_map_on_raster`], which
//! reads a patch-grid raster ([`GridContent`]) of the frame and runs the same three steps
//! over the cells it has to evaluate — every cell, or the cells the raster recomputed:
//! *classify* each cell into a per-call [`ClassTable`], *evaluate* the distinct classes
//! [`RHO_LANES`] at a time, *scatter* `rho[class]` back to the cells. The table lives for
//! one call, so it cannot go stale; each class runs exactly the f64 sequence each of its
//! patches would have run, so every map is bit-identical to
//! [`ClipModel::correlation_map_naive`].
//!
//! **The raster is borrowed.** The entry owns no raster: what it keeps across captures is
//! a [`ClipMemo`] (query embedding, map, resolved concepts, fingerprint), and its per-call
//! buffers are a separate [`ClipWork`]. The turn engine lends it the rate plan's CTU raster
//! — the paper's 64-px patches *are* the CTUs — so a conversation rasterizes each capture
//! once; [`ClipScratch`] bundles a raster of its own for every other caller, and
//! [`ClipModel::correlation_map_coherent`] is "update that raster, call the entry".
//!
//! **What moved is the raster's decision.** [`GridContent::update`] remembers the previous
//! capture and reports the cells whose coverage can differ; this module only decides
//! whether the map it holds is still *about* that capture (same model, query, concept
//! fingerprint and geometry, and a raster one update past the generation the memo last
//! read) — if so the raster's dirty cells are re-evaluated, otherwise all of them.

use crate::embedding::Embedding;
use crate::importance::ImportanceMap;
use crate::text::TextQuery;
use crate::vision::{ConceptSpace, PatchEncoder};
use aivc_scene::grid_content::GridContent;
use aivc_scene::{Concept, Frame, GridDims, Ontology};

/// Lane width of the Eq. 1 vector kernel: classes evaluated in lockstep by
/// [`ClipModel::evaluate_classes`]. Eight f64 lanes fill two AVX2 registers (four NEON
/// ones) per step, and the lane-transposed tile (`dim × 8` values — 4 kB at `dim = 64`)
/// stays comfortably inside L1 alongside the query embedding.
const RHO_LANES: usize = 8;

/// Marks an unused [`ClassTable`] hash slot; class ids stay below it.
const EMPTY_SLOT: u16 = u16::MAX;

/// Cells classified into one [`ClassTable`]: that many keep every class id of a segment
/// below [`EMPTY_SLOT`], so `u16` ids serve any frame size.
const SEGMENT_CELLS: usize = EMPTY_SLOT as usize;

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

/// A frame's concept content resolved to embedding-table indices: what Eq. 1 reads per
/// class instead of `BTreeMap<Concept, _>` string look-ups. Valid for every frame sharing
/// the [`frame_fingerprint`] (and model) it was resolved for.
#[derive(Debug, Clone, Default)]
struct ResolvedConcepts {
    /// `(object_id, start, end)` — each frame object's slice of [`ResolvedConcepts::flat`].
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
    /// to [`ConceptSpace::concept_embedding`]).
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
}

/// The distinct `(coverage list, background fraction)` classes among the cells of one
/// evaluation, keyed bit-exactly (`f64::to_bits`) and found through an open-addressing
/// hash table, so a frame whose every patch is its own class costs O(1) expected
/// comparisons per cell, not a scan over the classes seen so far.
#[derive(Debug, Clone, Default)]
struct ClassTable {
    /// CSR offsets: class `c`'s coverage list is `entries[offsets[c]..offsets[c + 1]]`.
    offsets: Vec<u32>,
    /// Every class's `(object_id, fraction)` entries, concatenated in class order.
    entries: Vec<(u32, f64)>,
    /// Background fraction per class.
    background: Vec<f64>,
    /// Open-addressing slots (linear probing, load ≤ ½) holding class ids.
    slots: Vec<u16>,
    /// ρ per class, padded to a whole number of lane batches.
    rho: Vec<f64>,
    /// Occupied slots inspected by [`ClassTable::classify`] since the table was created.
    #[cfg(test)]
    key_comparisons: usize,
}

impl ClassTable {
    const MIN_SLOTS: usize = 16;

    fn clear(&mut self) {
        self.offsets.clear();
        self.offsets.push(0);
        self.entries.clear();
        self.background.clear();
        self.slots.fill(EMPTY_SLOT);
    }

    fn len(&self) -> usize {
        self.background.len()
    }

    fn coverage(&self, class: usize) -> &[(u32, f64)] {
        &self.entries[self.offsets[class] as usize..self.offsets[class + 1] as usize]
    }

    fn key_hash(coverage: &[(u32, f64)], background: f64) -> usize {
        let mut hash = background.to_bits();
        for &(object_id, fraction) in coverage {
            for word in [object_id as u64, fraction.to_bits()] {
                // Fractions such as 1.0 vary only in their top bits; folding the product's
                // high half down keeps the low (slot-index) bits well mixed.
                hash = (hash ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                hash ^= hash >> 32;
            }
        }
        hash as usize
    }

    /// The id of the class with exactly this key, added if no earlier cell had it.
    fn classify(&mut self, coverage: &[(u32, f64)], background: f64) -> u16 {
        if self.len() * 2 >= self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut slot = Self::key_hash(coverage, background) & mask;
        while self.slots[slot] != EMPTY_SLOT {
            let class = self.slots[slot] as usize;
            #[cfg(test)]
            {
                self.key_comparisons += 1;
            }
            let known = self.coverage(class);
            if self.background[class].to_bits() == background.to_bits()
                && known.len() == coverage.len()
                && known
                    .iter()
                    .zip(coverage)
                    .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits())
            {
                return class as u16;
            }
            slot = (slot + 1) & mask;
        }
        let class = self.len();
        debug_assert!(class < EMPTY_SLOT as usize, "segment holds too many classes");
        self.slots[slot] = class as u16;
        self.entries.extend_from_slice(coverage);
        self.offsets.push(self.entries.len() as u32);
        self.background.push(background);
        class as u16
    }

    /// Doubles the slot table and re-seats every class.
    fn grow(&mut self) {
        let len = (self.slots.len() * 2).max(Self::MIN_SLOTS);
        self.slots.clear();
        self.slots.resize(len, EMPTY_SLOT);
        for class in 0..self.len() {
            let mut slot = Self::key_hash(self.coverage(class), self.background[class]) & (len - 1);
            while self.slots[slot] != EMPTY_SLOT {
                slot = (slot + 1) & (len - 1);
            }
            self.slots[slot] = class as u16;
        }
    }
}

/// What Eq. 1 carries from one capture of a video to the next: the text-query embedding (a
/// multi-frame turn encodes the user's words once), the map of the previous capture and the
/// frame's resolved concept lists, kept while they are still *about* the raster being read
/// — same model, same query, same concept fingerprint, same geometry, and a raster updated
/// exactly once since the memo last read it ([`GridContent::follows`]) — so only the cells
/// that update recomputed are re-evaluated. The model is checked by identity: handing the memo to a
/// different model drops it, so a memo may be shared between models (at the price of a full
/// recompute on every switch).
///
/// A memo holds no raster of its own: [`ClipModel::correlation_map_on_raster`] reads one it
/// is lent (a conversation's rate plan holds the CTU raster its 64-px patches share), and a
/// [`ClipScratch`] bundles one with a memo for callers without a raster to lend.
#[derive(Debug, Clone)]
pub struct ClipMemo {
    /// Identity of the model the memoized state below belongs to.
    model: Option<u64>,
    /// Concept lists of the frame [`ClipMemo::map`] describes.
    concepts: ResolvedConcepts,
    /// The query whose embedding is currently memoized.
    cached_query: Option<TextQuery>,
    /// Memoized text embedding of [`ClipMemo::cached_query`].
    query_embedding: Embedding,
    /// Memoized [`Embedding::norm`] of [`ClipMemo::query_embedding`] (the f64 value
    /// `Embedding::cosine` recomputes per patch).
    query_norm: f64,
    /// The output map, refilled in place.
    map: ImportanceMap,
    /// Content fingerprint (objects, concepts, background, geometry) of the frame
    /// [`ClipMemo::map`] was computed for.
    prev_fingerprint: u64,
    /// [`GridContent::generation`] of the raster [`ClipMemo::map`] was computed from.
    raster_generation: u64,
    /// Whether [`ClipMemo::map`] and [`ClipMemo::concepts`] hold a result the incremental
    /// path may build on.
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
            concepts: ResolvedConcepts::default(),
            cached_query: None,
            query_embedding: Embedding::zeros(0),
            query_norm: 0.0,
            map: ImportanceMap::empty(),
            prev_fingerprint: 0,
            raster_generation: 0,
            prev_valid: false,
        }
    }

    /// Binds the memo to `model`. Everything memoized — the query embedding, the
    /// out-of-ontology directions, the resolved concept lists, the coherence state — was
    /// computed against one model's concept table, so a model over another ontology starts
    /// from nothing. (One that differs in `patch_size` alone shares the table; the patch grid
    /// of the map held is compared per call.)
    fn bind_model(&mut self, model: &ClipModel) {
        if self.model != Some(model.identity) {
            self.model = Some(model.identity);
            self.cached_query = None;
            self.concepts.extra.clear();
            self.prev_valid = false;
        }
    }

    /// Ensures the memoized text embedding matches `query`, re-encoding only on change.
    fn memoize_query(&mut self, model: &ClipModel, query: &TextQuery) {
        if self.cached_query.as_ref() != Some(query) {
            self.query_embedding = model.encode_text(query);
            self.query_norm = self.query_embedding.norm();
            self.cached_query = Some(query.clone());
        }
    }

    /// Whether the memoized query has no recognizable concept ([`Embedding::is_zero`]).
    fn query_is_empty(&self) -> bool {
        self.query_norm < 1e-12
    }

    /// Whether the memo holds a previous result the incremental path may update for this
    /// frame geometry and query (the memoized query must match byte-for-byte so the
    /// retained patch values were computed against the same embedding; the model is
    /// vouched for by [`ClipMemo::bind_model`]).
    fn can_update_incrementally(&self, frame: &Frame, query: &TextQuery, dims: GridDims) -> bool {
        self.prev_valid
            && self.map.dims() == dims
            && self.map.width() == frame.width
            && self.map.height() == frame.height
            && self.cached_query.as_ref() == Some(query)
    }
}

/// The per-call work buffers of Eq. 1: the class table, each evaluated cell's class id and
/// the vector kernel's lane accumulators. Written and read inside one call, so one set
/// serves any number of memos in turn — a fleet lane lends its one set to each of its
/// sessions. Allocation-free once grown to the largest patch grid served.
#[derive(Debug, Clone, Default)]
pub struct ClipWork {
    /// Per-call class table of the evaluated cells.
    classes: ClassTable,
    /// Class id of each evaluated cell of the current segment, in cell order.
    cell_class: Vec<u16>,
    /// Per-lane concept-pooling accumulators of the vector kernel: lane `l` owns the
    /// contiguous slice `[l·dim, (l+1)·dim)`, so phase A writes stay unit-stride.
    lane_acc: Vec<f64>,
    /// Lane-transposed (dimension-major SoA) copy of the accumulators: dimension `d`'s
    /// values for all [`RHO_LANES`] lanes sit side by side at `[d·LANES, (d+1)·LANES)`,
    /// the layout phase B's lockstep reductions walk with unit stride.
    tile: Vec<f64>,
}

impl ClipWork {
    /// Creates empty work buffers.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Everything the raster-owning correlation forms need: a patch-grid raster brought to
/// each frame they are handed, the [`ClipMemo`] that reads it, and [`ClipWork`] buffers.
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
    work: ClipWork,
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
    /// Hash of the concept table (names and embeddings, in index order) — everything a
    /// memo depends on besides frame, query, patch grid and raster, which it compares
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
        let mut identity = 0xcbf2_9ce4_8422_2325;
        for (idx, concept) in ontology.concepts().enumerate() {
            debug_assert_eq!(space.concept_index(concept), Some(idx as u32));
            identity = fnv_bytes(identity, concept.name().as_bytes());
            for value in space.embedding_at(idx as u32).values() {
                identity = (identity ^ value.to_bits()).wrapping_mul(0x1000_0000_01b3);
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
    /// Output is bit-identical to the naive per-patch procedure (see the equivalence tests).
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
        self.correlation_map_on_raster(
            &scratch.raster,
            frame,
            query,
            &mut scratch.memo,
            &mut scratch.work,
        )
    }

    /// The one Eq. 1 entry: the correlation map of `frame` from `raster` — a raster of
    /// `frame` on this model's patch grid (filled or updated with `patch_size`), owned by
    /// the caller — kept in `memo` and computed in `work`.
    ///
    /// When the map `memo` holds is about the raster's previous content (same model, query,
    /// concept fingerprint and geometry, and the raster [`GridContent::follows`] the
    /// generation the memo last read), only the raster's dirty cells are re-evaluated —
    /// every patch overlapping the previous *or* current placement of an object that moved,
    /// minus the patches lying fully inside both. Otherwise (first frame, concept, query,
    /// geometry or model change, a raster update the memo did not see, a different raster,
    /// a stolen map) the query is re-encoded if it changed, the frame's concepts are
    /// re-resolved and the whole grid is evaluated. Either way the map is bit-identical to
    /// [`ClipModel::correlation_map_naive`].
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
        work: &mut ClipWork,
    ) -> &'m ImportanceMap {
        let dims = GridDims::for_frame(frame.width, frame.height, self.config.patch_size);
        assert_eq!(
            raster.dims(),
            dims,
            "the raster is not on the model's patch grid for this frame"
        );
        memo.bind_model(self);
        let fingerprint = frame_fingerprint(frame);
        let kept = memo.can_update_incrementally(frame, query, dims)
            && memo.prev_fingerprint == fingerprint
            && raster.follows(memo.raster_generation);
        memo.raster_generation = raster.generation();
        if !kept {
            memo.memoize_query(self, query);
            memo.concepts.resolve_frame(self, frame);
            // Zero-filled, which is already the (frame-independent) empty-query map.
            memo.map.begin_refill(dims, frame.width, frame.height);
            memo.prev_fingerprint = fingerprint;
            memo.prev_valid = true;
        }
        if !memo.query_is_empty() {
            if kept {
                self.evaluate_cells(raster, raster.dirty_cells(), memo, work);
            } else {
                self.evaluate_cells(raster, 0..dims.len(), memo, work);
            }
        }
        &memo.map
    }

    /// The one Eq. 1 pipeline: classify → evaluate → scatter over `cells` of the raster
    /// (ascending), writing their ρ into the memo's map in place. Expects the query memo and
    /// the concept lists to be current.
    fn evaluate_cells(
        &self,
        grid: &GridContent,
        mut cells: impl Iterator<Item = usize> + Clone,
        memo: &mut ClipMemo,
        work: &mut ClipWork,
    ) {
        let ClipWork {
            classes,
            cell_class,
            lane_acc,
            tile,
        } = work;
        loop {
            classes.clear();
            cell_class.clear();
            for idx in cells.clone().take(SEGMENT_CELLS) {
                cell_class.push(classes.classify(grid.coverage(idx), grid.background_fraction()[idx]));
            }
            self.evaluate_classes(
                &memo.concepts,
                classes,
                lane_acc,
                tile,
                &memo.query_embedding,
                memo.query_norm,
            );
            for (idx, &class) in cells.by_ref().take(SEGMENT_CELLS).zip(cell_class.iter()) {
                memo.map.set_value(idx, classes.rho[class as usize]);
            }
            if cell_class.len() < SEGMENT_CELLS {
                break;
            }
        }
    }

    /// Eq. 1 for every class of the table, [`RHO_LANES`] classes in lockstep — the vector
    /// kernel.
    ///
    /// Phase A pools each class's concepts scalar-per-lane into lane `l`'s contiguous slice
    /// of `lane_acc` (same products, same order as the naive path, unit-stride writes).
    /// Phase B ([`rho_reduce_lanes`]) then runs the normalize → cosine reductions for all
    /// eight lanes at once. The last batch is padded with empty lanes: a lane's reduction
    /// reads only its own accumulator, so what sits in the other lanes — a real class or
    /// zeros — cannot change its bits, and no scalar tail is needed.
    fn evaluate_classes(
        &self,
        concepts: &ResolvedConcepts,
        classes: &mut ClassTable,
        lane_acc: &mut Vec<f64>,
        tile: &mut Vec<f64>,
        query_embedding: &Embedding,
        query_norm: f64,
    ) {
        let background_weight = PatchEncoder::new(&self.space).background_weight();
        lane_acc.resize(RHO_LANES * EMBEDDING_DIM, 0.0);
        tile.resize(RHO_LANES * EMBEDDING_DIM, 0.0);
        classes.rho.clear();
        let mut rho = [0.0f64; RHO_LANES];
        for batch in (0..classes.len()).step_by(RHO_LANES) {
            lane_acc.fill(0.0);
            for (class, acc) in (batch..classes.len()).zip(lane_acc.chunks_exact_mut(EMBEDDING_DIM)) {
                pool_patch_concepts(
                    self,
                    concepts,
                    classes.coverage(class),
                    classes.background[class],
                    background_weight,
                    |embedding, w| {
                        for (a, b) in acc.iter_mut().zip(embedding.values()) {
                            *a += b * w;
                        }
                    },
                );
            }
            rho_reduce_lanes(lane_acc, tile, query_embedding, query_norm, &mut rho);
            classes.rho.extend_from_slice(&rho);
        }
    }

    /// The original, allocation-per-patch implementation of [`ClipModel::correlation_map`],
    /// kept as the reference the pipeline is proven bit-identical against.
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
                let raw = patch_embedding.cosine(&text_embedding);
                // Contrastive calibration: subtract the unrelated-pair baseline and rescale
                // so the reported correlation still spans [-1, 1].
                let calibrated = ((raw - SIMILARITY_BIAS) / (1.0 - SIMILARITY_BIAS)).clamp(-1.0, 1.0);
                rho.push(calibrated);
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

/// Phase A of the pipeline: pools one class's concepts given its coverage list and
/// background fraction, invoking `add(embedding, weight)` in exactly the order
/// `PatchEncoder::embed_patch` + `ConceptSpace::pool` visit them — objects in coverage
/// order, then background concepts — so the accumulated f64 sequence is the naive path's
/// regardless of where the coverage came from.
fn pool_patch_concepts(
    model: &ClipModel,
    concepts: &ResolvedConcepts,
    coverage: &[(u32, f64)],
    background_fraction: f64,
    background_weight: f64,
    mut add: impl FnMut(&Embedding, f64),
) {
    for &(object_id, object_coverage) in coverage {
        let Some(&(_, start, end)) = concepts.object_entries.iter().find(|(id, _, _)| *id == object_id)
        else {
            continue;
        };
        for &(concept_idx, concept_weight) in &concepts.flat[start as usize..end as usize] {
            let w = object_coverage * concept_weight;
            if w > 0.0 {
                add(concepts.embedding(model, concept_idx), w);
            }
        }
    }
    for &(concept_idx, base_weight) in &concepts.background_flat {
        let w = background_fraction * base_weight * background_weight;
        if w > 0.0 {
            add(concepts.embedding(model, concept_idx), w);
        }
    }
}

/// Phase B of the pipeline: transpose the lane accumulators into the dimension-major
/// tile (dimension `d`'s eight lane values adjacent), then run the normalize → cosine →
/// calibration reductions for all [`RHO_LANES`] lanes in lockstep — every per-dimension
/// step walks unit-stride memory and the fixed-width lane loops are the axis LLVM turns
/// into packed SIMD.
///
/// Bit-identity to the naive path holds because each *lane's* reduction still sums in
/// ascending-dimension order — the exact order of [`Embedding::norm`] and
/// [`Embedding::dot`] — and lanes never mix. The `norm < 1e-12` copy branch of
/// [`Embedding::normalized`] is reproduced branchlessly by dividing by 1.0 (IEEE division
/// by 1.0 is exact), and `query_norm` is the memoized value of the same deterministic
/// `norm()` that `Embedding::cosine` recomputes per patch.
fn rho_reduce_lanes(
    lane_acc: &[f64],
    tile: &mut [f64],
    query_embedding: &Embedding,
    query_norm: f64,
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
    // A unit divisor reproduces the `norm < 1e-12` copy branch exactly (x / 1.0 == x),
    // keeping the division loop below branch-free.
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
        *value = ((raw - SIMILARITY_BIAS) / (1.0 - SIMILARITY_BIAS)).clamp(-1.0, 1.0);
        debug_assert!((-1.0..=1.0).contains(value), "rho out of [-1, 1]");
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
    for object in frame.objects.iter() {
        hash = fnv_u64(hash, object.id as u64);
        hash = fnv_u64(hash, object.concepts.len() as u64);
        for (concept, weight) in &object.concepts {
            hash = fnv_bytes(hash, concept.name().as_bytes());
            hash = fnv_u64(hash, weight.to_bits());
        }
    }
    hash = fnv_u64(hash, frame.background_concepts.len() as u64);
    for (concept, weight) in frame.background_concepts.iter() {
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
    use std::sync::Arc;

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
        let frame = Frame::sample(
            &aivc_scene::Scene::new("tiny", 7, 5).with_background(0.3, 0.1, vec![]),
            0,
            0,
            0.0,
        );
        for patch_size in [1, u32::MAX] {
            let model = ClipModel::new(ClipConfig { patch_size }, Ontology::standard());
            let query = TextQuery::from_words("score", model.ontology());
            let map = model.correlation_map(&frame, &query);
            assert_eq!(map, model.correlation_map_naive(&frame, &query));
            assert_eq!(map.dims().len(), if patch_size == 1 { 35 } else { 1 });
        }
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
            let expected = second.correlation_map_naive(&frame, &query);
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
            assert_eq!(back, &first.correlation_map_naive(&frame, &query));
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
            let mut frame = Frame::sample(&scene, 0, 0, 0.0);
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
                        0 => r.translated(rng.range(-20, 21), rng.range(-20, 21)),
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
                        3 => frame.placements[other]
                            .region
                            .translated(rng.range(-30, 31), rng.range(-30, 31)),
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
    /// its own, or a raster of the same frames with another history. Every map equals the
    /// naive one bit for bit, and only the first case is served incrementally.
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
            let mut frame = Frame::sample(&scene, 0, 0, 0.0);
            let walk = |frame: &mut Frame, rng: &mut Lcg| {
                let at = rng.range(0, frame.placements.len() as i64) as usize;
                let r = frame.placements[at].region;
                frame.placements[at].region = match rng.range(0, 3) {
                    0 => r.translated(rng.range(-40, 41), rng.range(-40, 41)),
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
            let (mut memo, mut work) = (ClipMemo::new(), ClipWork::new());
            let mut read = |raster: &GridContent, frame: &Frame, memo: &mut ClipMemo, what: &str| {
                if memo.prev_valid && raster.follows(memo.raster_generation) {
                    incremental += 1;
                } else {
                    full += 1;
                }
                let map = model.correlation_map_on_raster(raster, frame, &query, memo, &mut work);
                assert_eq!(
                    map,
                    &model.correlation_map_naive(frame, &query),
                    "seed {seed}: {what}"
                );
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
                let (mut memo, mut work) = (ClipMemo::new(), ClipWork::new());
                let _ = model.correlation_map_on_raster(&raster, &frame, &query, &mut memo, &mut work);
            }));
            assert!(refused.is_err(), "a raster of {:?} was read", raster.dims());
        }
    }

    #[test]
    fn a_frame_whose_every_patch_is_its_own_class_classifies_in_constant_comparisons() {
        // One small object per patch, each of a different id and a staggered size: no two
        // patches share a class, the worst case for the class table.
        use aivc_scene::{Scene, SceneObject};
        let (width, height) = (1920u32, 1080u32);
        let mut scene = Scene::new("confetti", width, height).with_background(
            0.3,
            0.1,
            vec![(Concept::new("court"), 0.6)],
        );
        let dims = GridDims::for_frame(width, height, 64);
        for idx in 0..dims.len() {
            let (row, col) = dims.position(idx);
            let region = Rect::new(
                col as i64 * 64 + (idx % 7) as i64,
                row as i64 * 64 + (idx % 5) as i64,
                8 + (idx % 40) as u32,
                8 + (idx % 31) as u32,
            );
            let concept = ["scoreboard", "crowd", "score", "unheard-of"][idx % 4];
            scene.add_object(SceneObject::new(idx as u32 + 1, "fleck", region).with_concept(concept, 0.8));
        }
        let frame = Frame::sample(&scene, 0, 0, 0.0);
        let model = ClipModel::mobile_default();
        let query = TextQuery::from_words("score scoreboard", model.ontology());
        let naive = model.correlation_map_naive(&frame, &query);
        let mut scratch = ClipScratch::new();
        assert_eq!(model.correlation_map_with(&frame, &query, &mut scratch), &naive);
        assert_eq!(scratch.work.classes.len(), dims.len());
        assert!(
            scratch.work.classes.key_comparisons <= 2 * dims.len(),
            "{} key comparisons for {} cells",
            scratch.work.classes.key_comparisons,
            dims.len()
        );
        // Moving one fleck re-evaluates (and classifies) only the cells it touched.
        let mut moved = frame.clone();
        moved.placements[200].region = moved.placements[200].region.translated(3, 0);
        let naive = model.correlation_map_naive(&moved, &query);
        assert_eq!(
            model.correlation_map_coherent(&moved, &query, &mut scratch),
            &naive
        );
        assert_eq!(scratch.work.classes.len(), scratch.raster.dirty_cells().count());
        assert!((1..=2).contains(&scratch.work.classes.len()));
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
        let _ = model.correlation_map_coherent(&source.frame(0), &score, &mut scratch);
        plant(&mut scratch);
        // Same scene, same query, objects moved: the lists are kept.
        let frame = source.frame(1);
        let map = model.correlation_map_coherent(&frame, &score, &mut scratch);
        assert_eq!(map, &model.correlation_map_naive(&frame, &score));
        assert!(planted(&scratch, &frame));
        // A query change re-resolves.
        let frame = source.frame(2);
        let map = model.correlation_map_coherent(&frame, &crowd, &mut scratch);
        assert_eq!(map, &model.correlation_map_naive(&frame, &crowd));
        assert!(!planted(&scratch, &frame));
        // A fingerprint change (an object's concept edited) re-resolves, although the
        // raster sees the same objects at the same rects.
        plant(&mut scratch);
        let mut edited = source.frame(3);
        Arc::make_mut(&mut edited.objects)[0].concepts[0].0 = Concept::new("grass");
        let map = model.correlation_map_coherent(&edited, &crowd, &mut scratch);
        assert_eq!(map, &model.correlation_map_naive(&edited, &crowd));
        assert!(!planted(&scratch, &edited));
        assert_eq!(scratch.raster.dirty_cells().count(), 62);
        // An edit the raster's key covers but the fingerprint does not (an object's
        // texture): every cell re-evaluated, the lists kept.
        plant(&mut scratch);
        Arc::make_mut(&mut edited.objects)[0].texture_complexity = 0.123;
        let map = model.correlation_map_coherent(&edited, &crowd, &mut scratch);
        assert_eq!(map, &model.correlation_map_naive(&edited, &crowd));
        assert_eq!(scratch.raster.dirty_cells().count(), 510);
        assert!(planted(&scratch, &edited));
        // A stolen map re-resolves.
        plant(&mut scratch);
        let _ = scratch.take_map();
        let map = model.correlation_map_coherent(&edited, &crowd, &mut scratch);
        assert_eq!(map, &model.correlation_map_naive(&edited, &crowd));
        assert!(!planted(&scratch, &edited));
    }
}
