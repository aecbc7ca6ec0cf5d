//! # aivc-par — a vendored, dependency-free scoped thread pool
//!
//! crates.io is unreachable in this environment, so the workspace cannot pull in `rayon`;
//! this crate provides the minimal parallel substrate the hot paths need, with the
//! properties the repo's performance contract demands:
//!
//! * **Scoped**: [`MiniPool::run`] blocks until every lane has finished, so jobs may borrow
//!   from the caller's stack (the classic scoped-thread guarantee).
//! * **Deterministic**: work is distributed by a *static* chunk→lane mapping
//!   (chunk `c` runs on lane `c % lanes`, ascending within a lane) — no work stealing, no
//!   run-to-run variation, so parallel results can be proven bit-identical to sequential
//!   ones and per-lane scratch caches stay warm across frames (see DESIGN.md §"Threading
//!   model").
//! * **Allocation-free in steady state**: dispatch hands workers a raw pointer to the job
//!   and synchronizes with a mutex/condvar pair; after the pool is built, a parallel
//!   section performs zero heap allocations (guarded by `crates/bench/tests/zero_alloc.rs`).
//! * **Degrades to sequential**: a pool of one lane spawns no threads and runs jobs inline
//!   on the caller, so `pool_size = 1` is exactly the sequential code path.
//!
//! Panics inside a lane are caught, counted, and re-raised on the caller once every lane
//! has finished (so borrows never outlive the parallel section even on unwind). Nested
//! parallel sections are rejected: a job must not start another one (see
//! [`MiniPool::run`]).

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Type-erased pointer to the job of the current parallel section. The `'static` lifetime
/// is a lie told only inside [`MiniPool::run`], which blocks until every worker is done
/// with the pointer before returning — the scoped-thread-pool argument.
type Job = *const (dyn Fn(usize) + Sync + 'static);

/// A [`Job`] pointer that may cross thread boundaries (the synchronization protocol of
/// [`MiniPool::run`] guarantees the pointee outlives every use).
#[derive(Clone, Copy)]
struct JobPtr(Job);

// SAFETY: the pointee is `Sync` (shared calls are safe) and `MiniPool::run` keeps it alive
// until every lane has finished executing it.
unsafe impl Send for JobPtr {}

/// A raw pointer wrapper allowing disjoint `&mut` chunks of one slice to be handed to
/// different lanes (see [`MiniPool::for_each_chunk`] for the disjointness argument).
struct SendPtr<T>(*mut T);

// Manual impls: the derive would add unwanted `T: Clone`/`T: Copy` bounds, but copying the
// wrapper never copies a `T`.
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// The wrapped pointer. A method (rather than field access) so closures capture the
    /// whole `Sync` wrapper under Rust 2021 disjoint-field capture, not the raw pointer.
    fn get(self) -> *mut T {
        self.0
    }
}

// SAFETY: `SendPtr` is only used to materialize references to *disjoint* regions from
// different threads, with `T: Send` enforced at the API boundary.
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

/// Shared state between the pool owner and its workers.
struct State {
    /// The job of the current parallel section (`None` between sections).
    job: Option<JobPtr>,
    /// Bumped once per parallel section; workers use it to detect fresh work.
    generation: u64,
    /// Worker lanes that have not yet finished the current section.
    remaining: usize,
    /// Worker lanes that panicked during the current section.
    panics: usize,
    /// Set once by `Drop`; workers exit their loop when they observe it.
    shutdown: bool,
}

struct Inner {
    state: Mutex<State>,
    /// Workers wait here for a new generation (or shutdown).
    work_cv: Condvar,
    /// The caller waits here for `remaining == 0`.
    done_cv: Condvar,
    /// Serializes parallel sections: the job/generation/remaining protocol supports one
    /// caller at a time, so a second thread calling [`MiniPool::run`] on the same pool
    /// blocks here until the current section completes. Without this, safe code could
    /// overwrite the published job pointer mid-section (use-after-free of a stack
    /// closure). Held across the whole section; recovered (not poisoned-forever) if a
    /// propagated job panic unwinds through it.
    section: Mutex<()>,
}

thread_local! {
    /// Whether the current thread is inside a parallel section (as caller or worker).
    static IN_PARALLEL: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Clears the thread's in-parallel-section flag on drop, including on unwind.
struct SectionGuard;

impl Drop for SectionGuard {
    fn drop(&mut self) {
        IN_PARALLEL.with(|flag| flag.set(false));
    }
}

/// The scoped thread pool. See the crate docs for the guarantees.
///
/// A pool of `lanes` executes parallel sections on `lanes` *lanes*: lane 0 is the calling
/// thread itself (which always participates), lanes `1..lanes` are worker threads parked on
/// a condvar between sections. Dropping the pool joins every worker.
pub struct MiniPool {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for MiniPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MiniPool").field("lanes", &self.lanes()).finish()
    }
}

/// Context handed to each chunk of [`MiniPool::for_each_chunk`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkCtx {
    /// Index of this chunk in `0..chunks`.
    pub chunk: usize,
    /// Lane executing the chunk (`chunk % lanes`, deterministically).
    pub lane: usize,
    /// Offset of the chunk's first element within the full slice.
    pub start: usize,
}

/// The lane count an `AIVC_POOL_SIZE` value asks for: at least one lane, `fallback` when
/// the variable is unset or not a number.
fn lanes_from(value: Option<&str>, fallback: usize) -> usize {
    value
        .and_then(|v| v.parse::<usize>().ok())
        .map_or(fallback, |n| n.max(1))
}

impl MiniPool {
    /// Creates a pool with `lanes` parallel lanes (clamped to at least 1). `lanes - 1`
    /// worker threads are spawned; a pool of one lane spawns none and runs everything
    /// inline on the caller.
    pub fn new(lanes: usize) -> Self {
        let lanes = lanes.max(1);
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                job: None,
                generation: 0,
                remaining: 0,
                panics: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            section: Mutex::new(()),
        });
        let workers = (1..lanes)
            .map(|lane| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("mini-pool-{lane}"))
                    .spawn(move || worker_loop(&inner, lane))
                    .expect("spawning a mini-pool worker thread")
            })
            .collect();
        Self { inner, workers }
    }

    /// The machine's available parallelism (1 if it cannot be determined).
    pub fn available_lanes() -> usize {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }

    /// The pool size requested by the `AIVC_POOL_SIZE` environment variable, falling back
    /// to [`MiniPool::available_lanes`]. The convention shared by the benches, the
    /// zero-alloc proof and CI, so every harness can be pinned to a 1-worker or
    /// multi-worker configuration.
    pub fn env_lanes() -> usize {
        Self::env_lanes_or(Self::available_lanes())
    }

    /// [`MiniPool::env_lanes`] with an explicit fallback for when `AIVC_POOL_SIZE` is
    /// unset or unparsable — the one place the variable is interpreted, so every harness
    /// (benches, `bench_check`, the zero-alloc proof) clamps and falls back identically.
    pub fn env_lanes_or(fallback: usize) -> usize {
        lanes_from(std::env::var("AIVC_POOL_SIZE").ok().as_deref(), fallback)
    }

    /// Number of parallel lanes (worker threads + the participating caller). Always ≥ 1.
    pub fn lanes(&self) -> usize {
        self.workers.len() + 1
    }

    /// Runs `job(lane)` once per lane in `0..lanes`, in parallel, and returns when every
    /// lane has finished. Lane 0 executes on the calling thread.
    ///
    /// If any lane panics, the panic is re-raised here — but only after *all* lanes have
    /// finished, so borrows held by `job` never escape the section. Nested sections are
    /// rejected with a panic: a job must not call back into any pool (the deterministic
    /// chunk→lane mapping and the per-lane scratch ownership both assume one flat section
    /// at a time; conversations running on server lanes therefore use the sequential
    /// stage paths internally). Sections from *different* threads on the same pool are
    /// serialized (second caller blocks until the first section completes).
    pub fn run(&self, job: &(dyn Fn(usize) + Sync)) {
        IN_PARALLEL.with(|flag| {
            assert!(
                !flag.get(),
                "MiniPool: nested parallel sections are rejected — a pool job must not start another parallel section"
            );
            flag.set(true);
        });
        let _section = SectionGuard;
        if self.workers.is_empty() {
            // One lane: the sequential path, no dispatch at all (and no shared protocol
            // state, so concurrent callers need no serialization either).
            job(0);
            return;
        }
        // One caller at a time: the job/generation/remaining protocol below assumes it.
        // A poisoned lock just means an earlier section's job panicked (the panic was
        // propagated after its section completed cleanly), so recover the guard.
        let _exclusive = self
            .inner
            .section
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // SAFETY: erasing the job's lifetime is sound because this function does not
        // return until `remaining == 0`, i.e. until no worker will touch the pointer again
        // — and the section lock guarantees no other caller can overwrite the published
        // pointer mid-section.
        let erased = JobPtr(unsafe {
            std::mem::transmute::<*const (dyn Fn(usize) + Sync), Job>(job as *const (dyn Fn(usize) + Sync))
        });
        {
            let mut state = self.inner.state.lock().expect("mini-pool state lock");
            state.job = Some(erased);
            state.generation = state.generation.wrapping_add(1);
            state.remaining = self.workers.len();
            self.inner.work_cv.notify_all();
        }
        let caller_result = catch_unwind(AssertUnwindSafe(|| job(0)));
        let worker_panics = {
            let mut state = self.inner.state.lock().expect("mini-pool state lock");
            while state.remaining > 0 {
                state = self.inner.done_cv.wait(state).expect("mini-pool done wait");
            }
            state.job = None;
            std::mem::take(&mut state.panics)
        };
        if let Err(payload) = caller_result {
            resume_unwind(payload);
        }
        assert!(
            worker_panics == 0,
            "MiniPool: {worker_panics} worker lane(s) panicked during a parallel section"
        );
    }

    /// Splits `data` into `chunks` contiguous pieces (chunk `c` covers
    /// `c*len/chunks .. (c+1)*len/chunks`) and runs `f(ctx, chunk, scratch)` for each,
    /// distributing chunks over the lanes with the static mapping `lane = chunk % lanes`
    /// (ascending chunk order within each lane). `scratches[lane]` is handed exclusively to
    /// lane `lane` for the whole section — per-worker scratch storage with no locking.
    ///
    /// `chunks` may exceed the lane count (finer chunks smooth load imbalance while keeping
    /// the mapping deterministic). An empty `data` or `chunks == 0` is a no-op. Panics if
    /// `scratches` has fewer than [`MiniPool::lanes`] entries.
    pub fn for_each_chunk<T, S, F>(&self, data: &mut [T], chunks: usize, scratches: &mut [S], f: F)
    where
        T: Send,
        S: Send,
        F: Fn(ChunkCtx, &mut [T], &mut S) + Sync,
    {
        if data.is_empty() || chunks == 0 {
            return;
        }
        let lanes = self.lanes();
        assert!(
            scratches.len() >= lanes,
            "MiniPool::for_each_chunk needs one scratch per lane ({} < {lanes})",
            scratches.len()
        );
        let len = data.len();
        let data_ptr = SendPtr(data.as_mut_ptr());
        let scratch_ptr = SendPtr(scratches.as_mut_ptr());
        self.run(&move |lane| {
            // SAFETY: each lane index occurs exactly once per section, so this is the only
            // live reference to `scratches[lane]`.
            let scratch = unsafe { &mut *scratch_ptr.get().add(lane) };
            let mut chunk = lane;
            while chunk < chunks {
                let start = chunk * len / chunks;
                let end = (chunk + 1) * len / chunks;
                if start < end {
                    // SAFETY: chunk ranges [start, end) are disjoint across chunk indices
                    // and each chunk is executed exactly once (by lane `chunk % lanes`),
                    // so no element is aliased; the caller's borrow of `data` outlives the
                    // section because `run` blocks until every lane finishes.
                    let part =
                        unsafe { std::slice::from_raw_parts_mut(data_ptr.get().add(start), end - start) };
                    f(ChunkCtx { chunk, lane, start }, part, scratch);
                }
                chunk += lanes;
            }
        });
    }
}

impl Drop for MiniPool {
    fn drop(&mut self) {
        {
            let mut state = self.inner.state.lock().expect("mini-pool state lock");
            state.shutdown = true;
            self.inner.work_cv.notify_all();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// The worker side of the protocol: wait for a fresh generation, execute the job for this
/// lane (with panics contained), report completion, repeat until shutdown.
fn worker_loop(inner: &Inner, lane: usize) {
    let mut seen_generation = 0u64;
    loop {
        let job = {
            let mut state = inner.state.lock().expect("mini-pool state lock");
            loop {
                if state.shutdown {
                    return;
                }
                if state.generation != seen_generation {
                    if let Some(job) = state.job {
                        seen_generation = state.generation;
                        break job;
                    }
                }
                state = inner.work_cv.wait(state).expect("mini-pool work wait");
            }
        };
        IN_PARALLEL.with(|flag| flag.set(true));
        let section = SectionGuard;
        // SAFETY: the caller keeps the job alive until `remaining` drops to zero, which
        // only happens after this call returns.
        let result = catch_unwind(AssertUnwindSafe(|| (unsafe { &*job.0 })(lane)));
        drop(section);
        let mut state = inner.state.lock().expect("mini-pool state lock");
        if result.is_err() {
            state.panics += 1;
        }
        state.remaining -= 1;
        if state.remaining == 0 {
            inner.done_cv.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn every_lane_runs_exactly_once() {
        for lanes in [1, 2, 3, 8] {
            let pool = MiniPool::new(lanes);
            let counts: Vec<AtomicUsize> = (0..lanes).map(|_| AtomicUsize::new(0)).collect();
            pool.run(&|lane| {
                counts[lane].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                counts.iter().all(|c| c.load(Ordering::Relaxed) == 1),
                "lanes {lanes}"
            );
        }
    }

    #[test]
    fn pool_is_reusable_across_sections() {
        let pool = MiniPool::new(4);
        let total = AtomicUsize::new(0);
        for _ in 0..100 {
            pool.run(&|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 400);
    }

    #[test]
    fn for_each_chunk_covers_every_element_exactly_once() {
        for lanes in [1, 2, 3, 8] {
            for chunks in [1, 2, 7, 16, 64] {
                let pool = MiniPool::new(lanes);
                let mut data = vec![0u32; 97];
                let mut scratches = vec![0usize; pool.lanes()];
                pool.for_each_chunk(&mut data, chunks, &mut scratches, |ctx, part, touched| {
                    assert_eq!(ctx.lane, ctx.chunk % pool.lanes());
                    *touched += part.len();
                    for v in part.iter_mut() {
                        *v += 1;
                    }
                });
                assert!(data.iter().all(|v| *v == 1), "lanes {lanes} chunks {chunks}");
                assert_eq!(scratches.iter().sum::<usize>(), 97);
            }
        }
    }

    #[test]
    fn chunk_to_lane_mapping_is_deterministic() {
        // chunk c runs on lane c % lanes, regardless of timing: record the lane per element
        // twice and compare. With chunks > lanes, several chunks share a lane.
        let pool = MiniPool::new(3);
        let chunks = 10; // > lanes: exercises the round-robin wrap
        let run = || {
            let mut data = vec![usize::MAX; 50];
            let mut scratches = vec![(); pool.lanes()];
            pool.for_each_chunk(&mut data, chunks, &mut scratches, |ctx, part, ()| {
                for v in part.iter_mut() {
                    *v = ctx.lane;
                }
                assert_eq!(ctx.lane, ctx.chunk % pool.lanes());
            });
            data
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn zero_length_work_and_zero_chunks_are_no_ops() {
        let pool = MiniPool::new(4);
        let mut scratches = vec![(); pool.lanes()];
        let calls = AtomicUsize::new(0);
        pool.for_each_chunk(&mut [] as &mut [u8], 8, &mut scratches, |_, _, ()| {
            calls.fetch_add(1, Ordering::Relaxed);
        });
        let mut data = [1u8, 2, 3];
        pool.for_each_chunk(&mut data, 0, &mut scratches, |_, _, ()| {
            calls.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(calls.load(Ordering::Relaxed), 0);
        // More chunks than elements: empty chunks are skipped, every element still visited.
        let mut tiny = [0u8; 3];
        pool.for_each_chunk(&mut tiny, 9, &mut scratches, |_, part, ()| {
            for v in part.iter_mut() {
                *v += 1;
            }
        });
        assert_eq!(tiny, [1, 1, 1]);
    }

    #[test]
    fn worker_panic_propagates_to_the_caller() {
        let pool = MiniPool::new(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(&|lane| {
                if lane == 2 {
                    panic!("deliberate test panic in a worker lane");
                }
            });
        }));
        assert!(result.is_err());
        // The pool survives the panic and is usable again.
        let total = AtomicUsize::new(0);
        pool.run(&|_| {
            total.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn caller_lane_panic_propagates_and_pool_survives() {
        let pool = MiniPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(&|lane| {
                if lane == 0 {
                    panic!("deliberate test panic on the caller lane");
                }
            });
        }));
        assert!(result.is_err());
        let total = AtomicUsize::new(0);
        pool.run(&|_| {
            total.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn nested_sections_are_rejected() {
        let pool = MiniPool::new(2);
        let inner_pool = MiniPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(&|_| {
                inner_pool.run(&|_| {});
            });
        }));
        assert!(result.is_err(), "nested sections must panic");
        // Sequential sections on the same thread are of course fine.
        pool.run(&|_| {});
        inner_pool.run(&|_| {});
    }

    #[test]
    fn nested_sections_are_rejected_even_on_a_one_lane_pool() {
        let outer = MiniPool::new(1);
        let inner = MiniPool::new(1);
        let result = catch_unwind(AssertUnwindSafe(|| {
            outer.run(&|_| inner.run(&|_| {}));
        }));
        assert!(result.is_err());
    }

    #[test]
    fn concurrent_sections_from_different_threads_are_serialized() {
        // Two threads hammering run() on the same pool: sections must never interleave
        // (the section lock serializes them), every job must run on every lane, and no
        // job pointer may outlive its section. The per-iteration check that exactly
        // `lanes` increments landed would fail if two sections' counts mixed.
        let pool = MiniPool::new(3);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    for _ in 0..50 {
                        let count = AtomicUsize::new(0);
                        pool.run(&|_| {
                            count.fetch_add(1, Ordering::Relaxed);
                        });
                        assert_eq!(count.load(Ordering::Relaxed), pool.lanes());
                    }
                });
            }
        });
    }

    #[test]
    fn one_lane_pool_runs_inline_without_threads() {
        let pool = MiniPool::new(1);
        assert_eq!(pool.lanes(), 1);
        let thread_id = std::thread::current().id();
        pool.run(&|lane| {
            assert_eq!(lane, 0);
            assert_eq!(std::thread::current().id(), thread_id);
        });
    }

    #[test]
    fn lanes_clamped_to_at_least_one() {
        assert_eq!(MiniPool::new(0).lanes(), 1);
    }

    #[test]
    fn env_lanes_parses_and_clamps() {
        // The parse is tested on explicit values: the variable itself is process-global
        // and CI exports it.
        assert_eq!(lanes_from(None, 7), 7);
        assert_eq!(lanes_from(Some("0"), 7), 1);
        assert_eq!(lanes_from(Some("3"), 7), 3);
        assert_eq!(lanes_from(Some("x"), 7), 7);
        assert!(MiniPool::env_lanes() >= 1);
    }

    #[test]
    fn scratches_are_exclusive_per_lane() {
        let pool = MiniPool::new(4);
        let mut data = vec![0u8; 1024];
        let mut scratches: Vec<Vec<usize>> = vec![Vec::new(); pool.lanes()];
        pool.for_each_chunk(&mut data, 16, &mut scratches, |ctx, _, seen| {
            seen.push(ctx.chunk);
        });
        // Each lane saw exactly its round-robin chunks, in ascending order.
        for (lane, seen) in scratches.iter().enumerate() {
            let expected: Vec<usize> = (0..16).filter(|c| c % pool.lanes() == lane).collect();
            assert_eq!(seen, &expected, "lane {lane}");
        }
    }
}
