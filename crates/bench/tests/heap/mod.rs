//! The byte-counting global allocator and the heap measurements built on it, shared by the
//! two harness-less targets that read live heap: `serving_scale` (the slopes under their
//! ceilings) and `heap_counts` (the exact counts in `tests/fixtures/heap_counts.json`).
//! Each target installs this allocator as its own; `harness = false` keeps libtest's
//! threads, which allocate sporadically, out of the count.

use aivc_mllm::Question;
use aivc_netsim::PathConfig;
use aivc_scene::{Frame, VideoSource};
use aivc_sim::SimDuration;
use aivchat_core::scenarios::{registry, ScenarioSpec};
use aivchat_core::{run_contention, ConversationChatServer, NetSessionOptions};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

/// Tracks *live* heap bytes (alloc adds, dealloc subtracts), so a before/after diff
/// around a construction is what it holds, and the high-water mark of that count since
/// the last [`reset_peak`].
struct ByteCounter;

static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
static PEAK_BYTES: AtomicI64 = AtomicI64::new(0);

fn add_live(delta: i64) {
    let live = LIVE_BYTES.fetch_add(delta, Ordering::Relaxed) + delta;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for ByteCounter {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add_live(layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        add_live(new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: ByteCounter = ByteCounter;

pub fn live_bytes() -> i64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// Restarts the high-water mark at what is live now, and returns that.
fn reset_peak() -> i64 {
    let live = live_bytes();
    PEAK_BYTES.store(live, Ordering::Relaxed);
    live
}

/// Live heap `make` leaves behind in the value it returns.
pub fn held_by<T>(make: impl FnOnce() -> T) -> (T, i64) {
    let before = live_bytes();
    let value = make();
    let held = live_bytes() - before;
    (value, held)
}

/// The fleets' session template: AI-oriented on the §2.2 path, eight captures a second.
pub fn template(seed: u64) -> NetSessionOptions {
    let mut options = NetSessionOptions::ai_oriented(seed, PathConfig::paper_section_2_2(0.01));
    options.capture_fps = 8.0;
    options
}

/// Four captures of `source` for turn `turn`.
pub fn turn_window(source: &VideoSource, turn: usize) -> Vec<Frame> {
    (0..4)
        .map(|i| source.frame(((turn * 4 + i) * 11 % 170) as u64))
        .collect()
}

/// Live heap a warm fleet of `sessions` conversations on `lanes` lanes adds: construction
/// plus the turns, everything retained (rings, scratches, event queues at their
/// high-water mark, report history).
fn warm_fleet_bytes(lanes: usize, sessions: usize, windows: &[Vec<Frame>], question: &Question) -> i64 {
    let before = live_bytes();
    let mut server =
        ConversationChatServer::new(lanes, sessions, template(17), SimDuration::from_millis(300));
    for window in windows {
        server.run_turns(window, question);
    }
    live_bytes() - before
}

/// A fleet's live heap as `(slope, intercept)`: what one more warm conversation costs and
/// what the server holds whatever its size, from fleets of `sessions` and `2 · sessions`.
pub fn warm_fleet_slope(
    lanes: usize,
    sessions: usize,
    windows: &[Vec<Frame>],
    question: &Question,
) -> (f64, f64) {
    let small = warm_fleet_bytes(lanes, sessions, windows, question) as f64;
    let large = warm_fleet_bytes(lanes, 2 * sessions, windows, question) as f64;
    let slope = (large - small) / sessions as f64;
    (slope, small - slope * sessions as f64)
}

/// Peak heap one `run_contention` of `scenario`'s first `tenants` tenants on AI-oriented
/// ABR reaches above what was live when it started — the tenants' scripted frames are
/// built beforehand, so only the engine and its report count.
fn contention_peak_bytes(scenario: &ScenarioSpec, tenants: usize) -> i64 {
    let specs = (0..tenants)
        .map(|tenant| scenario.tenant_spec(tenant, true))
        .collect();
    let config = scenario.config();
    let before = reset_peak();
    let report = run_contention(&config, specs);
    let peak = PEAK_BYTES.load(Ordering::Relaxed);
    assert!(report
        .tenants
        .iter()
        .all(|t| t.conversation.turns.len() == scenario.turns));
    peak - before
}

/// What one more tenant adds to the peak heap of `shared-blackout`, from runs of its K and
/// 2K tenants (its four join times cycled), and K: the tenant's conversation, its encoded
/// window at the run's high-water mark and its report; the per-event buffers are the
/// run's one set whatever K.
pub fn shared_blackout_tenant_slope() -> (f64, usize) {
    let mut scenario = registry()
        .into_iter()
        .find(|s| s.name == "shared-blackout")
        .expect("registered scenario");
    let k = scenario.tenants;
    scenario.tenants = 2 * k;
    let joins = &mut scenario.sharing.as_mut().expect("a shared uplink").joins;
    *joins = joins.iter().copied().cycle().take(2 * k).collect();
    let small = contention_peak_bytes(&scenario, k);
    let large = contention_peak_bytes(&scenario, 2 * k);
    ((large - small) as f64 / k as f64, k)
}
