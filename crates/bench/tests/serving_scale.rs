//! Fleet-scale serving checks for the [`ConversationChatServer`]:
//!
//! 1. **Bit-identity at scale** — a large fleet run is byte-for-byte identical across
//!    pool sizes 1, 2 and 8 (which lane a conversation's private kernel runs on must not
//!    perturb it, per the contract in `server.rs`);
//! 2. **Exact metrics reconciliation** — the always-on counter rollup equals the
//!    per-session `NetTurnReport` sums, at every pool size;
//! 3. **Throughput smoke** — the fleet sustains a sane session-turns/sec rate
//!    (regression-gated properly by `conversation_fleet_throughput_256` in
//!    `BENCH_hotpaths.json`; this is a works-at-all check, not a perf gate);
//! 4. **Bytes-budget audit** — a fleet's live heap is `intercept + slope × sessions`: the
//!    slope is what one more warm conversation costs, the intercept what the server holds
//!    once whatever its size (one `ClipModel`, one set of turn buffers per lane, the pool). Both
//!    are measured from fleets of N and 2N sessions and each stays under its own
//!    documented ceiling, so 10k+ sessions have a predictable footprint;
//! 5. **Contention-tenant audit** — what one more tenant adds to the *peak* heap of a
//!    `run_contention` (its conversation and its turn's encoded frames; the per-event
//!    buffers are the run's, shared by all tenants), measured from runs of K and 2K
//!    tenants and held under its own ceiling;
//! 6. **Capture audit** — what one more captured frame of a [`VideoSource`] holds (its
//!    placements; the objects it shares with every frame of the source), measured from
//!    windows of 64 and 128 frames and held under its own ceiling.
//!
//! The fleet size defaults to 128 sessions so the check is always on; CI's
//! `serving-suite` job exports `AIVC_SERVING_SCALE=1` to run the 1024-session
//! configuration (release profile — a debug run of 1024 conversations is pointlessly
//! slow), and `AIVC_SERVING_SCALE=10k` runs 10 240 sessions at pools 1 and 2 (≈ 0.7 GB
//! live; opt-in). At every size a strided sample of the fleet is also compared with the
//! same conversations run standalone.
//!
//! Like `zero_alloc.rs`, this target sets `harness = false`: the byte-counting global
//! allocator must not observe libtest's harness threads.

use aivc_mllm::{Question, QuestionFormat};
use aivc_netsim::PathConfig;
use aivc_scene::templates::basketball_game;
use aivc_scene::{Frame, SourceConfig, VideoSource};
use aivc_sim::SimDuration;
use aivchat_core::scenarios::{registry, ScenarioSpec};
use aivchat_core::{
    run_contention, Conversation, ConversationChatServer, NetSessionOptions, SessionSnapshot,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};
use std::time::Instant;

/// Tracks *live* heap bytes (alloc adds, dealloc subtracts), so a before/after diff
/// around fleet construction + warmup is the fleet's resident heap footprint, and the
/// high-water mark of that count since the last [`reset_peak`].
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

fn live_bytes() -> i64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// Restarts the high-water mark at what is live now, and returns that.
fn reset_peak() -> i64 {
    let live = live_bytes();
    PEAK_BYTES.store(live, Ordering::Relaxed);
    live
}

fn template(seed: u64) -> NetSessionOptions {
    let mut options = NetSessionOptions::ai_oriented(seed, PathConfig::paper_section_2_2(0.01));
    options.capture_fps = 8.0;
    options
}

fn turn_window(source: &VideoSource, turn: usize) -> Vec<Frame> {
    (0..4)
        .map(|i| source.frame(((turn * 4 + i) * 11 % 170) as u64))
        .collect()
}

/// Live heap a warm fleet of `sessions` conversations on two lanes adds: construction
/// plus the turns, everything retained (rings, scratches, event queues at their
/// high-water mark, report history).
fn warm_fleet_bytes(sessions: usize, windows: &[Vec<Frame>], question: &Question, think: SimDuration) -> f64 {
    let before = live_bytes();
    let mut server = ConversationChatServer::new(2, sessions, template(17), think);
    for window in windows {
        server.run_turns(window, question);
    }
    (live_bytes() - before) as f64
}

/// Peak heap one `run_contention` of `scenario`'s first `tenants` tenants on AI-oriented
/// ABR reaches above what was live when it started — the tenants' scripted frames are
/// built beforehand, so only the engine and its report count.
fn contention_peak_bytes(scenario: &ScenarioSpec, tenants: usize) -> f64 {
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
    (peak - before) as f64
}

/// Live heap a window of `frames` consecutive captures of `source` holds, in an
/// exact-capacity `Vec`.
fn window_bytes(source: &VideoSource, frames: u64) -> f64 {
    let before = live_bytes();
    let window: Vec<Frame> = (0..frames).map(|i| source.frame(i)).collect();
    let bytes = live_bytes() - before;
    assert_eq!(window.capacity(), frames as usize);
    bytes as f64
}

fn main() {
    let scale = std::env::var("AIVC_SERVING_SCALE").unwrap_or_default();
    let (sessions, pools): (usize, &[usize]) = match scale.as_str() {
        "10k" => (10_240, &[1, 2]),
        "1" => (1024, &[1, 2, 8]),
        _ => (128, &[1, 2, 8]),
    };
    let turns = 2;
    let think = SimDuration::from_millis(300);
    let source = VideoSource::new(basketball_game(1), SourceConfig::fps30(6.0));
    let question = Question::from_fact(&basketball_game(1).facts[0], QuestionFormat::FreeResponse);
    let windows: Vec<Vec<Frame>> = (0..turns).map(|t| turn_window(&source, t)).collect();

    // --- 1 + 2: bit-identity and exact reconciliation across pool sizes. ---
    let mut per_pool_reports = Vec::new();
    let mut per_pool_serving = Vec::new();
    for &pool_size in pools {
        let heap_before = live_bytes();
        let mut server = ConversationChatServer::new(pool_size, sessions, template(90), think);
        let start = Instant::now();
        for window in &windows {
            server.run_turns(window, &question);
        }
        let elapsed = start.elapsed();
        let fleet_mib = (live_bytes() - heap_before) as f64 / (1024.0 * 1024.0);

        // Reconciliation: the counter rollup equals per-session report sums, exactly.
        let mut fleet = SessionSnapshot::default();
        for i in 0..sessions {
            let snap = server.metrics_snapshot(i);
            let report = server.conversation_report(i);
            let sum = |f: fn(&aivchat_core::NetTurnReport) -> u64| report.turns.iter().map(f).sum::<u64>();
            assert_eq!(snap.frames_sent, sum(|t| t.frames_sent as u64), "session {i}");
            assert_eq!(snap.frames_delivered, sum(|t| t.frames_delivered as u64));
            assert_eq!(snap.fec_recovered_frames, sum(|t| t.fec_recovered_frames));
            assert_eq!(snap.packets_lost, sum(|t| t.packets_lost));
            assert_eq!(snap.retransmissions_sent, sum(|t| t.retransmissions_sent));
            assert_eq!(snap.frames_shed, report.resilience.frames_shed);
            assert_eq!(snap.watchdog_fallbacks, report.resilience.watchdog_fallbacks);
            fleet.accumulate(&snap);
        }
        assert_eq!(server.fleet_metrics(), fleet, "pool {pool_size}");
        let serving = server.serving_report();
        assert_eq!(serving.counters, fleet, "pool {pool_size}");
        assert_eq!(serving.turns_completed, sessions * turns);

        // --- 3: throughput smoke (the gated number lives in BENCH_hotpaths.json). ---
        let session_turns_per_sec = (sessions * turns) as f64 / elapsed.as_secs_f64();
        println!(
            "serving_scale: pool {pool_size}, {sessions} sessions x {turns} turns: \
             {session_turns_per_sec:.0} session-turns/sec, {fleet_mib:.1} MiB live"
        );
        assert!(
            session_turns_per_sec > 50.0,
            "fleet throughput collapsed: {session_turns_per_sec:.1} session-turns/sec"
        );

        per_pool_reports.push(
            (0..sessions)
                .map(|i| server.conversation_report(i))
                .collect::<Vec<_>>(),
        );
        per_pool_serving.push(serving);
    }
    for (other, &pool_size) in pools.iter().enumerate().skip(1) {
        assert_eq!(
            per_pool_reports[0], per_pool_reports[other],
            "pool {pool_size} diverged from pool 1"
        );
        assert_eq!(per_pool_serving[0].counters, per_pool_serving[other].counters);
    }
    println!("serving_scale: {sessions} sessions bit-identical across pools {pools:?}");

    // A fleet member runs on its lane's turn buffers and the server's one model; the same
    // conversation standalone runs on its own of each. Sixteen members spread over the
    // fleet (and so over every position in a lane's service order) must not differ.
    for i in (0..sessions).step_by(sessions / 16) {
        let mut options = template(90);
        options.seed += i as u64;
        let mut standalone = Conversation::with_defaults(options, think);
        for window in &windows {
            standalone.run_turn(window, &question);
        }
        assert_eq!(
            per_pool_reports[0][i],
            standalone.report(),
            "fleet member {i} diverged from its standalone twin"
        );
    }
    println!(
        "serving_scale: every {}th session equals its standalone run",
        sessions / 16
    );

    // --- 4: bytes-budget audit. Fleets of N and 2N sessions separate what a conversation
    // costs (the slope README's serving-scale table quotes — a 10k-session box needs
    // slope x 10k of headroom) from what a server costs whatever its size (the intercept:
    // one `ClipModel`, one set of turn buffers per lane — this fleet runs two — and the pool).
    // Allocation sizes are deterministic, so each ceiling sits 5 % above the measured
    // value: 66.6 KiB per conversation (110.1 KiB while CLIP kept a raster of its own next
    // to the rate plan's and its per-call buffers; 398 KiB while every conversation owned a
    // model and its turn's frame buffers; 455 KiB before frames carried one coverage table
    // instead of an `Arc` per block) and 319.9 KiB per two-lane server (one ≈ 52 KiB model
    // and two lanes' turn buffers of ≈ 134 KiB, CLIP's work buffers included; 417.8 KiB
    // while block records stored an offset and a quality and a capture's encode copied QP
    // maps, 549.2 KiB while they also carried an index, complexity and motion). Anything
    // that grows either by more than that has to raise it here.
    let audit_sessions = if sessions > 128 { 256 } else { 64 };
    let small = warm_fleet_bytes(audit_sessions, &windows, &question, think);
    let large = warm_fleet_bytes(2 * audit_sessions, &windows, &question, think);
    let slope = (large - small) / audit_sessions as f64;
    let intercept = small - slope * audit_sessions as f64;
    println!(
        "serving_scale: {:.1} KiB live heap per warm conversation (slope), {:.1} KiB per 2-lane \
         server (intercept), from fleets of {audit_sessions} and {} sessions",
        slope / 1024.0,
        intercept / 1024.0,
        2 * audit_sessions
    );
    const PER_SESSION_CEILING_BYTES: f64 = 70.0 * 1024.0;
    const PER_SERVER_CEILING_BYTES: f64 = 336.0 * 1024.0;
    assert!(
        slope > 0.0 && slope < PER_SESSION_CEILING_BYTES,
        "per-conversation heap {:.1} KiB outside budget (ceiling {:.0} KiB)",
        slope / 1024.0,
        PER_SESSION_CEILING_BYTES / 1024.0
    );
    assert!(
        intercept > 0.0 && intercept < PER_SERVER_CEILING_BYTES,
        "per-server heap {:.1} KiB outside budget (ceiling {:.0} KiB)",
        intercept / 1024.0,
        PER_SERVER_CEILING_BYTES / 1024.0
    );

    // --- 5: contention-tenant audit. `shared-blackout` with its four join times cycled
    // over K and 2K tenants: the slope is what one more tenant adds to the run's peak (its
    // conversation, its encoded window at the run's high-water mark, its report), the
    // per-event buffers being the run's one set whatever K. The ceiling sits 5 % above the
    // measured 271.2 KiB (367.0 KiB while block records stored an offset and a quality,
    // 809.4 KiB while every tenant owned a whole turn scratch and block records carried
    // fields nothing read).
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
    let per_tenant = (large - small) / k as f64;
    println!(
        "serving_scale: {:.1} KiB peak heap per contention tenant (slope), from runs of {k} and {} tenants",
        per_tenant / 1024.0,
        2 * k
    );
    const PER_TENANT_PEAK_CEILING_BYTES: f64 = 285.0 * 1024.0;
    assert!(
        per_tenant > 0.0 && per_tenant < PER_TENANT_PEAK_CEILING_BYTES,
        "per-tenant peak heap {:.1} KiB outside budget (ceiling {:.0} KiB)",
        per_tenant / 1024.0,
        PER_TENANT_PEAK_CEILING_BYTES / 1024.0
    );

    // --- 6: capture audit. Windows of 64 and 128 frames of one 1080p basketball source: the
    // slope is one frame's inline size plus its placements, the objects and background
    // concepts being the source's one copy whatever the window. The ceiling sits 5 % above
    // the measured 256 B — 96 inline, 160 of placements (2 406 B while every frame
    // deep-copied the scene's objects and background concepts).
    let small = window_bytes(&source, 64);
    let large = window_bytes(&source, 128);
    let per_frame = (large - small) / 64.0;
    println!(
        "serving_scale: {per_frame:.0} B live heap per captured frame (slope), from windows of 64 and 128"
    );
    const PER_FRAME_CEILING_BYTES: f64 = 269.0;
    assert!(
        per_frame > 0.0 && per_frame < PER_FRAME_CEILING_BYTES,
        "per-frame heap {per_frame:.0} B outside budget (ceiling {PER_FRAME_CEILING_BYTES:.0} B)"
    );

    println!("serving_scale: fleet checks passed ({sessions} sessions) ... ok");
}
