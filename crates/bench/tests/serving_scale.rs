//! Fleet-scale serving checks for the [`ConversationChatServer`]:
//!
//! 1. **Bit-identity at scale** — a large fleet run is byte-for-byte identical across
//!    pool sizes 1, 2 and 8 (which lane a conversation's private kernel runs on must not
//!    perturb it, per the contract in `server.rs`);
//! 2. **Exact metrics reconciliation** — the always-on atomic rollup equals the
//!    per-session `NetTurnReport` sums, at every pool size;
//! 3. **Throughput smoke** — the fleet sustains a sane session-turns/sec rate
//!    (regression-gated properly by `pipeline_throughput_1024_sessions` in
//!    `BENCH_hotpaths.json`; this is a works-at-all check, not a perf gate);
//! 4. **Bytes-budget audit** — live heap bytes per warm conversation stay under a
//!    documented ceiling, so 10k+ sessions have a predictable footprint.
//!
//! The fleet size defaults to 128 sessions so the check is always on; CI's
//! `serving-suite` job exports `AIVC_SERVING_SCALE=1` to run the full 1024-session
//! configuration (release profile — a debug run of 1024 conversations is pointlessly
//! slow).
//!
//! Like `zero_alloc.rs`, this target sets `harness = false`: the byte-counting global
//! allocator must not observe libtest's harness threads.

use aivc_mllm::{Question, QuestionFormat};
use aivc_netsim::PathConfig;
use aivc_scene::templates::basketball_game;
use aivc_scene::{Frame, SourceConfig, VideoSource};
use aivc_sim::SimDuration;
use aivchat_core::{ConversationChatServer, NetSessionOptions, SessionSnapshot};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};
use std::time::Instant;

/// Tracks *live* heap bytes (alloc adds, dealloc subtracts), so a before/after diff
/// around fleet construction + warmup is the fleet's resident heap footprint.
struct ByteCounter;

static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

unsafe impl GlobalAlloc for ByteCounter {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: ByteCounter = ByteCounter;

fn live_bytes() -> i64 {
    LIVE_BYTES.load(Ordering::Relaxed)
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

fn main() {
    let scale = std::env::var("AIVC_SERVING_SCALE").as_deref() == Ok("1");
    let sessions: usize = if scale { 1024 } else { 128 };
    let turns = 2;
    let think = SimDuration::from_millis(300);
    let source = VideoSource::new(basketball_game(1), SourceConfig::fps30(6.0));
    let question = Question::from_fact(&basketball_game(1).facts[0], QuestionFormat::FreeResponse);
    let windows: Vec<Vec<Frame>> = (0..turns).map(|t| turn_window(&source, t)).collect();

    // --- 1 + 2: bit-identity and exact reconciliation across pool sizes. ---
    let mut per_pool_reports = Vec::new();
    let mut per_pool_serving = Vec::new();
    for pool_size in [1usize, 2, 8] {
        let mut server = ConversationChatServer::new(pool_size, sessions, template(90), think);
        let start = Instant::now();
        for window in &windows {
            server.run_turns(window, &question);
        }
        let elapsed = start.elapsed();

        // Reconciliation: the atomic rollup equals per-session report sums, exactly.
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
             {session_turns_per_sec:.0} session-turns/sec"
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
    assert_eq!(
        per_pool_reports[0], per_pool_reports[1],
        "pool 2 diverged from pool 1"
    );
    assert_eq!(
        per_pool_reports[0], per_pool_reports[2],
        "pool 8 diverged from pool 1"
    );
    assert_eq!(per_pool_serving[0].counters, per_pool_serving[1].counters);
    assert_eq!(per_pool_serving[0].counters, per_pool_serving[2].counters);
    println!(
        "serving_scale: {} sessions bit-identical across pools 1/2/8",
        sessions
    );

    // --- 4: bytes-budget audit. Live heap per warm conversation (construction + the
    // turns above all retained state: rings, scratches, event queues at their high-water
    // mark, report history). The ceiling is the documented per-session budget README's
    // serving-scale table quotes — a 10k-session box needs ceiling x 10k of headroom.
    // Allocation sizes are deterministic, so the ceiling sits just above the measured
    // 398 KiB (455 KiB before frames carried one coverage table instead of an `Arc` per
    // block): anything that grows a conversation by more than ~5 % has to raise it here.
    let audit_sessions = if scale { 256 } else { 64 };
    let before = live_bytes();
    let mut server = ConversationChatServer::new(2, audit_sessions, template(17), think);
    for window in &windows {
        server.run_turns(window, &question);
    }
    let per_session = (live_bytes() - before) as f64 / audit_sessions as f64;
    println!(
        "serving_scale: {:.0} KiB live heap per warm conversation ({audit_sessions} sessions)",
        per_session / 1024.0
    );
    const PER_SESSION_CEILING_BYTES: f64 = 420.0 * 1024.0;
    assert!(
        per_session > 0.0 && per_session < PER_SESSION_CEILING_BYTES,
        "per-conversation heap {:.0} KiB outside budget (ceiling {:.0} KiB)",
        per_session / 1024.0,
        PER_SESSION_CEILING_BYTES / 1024.0
    );
    drop(server);

    println!("serving_scale: fleet checks passed ({sessions} sessions) ... ok");
}
