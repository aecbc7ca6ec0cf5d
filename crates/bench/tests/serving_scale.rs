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
//! allocator (`heap/mod.rs`, shared with `heap_counts`) must not observe libtest's
//! harness threads.

mod heap;

use aivc_mllm::{Question, QuestionFormat};
use aivc_scene::templates::basketball_game;
use aivc_scene::{Frame, SourceConfig, VideoSource};
use aivc_sim::SimDuration;
use aivchat_core::{Conversation, ConversationChatServer, SessionSnapshot};
use heap::{held_by, live_bytes, shared_blackout_tenant_slope, template, turn_window, warm_fleet_slope};
use std::time::Instant;

/// Live heap a window of `frames` consecutive captures of `source` holds, in an
/// exact-capacity `Vec`.
fn window_bytes(source: &VideoSource, frames: u64) -> f64 {
    let (window, bytes) = held_by(|| (0..frames).map(|i| source.frame(i)).collect::<Vec<Frame>>());
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
    // value: 43.5 KiB per conversation (51.5 KiB while the rate plan kept a per-block copy
    // of the raster's complexity and motion as rate coefficients; 66.3 KiB while the raster
    // kept a per-cell coverage
    // table, a spare one and a per-cell area array; 110.1 KiB while CLIP kept a raster of its
    // own next to the rate plan's and its per-call buffers; 398 KiB while every conversation
    // owned a model and its turn's frame buffers; 455 KiB before frames carried one coverage
    // table instead of an `Arc` per block) and 192.6 KiB per two-lane server (one ≈ 52 KiB
    // model and two lanes' turn buffers, CLIP's work buffers included; 299.1 KiB while every
    // decoded frame held its own coverage table, 417.8 KiB while block records stored an
    // offset and a quality and a capture's encode copied QP maps, 549.2 KiB while they also
    // carried an index, complexity and motion). Anything that grows either by more than that
    // has to raise it here.
    let audit_sessions = if sessions > 128 { 256 } else { 64 };
    let (slope, intercept) = warm_fleet_slope(2, audit_sessions, &windows, &question);
    println!(
        "serving_scale: {:.1} KiB live heap per warm conversation (slope), {:.1} KiB per 2-lane \
         server (intercept), from fleets of {audit_sessions} and {} sessions",
        slope / 1024.0,
        intercept / 1024.0,
        2 * audit_sessions
    );
    const PER_SESSION_CEILING_BYTES: f64 = 45.7 * 1024.0;
    const PER_SERVER_CEILING_BYTES: f64 = 202.2 * 1024.0;
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
    // measured 165.2 KiB (173.2 KiB while the rate plan kept a per-block copy of the raster's
    // complexity and motion, 271.6 KiB while every encoded frame held its own per-cell coverage
    // table, 367.0 KiB while block records stored an offset and a quality, 809.4 KiB while
    // every tenant owned a whole turn scratch and block records carried fields nothing
    // read).
    let (per_tenant, k) = shared_blackout_tenant_slope();
    println!(
        "serving_scale: {:.1} KiB peak heap per contention tenant (slope), from runs of {k} and {} tenants",
        per_tenant / 1024.0,
        2 * k
    );
    const PER_TENANT_PEAK_CEILING_BYTES: f64 = 173.5 * 1024.0;
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
