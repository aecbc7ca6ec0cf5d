//! Hostile options never panic: every numeric field a caller can still set — on
//! [`NetSessionOptions`], the uplink's loss rate included, and a conversation's think gaps
//! (its constructor's and a server's) in the first property; on
//! the sender (γ, the CLIP patch size), on both links of `path` (rate, delays, queue) and in
//! the frames themselves in the second; on a [`ContentionConfig`] (starvation floor, a
//! cross-traffic source) and a tenant's join and think times in the third; on a registry scenario spec (its
//! counts, window, think and join times, pinned tenant, starvation floor and a cross-traffic
//! source) in the fourth; on an uplink fault episode's start, duration and delays in the
//! fifth, and a scene's concept weights (an object's and the background's)
//! in a sixth test — is thrown the values input tends to hurt with — NaN, ±∞, 0, −1, a
//! subnormal, `MAX` — next to a valid one. Either a structured error names the field and the
//! constructor refuses with exactly that message before anything moves, or three turns on the
//! lossy §2.2 path finish with a report whose every serialized number is finite, after a
//! bounded number of kernel events (a spec, instead, builds every tenant). Nothing else is
//! acceptable: not a `clamp` or overflow panic in the middle of a turn, not a timeline that
//! spins. (A frame has no constructor to refuse it: one with a NaN content descriptor is
//! refused, by name, where it enters the codec.)
//!
//! Run in debug and release (CI does). Clock arithmetic (`aivc_sim::time`) is checked the
//! same way in both, so an overflow no longer fails two different ways — as an infinite
//! `drain_secs` used to, or an endless outage (a panic in debug, an outage that never
//! applied in release); the rest of the arithmetic is still compiled differently.

use aivchat::core::scenarios::{contention_registry, registry};
use aivchat::core::session::StreamingMode;
use aivchat::core::{
    run_contention, ContentionConfig, Conversation, ConversationChatServer, CrossTrafficSpec,
    NetSessionOptions, QpAllocator, QpAllocatorConfig, StreamerConfig, TenantSpec, TenantTurn,
};
use aivchat::mllm::{Question, QuestionFormat};
use aivchat::netsim::{
    BandwidthTrace, FaultEpisode, FaultKind, FaultSchedule, LossModel, PathConfig, SimDuration, SimTime,
};
use aivchat::rtc::AbrPolicy;
use aivchat::scene::templates::basketball_game;
use aivchat::scene::{Concept, Frame, Ontology, Rect, Scene, SceneObject, SourceConfig, VideoSource};
use aivchat::semantics::{ClipConfig, ClipModel};
use proptest::prelude::*;
use serde::{Serialize, Value};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};

/// Kernel events three one-second turns may handle, heap pops and inline firings alike, so
/// a flood through an in-order stream counts as much as one through the heap. The cases
/// that run handle 200–650 (a departure and an arrival per packet, a poll per loss);
/// fifteen times that is a timeline spinning, whatever the wall clock says.
const EVENT_BUDGET: u64 = 10_000;

/// The hostile values in slots 0–6, `valid` in the other 25: six float fields drawn
/// independently still leave about one case in seven to run.
fn hostile_f64(valid: f64) -> [f64; 32] {
    let mut values = [valid; 32];
    values[..7].copy_from_slice(&[
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.0,
        -1.0,
        5e-324,
        f64::MAX,
    ]);
    values
}

/// The integer fields' hostile values — there is no NaN to draw, so 0, the smallest step
/// and `MAX` — in microseconds for the two timers.
fn hostile_u64(valid: u64) -> [u64; 6] {
    [0, 1, u64::MAX, valid, valid, valid]
}

/// The longest think gap, join time or fault-episode time, in microseconds: the clock's
/// 1e6-s bound.
const MAX_TIMER_US: u64 = aivchat::sim::MAX_TIME.as_micros();

/// A timer's hostile values, in microseconds: 0, the bound and one past it, and `MAX` — what
/// `SimDuration::from_secs_f64(f64::INFINITY)` used to saturate to.
fn hostile_timer_us(valid: u64) -> [u64; 8] {
    [
        0,
        MAX_TIMER_US,
        MAX_TIMER_US + 1,
        u64::MAX,
        valid,
        valid,
        valid,
        valid,
    ]
}

/// How a think gap or join time past the bound is refused, naming `field`.
fn past_timer_bound(field: &str, micros: u64) -> Result<(), String> {
    if micros > MAX_TIMER_US {
        return Err(format!("{field} must be at most 1e6 s, got {micros} µs"));
    }
    Ok(())
}

/// The first non-finite float in a serialized tree, by path. The tree is walked rather
/// than the JSON text scanned because JSON has no NaN: the writer renders one as `null`,
/// exactly like an absent `time_to_recover_ms`.
fn non_finite(value: &Value, path: &str) -> Option<String> {
    match value {
        Value::F64(x) if !x.is_finite() => Some(format!("{path} = {x}")),
        Value::Array(items) => items
            .iter()
            .enumerate()
            .find_map(|(i, item)| non_finite(item, &format!("{path}[{i}]"))),
        Value::Object(fields) => fields
            .iter()
            .find_map(|(key, item)| non_finite(item, &format!("{path}.{key}"))),
        _ => None,
    }
}

/// What a constructor's two forms agree on: `try_build`'s value, or `None` after `build`
/// panicked with exactly the words `try_build` refused with.
fn built_by_both<T, E: std::fmt::Display>(
    try_build: impl FnOnce() -> Result<T, E>,
    build: impl FnOnce() -> T + std::panic::UnwindSafe,
) -> Result<Option<T>, TestCaseError> {
    match (try_build(), catch_unwind(build)) {
        (Ok(_), Ok(built)) => Ok(Some(built)),
        (Err(error), Err(panic)) => {
            prop_assert_eq!(panic_message(panic), Some(error.to_string()));
            Ok(None)
        }
        (verdict, built) => Err(TestCaseError::fail(format!(
            "try_build {} but build {}",
            if verdict.is_ok() { "built" } else { "refused" },
            if built.is_ok() { "built" } else { "panicked" }
        ))),
    }
}

fn panic_message(panic: Box<dyn std::any::Any + Send>) -> Option<String> {
    panic
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
}

/// The contract of both properties. `verdict` is what the structured checks said; `build`
/// must panic with exactly that message, or — after an `Ok` — build a conversation that
/// runs `turns` to a finite report inside the event budget. With `frame_refusal` set, the frames are ones the codec must refuse instead, by a message starting with it.
fn refused_by_name_or_runs_to_a_finite_report(
    verdict: Result<(), String>,
    build: impl FnOnce() -> Conversation,
    turns: &[Vec<Frame>],
    question: &Question,
    frame_refusal: Option<&str>,
) -> Result<(), TestCaseError> {
    let built = catch_unwind(AssertUnwindSafe(build));
    let mut conversation = match (verdict, built) {
        (Ok(()), Ok(conversation)) => conversation,
        (Err(error), Err(panic)) => {
            prop_assert_eq!(panic_message(panic), Some(error));
            return Ok(());
        }
        (verdict, built) => {
            return Err(TestCaseError::fail(format!(
                "the structured check said {verdict:?} but the constructor {}",
                if built.is_ok() { "built" } else { "panicked" }
            )))
        }
    };
    let ran = catch_unwind(AssertUnwindSafe(|| {
        for frames in turns {
            conversation.run_turn_in_place(frames, question);
        }
        conversation
    }));
    let conversation = match (ran, frame_refusal) {
        (Ok(conversation), None) => conversation,
        (Err(panic), Some(refusal)) => {
            let message = panic_message(panic).unwrap_or_default();
            prop_assert!(
                message.starts_with(refusal),
                "refused, but not by name: {message}"
            );
            return Ok(());
        }
        (Ok(_), Some(refusal)) => {
            return Err(TestCaseError::fail(format!(
                "frames that must be refused ({refusal}) ran"
            )))
        }
        (Err(panic), None) => {
            return Err(TestCaseError::fail(format!(
                "validated input panicked mid-turn: {:?}",
                panic_message(panic)
            )))
        }
    };
    prop_assert!(
        conversation.events_handled() <= EVENT_BUDGET,
        "{} kernel events for three turns",
        conversation.events_handled()
    );
    prop_assert_eq!(non_finite(&conversation.report().to_value(), "report"), None);
    Ok(())
}

/// Three one-second windows of the 12-fps capture both properties run.
fn three_turns(source: &VideoSource) -> Vec<Vec<Frame>> {
    (0..3)
        .map(|turn| source.window(turn as f64 * 1.5, 1.0, 12.0))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    #[test]
    fn hostile_options_are_refused_by_name_or_run_to_a_finite_report(
        seed in hostile_u64(42),
        context_aware in AnyBool,
        resilient in AnyBool,
        abr_kind in 0usize..3,
        abr_rate in hostile_f64(430_000.0),
        initial_estimate_bps in hostile_f64(1_000_000.0),
        watchdog_timeout_us in hostile_u64(200_000),
        fec_group_size in [0u32, 1, u32::MAX, 4, 4],
        reorder_guard_us in hostile_u64(5_000),
        capture_fps in hostile_f64(12.0),
        drain_secs in hostile_f64(0.3),
        uplink_loss in hostile_f64(0.15),
        think_gap_us in hostile_timer_us(200_000),
    ) {
        let mut options = NetSessionOptions::ai_oriented(seed, PathConfig::paper_section_2_2(0.15));
        options.path.uplink.loss = LossModel::Iid { rate: uplink_loss };
        if resilient {
            options = options.with_resilience();
        }
        if !context_aware {
            options.mode = StreamingMode::Baseline;
        }
        options.abr = match abr_kind {
            0 => AbrPolicy::traditional(),
            1 => AbrPolicy::ai_oriented(abr_rate),
            _ => AbrPolicy::held_at(abr_rate),
        };
        options.gcc.initial_estimate_bps = initial_estimate_bps;
        options.gcc.watchdog_timeout = SimDuration::from_micros(watchdog_timeout_us);
        options.fec.group_size = fec_group_size;
        options.nack.reorder_guard = SimDuration::from_micros(reorder_guard_us);
        options.capture_fps = capture_fps;
        options.drain_secs = drain_secs;

        // `with_defaults` with the model shared: most cases are refused, none needs its own.
        static MODEL: OnceLock<Arc<ClipModel>> = OnceLock::new();
        let model = Arc::clone(MODEL.get_or_init(|| Arc::new(ClipModel::mobile_default())));
        let think_gap = SimDuration::from_micros(think_gap_us);
        // When `validate()` passes, `capture_fps` is the valid 12.
        let scene = basketball_game(7);
        let question = Question::from_fact(&scene.facts[0], QuestionFormat::FreeResponse);
        let turns = three_turns(&VideoSource::new(scene, SourceConfig::fps30(6.0)));
        let verdict = options
            .validate()
            .map_err(|e| e.to_string())
            .and_then(|()| past_timer_bound("think_gap", think_gap_us));
        if let (Ok(()), Err(refusal)) = (options.validate(), &verdict) {
            // A server's sessions take the same think gap, and the same refusal.
            let built = catch_unwind(AssertUnwindSafe(|| ConversationChatServer::new(1, 1, options.clone(), think_gap)));
            prop_assert_eq!(built.err().and_then(panic_message), Some(refusal.clone()));
        }
        refused_by_name_or_runs_to_a_finite_report(
            verdict,
            || Conversation::new(options.clone(), StreamerConfig::default(), model, think_gap),
            &turns,
            &question,
            None,
        )?;
    }

    /// What a sender is built with, what its packets ride and what it is shown: γ, the CLIP
    /// patch size, both links of the path (each rate through `BandwidthTrace`'s constructors)
    /// and the frames — a 320×180 capture, so that a one-pixel patch grid stays small — among
    /// them a 1×1 one and one whose first object's `texture_complexity` is NaN.
    #[test]
    fn hostile_sender_path_and_frames_are_refused_by_name_or_run_to_a_finite_report(
        seed in hostile_u64(42),
        context_aware in AnyBool,
        gamma in hostile_f64(3.0),
        patch_size in [0u32, 1, u32::MAX, 64, 64, 64, 32, 64],
        up_rate in hostile_f64(10e6),
        down_rate in hostile_f64(100e6),
        up_delay_us in hostile_u64(30_000),
        down_delay_us in hostile_u64(30_000),
        up_jitter_us in hostile_u64(2_000),
        up_queue in [0u64, 1, u64::MAX, 375_000, 375_000, 375_000, 375_000, 1_400],
        down_queue in [0u64, u64::MAX, 3_750_000, 3_750_000, 3_750_000, 3_750_000],
        frame_kind in [0usize, 0, 0, 0, 1, 2],
    ) {
        let mut options = NetSessionOptions::ai_oriented(seed, PathConfig::paper_section_2_2(0.15));
        if !context_aware {
            options.mode = StreamingMode::Baseline;
        }
        options.path.uplink.propagation_delay = SimDuration::from_micros(up_delay_us);
        options.path.downlink.propagation_delay = SimDuration::from_micros(down_delay_us);
        options.path.uplink.max_jitter = SimDuration::from_micros(up_jitter_us);
        options.path.uplink.queue_capacity_bytes = up_queue;
        options.path.downlink.queue_capacity_bytes = down_queue;
        let config = StreamerConfig {
            allocator: QpAllocatorConfig::with_gamma(gamma),
            ..StreamerConfig::default()
        };

        // The model and both traces are built first, by the caller; a refusal is their own
        // constructor's.
        let clip_config = ClipConfig { patch_size };
        let Some(model) = built_by_both(
            || ClipModel::try_new(clip_config, Ontology::standard()),
            || ClipModel::new(clip_config, Ontology::standard()),
        )?
        else {
            return Ok(());
        };
        for (link, rate) in [(&mut options.path.uplink, up_rate), (&mut options.path.downlink, down_rate)] {
            let segments = || vec![(SimTime::ZERO, rate)];
            let Some(bandwidth) = built_by_both(
                || BandwidthTrace::try_from_segments(segments()),
                || BandwidthTrace::from_segments(segments()),
            )?
            else {
                return Ok(());
            };
            link.bandwidth = bandwidth;
        }
        // `Conversation::new` checks the options, then builds the sender.
        let verdict = options
            .validate()
            .map_err(|e| e.to_string())
            .and_then(|()| QpAllocator::try_new(config.allocator).map(drop).map_err(|e| e.to_string()));

        let mut scene = basketball_game(7);
        (scene.width, scene.height) = if frame_kind == 2 { (1, 1) } else { (320, 180) };
        let question = Question::from_fact(&scene.facts[0], QuestionFormat::FreeResponse);
        let mut turns = three_turns(&VideoSource::new(scene, SourceConfig::fps30(6.0)));
        if frame_kind == 1 {
            for frame in turns.iter_mut().flatten() {
                Arc::make_mut(&mut frame.objects)[0].texture_complexity = f64::NAN;
            }
        }
        refused_by_name_or_runs_to_a_finite_report(
            verdict,
            || Conversation::new(options.clone(), config, model, SimDuration::from_millis(200)),
            &turns,
            &question,
            (frame_kind == 1).then_some("frame 0 cannot be coded: block "),
        )?;
    }

    /// What a contention run is configured with besides its links and tenants: the
    /// starvation floor and one cross-traffic source's rate, packet size and sending window.
    /// Either `ContentionConfig::validate` names the field and `run_contention` refuses with
    /// exactly that message before anything runs, or one tenant's turn on the lossy §2.2 path
    /// finishes with a finite report.
    #[test]
    fn hostile_contention_configs_are_refused_by_name_or_run_to_a_finite_report(
        floor_bps in hostile_f64(100_000.0),
        cross_rate_bps in hostile_f64(300_000.0),
        packet_bytes in [0u32, 1, u32::MAX, 1_200, 1_200, 1_200],
        start_us in hostile_u64(100_000),
        stop_us in hostile_u64(600_000),
        // A legal join at the bound would tick the fairness window two million times.
        join_us in [0u64, MAX_TIMER_US + 1, u64::MAX, 0, 0, 0],
        think_us in hostile_timer_us(200_000),
    ) {
        let path = PathConfig::paper_section_2_2(0.15);
        let config = ContentionConfig {
            shared_uplink: path.uplink.clone(),
            shared_seed: 42,
            starvation_floor_bps: Some(floor_bps),
            cross_traffic: vec![CrossTrafficSpec {
                rate_bps: cross_rate_bps,
                packet_bytes,
                start: SimTime::from_micros(start_us),
                stop: SimTime::from_micros(stop_us),
            }],
        };
        let mut scene = basketball_game(7);
        (scene.width, scene.height) = (320, 180);
        let question = Question::from_fact(&scene.facts[0], QuestionFormat::FreeResponse);
        let mut options = NetSessionOptions::ai_oriented(42, path);
        options.capture_fps = 12.0;
        let tenant = TenantSpec {
            join_at: SimTime::from_micros(join_us),
            think: SimDuration::from_micros(think_us),
            options,
            turns: vec![TenantTurn {
                frames: three_turns(&VideoSource::new(scene, SourceConfig::fps30(6.0))).remove(0),
                question,
            }],
        };
        let verdict = config
            .validate()
            .map_err(|e| e.to_string())
            .and_then(|()| past_timer_bound("tenant \"tenant-0\": join_at", join_us))
            .and_then(|()| past_timer_bound("tenant \"tenant-0\": think", think_us));
        match (verdict, catch_unwind(AssertUnwindSafe(|| run_contention(&config, vec![tenant])))) {
            (Ok(()), Ok(report)) => {
                prop_assert_eq!(report.tenants[0].conversation.turns.len(), 1);
                prop_assert_eq!(non_finite(&report.to_value(), "report"), None);
            }
            (Err(error), Err(panic)) => prop_assert_eq!(panic_message(panic), Some(error)),
            (verdict, ran) => {
                return Err(TestCaseError::fail(format!(
                    "validate said {verdict:?} but run_contention {}",
                    match ran {
                        Ok(_) => "ran".to_string(),
                        Err(panic) => format!("panicked: {:?}", panic_message(panic)),
                    }
                )))
            }
        }
    }

    /// What a registry entry varies, one value at a time: its tenant count, turn count,
    /// window, think time, last join time, pinned tenant, starvation floor or a cross-traffic
    /// source's rate (the last four on a shared-uplink entry). Either `ScenarioSpec::validate`
    /// names the field and `tenant_spec` and `run` refuse with exactly that message,
    /// or every tenant's spec builds in both legs, with a script of captured turns and a join
    /// time the clock can add a run to. The specs are not run: a 1e6-s think time is legal,
    /// and slow.
    #[test]
    fn hostile_specs_are_refused_by_name_or_build_every_tenant(
        entry in 0usize..16,
        field in 0usize..8,
        count in [0usize, 1, usize::MAX, 2],
        secs in hostile_f64(1.0),
    ) {
        let mut spec = if field < 4 {
            registry().swap_remove(entry)
        } else {
            contention_registry().swap_remove(entry % 4)
        };
        let sharing = spec.sharing.as_mut();
        match field {
            0 => spec.tenants = count,
            1 => spec.turns = count,
            2 => spec.window_secs = secs,
            3 => spec.think_secs = secs,
            4 => *sharing.unwrap().joins.last_mut().unwrap() = secs,
            5 => sharing.unwrap().pinned_ai = Some(count),
            6 => sharing.unwrap().starvation_floor_bps = secs,
            _ => sharing.unwrap().cross_traffic = vec![CrossTrafficSpec {
                rate_bps: secs,
                packet_bytes: 1_200,
                start: SimTime::ZERO,
                stop: SimTime::from_micros(1_000_000),
            }],
        }
        let Err(error) = spec.validate().map_err(|e| e.to_string()) else {
            for tenant in 0..spec.tenants {
                for ai_oriented in [false, true] {
                    let built = spec.tenant_spec(tenant, ai_oriented);
                    prop_assert!(!built.turns.is_empty() && built.turns.iter().all(|t| !t.frames.is_empty()));
                    prop_assert!(built.join_at <= SimTime::from_micros(1_000_000_000_000), "{:?}", built.join_at);
                }
            }
            return Ok(());
        };
        let entries: [(&str, &dyn Fn()); 2] = [
            ("tenant_spec", &|| drop(spec.tenant_spec(0, true))),
            ("run", &|| drop(spec.run())),
        ];
        for (name, run) in entries {
            match catch_unwind(AssertUnwindSafe(run)) {
                Err(panic) => prop_assert!(
                    panic_message(panic).as_ref() == Some(&error),
                    "{name} refused otherwise than validate's {error:?}"
                ),
                Ok(()) => return Err(TestCaseError::fail(format!("{name} built what validate refused: {error}"))),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// One uplink fault episode — an outage, an RTT spike or a reorder — whose start,
    /// duration, extra delay and maximum delay are thrown a timer's hostile values. Either
    /// `FaultSchedule::try_new` refuses the first time past the bound by name (its start,
    /// duration, end, then its delay) and `FaultSchedule::new` panics with those words, or
    /// three lossy turns run to a finite report inside the event budget — and an episode
    /// that withholds every packet (an outage, or a spike longer than the whole run) from the
    /// second turn to the end lets no frame of the last two turns through. An outage whose
    /// end overflowed the clock used to panic in debug and never apply in release.
    #[test]
    fn hostile_fault_episode_times_are_refused_by_name_or_run_to_a_finite_report(
        kind in 0usize..3,
        resilient in AnyBool,
        start_us in hostile_timer_us(500_000),
        duration_us in hostile_timer_us(5_000_000),
        extra_delay_us in hostile_timer_us(250_000),
        max_delay_us in hostile_timer_us(20_000),
    ) {
        let (kind, delay) = match kind {
            0 => (FaultKind::Outage, None),
            1 => (
                FaultKind::RttSpike { extra_delay: SimDuration::from_micros(extra_delay_us) },
                Some(("extra_delay", extra_delay_us)),
            ),
            _ => (
                FaultKind::Reorder { probability: 0.5, max_delay: SimDuration::from_micros(max_delay_us) },
                Some(("max_delay", max_delay_us)),
            ),
        };
        let episodes = || vec![FaultEpisode {
            start: SimTime::from_micros(start_us),
            duration: SimDuration::from_micros(duration_us),
            kind,
        }];
        let end_us = start_us.saturating_add(duration_us);
        let refusal = [("start", start_us), ("duration", duration_us), ("end", end_us)]
            .into_iter()
            .chain(delay)
            .find(|&(_, us)| us > MAX_TIMER_US)
            .map(|(field, us)| format!("fault schedule invalid: episode 0's {field} must be at most 1e6 s, got {us} µs"));
        if let Err(error) = FaultSchedule::try_new(episodes()) {
            prop_assert_eq!(Some(error.to_string()), refusal);
        }
        let Some(faults) = built_by_both(|| FaultSchedule::try_new(episodes()), || FaultSchedule::new(episodes()))?
        else {
            return Ok(());
        };

        let mut options = NetSessionOptions::ai_oriented(42, PathConfig::paper_section_2_2(0.15));
        if resilient {
            options = options.with_resilience();
        }
        options.path.uplink.faults = faults;
        static MODEL: OnceLock<Arc<ClipModel>> = OnceLock::new();
        let model = Arc::clone(MODEL.get_or_init(|| Arc::new(ClipModel::mobile_default())));
        let mut scene = basketball_game(7);
        (scene.width, scene.height) = (320, 180);
        let question = Question::from_fact(&scene.facts[0], QuestionFormat::FreeResponse);
        let turns = three_turns(&VideoSource::new(scene, SourceConfig::fps30(6.0)));
        let ran = catch_unwind(AssertUnwindSafe(|| {
            let mut conversation =
                Conversation::new(options, StreamerConfig::default(), model, SimDuration::from_millis(200));
            let mut second_turn_from = SimTime::ZERO;
            for (turn, frames) in turns.iter().enumerate() {
                if turn == 1 {
                    second_turn_from = conversation.now();
                }
                conversation.run_turn_in_place(frames, &question);
            }
            (conversation, second_turn_from)
        }));
        let (conversation, second_turn_from) = ran.map_err(|panic| {
            TestCaseError::fail(format!("a schedule try_new accepted panicked mid-turn: {:?}", panic_message(panic)))
        })?;
        prop_assert!(
            conversation.events_handled() <= EVENT_BUDGET,
            "{} kernel events for three turns",
            conversation.events_handled()
        );
        let report = conversation.report();
        prop_assert_eq!(non_finite(&report.to_value(), "report"), None);
        let run_end_us = conversation.now().as_micros();
        let withholds = match kind {
            FaultKind::Outage => true,
            FaultKind::RttSpike { extra_delay } => extra_delay.as_micros() > run_end_us,
            _ => false,
        };
        if withholds && start_us <= second_turn_from.as_micros() && end_us >= run_end_us {
            for (turn, delivered) in report.turns.iter().map(|t| t.frames_delivered).enumerate().skip(1) {
                prop_assert!(delivered == 0, "turn {turn} delivered {delivered} frames through {kind:?}");
            }
        }
    }
}

/// A concept weight — an object's or the background's — thrown the hostile values: a NaN
/// or infinite one is refused by name where the scene is built (Eq. 1 pools concepts by
/// weight, and a NaN has no place in `[0, 1]` to clamp to); any other lands in `[0, 1]`,
/// and a conversation shown scenes with it on both runs three turns to a finite report.
#[test]
fn hostile_concept_weights_are_refused_by_name_or_clamped() {
    static MODEL: OnceLock<Arc<ClipModel>> = OnceLock::new();
    for weight in &hostile_f64(0.5)[..8] {
        let weight = *weight;
        let object = catch_unwind(|| {
            SceneObject::new(99, "gizmo", Rect::new(40, 30, 120, 90)).with_concept("scoreboard", weight)
        });
        let background = catch_unwind(|| {
            Scene::new("hostile", 320, 180).with_background(0.3, 0.1, vec![(Concept::new("court"), weight)])
        });
        if !weight.is_finite() {
            assert_eq!(
                object.err().and_then(panic_message),
                Some(format!(
                    "object 99 (gizmo): the weight of concept scoreboard must be finite, got {weight}"
                ))
            );
            assert_eq!(
                background.err().and_then(panic_message),
                Some(format!(
                    "background_concepts: the weight of concept court must be finite, got {weight}"
                ))
            );
            continue;
        }
        let (object, mut scene) = (
            object.expect("a finite weight"),
            background.expect("a finite weight"),
        );
        assert!((0.0..=1.0).contains(&object.concepts[0].1), "{weight}");
        assert!((0.0..=1.0).contains(&scene.background_concepts[0].1), "{weight}");
        let template = basketball_game(7);
        scene.objects = template.objects;
        scene.add_object(object);
        scene.facts = template.facts;
        let question = Question::from_fact(&scene.facts[0], QuestionFormat::FreeResponse);
        let turns = three_turns(&VideoSource::new(scene, SourceConfig::fps30(6.0)));
        let model = Arc::clone(MODEL.get_or_init(|| Arc::new(ClipModel::mobile_default())));
        let options = NetSessionOptions::ai_oriented(42, PathConfig::paper_section_2_2(0.15));
        let mut conversation = Conversation::new(
            options,
            StreamerConfig::default(),
            model,
            SimDuration::from_millis(200),
        );
        for frames in &turns {
            conversation.run_turn_in_place(frames, &question);
        }
        assert_eq!(
            non_finite(&conversation.report().to_value(), "report"),
            None,
            "weight {weight}"
        );
    }
}
