//! Hostile options never panic: every numeric field a caller can still set — on
//! [`NetSessionOptions`], the uplink's loss rate included, in the first property; on the
//! sender (γ, the CLIP patch size), on both links of `path` (rate, delays, queue) and in the
//! frames themselves in the second; on a [`ContentionConfig`] (nominal rate, fairness window,
//! starvation floor, a cross-traffic source) in the third — is thrown the values input tends
//! to hurt with — NaN, ±∞, 0, −1, a subnormal, `MAX` — next to a valid one. Either a structured error names the field and the constructor refuses
//! with exactly that message before anything moves, or three turns on the lossy §2.2 path
//! finish with a report whose every serialized number is finite, after a bounded number of
//! kernel events. Nothing else is acceptable: not a `clamp` or overflow panic in the middle
//! of a turn, not a timeline that spins. (A frame has no constructor to refuse it: one with a
//! NaN content descriptor is refused, by name, where it enters the codec.)
//!
//! Run in debug and release (CI does): overflow checks differ between the profiles, which
//! is how an infinite `drain_secs` used to fail two different ways.

use aivchat::core::session::StreamingMode;
use aivchat::core::{
    run_contention, AdmissionConfig, ContentionConfig, Conversation, CrossTrafficSpec, NetSessionOptions,
    QpAllocator, QpAllocatorConfig, StarvationConfig, StreamerConfig, TenantSpec, TenantTurn,
};
use aivchat::mllm::{Question, QuestionFormat};
use aivchat::netsim::{LinkConfig, LossModel, PathConfig, SimDuration, SimTime};
use aivchat::rtc::AbrPolicy;
use aivchat::scene::templates::basketball_game;
use aivchat::scene::{Frame, Ontology, SourceConfig, VideoSource};
use aivchat::semantics::{ClipConfig, ClipModel};
use proptest::prelude::*;
use serde::{Deserialize, Serialize, Value};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};

/// Kernel events three one-second turns may pop. The cases that run pop 190–470 (a
/// departure and an arrival per packet, a poll per loss); twenty times that is a timeline
/// spinning, whatever the wall clock says.
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

/// `link` as a deserializer would hand it over — past `BandwidthTrace`'s constructors, which
/// refuse these rates themselves — with its (constant) rate replaced by `rate_bps`.
fn link_with_rate(link: &LinkConfig, rate_bps: f64) -> LinkConfig {
    fn replace(value: &mut Value, from: f64, to: f64) {
        match value {
            Value::F64(x) if *x == from => *x = to,
            Value::Array(items) => items.iter_mut().for_each(|item| replace(item, from, to)),
            Value::Object(fields) => fields.iter_mut().for_each(|(_, item)| replace(item, from, to)),
            _ => {}
        }
    }
    let mut value = link.to_value();
    replace(&mut value, link.bandwidth.rate_at(SimTime::ZERO), rate_bps);
    Deserialize::from_value(&value).expect("still a well-formed link")
}

fn panic_message(panic: Box<dyn std::any::Any + Send>) -> Option<String> {
    panic
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
}

/// The contract of both properties. `verdict` is what the structured checks said; `build`
/// must panic with exactly that message, or — after an `Ok` — build a conversation that
/// runs `turns` to a finite report inside the event budget. With `frame_refusal` set, the
/// frames are ones the codec must refuse instead, by a message starting with it.
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
        conversation.events_popped() <= EVENT_BUDGET,
        "{} kernel events for three turns",
        conversation.events_popped()
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
        min_bps in hostile_f64(100_000.0),
        max_bps in hostile_f64(50_000_000.0),
        watchdog_timeout_us in hostile_u64(200_000),
        fec_group_size in [0u32, 1, u32::MAX, 4, 4],
        reorder_guard_us in hostile_u64(5_000),
        capture_fps in hostile_f64(12.0),
        drain_secs in hostile_f64(0.3),
        uplink_loss in hostile_f64(0.15),
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
        options.gcc.min_bps = min_bps;
        options.gcc.max_bps = max_bps;
        options.gcc.watchdog_timeout = SimDuration::from_micros(watchdog_timeout_us);
        options.fec.group_size = fec_group_size;
        options.nack.reorder_guard = SimDuration::from_micros(reorder_guard_us);
        options.capture_fps = capture_fps;
        options.drain_secs = drain_secs;

        // `with_defaults` with the model shared: most cases are refused, none needs its own.
        static MODEL: OnceLock<Arc<ClipModel>> = OnceLock::new();
        let model = Arc::clone(MODEL.get_or_init(|| Arc::new(ClipModel::mobile_default())));
        let think_gap = SimDuration::from_millis(200);
        // When `validate()` passes, `capture_fps` is the valid 12.
        let scene = basketball_game(7);
        let question = Question::from_fact(&scene.facts[0], QuestionFormat::FreeResponse);
        let turns = three_turns(&VideoSource::new(scene, SourceConfig::fps30(6.0)));
        refused_by_name_or_runs_to_a_finite_report(
            options.validate().map_err(|e| e.to_string()),
            || Conversation::new(options.clone(), StreamerConfig::default(), model, think_gap),
            &turns,
            &question,
            None,
        )?;
    }

    /// What a sender is built with, what its packets ride and what it is shown: γ, the CLIP
    /// patch size, both links of the path (deserialized, so past every constructor) and the
    /// frames — a 320×180 capture, so that a one-pixel patch grid stays small — among them a
    /// 1×1 one and one whose first object's `texture_complexity` is NaN.
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
        options.path.uplink = link_with_rate(&options.path.uplink, up_rate);
        options.path.downlink = link_with_rate(&options.path.downlink, down_rate);
        options.path.uplink.propagation_delay = SimDuration::from_micros(up_delay_us);
        options.path.downlink.propagation_delay = SimDuration::from_micros(down_delay_us);
        options.path.uplink.max_jitter = SimDuration::from_micros(up_jitter_us);
        options.path.uplink.queue_capacity_bytes = up_queue;
        options.path.downlink.queue_capacity_bytes = down_queue;
        let config = StreamerConfig {
            allocator: QpAllocatorConfig::with_gamma(gamma),
            ..StreamerConfig::default()
        };

        // The model is built first, by the caller; its refusal is its own constructor's.
        let clip_config = ClipConfig { patch_size };
        let model = match (
            ClipModel::try_new(clip_config, Ontology::standard()),
            catch_unwind(|| ClipModel::new(clip_config, Ontology::standard())),
        ) {
            (Ok(_), Ok(model)) => model,
            (Err(error), Err(panic)) => {
                prop_assert_eq!(panic_message(panic), Some(error.to_string()));
                return Ok(());
            }
            (verdict, built) => {
                return Err(TestCaseError::fail(format!(
                    "try_new said {:?} but ClipModel::new {}",
                    verdict.err(),
                    if built.is_ok() { "built" } else { "panicked" }
                )))
            }
        };
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

    /// What a contention run is configured with besides its links and tenants: the nominal
    /// rate admission divides, the fairness window, the starvation floor and one
    /// cross-traffic source's rate, packet size and sending window. Either
    /// `ContentionConfig::validate` names the field and `run_contention` refuses with exactly
    /// that message before anything runs, or one tenant's turn on the lossy §2.2 path
    /// finishes with a finite report. (A window of one microsecond is legal and ticks a
    /// million times per simulated second, so the window is thrown 0 and `MAX` only.)
    #[test]
    fn hostile_contention_configs_are_refused_by_name_or_run_to_a_finite_report(
        nominal_bps in hostile_f64(4e6),
        admission in AnyBool,
        fairness_window_us in [0u64, u64::MAX, 500_000, 500_000, 500_000, 500_000],
        floor_bps in hostile_f64(100_000.0),
        cross_rate_bps in hostile_f64(300_000.0),
        packet_bytes in [0u32, 1, u32::MAX, 1_200, 1_200, 1_200],
        start_us in hostile_u64(100_000),
        stop_us in hostile_u64(600_000),
    ) {
        let path = PathConfig::paper_section_2_2(0.15);
        let config = ContentionConfig {
            shared_uplink: path.uplink.clone(),
            shared_seed: 42,
            nominal_bps,
            fairness_window: SimDuration::from_micros(fairness_window_us),
            starvation: StarvationConfig { enabled: true, floor_bps },
            admission: AdmissionConfig { enabled: admission },
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
            label: "tenant-0".into(),
            mode: "ai_oriented".into(),
            join_at: SimTime::ZERO,
            think: SimDuration::from_millis(200),
            options,
            turns: vec![TenantTurn {
                frames: three_turns(&VideoSource::new(scene, SourceConfig::fps30(6.0))).remove(0),
                question,
            }],
        };
        let verdict = config.validate().map_err(|e| e.to_string());
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
}
