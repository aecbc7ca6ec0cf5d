//! Hostile options never panic: every numeric field a caller can still set on
//! [`NetSessionOptions`] (outside `path`) is thrown the values input tends to hurt with —
//! NaN, ±∞, 0, −1, a subnormal, `MAX` — next to a valid one. Either `validate()` names the
//! field and `Conversation::new` refuses with exactly that message before anything moves, or
//! three turns on the lossy §2.2 path finish with a report whose every serialized number is
//! finite, after a bounded number of kernel events. Nothing else is acceptable: not a `clamp` or
//! overflow panic in the middle of a turn, not a timeline that spins.
//!
//! Run in debug and release (CI does): overflow checks differ between the profiles, which
//! is how an infinite `drain_secs` used to fail two different ways.

use aivchat::core::session::StreamingMode;
use aivchat::core::{Conversation, NetSessionOptions, StreamerConfig};
use aivchat::mllm::{Question, QuestionFormat};
use aivchat::netsim::{PathConfig, SimDuration};
use aivchat::rtc::AbrPolicy;
use aivchat::scene::templates::basketball_game;
use aivchat::scene::{SourceConfig, VideoSource};
use aivchat::semantics::ClipModel;
use proptest::prelude::*;
use serde::{Serialize, Value};
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
    ) {
        let mut options = NetSessionOptions::ai_oriented(seed, PathConfig::paper_section_2_2(0.15));
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

        let verdict = options.validate();
        // `with_defaults` with the model shared: most cases are refused, none needs its own.
        static MODEL: OnceLock<Arc<ClipModel>> = OnceLock::new();
        let model = Arc::clone(MODEL.get_or_init(|| Arc::new(ClipModel::mobile_default())));
        let think_gap = SimDuration::from_millis(200);
        let built = catch_unwind(AssertUnwindSafe(|| {
            Conversation::new(options.clone(), StreamerConfig::default(), model, think_gap)
        }));
        let mut conversation = match (verdict, built) {
            (Ok(()), Ok(conversation)) => conversation,
            (Err(error), Err(panic)) => {
                prop_assert_eq!(panic.downcast_ref::<String>(), Some(&error.to_string()));
                return Ok(());
            }
            (verdict, built) => {
                return Err(TestCaseError::fail(format!(
                    "validate() said {verdict:?} but Conversation::new {}",
                    if built.is_ok() { "built" } else { "panicked" }
                )))
            }
        };

        // `validate()` passed, so `capture_fps` is the valid 12: three one-second windows.
        let scene = basketball_game(7);
        let question = Question::from_fact(&scene.facts[0], QuestionFormat::FreeResponse);
        let source = VideoSource::new(scene, SourceConfig::fps30(6.0));
        let ran = catch_unwind(AssertUnwindSafe(|| {
            for turn in 0..3 {
                let frames = source.window(turn as f64 * 1.5, 1.0, capture_fps);
                conversation.run_turn_in_place(&frames, &question);
            }
            conversation
        }));
        let conversation = match ran {
            Ok(conversation) => conversation,
            Err(panic) => {
                let message = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()));
                return Err(TestCaseError::fail(format!("validated options panicked mid-turn: {message:?}")));
            }
        };
        prop_assert!(
            conversation.events_popped() <= EVENT_BUDGET,
            "{} kernel events for three turns",
            conversation.events_popped()
        );
        prop_assert_eq!(non_finite(&conversation.report().to_value(), "report"), None);
    }
}
