//! `--seed` → inputs. Everything the engine sees is generated here; the engine never
//! sees the seed itself.
//!
//! What the seed changes is what a rerun of the same product would see change: the scene's
//! drawn parameters (scores, logos, counts — and with them the question's ground truth and
//! distractors), the order in which a round plays its sixteen windows, and every network
//! random stream. What it does not change is the *kind* of work: one scene family, one question
//! category and one window geometry, so that ten seeds are ten samples of one workload
//! and their spread stays inside the bounds `BENCHMARK.json` fixes (README §"Seeds").

use crate::stats::splitmix64;
use aivc_mllm::{Question, QuestionFormat};
use aivc_netsim::{LinkConfig, LossModel, PathConfig};
use aivc_scene::templates::basketball_game;
use aivc_scene::{Frame, SourceConfig, VideoSource};
use aivc_sim::SimDuration;
use aivchat_core::scenarios::{contention_registry, ContentionScenario};
use aivchat_core::NetSessionOptions;

/// Frames per chat turn on the three warm workloads.
pub const FRAMES_PER_TURN: usize = 4;
/// Distinct windows a warm round cycles through (= session-turns per single-session round).
pub const WINDOWS_PER_ROUND: usize = 16;
/// Capture rate of every warm workload.
pub const CAPTURE_FPS: f64 = 12.0;
/// The user's think time between turns.
pub const THINK_GAP_MS: u64 = 200;
/// Length of the looping source clip.
const CLIP_SECS: f64 = 6.0;
/// Spacing of consecutive window starts inside the clip.
const WINDOW_STRIDE_SECS: f64 = 0.35;

/// The sub-seeds one `--seed` expands into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedPlan {
    /// Seeds the scene template's drawn parameters.
    pub scene: u64,
    /// Orders the sixteen windows of a round.
    pub schedule: u64,
    /// Base of every `NetSessionOptions.seed` / shared-link seed.
    pub net: u64,
}

impl SeedPlan {
    /// Expands `seed` with SplitMix64 so neighbouring seeds give unrelated streams.
    pub fn from_seed(seed: u64) -> Self {
        let mut state = seed;
        Self {
            scene: splitmix64(&mut state) % 1_000_000,
            schedule: splitmix64(&mut state),
            net: splitmix64(&mut state) % 1_000_000_007,
        }
    }
}

/// The generated inputs of a warm chat workload: sixteen 4-frame 1080p windows of one
/// moving scene and the question asked on every turn. One question per conversation keeps
/// the engine's query memo warm, which is what makes `core.allocs_per_turn` read 0.
#[derive(Debug, Clone)]
pub struct ChatInputs {
    /// The windows, in the order a round plays them.
    pub windows: Vec<Vec<Frame>>,
    /// The user's question.
    pub question: Question,
}

/// The clip every warm workload films: the paper's Figure 4 / Figure 10 basketball game,
/// six seconds at 30 fps, 1080p.
pub fn chat_source(plan: SeedPlan) -> VideoSource {
    VideoSource::new(basketball_game(plan.scene), SourceConfig::fps30(CLIP_SECS))
}

/// Generates the warm-workload inputs for `plan`.
pub fn chat_inputs(plan: SeedPlan) -> ChatInputs {
    let source = chat_source(plan);
    // The paper's Figure 4 case study — "What logo is seen on the jersey of the player
    // covering his mouth?" — the template's most detail-hungry fact (required detail
    // 0.85, two evidence objects), so it is the first to lose accuracy when a change
    // costs the evidence regions bits.
    let question = Question::from_fact(&source.scene().facts[1], QuestionFormat::FreeResponse);
    // The sixteen windows tile the clip at a fixed stride; the seed decides the order a
    // round plays them in (Fisher–Yates over the schedule stream). Every seed therefore
    // films the same moments of the scene — which keeps the quality figures comparable
    // across seeds — but walks them along a different path, so inter-window motion (what
    // CLIP's dirty set and the encoder's caches see) and the network state each window
    // meets differ from seed to seed.
    let mut order: Vec<usize> = (0..WINDOWS_PER_ROUND).collect();
    let mut stream = plan.schedule;
    for i in (1..order.len()).rev() {
        order.swap(i, (splitmix64(&mut stream) % (i as u64 + 1)) as usize);
    }
    let windows = order
        .into_iter()
        .map(|k| {
            let start = k as f64 * WINDOW_STRIDE_SECS;
            (0..FRAMES_PER_TURN)
                .map(|i| source.frame_at(start + i as f64 / CAPTURE_FPS))
                .collect()
        })
        .collect();
    ChatInputs { windows, question }
}

/// The think gap as the engine takes it.
pub fn think_gap() -> SimDuration {
    SimDuration::from_millis(THINK_GAP_MS)
}

/// `ai_chat_warm` / `fleet64_ai_warm`: the paper's design point — context-aware encoding at
/// the 430 kbps accuracy floor on the §2.2 path (10 Mbps, 30 ms, 1 % i.i.d. loss).
pub fn ai_options(plan: SeedPlan) -> NetSessionOptions {
    let mut o = NetSessionOptions::ai_oriented(plan.net, PathConfig::paper_section_2_2(0.01));
    o.capture_fps = CAPTURE_FPS;
    o
}

/// `traditional_highrate_lossy`: the same engine used the other way — uniform-QP encoding
/// riding the bandwidth estimate on a 20 Mbps / 30 ms uplink with bursty 3 % loss, the
/// whole resilience stack and deadline-aware NACK suppression live.
pub fn traditional_options(plan: SeedPlan) -> NetSessionOptions {
    let path = PathConfig {
        uplink: LinkConfig::constant(
            20e6,
            SimDuration::from_millis(30),
            300,
            LossModel::bursty(0.03, 8.0),
        ),
        downlink: LinkConfig::constant(100e6, SimDuration::from_millis(30), 300, LossModel::None),
    };
    let mut o = NetSessionOptions::traditional(plan.net, path).with_resilience();
    o.capture_fps = CAPTURE_FPS;
    o.deadline_aware_nack = true;
    o
}

/// `contention_cold`: the contention registry with every scenario's shared-link seed (and
/// through it every tenant seed) re-derived from the run's seed. Scenario structure —
/// tenants, joins, faults, cross-traffic — is the registry's.
pub fn contention_scenarios(plan: SeedPlan) -> Vec<ContentionScenario> {
    contention_registry()
        .into_iter()
        .enumerate()
        .map(|(i, mut s)| {
            s.seed = plan.net + 1_009 * (i as u64 + 1);
            s
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_different_seed_different_inputs() {
        let a = chat_inputs(SeedPlan::from_seed(7));
        let b = chat_inputs(SeedPlan::from_seed(7));
        let c = chat_inputs(SeedPlan::from_seed(8));
        assert_eq!(a.windows, b.windows);
        assert_eq!(a.question, b.question);
        assert_ne!(a.windows, c.windows);
        assert_ne!(SeedPlan::from_seed(7).net, SeedPlan::from_seed(8).net);
    }

    #[test]
    fn a_round_is_sixteen_distinct_four_frame_1080p_windows() {
        let inputs = chat_inputs(SeedPlan::from_seed(1));
        assert_eq!(inputs.windows.len(), WINDOWS_PER_ROUND);
        for w in &inputs.windows {
            assert_eq!(w.len(), FRAMES_PER_TURN);
            assert_eq!((w[0].width, w[0].height), (1920, 1080));
        }
        for (i, a) in inputs.windows.iter().enumerate() {
            for b in &inputs.windows[i + 1..] {
                assert_ne!(a, b, "windows must be distinct");
            }
        }
    }

    #[test]
    fn contention_scenarios_keep_structure_and_take_the_seed() {
        let registry = contention_registry();
        let a = contention_scenarios(SeedPlan::from_seed(1));
        let b = contention_scenarios(SeedPlan::from_seed(2));
        assert_eq!(a.len(), registry.len());
        for ((x, y), r) in a.iter().zip(&b).zip(&registry) {
            assert_eq!(x.tenants, r.tenants);
            assert_eq!(x.turns, r.turns);
            assert_ne!(x.seed, y.seed);
        }
    }
}
