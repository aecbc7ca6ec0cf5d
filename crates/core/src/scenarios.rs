//! The scenario engine: named, seeded network conditions under which every future
//! congestion/scheduling change is evaluated.
//!
//! A [`Scenario`] bundles a time-varying uplink ([`BandwidthTrace`] + loss model), a seed
//! and a turn shape. [`run_scenario`] pushes one chat turn through a fresh one-turn
//! [`crate::Conversation`] **twice** — once with traditional estimate-riding ABR and once
//! with the paper's AI-oriented accuracy-floor ABR — and once more as a small
//! multi-session [`crate::ConversationChatServer`] workload, then reports goodput,
//! per-frame latency percentiles, loss/recovery counters and answer accuracy side by side
//! (§2.2 / §3.2, Figure 3).
//!
//! Everything is deterministic: a given registry entry reproduces bit-identical
//! [`ScenarioReport`]s across runs and pool sizes, which the golden regression fixtures
//! under `tests/fixtures/` pin down — transport behaviour changes must be intentional and
//! reviewed alongside a fixture update.

use crate::contention::{
    run_contention, AdmissionConfig, ContentionConfig, ContentionReport, CrossTrafficSpec, StarvationConfig,
    TenantSpec, TenantTurn,
};
use crate::conversation::{Conversation, ConversationReport};
use crate::net_session::{queue_bytes_for, NetSessionOptions, NetTurnReport};
use crate::server::ConversationChatServer;
use aivc_mllm::{Question, QuestionFormat};
use aivc_netsim::{
    BandwidthTrace, FaultEpisode, FaultKind, FaultSchedule, LatencyStats, LinkConfig, LossModel, PathConfig,
    SimDuration, SimTime,
};
use aivc_par::MiniPool;
use aivc_rtc::{AbrPolicy, FecConfig};
use aivc_scene::templates::basketball_game;
use aivc_scene::{Frame, SourceConfig, VideoSource};
use serde::{Deserialize, Serialize};

/// One named network scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Registry key (also the fixture file name).
    pub name: &'static str,
    /// One-line description of the condition being modelled.
    pub summary: &'static str,
    /// Seed for every stochastic process of the scenario.
    pub seed: u64,
    /// Length of the captured turn window in seconds.
    pub window_secs: f64,
    /// Capture rate of the turn window.
    pub capture_fps: f64,
    /// When true, the session runs with the full outage-resilience stack on
    /// ([`NetSessionOptions::with_resilience`]): feedback watchdog, adaptive FEC and the
    /// graceful-degradation ladder. Fault-injection scenarios set this; the pre-existing
    /// registry entries keep it off, preserving their fixtures bit for bit.
    pub resilience: bool,
    /// The bidirectional path (the uplink carries the video).
    pub path: PathConfig,
}

impl Scenario {
    /// The session options this scenario uses for the given ABR mode.
    pub fn options(&self, ai_oriented: bool) -> NetSessionOptions {
        let mut options = if ai_oriented {
            NetSessionOptions::ai_oriented(self.seed, self.path.clone())
        } else {
            NetSessionOptions::traditional(self.seed, self.path.clone())
        };
        options.capture_fps = self.capture_fps;
        // Scenarios model a mid-conversation turn: the controller already holds a
        // several-Mbps estimate from earlier turns, so traditional ABR is immediately
        // aggressive while AI-oriented ABR sticks to its floor.
        options.gcc.initial_estimate_bps = 2_500_000.0;
        if self.resilience {
            options = options.with_resilience();
        }
        options
    }

    /// The turn window and question every scenario run uses (same scene and detail
    /// question, so accuracy differences come from the network alone).
    pub fn turn(&self) -> (Vec<Frame>, Question) {
        let scene = basketball_game(1);
        let source = VideoSource::new(scene.clone(), SourceConfig::fps30(6.0));
        let question = Question::from_fact(&scene.facts[1], QuestionFormat::FreeResponse);
        let start = (source.duration_secs() - self.window_secs).max(0.0);
        (source.window(start, self.window_secs, self.capture_fps), question)
    }
}

/// A clean 30 ms one-way downlink for feedback, as in the paper's testbed.
fn clean_downlink() -> LinkConfig {
    LinkConfig::constant(100e6, SimDuration::from_millis(30), 300, LossModel::None)
}

fn uplink(bandwidth: BandwidthTrace, nominal_bps: f64, loss: LossModel) -> PathConfig {
    uplink_with_faults(bandwidth, nominal_bps, loss, FaultSchedule::none())
}

/// [`uplink`] with a deterministic fault schedule composed over the uplink's sends.
fn uplink_with_faults(
    bandwidth: BandwidthTrace,
    nominal_bps: f64,
    loss: LossModel,
    faults: FaultSchedule,
) -> PathConfig {
    PathConfig {
        uplink: LinkConfig {
            bandwidth,
            propagation_delay: SimDuration::from_millis(30),
            queue_capacity_bytes: queue_bytes_for(nominal_bps, 300),
            loss,
            max_jitter: SimDuration::ZERO,
            faults,
        },
        downlink: clean_downlink(),
    }
}

/// The scenario registry: ≥ 6 named, seeded network conditions covering the shapes the
/// related adaptive-transport literature validates against (constant, step, periodic,
/// random-walk, bursty loss, LTE-like segment schedules).
pub fn registry() -> Vec<Scenario> {
    let secs = SimTime::from_secs_f64;
    vec![
        Scenario {
            name: "constant",
            summary: "the paper's 10 Mbps / 30 ms link with 1% i.i.d. loss",
            seed: 101,
            window_secs: 3.0,
            capture_fps: 12.0,
            resilience: false,
            path: uplink(
                BandwidthTrace::constant(10e6),
                10e6,
                LossModel::Iid { rate: 0.01 },
            ),
        },
        Scenario {
            name: "step-down",
            summary: "8 Mbps dropping to 1.2 Mbps mid-turn (handover / contention onset)",
            seed: 202,
            window_secs: 3.0,
            capture_fps: 12.0,
            resilience: false,
            path: uplink(
                BandwidthTrace::step(8e6, 1.2e6, secs(1.5)),
                8e6,
                LossModel::Iid { rate: 0.01 },
            ),
        },
        Scenario {
            name: "square-wave",
            summary: "capacity oscillating 8 ↔ 1.5 Mbps every second (periodic cross traffic)",
            seed: 303,
            window_secs: 3.0,
            capture_fps: 12.0,
            resilience: false,
            path: uplink(
                BandwidthTrace::square_wave(8e6, 1.5e6, secs(1.0), secs(8.0)),
                8e6,
                LossModel::Iid { rate: 0.01 },
            ),
        },
        Scenario {
            name: "random-walk",
            summary: "a bounded multiplicative random walk between 1 and 9 Mbps",
            seed: 404,
            window_secs: 3.0,
            capture_fps: 12.0,
            resilience: false,
            path: uplink(
                BandwidthTrace::random_walk(404, 5e6, 1e6, 9e6, secs(0.5), secs(8.0)),
                5e6,
                LossModel::Iid { rate: 0.01 },
            ),
        },
        Scenario {
            name: "bursty-loss",
            summary: "4 Mbps with Gilbert–Elliott bursts (8% mean loss, ~16-packet bursts)",
            seed: 505,
            window_secs: 3.0,
            capture_fps: 12.0,
            resilience: false,
            path: uplink(BandwidthTrace::constant(4e6), 4e6, LossModel::bursty(0.08, 16.0)),
        },
        Scenario {
            name: "lte-like",
            summary: "LTE-like segments: 12 → 5 → 0.9 → 3 → 10 Mbps across the turn",
            seed: 606,
            window_secs: 3.0,
            capture_fps: 12.0,
            resilience: false,
            path: uplink(
                BandwidthTrace::from_segments(vec![
                    (SimTime::ZERO, 12e6),
                    (secs(1.0), 5e6),
                    (secs(1.8), 0.9e6),
                    (secs(2.6), 3e6),
                    (secs(3.2), 10e6),
                ]),
                12e6,
                LossModel::Iid { rate: 0.005 },
            ),
        },
        Scenario {
            name: "handover-blackout",
            summary: "10 Mbps with a 500 ms total blackout mid-turn (radio handover) — the \
                      watchdog falls back during the silence and the ladder suppresses \
                      captures until feedback returns",
            seed: 707,
            window_secs: 3.0,
            capture_fps: 12.0,
            resilience: true,
            path: uplink_with_faults(
                BandwidthTrace::constant(10e6),
                10e6,
                LossModel::Iid { rate: 0.01 },
                FaultSchedule::blackout(secs(1.2), SimDuration::from_millis(500)),
            ),
        },
        Scenario {
            name: "rtt-spike-midturn",
            summary: "8 Mbps where the path reroutes mid-turn: a 250 ms blackout at the \
                      switch, +250 ms one-way delay for a second, and 5% duplication and \
                      bounded reordering while the routes converge",
            seed: 808,
            window_secs: 3.0,
            capture_fps: 12.0,
            resilience: true,
            path: uplink_with_faults(
                BandwidthTrace::constant(8e6),
                8e6,
                LossModel::Iid { rate: 0.005 },
                FaultSchedule::new(vec![
                    FaultEpisode {
                        start: secs(1.0),
                        duration: SimDuration::from_millis(250),
                        kind: FaultKind::Outage,
                    },
                    FaultEpisode {
                        start: secs(1.0),
                        duration: SimDuration::from_secs_f64(1.0),
                        kind: FaultKind::RttSpike {
                            extra_delay: SimDuration::from_millis(250),
                        },
                    },
                    FaultEpisode {
                        start: secs(0.5),
                        duration: SimDuration::from_secs_f64(2.0),
                        kind: FaultKind::Duplicate { probability: 0.05 },
                    },
                    FaultEpisode {
                        start: secs(0.5),
                        duration: SimDuration::from_secs_f64(2.0),
                        kind: FaultKind::Reorder {
                            probability: 0.05,
                            max_delay: SimDuration::from_millis(40),
                        },
                    },
                ]),
            ),
        },
    ]
}

/// Looks a scenario up by name.
pub fn by_name(name: &str) -> Option<Scenario> {
    registry().into_iter().find(|s| s.name == name)
}

/// The per-scenario report: both ABR modes side by side plus a small multi-session
/// [`ConversationChatServer`] run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioReport {
    /// The scenario's registry name.
    pub scenario: String,
    /// The turn under traditional estimate-riding ABR.
    pub traditional: NetTurnReport,
    /// The turn under AI-oriented accuracy-floor ABR.
    pub ai_oriented: NetTurnReport,
    /// Sessions in the multi-session server run (AI-oriented mode).
    pub server_sessions: usize,
    /// Fraction of server sessions that answered correctly.
    pub server_correct_fraction: f64,
    /// Mean probability of a correct answer across server sessions.
    pub server_mean_probability: f64,
}

/// Runs a scenario's single-session turns: `(traditional, ai_oriented)`.
pub fn run_modes(scenario: &Scenario) -> (NetTurnReport, NetTurnReport) {
    let (frames, question) = scenario.turn();
    run_modes_on(scenario, &frames, &question)
}

/// [`run_modes`] over an already-synthesized turn window.
fn run_modes_on(
    scenario: &Scenario,
    frames: &[Frame],
    question: &Question,
) -> (NetTurnReport, NetTurnReport) {
    let run = |ai_oriented| {
        Conversation::with_defaults(scenario.options(ai_oriented), SimDuration::ZERO)
            .run_turn(frames, question)
    };
    (run(false), run(true))
}

/// Sessions the multi-session leg of [`run_scenario`] uses.
const SERVER_SESSIONS: usize = 3;

/// Runs one scenario end to end: both single-session ABR modes plus a
/// `SERVER_SESSIONS`-session server workload spread over `pool_size` lanes. The result
/// is bit-identical for any `pool_size` (sessions share nothing).
pub fn run_scenario(scenario: &Scenario, pool_size: usize) -> ScenarioReport {
    let (frames, question) = scenario.turn();
    let (traditional, ai_oriented) = run_modes_on(scenario, &frames, &question);
    let mut server = ConversationChatServer::new(
        pool_size,
        SERVER_SESSIONS,
        scenario.options(true),
        SimDuration::ZERO,
    );
    server.run_turns(&frames, &question);
    ScenarioReport {
        scenario: scenario.name.to_string(),
        traditional,
        ai_oriented,
        server_sessions: SERVER_SESSIONS,
        server_correct_fraction: server.correct_fraction(),
        server_mean_probability: server.mean_probability_correct(),
    }
}

// ---------------------------------------------------------------------------------------
// The §2.2 held-rate stream (Figure 3's sweep point)
// ---------------------------------------------------------------------------------------

/// The §2.2 prototype on the turn engine: the paper's 10 Mbps / 30 ms path with `loss` on
/// the uplink, and a sender of 30 fps uniform-QP video with the ABR held at `bitrate_bps`
/// — every frame coded to `bitrate_bps / 30` whatever the congestion controller
/// estimates, the pacer at 2.5× that rate — recovering by NACK/RTX, without FEC.
pub fn held_rate_sender(seed: u64, loss: LossModel, bitrate_bps: f64) -> NetSessionOptions {
    let mut options = NetSessionOptions::traditional(seed, PathConfig::paper_section_2_2(0.0));
    options.path.uplink.loss = loss;
    options.abr = AbrPolicy::held_at(bitrate_bps);
    options.capture_fps = 30.0;
    options.fec = FecConfig::disabled();
    options
}

/// Seconds of video per turn of [`stream_for`]. The engine keeps a turn's encoded frames
/// until its deadline, so a long stream is cut into short turns instead of run as one.
const STREAM_TURN_SECS: f64 = 2.0;

/// Streams `secs` seconds (rounded up to whole 2-s turns) of the looping basketball clip
/// through a fresh [`Conversation`] as back-to-back turns with no think gap. Returns the
/// conversation — its counters, link counters and per-turn reports are the packet-level
/// results — and the transmission latency of every frame that made its turn's deadline
/// (`drain_secs` after the turn's last capture).
pub fn stream_for(options: NetSessionOptions, secs: f64) -> (Conversation, LatencyStats) {
    let scene = basketball_game(1);
    let question = Question::from_fact(&scene.facts[0], QuestionFormat::FreeResponse);
    let source = VideoSource::new(scene, SourceConfig::fps30(6.0));
    let fps = options.capture_fps;
    let mut conversation = Conversation::with_defaults(options, SimDuration::ZERO);
    let mut latency = LatencyStats::new();
    for turn in 0..(secs / STREAM_TURN_SECS).ceil() as usize {
        let frames = source.window(turn as f64 * STREAM_TURN_SECS, STREAM_TURN_SECS, fps);
        conversation.run_turn_in_place(&frames, &question);
        for delivery in conversation.last_turn_deliveries() {
            latency.record(delivery.latency());
        }
    }
    (conversation, latency)
}

// ---------------------------------------------------------------------------------------
// Multi-turn conversation scenarios (the continuous-timeline engine, `crate::Conversation`)
// ---------------------------------------------------------------------------------------

/// One named multi-turn conversation scenario: a sequence of chat turns over one
/// persistent transport timeline, with user think time between turns. Where the
/// single-turn registry pins a *turn*'s behaviour, these pin a *conversation*'s —
/// GCC warm-up across turns, queue carry-over, trace position spanning turns, NACK/RTX
/// state surviving think gaps.
#[derive(Debug, Clone)]
pub struct ConversationScenario {
    /// Registry key (also the fixture file name).
    pub name: &'static str,
    /// One-line description of the condition being modelled.
    pub summary: &'static str,
    /// Seed for every stochastic process of the scenario.
    pub seed: u64,
    /// Number of chat turns in the conversation.
    pub turns: usize,
    /// Length of each captured turn window in seconds.
    pub window_secs: f64,
    /// Capture rate of the turn windows.
    pub capture_fps: f64,
    /// The user's think time between consecutive turns, in seconds.
    pub think_secs: f64,
    /// When true, the session runs with the full outage-resilience stack on
    /// ([`NetSessionOptions::with_resilience`]). Fault-injection scenarios set this; the
    /// pre-existing registry entries keep it off, preserving their fixtures bit for bit.
    pub resilience: bool,
    /// The bidirectional path (the uplink carries the video). The uplink trace may be
    /// shorter than the conversation — looping traces span turns by design.
    pub path: PathConfig,
}

impl ConversationScenario {
    /// The session options this scenario uses for the given ABR mode. Conversations start
    /// **cold** (the default 1 Mbps initial estimate) so warm-up across turns is visible,
    /// and enable deadline-aware NACK suppression — a retransmit that cannot beat a turn's
    /// answer deadline is wasted uplink on a shared timeline.
    pub fn options(&self, ai_oriented: bool) -> NetSessionOptions {
        let mut options = if ai_oriented {
            NetSessionOptions::ai_oriented(self.seed, self.path.clone())
        } else {
            NetSessionOptions::traditional(self.seed, self.path.clone())
        };
        options.capture_fps = self.capture_fps;
        options.deadline_aware_nack = true;
        if self.resilience {
            options = options.with_resilience();
        }
        options
    }

    /// The think gap as a simulated duration.
    pub fn think_gap(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.think_secs)
    }

    /// The captured window and question of turn `turn`. Successive turns advance through
    /// the source video (wrapping at its end) and rotate through the scene's facts, so a
    /// conversation asks about evolving content — deterministically.
    pub fn turn(&self, turn: usize) -> (Vec<Frame>, Question) {
        let scene = basketball_game(1);
        let source = VideoSource::new(scene.clone(), SourceConfig::fps30(6.0));
        let question = Question::from_fact(
            &scene.facts[turn % scene.facts.len()],
            QuestionFormat::FreeResponse,
        );
        let start = (turn as f64 * self.window_secs) % source.duration_secs();
        (source.window(start, self.window_secs, self.capture_fps), question)
    }
}

/// The conversation registry: ≥ 3 named, seeded multi-turn conditions.
pub fn conversation_registry() -> Vec<ConversationScenario> {
    let secs = SimTime::from_secs_f64;
    vec![
        ConversationScenario {
            name: "lte-8turn",
            summary: "an 8-turn conversation over a looping LTE-like trace (12→5→0.9→3→10 Mbps \
                      per 4 s period) with 1 s think time — the trace wraps several times",
            seed: 1_001,
            turns: 8,
            window_secs: 1.5,
            capture_fps: 12.0,
            think_secs: 1.0,
            resilience: false,
            path: uplink(
                BandwidthTrace::from_segments(vec![
                    (SimTime::ZERO, 12e6),
                    (secs(1.0), 5e6),
                    (secs(1.8), 0.9e6),
                    (secs(2.6), 3e6),
                    (secs(3.2), 10e6),
                ])
                .looping(SimDuration::from_secs_f64(4.0)),
                12e6,
                LossModel::Iid { rate: 0.005 },
            ),
        },
        ConversationScenario {
            name: "stepdown-mid-conversation",
            summary: "8 Mbps collapsing to 1.2 Mbps at t = 6 s — mid-conversation, between \
                      turns, so only a warm controller sees it coming",
            seed: 2_002,
            turns: 6,
            window_secs: 1.5,
            capture_fps: 12.0,
            think_secs: 0.8,
            resilience: false,
            path: uplink(
                BandwidthTrace::step(8e6, 1.2e6, secs(6.0)),
                8e6,
                LossModel::Iid { rate: 0.01 },
            ),
        },
        ConversationScenario {
            name: "bursty-think-time",
            summary: "4 Mbps with Gilbert–Elliott bursts (8% mean loss, ~16-packet bursts) and \
                      1.2 s think gaps — recovery state must survive the silences",
            seed: 3_003,
            turns: 6,
            window_secs: 1.5,
            capture_fps: 12.0,
            think_secs: 1.2,
            resilience: false,
            path: uplink(BandwidthTrace::constant(4e6), 4e6, LossModel::bursty(0.08, 16.0)),
        },
        ConversationScenario {
            name: "burst-storm-conversation",
            summary: "4 Mbps with Gilbert–Elliott bursts plus an injected loss storm (50% for \
                      1 s) containing a 400 ms blackout that lands mid-turn — the resilience \
                      stack degrades gracefully and recovers within the conversation",
            seed: 4_004,
            turns: 6,
            window_secs: 1.5,
            capture_fps: 12.0,
            think_secs: 1.2,
            resilience: true,
            path: uplink_with_faults(
                BandwidthTrace::constant(4e6),
                4e6,
                LossModel::bursty(0.08, 16.0),
                FaultSchedule::new(vec![
                    FaultEpisode {
                        start: SimTime::from_secs_f64(3.0),
                        duration: SimDuration::from_secs_f64(1.0),
                        kind: FaultKind::BurstLoss { loss_rate: 0.5 },
                    },
                    FaultEpisode {
                        start: SimTime::from_secs_f64(3.2),
                        duration: SimDuration::from_millis(400),
                        kind: FaultKind::Outage,
                    },
                ]),
            ),
        },
    ]
}

/// Looks a conversation scenario up by name.
pub fn conversation_by_name(name: &str) -> Option<ConversationScenario> {
    conversation_registry().into_iter().find(|s| s.name == name)
}

/// The per-conversation-scenario report: both ABR modes side by side, each a full
/// cross-turn [`ConversationReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConversationScenarioReport {
    /// The scenario's registry name.
    pub scenario: String,
    /// The conversation under traditional estimate-riding ABR.
    pub traditional: ConversationReport,
    /// The conversation under AI-oriented accuracy-floor ABR.
    pub ai_oriented: ConversationReport,
}

/// Runs one conversation scenario end to end under one ABR mode.
pub fn run_conversation_mode(scenario: &ConversationScenario, ai_oriented: bool) -> ConversationReport {
    let mut conversation = Conversation::with_defaults(scenario.options(ai_oriented), scenario.think_gap());
    for turn in 0..scenario.turns {
        let (frames, question) = scenario.turn(turn);
        conversation.run_turn(&frames, &question);
    }
    conversation.report()
}

/// Runs one conversation scenario under both ABR modes.
pub fn run_conversation_scenario(scenario: &ConversationScenario) -> ConversationScenarioReport {
    ConversationScenarioReport {
        scenario: scenario.name.to_string(),
        traditional: run_conversation_mode(scenario, false),
        ai_oriented: run_conversation_mode(scenario, true),
    }
}

// ---------------------------------------------------------------------------------------
// Multi-tenant contention scenarios (the shared-bottleneck engine, `crate::contention`)
// ---------------------------------------------------------------------------------------

/// One named multi-tenant contention scenario: K persistent conversations (plus optional
/// cross-traffic) contending for **one** shared bottleneck on one global timeline. Where
/// the conversation registry pins a single tenant's continuous behaviour, these pin the
/// *interaction*: fairness under faults, starvation-watchdog escalations, late-joiner
/// admission and whether every tenant recovers from a shared outage.
#[derive(Debug, Clone)]
pub struct ContentionScenario {
    /// Registry key (also the fixture file name).
    pub name: &'static str,
    /// One-line description of the condition being modelled.
    pub summary: &'static str,
    /// Seed for the shared link; tenant seeds are derived per tenant.
    pub seed: u64,
    /// Number of conversation tenants on the bottleneck.
    pub tenants: usize,
    /// Chat turns per tenant.
    pub turns: usize,
    /// Length of each captured turn window in seconds.
    pub window_secs: f64,
    /// Capture rate of the turn windows.
    pub capture_fps: f64,
    /// Think time between a tenant's consecutive turns, in seconds.
    pub think_secs: f64,
    /// Per-tenant join times in seconds (length = `tenants`).
    pub joins: Vec<f64>,
    /// When true, every tenant runs the full outage-resilience stack
    /// ([`NetSessionOptions::with_resilience`]).
    pub resilience: bool,
    /// Nominal bottleneck rate — the admission fair-share denominator.
    pub nominal_bps: f64,
    /// The shared bottleneck every tenant contends for.
    pub shared_uplink: LinkConfig,
    /// Fairness-telemetry window in milliseconds.
    pub fairness_window_ms: u64,
    /// Starvation-watchdog settings.
    pub starvation: StarvationConfig,
    /// Late-joiner admission settings.
    pub admission: AdmissionConfig,
    /// Background cross-traffic sources.
    pub cross_traffic: Vec<CrossTrafficSpec>,
    /// A tenant pinned to AI-oriented ABR in **both** report legs — the
    /// "does one accuracy floor starve a traditional peer" probe.
    pub pinned_ai: Option<usize>,
}

impl ContentionScenario {
    /// The engine configuration of this scenario.
    pub fn config(&self) -> ContentionConfig {
        ContentionConfig {
            shared_uplink: self.shared_uplink.clone(),
            shared_seed: self.seed,
            nominal_bps: self.nominal_bps,
            fairness_window: SimDuration::from_millis(self.fairness_window_ms),
            starvation: self.starvation,
            admission: self.admission,
            cross_traffic: self.cross_traffic.clone(),
        }
    }

    /// Whether tenant `tenant` runs AI-oriented ABR in the given report leg.
    fn tenant_is_ai(&self, tenant: usize, ai_oriented: bool) -> bool {
        ai_oriented || self.pinned_ai == Some(tenant)
    }

    /// Session options of one tenant. The tenant's path carries the **shared** uplink
    /// config (so propagation and outage reporting describe the bottleneck its packets
    /// really ride); conversations start cold and suppress deadline-hopeless NACKs, as in
    /// the conversation registry.
    pub fn tenant_options(&self, tenant: usize, ai_oriented: bool) -> NetSessionOptions {
        let path = PathConfig {
            uplink: self.shared_uplink.clone(),
            downlink: clean_downlink(),
        };
        let seed = self.seed + 31 * (tenant as u64 + 1);
        let mut options = if self.tenant_is_ai(tenant, ai_oriented) {
            NetSessionOptions::ai_oriented(seed, path)
        } else {
            NetSessionOptions::traditional(seed, path)
        };
        options.capture_fps = self.capture_fps;
        options.deadline_aware_nack = true;
        if self.resilience {
            options = options.with_resilience();
        }
        options
    }

    /// The scripted turns of one tenant: each tenant watches the same scene from a
    /// tenant-specific offset and rotates through the facts from a tenant-specific
    /// phase, so tenants ask different questions about different windows —
    /// deterministically.
    fn tenant_turns(&self, tenant: usize) -> Vec<TenantTurn> {
        let source = VideoSource::new(basketball_game(1), SourceConfig::fps30(6.0));
        let facts = &source.scene().facts;
        (0..self.turns)
            .map(|turn| {
                let question = Question::from_fact(
                    &facts[(turn + tenant) % facts.len()],
                    QuestionFormat::FreeResponse,
                );
                let start =
                    ((turn as f64 + tenant as f64 * 0.37) * self.window_secs) % source.duration_secs();
                TenantTurn {
                    frames: source.window(start, self.window_secs, self.capture_fps),
                    question,
                }
            })
            .collect()
    }

    /// The full spec of one tenant for the given report leg.
    pub fn tenant_spec(&self, tenant: usize, ai_oriented: bool) -> TenantSpec {
        TenantSpec {
            label: format!("tenant-{tenant}"),
            mode: if self.tenant_is_ai(tenant, ai_oriented) {
                "ai_oriented"
            } else {
                "traditional"
            }
            .to_string(),
            join_at: SimTime::from_secs_f64(self.joins[tenant]),
            think: SimDuration::from_secs_f64(self.think_secs),
            options: self.tenant_options(tenant, ai_oriented),
            turns: self.tenant_turns(tenant),
        }
    }
}

/// The contention registry: named, seeded shared-bottleneck conditions.
pub fn contention_registry() -> Vec<ContentionScenario> {
    let secs = SimTime::from_secs_f64;
    vec![
        ContentionScenario {
            name: "shared-blackout",
            summary: "four staggered tenants on a 16 Mbps bottleneck that goes totally \
                      dark for 500 ms mid-conversation — every tenant must degrade, \
                      recover with finite time-to-recover, and share evenly again",
            seed: 9_101,
            tenants: 4,
            turns: 5,
            window_secs: 1.0,
            capture_fps: 12.0,
            think_secs: 0.3,
            joins: vec![0.0, 0.1, 0.2, 0.3],
            resilience: true,
            nominal_bps: 16e6,
            shared_uplink: LinkConfig {
                bandwidth: BandwidthTrace::constant(16e6),
                propagation_delay: SimDuration::from_millis(30),
                queue_capacity_bytes: queue_bytes_for(16e6, 300),
                loss: LossModel::Iid { rate: 0.005 },
                max_jitter: SimDuration::ZERO,
                faults: FaultSchedule::blackout(secs(3.2), SimDuration::from_millis(500)),
            },
            fairness_window_ms: 500,
            starvation: StarvationConfig {
                enabled: true,
                floor_bps: 120_000.0,
            },
            admission: AdmissionConfig::disabled(),
            cross_traffic: Vec::new(),
            pinned_ai: None,
        },
        ContentionScenario {
            name: "hotspot-join",
            summary: "three incumbents on an 8 Mbps bottleneck, a fourth tenant joining \
                      mid-conversation right as a 30% loss storm hits — admission clamps \
                      the joiner to its fair share instead of letting it stampede",
            seed: 9_202,
            tenants: 4,
            turns: 5,
            window_secs: 1.0,
            capture_fps: 12.0,
            think_secs: 0.3,
            joins: vec![0.0, 0.0, 0.0, 4.0],
            resilience: true,
            nominal_bps: 8e6,
            shared_uplink: LinkConfig {
                bandwidth: BandwidthTrace::constant(8e6),
                propagation_delay: SimDuration::from_millis(30),
                queue_capacity_bytes: queue_bytes_for(8e6, 300),
                loss: LossModel::Iid { rate: 0.01 },
                max_jitter: SimDuration::ZERO,
                faults: FaultSchedule::new(vec![FaultEpisode {
                    start: secs(3.5),
                    duration: SimDuration::from_secs_f64(1.5),
                    kind: FaultKind::BurstLoss { loss_rate: 0.3 },
                }]),
            },
            fairness_window_ms: 500,
            starvation: StarvationConfig {
                enabled: true,
                floor_bps: 120_000.0,
            },
            admission: AdmissionConfig { enabled: true },
            cross_traffic: Vec::new(),
            pinned_ai: None,
        },
        ContentionScenario {
            name: "cross-traffic-surge",
            summary: "three tenants on a 10 Mbps bottleneck while a 9.5 Mbps elastic \
                      cross-traffic surge squeezes them for 4 s — the starvation \
                      watchdog must notice sustained sub-floor goodput and escalate",
            seed: 9_303,
            tenants: 3,
            turns: 5,
            window_secs: 1.0,
            capture_fps: 12.0,
            think_secs: 0.4,
            joins: vec![0.0, 0.0, 0.0],
            resilience: true,
            nominal_bps: 10e6,
            shared_uplink: LinkConfig {
                bandwidth: BandwidthTrace::constant(10e6),
                propagation_delay: SimDuration::from_millis(30),
                queue_capacity_bytes: queue_bytes_for(10e6, 300),
                loss: LossModel::Iid { rate: 0.005 },
                max_jitter: SimDuration::ZERO,
                faults: FaultSchedule::none(),
            },
            fairness_window_ms: 500,
            starvation: StarvationConfig {
                enabled: true,
                floor_bps: 350_000.0,
            },
            admission: AdmissionConfig::disabled(),
            cross_traffic: vec![CrossTrafficSpec {
                rate_bps: 9.5e6,
                packet_bytes: 1_200,
                start: secs(2.0),
                stop: secs(6.0),
            }],
            pinned_ai: None,
        },
        ContentionScenario {
            name: "ai-floor-vs-traditional",
            summary: "one AI-oriented tenant holding its accuracy floor among three \
                      traditional peers on a fault-free 5 Mbps bottleneck — does the \
                      floor starve anyone? (watchdog armed, expected silent)",
            seed: 9_404,
            tenants: 4,
            turns: 5,
            window_secs: 1.0,
            capture_fps: 12.0,
            think_secs: 0.3,
            joins: vec![0.0, 0.1, 0.2, 0.3],
            resilience: false,
            nominal_bps: 5e6,
            shared_uplink: LinkConfig {
                bandwidth: BandwidthTrace::constant(5e6),
                propagation_delay: SimDuration::from_millis(30),
                queue_capacity_bytes: queue_bytes_for(5e6, 300),
                loss: LossModel::Iid { rate: 0.01 },
                max_jitter: SimDuration::ZERO,
                faults: FaultSchedule::none(),
            },
            fairness_window_ms: 500,
            starvation: StarvationConfig {
                enabled: true,
                floor_bps: 200_000.0,
            },
            admission: AdmissionConfig::disabled(),
            cross_traffic: Vec::new(),
            pinned_ai: Some(0),
        },
    ]
}

/// Looks a contention scenario up by name.
pub fn contention_by_name(name: &str) -> Option<ContentionScenario> {
    contention_registry().into_iter().find(|s| s.name == name)
}

/// The per-contention-scenario report: both ABR legs side by side, each a full
/// multi-tenant [`ContentionReport`]. A `pinned_ai` tenant stays AI-oriented in both.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ContentionScenarioReport {
    /// The scenario's registry name.
    pub scenario: String,
    /// The run with (unpinned) tenants on traditional estimate-riding ABR.
    pub traditional: ContentionReport,
    /// The run with every tenant on AI-oriented accuracy-floor ABR.
    pub ai_oriented: ContentionReport,
}

/// Runs one contention scenario under one ABR leg.
fn run_contention_mode(scenario: &ContentionScenario, ai_oriented: bool) -> ContentionReport {
    let specs = (0..scenario.tenants)
        .map(|t| scenario.tenant_spec(t, ai_oriented))
        .collect();
    run_contention(&scenario.config(), specs)
}

/// Runs one contention scenario under both ABR legs.
pub fn run_contention_scenario(scenario: &ContentionScenario) -> ContentionScenarioReport {
    ContentionScenarioReport {
        scenario: scenario.name.to_string(),
        traditional: run_contention_mode(scenario, false),
        ai_oriented: run_contention_mode(scenario, true),
    }
}

/// Runs the contention registry as independent cells across a [`MiniPool`] of
/// `pool_size` lanes, one scenario per cell. Cells share nothing — each builds its own
/// shared link, tenants and timeline — so the result is **bit-identical for any pool
/// size**, the same contract the server engines honour (pinned by the pool-sweep
/// property tests).
pub fn run_contention_cells(pool_size: usize) -> Vec<ContentionScenarioReport> {
    let mut slots: Vec<(ContentionScenario, Option<ContentionScenarioReport>)> =
        contention_registry().into_iter().map(|s| (s, None)).collect();
    let pool = MiniPool::new(pool_size);
    let chunks = slots.len();
    let mut lane_units = vec![(); pool.lanes()];
    pool.for_each_chunk(&mut slots, chunks, &mut lane_units, |_, cells, ()| {
        for (scenario, out) in cells.iter_mut() {
            *out = Some(run_contention_scenario(scenario));
        }
    });
    slots
        .into_iter()
        .map(|(_, report)| report.expect("every cell ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_at_least_six_unique_named_scenarios() {
        let reg = registry();
        assert!(reg.len() >= 6, "registry has {}", reg.len());
        let mut names: Vec<&str> = reg.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), reg.len(), "scenario names must be unique");
        assert!(by_name("step-down").is_some());
        assert!(by_name("no-such-scenario").is_none());
    }

    #[test]
    fn scenario_turns_are_reproducible() {
        let scenario = by_name("constant").unwrap();
        let (frames_a, q_a) = scenario.turn();
        let (frames_b, q_b) = scenario.turn();
        assert_eq!(frames_a, frames_b);
        assert_eq!(q_a, q_b);
        assert_eq!(frames_a.len(), 36);
    }

    #[test]
    fn conversation_registry_has_at_least_three_unique_named_scenarios() {
        let reg = conversation_registry();
        assert!(reg.len() >= 3, "registry has {}", reg.len());
        let mut names: Vec<&str> = reg.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(
            names.len(),
            reg.len(),
            "conversation scenario names must be unique"
        );
        assert!(conversation_by_name("lte-8turn").is_some());
        assert!(conversation_by_name("no-such-conversation").is_none());
        // At least one scenario exercises trace looping (the wrap-around satellite).
        assert!(reg
            .iter()
            .any(|s| s.path.uplink.bandwidth.loop_period().is_some()));
    }

    #[test]
    fn conversation_turns_are_reproducible_and_rotate_questions() {
        let scenario = conversation_by_name("bursty-think-time").unwrap();
        let (frames_a, q_a) = scenario.turn(2);
        let (frames_b, q_b) = scenario.turn(2);
        assert_eq!(frames_a, frames_b);
        assert_eq!(q_a, q_b);
        assert_eq!(frames_a.len(), 18);
        let (_, q_other) = scenario.turn(3);
        assert_ne!(q_a, q_other, "consecutive turns ask different questions");
    }

    #[test]
    fn fault_scenarios_engage_the_ladder_and_recover() {
        let scenario = by_name("handover-blackout").unwrap();
        assert!(scenario.resilience);
        let (trad, ai) = run_modes(&scenario);
        for (mode, r) in [("traditional", &trad), ("ai_oriented", &ai)] {
            let res = &r.resilience;
            assert_eq!(res.outage_ms, 500.0, "{mode}: the schedule's blackout length");
            assert!(res.outage_drops > 0, "{mode}: blackout must drop sends");
            assert!(res.watchdog_fallbacks > 0, "{mode}: watchdog must fire");
            assert!(
                res.captures_suppressed > 0 && res.probes_sent == res.captures_suppressed,
                "{mode}: every suppressed capture sends one keep-alive probe"
            );
            assert!(res.degradation_events > 0, "{mode}: ladder transitions counted");
            let ttr = res.time_to_recover_ms.unwrap_or(f64::NAN);
            assert!(
                ttr.is_finite() && ttr > 0.0,
                "{mode}: time_to_recover_ms must be finite, got {ttr}"
            );
        }
    }

    #[test]
    fn duplication_and_reordering_counters_are_surfaced() {
        let scenario = by_name("rtt-spike-midturn").unwrap();
        let (trad, ai) = run_modes(&scenario);
        assert!(
            trad.resilience.packets_duplicated + ai.resilience.packets_duplicated > 0,
            "a 5% duplicate episode over two seconds must duplicate something"
        );
        assert!(
            trad.resilience.packets_reordered + ai.resilience.packets_reordered > 0,
            "a 5% reorder episode over two seconds must reorder something"
        );
    }

    #[test]
    fn fault_free_scenarios_report_quiet_telemetry() {
        // The serialization-omission condition behind fixture bit-identity: without a
        // fault schedule or the resilience stack, the telemetry stays all-default.
        let scenario = by_name("constant").unwrap();
        let (trad, ai) = run_modes(&scenario);
        assert!(trad.resilience.is_quiet());
        assert!(ai.resilience.is_quiet());
    }

    #[test]
    fn burst_storm_conversation_recovers_within_the_conversation() {
        let scenario = conversation_by_name("burst-storm-conversation").unwrap();
        assert!(scenario.resilience);
        let report = run_conversation_mode(&scenario, true);
        let res = &report.resilience;
        assert_eq!(res.outage_ms, 400.0);
        assert!(res.watchdog_fallbacks > 0);
        let ttr = res.time_to_recover_ms.unwrap_or(f64::NAN);
        assert!(ttr.is_finite() && ttr > 0.0, "conversation ttr {ttr}");
        // The storm is confined to one turn; the others stay quiet.
        assert!(report.turns.iter().any(|t| t.resilience.is_quiet()));
    }

    #[test]
    fn contention_registry_is_well_formed() {
        let reg = contention_registry();
        assert!(reg.len() >= 4, "registry has {}", reg.len());
        let mut names: Vec<&str> = reg.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), reg.len(), "contention scenario names must be unique");
        for s in &reg {
            assert_eq!(s.joins.len(), s.tenants, "{}: one join time per tenant", s.name);
            assert!(s.tenants >= 3, "{}: contention needs several tenants", s.name);
            if let Some(pinned) = s.pinned_ai {
                assert!(pinned < s.tenants, "{}: pinned tenant exists", s.name);
            }
        }
        assert!(contention_by_name("shared-blackout").is_some());
        assert!(contention_by_name("no-such-contention").is_none());
        // The acceptance scenario: K ≥ 4 tenants sharing one blackout.
        let blackout = contention_by_name("shared-blackout").unwrap();
        assert!(blackout.tenants >= 4);
        assert!(blackout
            .shared_uplink
            .faults
            .episodes()
            .iter()
            .any(|e| matches!(e.kind, FaultKind::Outage)));
    }

    #[test]
    fn contention_tenant_scripts_differ_between_tenants() {
        let scenario = contention_by_name("shared-blackout").unwrap();
        let a = scenario.tenant_turns(0);
        let b = scenario.tenant_turns(1);
        assert_eq!(a.len(), scenario.turns);
        assert_ne!(a[0].question, b[0].question, "tenants ask from different phases");
        assert_ne!(a[0].frames, b[0].frames, "tenants watch different windows");
        // And the scripts are reproducible.
        assert_eq!(a, scenario.tenant_turns(0));
    }

    #[test]
    fn pinned_tenant_stays_ai_oriented_in_both_legs() {
        let scenario = contention_by_name("ai-floor-vs-traditional").unwrap();
        let trad_leg = scenario.tenant_spec(0, false);
        assert_eq!(trad_leg.mode, "ai_oriented");
        let peer = scenario.tenant_spec(1, false);
        assert_eq!(peer.mode, "traditional");
        let ai_leg = scenario.tenant_spec(1, true);
        assert_eq!(ai_leg.mode, "ai_oriented");
    }

    #[test]
    fn options_differ_only_in_abr_objective() {
        let scenario = by_name("bursty-loss").unwrap();
        let trad = scenario.options(false);
        let ai = scenario.options(true);
        assert_eq!(trad.seed, ai.seed);
        assert_eq!(trad.capture_fps, ai.capture_fps);
        assert_ne!(
            trad.abr.target_bitrate(8e6),
            ai.abr.target_bitrate(8e6),
            "the two modes must pursue different objectives"
        );
    }
}
