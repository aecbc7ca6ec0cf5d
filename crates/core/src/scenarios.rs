//! The scenario engine: named, seeded network conditions under which every congestion,
//! scheduling and recovery change is evaluated.
//!
//! A [`ScenarioSpec`] describes one: tenants × turns × window × think time on an uplink (a
//! [`BandwidthTrace`], a loss model and a fault schedule), started warm or cold, and — when
//! its tenants share the uplink — how they share it. [`registry`] holds the sixteen entries
//! the golden fixtures pin, and [`ScenarioSpec::validate`] is the one front door:
//! [`ScenarioSpec::tenant_spec`] and [`ScenarioSpec::run`] panic with its message before they
//! build anything. [`ScenarioSpec::run`] is the one way to run a spec: its tenants on the
//! contention engine (one tenant on a link of its own is the K = 1 case), reporting
//! traditional estimate-riding ABR and the paper's AI-oriented accuracy floor side by side
//! (§2.2 / §3.2, Figure 3) in one [`ScenarioReport`]. Everything is deterministic: a
//! registry entry reproduces bit-identical reports across runs and pool sizes, which the
//! fixtures under `tests/fixtures/` pin down — transport behaviour changes must be
//! intentional and reviewed alongside a fixture update.

use crate::contention::{
    run_contention, ContentionConfig, ContentionConfigError, ContentionReport, CrossTrafficSpec, TenantSpec,
    TenantTurn,
};
use crate::conversation::Conversation;
use crate::net_session::{queue_bytes_for, NetSessionOptions, NetSessionOptionsError};
use aivc_mllm::{Question, QuestionFormat};
use aivc_netsim::{
    BandwidthTrace, FaultEpisode, FaultKind, FaultSchedule, LatencyStats, LinkConfig, LossModel, PathConfig,
    SimDuration, SimTime, TimeError,
};
use aivc_par::MiniPool;
use aivc_rtc::{AbrPolicy, FecConfig};
use aivc_scene::templates::basketball_game;
use aivc_scene::{SourceConfig, VideoSource};
use serde::Serialize;

/// Capture rate of every turn window.
const CAPTURE_FPS: f64 = 12.0;
/// Length of the basketball clip every window is cut from (wrapping at its end), and so the
/// longest window a spec may ask for.
const CLIP_SECS: f64 = 6.0;
/// A warm spec's starting estimate: what the turns before it left the controller holding.
const WARM_ESTIMATE_BPS: f64 = 2_500_000.0;
/// Most turns a spec may script: [`ScenarioSpec::tenant_spec`] builds every window up front
/// (≈ 18 kB for a 6-s one), so a typo must not allocate the box away.
const MAX_TURNS: usize = 1_000;

/// One named scenario: what the registry's entries vary, and nothing they share. What they
/// share is fixed: the 12-fps capture, the 6-s basketball clip, a clean 100 Mbps / 30 ms
/// downlink and, on a shared uplink, an armed starvation watchdog.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Registry key, and the name of the spec's golden fixture.
    pub name: &'static str,
    /// One-line description of the condition being modelled.
    pub summary: &'static str,
    /// Seed of every stochastic process. Tenant `t` of a shared uplink is seeded
    /// `seed + 31 (t + 1)`, the link itself `seed`.
    pub seed: u64,
    /// Conversations on the uplink: one on a link of its own, any number on a shared one.
    pub tenants: usize,
    /// Chat turns per tenant.
    pub turns: usize,
    /// Length of each captured turn window, in seconds. Turn `k` of tenant `t` starts at
    /// `(k + 0.37 t) · window_secs` into the clip (wrapping) and asks fact `k + t`.
    pub window_secs: f64,
    /// Think time between a tenant's consecutive turns, in seconds.
    pub think_secs: f64,
    /// Whether the tenants join a conversation under way: the turn before (not run) left
    /// the controller at 2.5 Mbps and the script starts at turn 1, with deadline-aware NACK
    /// suppression off as the warm fixtures pin. Cold ones start from the default 1 Mbps,
    /// so warm-up across turns shows, and drop retransmissions that cannot beat a deadline.
    pub warm_start: bool,
    /// When true, every tenant runs the full outage-resilience stack
    /// ([`NetSessionOptions::with_resilience`]): feedback watchdog, adaptive FEC and the
    /// graceful-degradation ladder.
    pub resilience: bool,
    /// The uplink the video rides: the bottleneck every tenant contends for when `sharing`
    /// is set, the one tenant's own otherwise. Its trace may be shorter than the run —
    /// looping traces span turns by design.
    pub shared_uplink: LinkConfig,
    /// How the tenants share `shared_uplink`; `None` gives the one tenant the link to itself.
    pub sharing: Option<Sharing>,
}

/// The name the benchmark seeds specs by, which only a benchmark change may rename.
pub type ContentionScenario = ScenarioSpec;

/// How the tenants of a [`ScenarioSpec`] share its uplink: what a contention run adds to
/// K conversations. The default pins no tenant and sends no cross-traffic.
#[derive(Debug, Clone, Default)]
pub struct Sharing {
    /// When each tenant's first turn begins, in seconds (one per tenant).
    pub joins: Vec<f64>,
    /// A tenant pinned to AI-oriented ABR in **both** report legs — the "does one accuracy
    /// floor starve a traditional peer" probe.
    pub pinned_ai: Option<usize>,
    /// Windowed goodput below which the starvation watchdog counts a tenant as starving.
    pub starvation_floor_bps: f64,
    /// Background cross-traffic sources.
    pub cross_traffic: Vec<CrossTrafficSpec>,
}

impl ScenarioSpec {
    /// One warm turn of the clip's last three seconds on a link of its own: the shape of the
    /// registry's single-turn entries, which every other entry overrides where it differs.
    fn one_turn(name: &'static str, summary: &'static str, seed: u64, shared_uplink: LinkConfig) -> Self {
        Self {
            name,
            summary,
            seed,
            tenants: 1,
            turns: 1,
            window_secs: 3.0,
            think_secs: 0.0,
            warm_start: true,
            resilience: false,
            shared_uplink,
            sharing: None,
        }
    }

    /// Checks the spec before anything is built: its own fields here, the options every
    /// tenant runs with through [`NetSessionOptions::validate`], and the contention
    /// configuration through [`ContentionConfig::validate`]. [`ScenarioSpec::tenant_spec`]
    /// and [`ScenarioSpec::run`] panic with the error's message. Destructured without `..`: a new
    /// field does not compile until its check (or its reason for needing none) is written
    /// here.
    pub fn validate(&self) -> Result<(), ScenarioSpecError> {
        use ScenarioSpecError as E;
        let ScenarioSpec {
            name: _,
            summary: _,
            seed: _,
            tenants,
            turns,
            window_secs,
            think_secs,
            warm_start: _,
            resilience: _,
            // Both delegates below check it.
            shared_uplink: _,
            sharing,
        } = self;
        let tenants = *tenants;
        if tenants == 0 || (sharing.is_none() && tenants != 1) {
            return Err(E::Tenants(tenants));
        }
        if !(1..=MAX_TURNS).contains(turns) {
            return Err(E::Turns(*turns));
        }
        if !(1.0 / CAPTURE_FPS..=CLIP_SECS).contains(window_secs) {
            return Err(E::WindowSecs(*window_secs));
        }
        SimDuration::try_from_secs_f64(*think_secs).map_err(|e| E::Time("think_secs", None, e))?;
        if let Some(Sharing {
            joins,
            pinned_ai,
            // `config` hands these to `ContentionConfig::validate`.
            starvation_floor_bps: _,
            cross_traffic: _,
        }) = sharing
        {
            if joins.len() != tenants {
                return Err(E::Joins(tenants, joins.len()));
            }
            for (tenant, &secs) in joins.iter().enumerate() {
                SimTime::try_from_secs_f64(secs).map_err(|e| E::Time("sharing.joins", Some(tenant), e))?;
            }
            if let Some(tenant) = pinned_ai.filter(|&tenant| tenant >= tenants) {
                return Err(E::PinnedAi(tenant, tenants));
            }
        }
        // The options first, the uplink among them. Other tenants' options differ from these
        // only in seed and ABR mode, which always pass.
        self.tenant_options(0, false).validate().map_err(E::Options)?;
        self.config().validate().map_err(E::Contention)
    }

    /// Panics with [`ScenarioSpec::validate`]'s message: what every entry does first.
    fn assert_valid(&self) {
        if let Err(error) = self.validate() {
            panic!("{error}");
        }
    }

    /// The contention engine's configuration of this spec. Without `sharing` it is the one
    /// tenant alone: no watchdog, no cross-traffic.
    pub fn config(&self) -> ContentionConfig {
        let sharing = self.sharing.as_ref();
        ContentionConfig {
            shared_uplink: self.shared_uplink.clone(),
            shared_seed: self.seed,
            starvation_floor_bps: sharing.map(|s| s.starvation_floor_bps),
            cross_traffic: sharing.map_or_else(Vec::new, |s| s.cross_traffic.clone()),
        }
    }

    /// Whether tenant `tenant` runs AI-oriented ABR in the given report leg.
    fn tenant_is_ai(&self, tenant: usize, ai_oriented: bool) -> bool {
        ai_oriented || self.sharing.as_ref().and_then(|s| s.pinned_ai) == Some(tenant)
    }

    /// Session options of one tenant in the given report leg. Its path carries the spec's
    /// uplink (on a shared one, so that propagation and outage reporting describe the
    /// bottleneck its packets really ride).
    fn tenant_options(&self, tenant: usize, ai_oriented: bool) -> NetSessionOptions {
        let path = PathConfig {
            uplink: self.shared_uplink.clone(),
            // A clean 30 ms feedback downlink, as in the paper's testbed.
            downlink: LinkConfig::constant(100e6, SimDuration::from_millis(30), 300, LossModel::None),
        };
        let seed = match self.sharing {
            Some(_) => self.seed.wrapping_add(31 * (tenant as u64 + 1)),
            None => self.seed,
        };
        let mut options = if self.tenant_is_ai(tenant, ai_oriented) {
            NetSessionOptions::ai_oriented(seed, path)
        } else {
            NetSessionOptions::traditional(seed, path)
        };
        options.capture_fps = CAPTURE_FPS;
        if self.warm_start {
            options.gcc.initial_estimate_bps = WARM_ESTIMATE_BPS;
        } else {
            options.deadline_aware_nack = true;
        }
        if self.resilience {
            options = options.with_resilience();
        }
        options
    }

    /// The scripted turns of one tenant: every tenant watches the same scene from its own
    /// offset and rotates through the facts from its own phase, so tenants ask different
    /// questions about different windows — deterministically.
    fn tenant_turns(&self, tenant: usize) -> Vec<TenantTurn> {
        let source = VideoSource::new(basketball_game(1), SourceConfig::fps30(CLIP_SECS));
        let facts = &source.scene().facts;
        let first = usize::from(self.warm_start);
        (first..first + self.turns)
            .map(|turn| {
                let fact = &facts[(turn + tenant) % facts.len()];
                let start =
                    ((turn as f64 + tenant as f64 * 0.37) * self.window_secs) % source.duration_secs();
                TenantTurn {
                    frames: source.window(start, self.window_secs, CAPTURE_FPS),
                    question: Question::from_fact(fact, QuestionFormat::FreeResponse),
                }
            })
            .collect()
    }

    /// Everything tenant `tenant` runs with in the given report leg: options, join time,
    /// think time and script.
    ///
    /// # Panics
    ///
    /// Panics with [`ScenarioSpec::validate`]'s message, or when `tenant` is not one of the
    /// spec's tenants.
    pub fn tenant_spec(&self, tenant: usize, ai_oriented: bool) -> TenantSpec {
        self.assert_valid();
        assert!(tenant < self.tenants, "`{}` has no tenant {tenant}", self.name);
        TenantSpec {
            join_at: SimTime::from_secs_f64(self.sharing.as_ref().map_or(0.0, |s| s.joins[tenant])),
            think: SimDuration::from_secs_f64(self.think_secs),
            options: self.tenant_options(tenant, ai_oriented),
            turns: self.tenant_turns(tenant),
        }
    }

    /// Every tenant's [`ScenarioSpec::tenant_spec`] in the given report leg, in tenant order:
    /// what one leg hands [`run_contention`].
    ///
    /// # Panics
    ///
    /// Panics with [`ScenarioSpec::validate`]'s message.
    pub fn tenant_specs(&self, ai_oriented: bool) -> Vec<TenantSpec> {
        (0..self.tenants)
            .map(|tenant| self.tenant_spec(tenant, ai_oriented))
            .collect()
    }

    /// Runs the spec end to end: its tenants on the contention engine under both ABR legs.
    /// A spec with a link of its own is the K = 1 case — one tenant on a one-flow link
    /// seeded like its session — and reports exactly what a lone [`Conversation`] would.
    ///
    /// # Panics
    ///
    /// Panics with [`ScenarioSpec::validate`]'s message before anything is built.
    pub fn run(&self) -> ScenarioReport {
        self.assert_valid();
        let leg = |ai_oriented| run_contention(&self.config(), self.tenant_specs(ai_oriented));
        ScenarioReport {
            scenario: self.name.to_string(),
            traditional: leg(false),
            ai_oriented: leg(true),
        }
    }
}

/// Why [`ScenarioSpec::validate`] refused a spec.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScenarioSpecError {
    /// `tenants` is zero, or not one on a link of the spec's own, which runs one
    /// conversation.
    Tenants(usize),
    /// `turns` is zero, a run with nothing to report, or more than every window built up
    /// front should hold.
    Turns(usize),
    /// `window_secs` is shorter than one capture or longer than the clip: an infinite
    /// window asked the source for `usize::MAX` frames, and a NaN, zero or negative one
    /// silently became one frame.
    WindowSecs(f64),
    /// `sharing.joins` does not hold one join time per tenant (`tenant_spec` indexed past
    /// its end): the number of tenants, then of join times.
    Joins(usize, usize),
    /// `think_secs` or a join time is not one the clock can add (NaN or negative silently
    /// became no think time or a join at zero, and an infinite one overflows the clock): the
    /// field, the tenant of a join time, then why.
    Time(&'static str, Option<usize>, TimeError),
    /// `sharing.pinned_ai` names no tenant (it was silently ignored): the pinned tenant,
    /// then the number of tenants.
    PinnedAi(usize, usize),
    /// The tenants' options fail [`NetSessionOptions::validate`]: the uplink is what a spec
    /// puts there that can (the message names `path.uplink`).
    Options(NetSessionOptionsError),
    /// The contention configuration fails [`ContentionConfig::validate`]: the starvation
    /// floor or a cross-traffic source (the message names which).
    Contention(ContentionConfigError),
}

impl core::fmt::Display for ScenarioSpecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        use ScenarioSpecError as E;
        const INVALID: &str = "scenario spec invalid:";
        match *self {
            E::Tenants(n) => write!(
                f,
                "{INVALID} tenants must be 1 without `sharing` and at least 1 with it, got {n}"
            ),
            E::Turns(n) => write!(f, "{INVALID} turns must be within 1..={MAX_TURNS}, got {n}"),
            E::WindowSecs(secs) => write!(
                f,
                "{INVALID} window_secs must be within one capture (1/{CAPTURE_FPS} s) and the \
                 {CLIP_SECS}-s clip, got {secs}"
            ),
            E::Time(field, tenant, error) => {
                write!(f, "{INVALID} {field}")?;
                if let Some(tenant) = tenant {
                    write!(f, "[{tenant}]")?;
                }
                write!(f, " {error}")
            }
            E::Joins(tenants, n) => write!(
                f,
                "{INVALID} sharing.joins must hold one time per tenant ({tenants}), got {n}"
            ),
            E::PinnedAi(t, tenants) => write!(
                f,
                "{INVALID} sharing.pinned_ai must be one of the {tenants} tenants, got {t}"
            ),
            E::Options(error) => write!(f, "{error}"),
            E::Contention(error) => write!(f, "{error}"),
        }
    }
}

/// A registry uplink: 30 ms propagation, no jitter, and a drop-tail queue of 300 ms at the
/// trace's starting rate.
fn uplink(bandwidth: BandwidthTrace, loss: LossModel, faults: FaultSchedule) -> LinkConfig {
    LinkConfig {
        queue_capacity_bytes: queue_bytes_for(bandwidth.rate_at(SimTime::ZERO), 300),
        bandwidth,
        propagation_delay: SimDuration::from_millis(30),
        loss,
        max_jitter: SimDuration::ZERO,
        faults,
    }
}

/// The registry: sixteen named, seeded conditions with unique names. Eight single turns
/// cover the shapes the adaptive-transport literature validates against (constant, step,
/// periodic, random-walk, bursty loss, LTE-like segment schedules) and two fault schedules;
/// four conversations pin a *conversation*'s behaviour — GCC warm-up across turns, queue
/// carry-over, trace position spanning turns, NACK/RTX state surviving think gaps; four
/// shared bottlenecks pin the *interaction* — fairness under faults, starvation-watchdog
/// escalations, a late joiner under a loss storm, every tenant recovering from a shared outage.
pub fn registry() -> Vec<ScenarioSpec> {
    let secs = SimTime::from_secs_f64;
    let constant = BandwidthTrace::constant;
    let iid = |rate| LossModel::Iid { rate };
    let bursty = || LossModel::bursty(0.08, 16.0);
    let ms = SimDuration::from_millis;
    let none = FaultSchedule::none;
    let blackout = |at, millis| FaultSchedule::blackout(secs(at), ms(millis));
    let episode = |start, duration, kind| FaultEpisode {
        start: secs(start),
        duration: SimDuration::from_secs_f64(duration),
        kind,
    };
    let lte_like = || {
        BandwidthTrace::from_segments(vec![
            (SimTime::ZERO, 12e6),
            (secs(1.0), 5e6),
            (secs(1.8), 0.9e6),
            (secs(2.6), 3e6),
            (secs(3.2), 10e6),
        ])
    };
    let one_turn = ScenarioSpec::one_turn;
    vec![
        one_turn(
            "constant",
            "the paper's 10 Mbps / 30 ms link with 1% i.i.d. loss",
            101,
            uplink(constant(10e6), iid(0.01), none()),
        ),
        one_turn(
            "step-down",
            "8 Mbps dropping to 1.2 Mbps mid-turn (handover / contention onset)",
            202,
            uplink(BandwidthTrace::step(8e6, 1.2e6, secs(1.5)), iid(0.01), none()),
        ),
        one_turn(
            "square-wave",
            "capacity oscillating 8 ↔ 1.5 Mbps every second (periodic cross traffic)",
            303,
            uplink(
                BandwidthTrace::square_wave(8e6, 1.5e6, secs(1.0), secs(8.0)),
                iid(0.01),
                none(),
            ),
        ),
        one_turn(
            "random-walk",
            "a bounded multiplicative random walk between 1 and 9 Mbps",
            404,
            uplink(
                BandwidthTrace::random_walk(404, 5e6, 1e6, 9e6, secs(0.5), secs(8.0)),
                iid(0.01),
                none(),
            ),
        ),
        one_turn(
            "bursty-loss",
            "4 Mbps with Gilbert–Elliott bursts (8% mean loss, ~16-packet bursts)",
            505,
            uplink(constant(4e6), bursty(), none()),
        ),
        one_turn(
            "lte-like",
            "LTE-like segments: 12 → 5 → 0.9 → 3 → 10 Mbps across the turn",
            606,
            uplink(lte_like(), iid(0.005), none()),
        ),
        ScenarioSpec {
            resilience: true,
            ..one_turn(
                "handover-blackout",
                "10 Mbps with a 500 ms total blackout mid-turn (radio handover) — the \
                 watchdog falls back during the silence and the ladder suppresses \
                 captures until feedback returns",
                707,
                uplink(constant(10e6), iid(0.01), blackout(1.2, 500)),
            )
        },
        ScenarioSpec {
            resilience: true,
            ..one_turn(
                "rtt-spike-midturn",
                "8 Mbps where the path reroutes mid-turn: a 250 ms blackout at the \
                 switch, +250 ms one-way delay for a second, and 5% duplication and \
                 bounded reordering while the routes converge",
                808,
                uplink(
                    constant(8e6),
                    iid(0.005),
                    FaultSchedule::new(vec![
                        episode(1.0, 0.25, FaultKind::Outage),
                        episode(1.0, 1.0, FaultKind::RttSpike { extra_delay: ms(250) }),
                        episode(0.5, 2.0, FaultKind::Duplicate { probability: 0.05 }),
                        episode(
                            0.5,
                            2.0,
                            FaultKind::Reorder {
                                probability: 0.05,
                                max_delay: ms(40),
                            },
                        ),
                    ]),
                ),
            )
        },
        ScenarioSpec {
            turns: 8,
            window_secs: 1.5,
            think_secs: 1.0,
            warm_start: false,
            ..one_turn(
                "lte-8turn",
                "an 8-turn conversation over a looping LTE-like trace (12→5→0.9→3→10 Mbps \
                 per 4 s period) with 1 s think time — the trace wraps several times",
                1_001,
                uplink(
                    lte_like().looping(SimDuration::from_secs_f64(4.0)),
                    iid(0.005),
                    none(),
                ),
            )
        },
        ScenarioSpec {
            turns: 6,
            window_secs: 1.5,
            think_secs: 0.8,
            warm_start: false,
            ..one_turn(
                "stepdown-mid-conversation",
                "8 Mbps collapsing to 1.2 Mbps at t = 6 s — mid-conversation, between \
                 turns, so only a warm controller sees it coming",
                2_002,
                uplink(BandwidthTrace::step(8e6, 1.2e6, secs(6.0)), iid(0.01), none()),
            )
        },
        ScenarioSpec {
            turns: 6,
            window_secs: 1.5,
            think_secs: 1.2,
            warm_start: false,
            ..one_turn(
                "bursty-think-time",
                "4 Mbps with Gilbert–Elliott bursts (8% mean loss, ~16-packet bursts) and \
                 1.2 s think gaps — recovery state must survive the silences",
                3_003,
                uplink(constant(4e6), bursty(), none()),
            )
        },
        ScenarioSpec {
            turns: 6,
            window_secs: 1.5,
            think_secs: 1.2,
            warm_start: false,
            resilience: true,
            ..one_turn(
                "burst-storm-conversation",
                "4 Mbps with Gilbert–Elliott bursts plus an injected loss storm (50% for \
                 1 s) containing a 400 ms blackout that lands mid-turn — the resilience \
                 stack degrades gracefully and recovers within the conversation",
                4_004,
                uplink(
                    constant(4e6),
                    bursty(),
                    FaultSchedule::new(vec![
                        episode(3.0, 1.0, FaultKind::BurstLoss { loss_rate: 0.5 }),
                        episode(3.2, 0.4, FaultKind::Outage),
                    ]),
                ),
            )
        },
        ScenarioSpec {
            tenants: 4,
            turns: 5,
            window_secs: 1.0,
            think_secs: 0.3,
            warm_start: false,
            resilience: true,
            sharing: Some(Sharing {
                joins: vec![0.0, 0.1, 0.2, 0.3],
                starvation_floor_bps: 120_000.0,
                ..Sharing::default()
            }),
            ..one_turn(
                "shared-blackout",
                "four staggered tenants on a 16 Mbps bottleneck that goes totally \
                 dark for 500 ms mid-conversation — every tenant must degrade, \
                 recover with finite time-to-recover, and share evenly again",
                9_101,
                uplink(constant(16e6), iid(0.005), blackout(3.2, 500)),
            )
        },
        ScenarioSpec {
            tenants: 4,
            turns: 5,
            window_secs: 1.0,
            think_secs: 0.3,
            warm_start: false,
            resilience: true,
            sharing: Some(Sharing {
                joins: vec![0.0, 0.0, 0.0, 4.0],
                starvation_floor_bps: 120_000.0,
                ..Sharing::default()
            }),
            ..one_turn(
                "hotspot-join",
                "three incumbents on an 8 Mbps bottleneck, a fourth tenant joining \
                 mid-conversation, from a cold 1 Mbps estimate, right as a 30% loss \
                 storm hits",
                9_202,
                uplink(
                    constant(8e6),
                    iid(0.01),
                    FaultSchedule::new(vec![episode(3.5, 1.5, FaultKind::BurstLoss { loss_rate: 0.3 })]),
                ),
            )
        },
        ScenarioSpec {
            tenants: 3,
            turns: 5,
            window_secs: 1.0,
            think_secs: 0.4,
            warm_start: false,
            resilience: true,
            sharing: Some(Sharing {
                joins: vec![0.0, 0.0, 0.0],
                starvation_floor_bps: 350_000.0,
                cross_traffic: vec![CrossTrafficSpec {
                    rate_bps: 9.5e6,
                    packet_bytes: 1_200,
                    start: secs(2.0),
                    stop: secs(6.0),
                }],
                ..Sharing::default()
            }),
            ..one_turn(
                "cross-traffic-surge",
                "three tenants on a 10 Mbps bottleneck while a 9.5 Mbps elastic \
                 cross-traffic surge squeezes them for 4 s — the starvation \
                 watchdog must notice sustained sub-floor goodput and escalate",
                9_303,
                uplink(constant(10e6), iid(0.005), none()),
            )
        },
        ScenarioSpec {
            tenants: 4,
            turns: 5,
            window_secs: 1.0,
            think_secs: 0.3,
            warm_start: false,
            sharing: Some(Sharing {
                joins: vec![0.0, 0.1, 0.2, 0.3],
                pinned_ai: Some(0),
                starvation_floor_bps: 200_000.0,
                ..Sharing::default()
            }),
            ..one_turn(
                "ai-floor-vs-traditional",
                "one AI-oriented tenant holding its accuracy floor among three \
                 traditional peers on a fault-free 5 Mbps bottleneck — does the \
                 floor starve anyone? (watchdog armed, expected silent)",
                9_404,
                uplink(constant(5e6), iid(0.01), none()),
            )
        },
    ]
}

/// The registry entries whose tenants share the uplink, in registry order: the contention
/// fixtures, and what the benchmark's `contention_cold` seeds by index.
pub fn contention_registry() -> Vec<ScenarioSpec> {
    let mut specs: Vec<_> = registry().into_iter().filter(|s| s.sharing.is_some()).collect();
    // Collected in place, the four would keep the sixteen's allocation for as long as they live.
    specs.shrink_to_fit();
    specs
}

/// The report of a spec: both ABR legs side by side, each a full [`ContentionReport`] of
/// every tenant (a spec with a link of its own reports its one tenant). A pinned tenant
/// stays AI-oriented in both legs.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ScenarioReport {
    /// The scenario's registry name.
    pub scenario: String,
    /// The run with (unpinned) tenants on traditional estimate-riding ABR.
    pub traditional: ContentionReport,
    /// The run with every tenant on AI-oriented accuracy-floor ABR.
    pub ai_oriented: ContentionReport,
}

/// Runs the whole registry, one spec per cell, across a [`MiniPool`] of `pool_size` lanes.
/// Cells share nothing — each builds its own link, tenants and timeline — so the result,
/// in registry order, is **bit-identical for any pool size** (pinned by the pool-sweep
/// property test and the golden fixtures).
pub fn run_registry(pool_size: usize) -> Vec<ScenarioReport> {
    let mut slots: Vec<(ScenarioSpec, Option<ScenarioReport>)> =
        registry().into_iter().map(|s| (s, None)).collect();
    let pool = MiniPool::new(pool_size);
    let chunks = slots.len();
    let mut lane_units = vec![(); pool.lanes()];
    pool.for_each_chunk(&mut slots, chunks, &mut lane_units, |_, cells, ()| {
        for (spec, out) in cells.iter_mut() {
            *out = Some(spec.run());
        }
    });
    slots
        .into_iter()
        .map(|(_, report)| report.expect("every cell ran"))
        .collect()
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
    let source = VideoSource::new(scene, SourceConfig::fps30(CLIP_SECS));
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conversation::ConversationReport;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Looks a registry entry up by name.
    fn by_name(name: &str) -> Option<ScenarioSpec> {
        registry().into_iter().find(|spec| spec.name == name)
    }

    #[test]
    fn one_registry_of_sixteen_uniquely_named_valid_entries() {
        let reg = registry();
        let mut names: Vec<&str> = reg.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 16, "one `by_name` serves every family");
        for spec in &reg {
            assert_eq!(spec.validate(), Ok(()), "{}", spec.name);
        }
        let count = |shape: fn(&ScenarioSpec) -> bool| reg.iter().filter(|s| shape(s)).count();
        let [one_turn, conversations, shared] = [
            count(|s| s.sharing.is_none() && s.turns == 1),
            count(|s| s.sharing.is_none() && s.turns > 1),
            count(|s| s.sharing.is_some()),
        ];
        assert_eq!([one_turn, conversations, shared], [8, 4, 4]);
        assert!(by_name("no-such-scenario").is_none());
        // At least one entry exercises trace looping: a trace that does not loop holds its
        // last rate from its last segment on.
        let late = |s: f64| SimTime::from_secs_f64(1_000.0 + s);
        assert!(reg.iter().any(|s| {
            let bandwidth = &s.shared_uplink.bandwidth;
            bandwidth.rate_at(late(0.5)) != bandwidth.rate_at(late(2.0))
        }));
        // The acceptance scenario: K ≥ 4 tenants sharing one blackout.
        let blackout = by_name("shared-blackout").unwrap();
        assert!(blackout.tenants >= 4);
        assert!(blackout
            .shared_uplink
            .faults
            .episodes()
            .iter()
            .any(|e| matches!(e.kind, FaultKind::Outage)));
    }

    /// `validate`'s refusal of `spec`, after checking that `tenant_spec` and `run` panic
    /// with exactly its message.
    fn refusal(spec: &ScenarioSpec) -> ScenarioSpecError {
        let error = spec.validate().expect_err("the spec must be refused");
        let panics = [
            catch_unwind(AssertUnwindSafe(|| drop(spec.tenant_spec(0, true)))),
            catch_unwind(AssertUnwindSafe(|| drop(spec.run()))),
        ];
        for panic in panics {
            let panic = panic.expect_err("refused before anything is built");
            assert_eq!(panic.downcast_ref::<String>(), Some(&error.to_string()));
        }
        error
    }

    #[test]
    fn joins_shorter_than_tenants_are_refused() {
        let mut spec = by_name("shared-blackout").unwrap();
        spec.tenants = 5;
        assert_eq!(refusal(&spec), ScenarioSpecError::Joins(5, 4));
    }

    #[test]
    fn a_pinned_tenant_that_does_not_exist_is_refused() {
        let mut spec = by_name("ai-floor-vs-traditional").unwrap();
        spec.sharing.as_mut().unwrap().pinned_ai = Some(4);
        assert_eq!(refusal(&spec), ScenarioSpecError::PinnedAi(4, 4));
    }

    #[test]
    fn nan_or_negative_think_and_join_times_are_refused() {
        for secs in [f64::NAN, -1.0, f64::INFINITY] {
            let mut spec = by_name("hotspot-join").unwrap();
            spec.think_secs = secs;
            assert!(matches!(
                refusal(&spec),
                ScenarioSpecError::Time("think_secs", None, _)
            ));
            let mut spec = by_name("hotspot-join").unwrap();
            spec.sharing.as_mut().unwrap().joins[3] = secs;
            assert!(matches!(
                refusal(&spec),
                ScenarioSpecError::Time("sharing.joins", Some(3), _)
            ));
        }
    }

    #[test]
    fn windows_outside_one_capture_to_the_whole_clip_are_refused() {
        for secs in [f64::INFINITY, f64::NAN, 0.0, -1.0, 0.05, 6.5] {
            let mut spec = by_name("constant").unwrap();
            spec.window_secs = secs;
            assert!(matches!(refusal(&spec), ScenarioSpecError::WindowSecs(_)));
        }
    }

    #[test]
    fn tenant_and_turn_counts_a_run_cannot_hold_are_refused() {
        let mut spec = by_name("lte-8turn").unwrap();
        spec.tenants = 2;
        assert_eq!(refusal(&spec), ScenarioSpecError::Tenants(2));
        let mut spec = by_name("shared-blackout").unwrap();
        spec.tenants = 0;
        assert_eq!(refusal(&spec), ScenarioSpecError::Tenants(0));
        for turns in [0, MAX_TURNS + 1] {
            let mut spec = by_name("lte-8turn").unwrap();
            spec.turns = turns;
            assert_eq!(refusal(&spec), ScenarioSpecError::Turns(turns));
        }
    }

    #[test]
    fn conversation_turns_are_reproducible_and_rotate_questions() {
        let spec = by_name("bursty-think-time").unwrap();
        let script = spec.tenant_spec(0, true).turns;
        assert_eq!(script, spec.tenant_spec(0, false).turns);
        assert_eq!(script[2].frames.len(), 18);
        assert_ne!(
            script[2].question, script[3].question,
            "consecutive turns ask different questions"
        );
    }

    /// The one tenant's conversation of a spec with a link of its own, in both legs:
    /// `[traditional, ai_oriented]`.
    fn solo_legs(name: &str) -> [ConversationReport; 2] {
        let report = by_name(name).unwrap().run();
        [report.traditional, report.ai_oriented].map(|mut leg| {
            assert_eq!(leg.tenants.len(), 1, "{name} has a link of its own");
            leg.tenants.remove(0).conversation
        })
    }

    #[test]
    fn fault_scenarios_engage_the_ladder_and_recover() {
        assert!(by_name("handover-blackout").unwrap().resilience);
        for (ai, report) in [false, true].into_iter().zip(solo_legs("handover-blackout")) {
            let res = &report.turns[0].resilience;
            assert_eq!(res.outage_ms, 500.0, "ai={ai}: the schedule's blackout length");
            assert!(res.outage_drops > 0, "ai={ai}: blackout must drop sends");
            assert!(res.watchdog_fallbacks > 0, "ai={ai}: watchdog must fire");
            assert!(
                res.captures_suppressed > 0 && res.probes_sent == res.captures_suppressed,
                "ai={ai}: every suppressed capture sends one keep-alive probe"
            );
            assert!(res.degradation_events > 0, "ai={ai}: ladder transitions counted");
            let ttr = res.time_to_recover_ms.unwrap_or(f64::NAN);
            assert!(
                ttr.is_finite() && ttr > 0.0,
                "ai={ai}: time_to_recover_ms must be finite, got {ttr}"
            );
        }
    }

    #[test]
    fn duplication_and_reordering_counters_are_surfaced() {
        let [trad, ai] = solo_legs("rtt-spike-midturn").map(|leg| leg.resilience);
        assert!(
            trad.packets_duplicated + ai.packets_duplicated > 0,
            "a 5% duplicate episode over two seconds must duplicate something"
        );
        assert!(
            trad.packets_reordered + ai.packets_reordered > 0,
            "a 5% reorder episode over two seconds must reorder something"
        );
    }

    #[test]
    fn fault_free_scenarios_report_quiet_telemetry() {
        // The serialization-omission condition behind fixture bit-identity: without a
        // fault schedule or the resilience stack, the telemetry stays all-default.
        for leg in solo_legs("constant") {
            assert!(leg.turns[0].resilience.is_quiet());
        }
    }

    #[test]
    fn burst_storm_conversation_recovers_within_the_conversation() {
        assert!(by_name("burst-storm-conversation").unwrap().resilience);
        let [_, report] = solo_legs("burst-storm-conversation");
        let res = &report.resilience;
        assert_eq!(res.outage_ms, 400.0);
        assert!(res.watchdog_fallbacks > 0);
        let ttr = res.time_to_recover_ms.unwrap_or(f64::NAN);
        assert!(ttr.is_finite() && ttr > 0.0, "conversation ttr {ttr}");
        // The storm is confined to one turn; the others stay quiet.
        assert!(report.turns.iter().any(|t| t.resilience.is_quiet()));
    }

    #[test]
    fn contention_tenant_scripts_differ_between_tenants() {
        let spec = by_name("shared-blackout").unwrap();
        let a = spec.tenant_turns(0);
        let b = spec.tenant_turns(1);
        assert_eq!(a.len(), spec.turns);
        assert_ne!(a[0].question, b[0].question, "tenants ask from different phases");
        assert_ne!(a[0].frames, b[0].frames, "tenants watch different windows");
        // And the scripts are reproducible.
        assert_eq!(a, spec.tenant_turns(0));
    }

    #[test]
    fn pinned_tenant_stays_ai_oriented_in_both_legs() {
        let spec = by_name("ai-floor-vs-traditional").unwrap();
        let ai = |tenant, leg| {
            matches!(
                spec.tenant_spec(tenant, leg).options.abr,
                AbrPolicy::AiOriented { .. }
            )
        };
        assert_eq!([ai(0, false), ai(1, false), ai(1, true)], [true, false, true]);
    }

    #[test]
    fn options_differ_only_in_abr_objective() {
        let spec = by_name("bursty-loss").unwrap();
        let trad = spec.tenant_options(0, false);
        let ai = spec.tenant_options(0, true);
        assert_eq!(trad.seed, ai.seed);
        assert_eq!(trad.capture_fps, ai.capture_fps);
        assert_ne!(
            trad.abr.target_bitrate(8e6),
            ai.abr.target_bitrate(8e6),
            "the two modes must pursue different objectives"
        );
    }
}
