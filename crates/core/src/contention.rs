//! Multi-tenant contention: K conversations (plus cross-traffic) on one shared bottleneck.
//!
//! Single-tenant experiments ([`crate::Conversation`]) give every session an uplink of its
//! own, so PR 6's outage resilience is only ever proven in isolation. Production serving is
//! the opposite: many users squeeze through one uplink/cell, and a blackout there hits every
//! tenant at once. A contention run puts K persistent conversations on **one** `aivc-sim`
//! event queue and **one** [`SharedLink`] — the same timeline, driver and uplink type a
//! conversation rides alone, with K members instead of one:
//!
//! * every tenant is a `conversation::Member` — exactly the state a
//!   [`crate::Conversation`] owns, minus its timeline — whose uplink packets ride the
//!   shared bottleneck as one flow among K (+ cross-traffic);
//! * tenant turn lifecycles become events (`Event::TurnBegin` / `Event::TurnEnd`) on the
//!   timeline, so turns of different tenants interleave packet-by-packet in strict
//!   chronological order — the dslab-style ping-pong actor pattern, scaled out;
//! * a **starvation watchdog** samples per-tenant goodput every fairness window: a tenant
//!   whose share stays below a configured floor for consecutive windows gets its PR 6
//!   degradation ladder escalated ([`aivc_rtc::GccController::force_fallback`]) and the event is
//!   *counted*, never silently absorbed;
//! * **fairness telemetry** records each window's per-tenant share and Jain's index, plus
//!   a post-recovery index over everything delivered after the last shared outage ends.
//!
//! Determinism: one global event queue, one shared-link RNG, tie-break by insertion
//! order. With K = 1 and the shared link seeded like the tenant's session, the run
//! reproduces a [`crate::Conversation`] bit-for-bit (the driver-equivalence
//! property of `tests/metamorphic.rs`).

use crate::context_aware::{Streamer, StreamerConfig};
use crate::conversation::{ConversationReport, Member};
use crate::net_session::{validate_link, NetSessionOptions, NetSessionOptionsError};
use crate::net_turn::{Driver, EncodedWindow, Event, Seat, TurnPlan, TurnScratch};
use aivc_metrics::SessionSnapshot;
use aivc_mllm::Question;
use aivc_netsim::trace::MAX_RATE_BPS;
use aivc_netsim::{jain_index, FaultKind, LinkConfig, LinkCounters, Packet, SharedLink};
use aivc_rtc::AbrPolicy;
use aivc_scene::Frame;
use aivc_semantics::ClipModel;
use aivc_sim::{SimDuration, SimTime, Simulation};
use serde::Serialize;
use std::sync::Arc;

/// One scripted turn of a tenant's conversation.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantTurn {
    /// The turn's capture window.
    pub frames: Vec<Frame>,
    /// The user's question for the turn.
    pub question: Question,
}

/// One tenant: a full conversation (options + scripted turns) joining the shared
/// bottleneck at `join_at`. Tenant `i` is reported as `tenant-{i}`, and its mode is read
/// off `options.abr`.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// When the tenant's first turn begins on the global timeline (at most 1e6 s).
    pub join_at: SimTime,
    /// Think time inserted between consecutive turns (at most 1e6 s).
    pub think: SimDuration,
    /// Session options. `options.path.uplink` must match the shared link's config in
    /// propagation delay and fault schedule (checked by [`run_contention`]) so feedback
    /// timing and outage reporting see the bottleneck the packets really ride; nothing
    /// else of it is read, since the tenant's packets ride the shared link.
    pub options: NetSessionOptions,
    /// The scripted turns.
    pub turns: Vec<TenantTurn>,
}

/// Background cross-traffic: fixed-size packets offered at a constant rate over
/// `[start, stop)`, contending as one extra flow on the shared link.
#[derive(Debug, Clone)]
pub struct CrossTrafficSpec {
    /// Offered rate in bits per second.
    pub rate_bps: f64,
    /// Size of each packet.
    pub packet_bytes: u32,
    /// First send time.
    pub start: SimTime,
    /// Exclusive end of the sending window.
    pub stop: SimTime,
}

/// How many *consecutive* starving fairness windows escalate a tenant's degradation
/// ladder: one sub-floor window is noise, two in a row while transmitting is starvation.
const STARVING_WINDOWS_TO_ESCALATE: u32 = 2;
/// Width of the fairness-telemetry window, which is also the starvation watchdog's.
const FAIRNESS_WINDOW: SimDuration = SimDuration::from_millis(500);

/// Configuration of one contention run.
#[derive(Debug, Clone)]
pub struct ContentionConfig {
    /// The shared bottleneck every tenant (and cross-traffic source) contends for.
    pub shared_uplink: LinkConfig,
    /// Seed of the shared link's random processes.
    pub shared_seed: u64,
    /// The starvation watchdog's windowed-goodput floor, in bits per second: a tenant below
    /// it for two consecutive windows while capturing is starving. `None` is no watchdog.
    pub starvation_floor_bps: Option<f64>,
    /// Background cross-traffic sources.
    pub cross_traffic: Vec<CrossTrafficSpec>,
}

impl ContentionConfig {
    /// Checks every field to a value the engine can run on — what
    /// [`NetSessionOptions::validate`] is for a tenant. [`run_contention`] calls this and
    /// panics with the error's message before it builds any state. Destructured without
    /// `..`: a new field does not compile until its check (or its reason for needing none)
    /// is written here.
    pub fn validate(&self) -> Result<(), ContentionConfigError> {
        use ContentionConfigError as E;
        let ContentionConfig {
            shared_uplink,
            shared_seed: _,
            starvation_floor_bps,
            cross_traffic,
        } = self;
        // Its trace's rates were checked when it was built.
        validate_link("shared_uplink", shared_uplink).map_err(E::SharedUplink)?;
        if let Some(floor_bps) = *starvation_floor_bps {
            if !(floor_bps.is_finite() && floor_bps >= 0.0) {
                return Err(E::StarvationFloor(floor_bps));
            }
        }
        for (source, spec) in cross_traffic.iter().enumerate() {
            let &CrossTrafficSpec {
                rate_bps,
                packet_bytes,
                start,
                stop,
            } = spec;
            if !(1.0..=MAX_RATE_BPS).contains(&rate_bps) {
                return Err(E::CrossTrafficRate { source, rate_bps });
            }
            if packet_bytes == 0 {
                return Err(E::CrossTrafficPacketBytes { source });
            }
            if start >= stop {
                return Err(E::CrossTrafficWindow { source, start, stop });
            }
        }
        Ok(())
    }
}

/// Why [`ContentionConfig::validate`] rejected a configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ContentionConfigError {
    /// `shared_uplink` fails the checks a session's own links are held to (its message is
    /// that check's, naming `shared_uplink`).
    SharedUplink(NetSessionOptionsError),
    /// `starvation_floor_bps` is NaN, infinite or negative: no windowed goodput compares
    /// below a NaN floor, and every one compares below an infinite one.
    StarvationFloor(f64),
    /// A cross-traffic source's rate is not within 1..=1e12 bits per second. Its send
    /// interval is `packet_bytes · 8 / rate_bps` seconds: a zero rate makes it `u64::MAX` µs,
    /// which overflows the clock it is added to; a NaN one collapses it to one microsecond,
    /// flooding the kernel with a send per microsecond.
    CrossTrafficRate {
        /// The source's index in `cross_traffic`.
        source: usize,
        /// The rejected rate.
        rate_bps: f64,
    },
    /// A cross-traffic source sends packets of no bytes, which collapses its send interval
    /// to one microsecond.
    CrossTrafficPacketBytes {
        /// The source's index in `cross_traffic`.
        source: usize,
    },
    /// A cross-traffic source's sending window `[start, stop)` is empty.
    CrossTrafficWindow {
        /// The source's index in `cross_traffic`.
        source: usize,
        /// `start` as given.
        start: SimTime,
        /// `stop` as given.
        stop: SimTime,
    },
}

impl core::fmt::Display for ContentionConfigError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        const INVALID: &str = "contention config invalid:";
        match self {
            ContentionConfigError::SharedUplink(error) => write!(f, "{error}"),
            ContentionConfigError::StarvationFloor(bps) => write!(
                f,
                "{INVALID} starvation_floor_bps must be finite and at least 0 bits per second, got {bps}"
            ),
            ContentionConfigError::CrossTrafficRate { source, rate_bps } => write!(
                f,
                "{INVALID} cross_traffic[{source}].rate_bps must be within 1..=1e12 bits per second, got \
                 {rate_bps}"
            ),
            ContentionConfigError::CrossTrafficPacketBytes { source } => write!(
                f,
                "{INVALID} cross_traffic[{source}].packet_bytes must be at least 1, got 0"
            ),
            ContentionConfigError::CrossTrafficWindow { source, start, stop } => write!(
                f,
                "{INVALID} cross_traffic[{source}] must start before it stops, got start {} µs and stop {} µs",
                start.as_micros(),
                stop.as_micros()
            ),
        }
    }
}

/// One fairness-telemetry sample: shares over the window ending at `end_ms`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FairnessWindow {
    /// Window end, in milliseconds of global simulated time.
    pub end_ms: f64,
    /// Tenants mid-conversation during the window (the Jain population).
    pub active_tenants: u32,
    /// Jain's index over the active tenants' windowed goodput shares.
    pub jain: f64,
    /// Windowed goodput of every tenant (active or not), bits per second.
    pub shares_bps: Vec<f64>,
}

/// Fairness telemetry over a whole contention run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FairnessReport {
    /// Sampling window width in milliseconds.
    pub window_ms: f64,
    /// Jain's index over each tenant's total delivered bytes.
    pub jain_overall: f64,
    /// Jain's index over bytes delivered after the last shared outage ended — the
    /// "did everyone recover *together*" number. `None` when the shared link has no
    /// outage episodes.
    pub jain_post_recovery: Option<f64>,
    /// Every sampled window, in time order.
    pub windows: Vec<FairnessWindow>,
}

/// One tenant's slice of a [`ContentionReport`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TenantReport {
    /// The tenant's label, `tenant-{i}` for tenant `i`.
    pub label: String,
    /// ABR mode, from `options.abr`: "ai_oriented", "traditional" or "held".
    pub mode: String,
    /// Join time in milliseconds.
    pub join_ms: f64,
    /// Bytes the shared link delivered for this tenant.
    pub delivered_bytes: u64,
    /// This tenant's fraction of all tenant-delivered bytes.
    pub goodput_share: f64,
    /// Starvation-watchdog escalations charged to this tenant.
    pub starvation_events: u64,
    /// The tenant's full conversation report (same shape as a single-tenant run).
    pub conversation: ConversationReport,
}

/// The report of one multi-tenant contention run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ContentionReport {
    /// Per-tenant results, in tenant order.
    pub tenants: Vec<TenantReport>,
    /// Windowed fairness telemetry.
    pub fairness: FairnessReport,
    /// Aggregate counters of the shared link (tenants + cross-traffic).
    pub shared_link: LinkCounters,
    /// Bytes delivered for cross-traffic flows.
    pub cross_traffic_delivered_bytes: u64,
}

impl ContentionReport {
    /// Total starvation escalations across tenants.
    pub fn starvation_events_total(&self) -> u64 {
        self.tenants.iter().map(|t| t.starvation_events).sum()
    }
}

/// A tenant as the run sees it besides its conversation (the [`Seat`] its events reach):
/// its script, how far through it is, and the starvation watchdog's bookkeeping.
struct Tenant<'s> {
    spec: &'s TenantSpec,
    /// Turns whose window has opened (≥ turns reported; they differ while one is live).
    turns_begun: usize,
    /// Turns concluded and reported.
    turns_ended: usize,
    /// `[first capture, last capture]` of the live turn — the span inside which a
    /// fairness window is *eligible* for starvation accounting (a tenant thinking or
    /// draining is silent by design, not starved).
    capture_span: Option<(SimTime, SimTime)>,
    starve_streak: u32,
    starvation_events: u64,
    /// `delivered_bytes` of this tenant's flow at the last fairness tick.
    window_bytes_snapshot: u64,
}

impl Tenant<'_> {
    fn finished(&self) -> bool {
        self.turns_ended >= self.spec.turns.len()
    }

    /// Mid-conversation: the first window has opened and the last turn has not reported.
    fn mid_conversation(&self) -> bool {
        self.turns_begun > 0 && !self.finished()
    }
}

struct CrossState {
    spec: CrossTrafficSpec,
    interval_us: u64,
    next_id: u64,
}

/// What a contention run adds to the one timeline: the tenants' scripts and watch state,
/// the cross-traffic sources and the fairness telemetry. The driver's `TurnBegin`,
/// `TurnEnd`, `Cross` and `FairnessTick` arms (below) run on it.
pub(crate) struct Contention<'s> {
    tenants: Vec<Tenant<'s>>,
    cross: Vec<CrossState>,
    starvation_floor_bps: Option<f64>,
    windows: Vec<FairnessWindow>,
    /// End of the last shared outage episode, if any — the post-recovery anchor.
    recovery_time: Option<SimTime>,
    /// Per-tenant `delivered_bytes` at the first tick past `recovery_time`.
    post_recovery_snapshot: Option<Vec<u64>>,
    global_end: SimTime,
}

/// The run a turn, cross-traffic or fairness event belongs to: only a contention run
/// schedules one.
fn contention<'d, 's>(run: &'d mut Option<&mut Contention<'s>>) -> &'d mut Contention<'s> {
    run.as_deref_mut()
        .expect("only a contention run schedules turn, cross-traffic and fairness events")
}

impl<'f> Driver<'_, '_, 'f> {
    /// A tenant's next turn window opens, through [`Member::begin_turn`] as a
    /// conversation's does, and its end is scheduled last at its deadline.
    pub(crate) fn turn_begin(&mut self, tenant: usize, now: SimTime, sim: &mut Simulation<Event>) {
        let t = &mut contention(&mut self.contention).tenants[tenant];
        let spec: &'f TenantSpec = t.spec;
        let turn = &spec.turns[t.turns_begun];
        let seat = &mut self.seats[tenant];
        seat.frames = &turn.frames;
        seat.member
            .begin_turn(now, self.uplink, tenant, sim, turn.frames.len(), &turn.question);
        let horizon = seat.member.plan.horizon;
        t.capture_span = Some((now, seat.member.plan.last_capture));
        t.turns_begun += 1;
        // Last at the deadline: every event due at the deadline itself — those scheduled
        // while it is processed included — pops first, as a conversation's inclusive
        // `run_until(horizon)` drains them, and nothing due after it does.
        sim.schedule_last_at(horizon, Event::TurnEnd { member: tenant });
    }

    /// A tenant's turn deadline passed: the turn concludes through
    /// [`Member::conclude_turn`], as a conversation's does, and the next one is scheduled
    /// a think time later.
    pub(crate) fn turn_end(&mut self, tenant: usize, sim: &mut Simulation<Event>) {
        let t = &mut contention(&mut self.contention).tenants[tenant];
        let seat = &mut self.seats[tenant];
        let turn = &t.spec.turns[t.turns_begun - 1];
        seat.member
            .conclude_turn(self.scratch, seat.window, self.uplink, tenant, &turn.question);
        // Between windows the frame slice is empty: capture events exist strictly inside
        // a window, and nothing else reads frames.
        seat.frames = &[];
        t.turns_ended += 1;
        t.capture_span = None;
        if t.turns_begun < t.spec.turns.len() {
            sim.schedule_at(
                seat.member.plan.horizon + t.spec.think,
                Event::TurnBegin { member: tenant },
            );
        }
    }

    /// A cross-traffic source offers its next packet, as the flow after the tenants'.
    pub(crate) fn cross(&mut self, source: usize, now: SimTime, sim: &mut Simulation<Event>) {
        let run = contention(&mut self.contention);
        let flow = run.tenants.len() + source;
        let c = &mut run.cross[source];
        if now >= c.spec.stop {
            return;
        }
        let packet = Packet::new(c.next_id, c.spec.packet_bytes, now);
        c.next_id += 1;
        self.uplink.send(flow, &packet, now);
        let next = now + SimDuration::from_micros(c.interval_us);
        if next < c.spec.stop {
            sim.schedule_at(next, Event::Cross { source });
        }
    }

    /// The fairness/starvation sampling tick.
    pub(crate) fn fairness_tick(&mut self, now: SimTime, sim: &mut Simulation<Event>) {
        let run = contention(&mut self.contention);
        let window_secs = FAIRNESS_WINDOW.as_secs_f64();
        let k = run.tenants.len();
        let mut shares = Vec::with_capacity(k);
        for (i, t) in run.tenants.iter_mut().enumerate() {
            let bytes = self.uplink.flow_counters(i).delivered_bytes;
            let delta = bytes - t.window_bytes_snapshot;
            t.window_bytes_snapshot = bytes;
            shares.push(delta as f64 * 8.0 / window_secs);
        }
        let active: Vec<f64> = (0..k)
            .filter(|&i| run.tenants[i].mid_conversation())
            .map(|i| shares[i])
            .collect();
        run.windows.push(FairnessWindow {
            end_ms: now.as_micros() as f64 / 1e3,
            active_tenants: active.len() as u32,
            jain: jain_index(&active),
            shares_bps: shares.clone(),
        });

        if let Some(floor) = run.starvation_floor_bps {
            let window_start =
                SimTime::from_micros(now.as_micros().saturating_sub(FAIRNESS_WINDOW.as_micros()));
            for (i, t) in run.tenants.iter_mut().enumerate() {
                // Eligible only when the whole window sits inside the tenant's capture
                // phase: goodput during think time or the post-capture drain is low by
                // design, and flagging it would make the watchdog fire on every healthy
                // tenant. The streak is *held* (not reset) across ineligible windows —
                // "sustained while transmitting" semantics.
                let eligible = t.capture_span.is_some_and(|(s, e)| s <= window_start && now <= e);
                if !eligible {
                    continue;
                }
                if shares[i] < floor {
                    t.starve_streak += 1;
                } else {
                    t.starve_streak = 0;
                }
                if t.starve_streak >= STARVING_WINDOWS_TO_ESCALATE {
                    t.starvation_events += 1;
                    t.starve_streak = 0;
                    // Escalate the tenant's own degradation ladder: force_fallback makes
                    // `in_fallback()` true, so its next capture rides the SoftFallback
                    // rung and its sending rate steps down toward survivability.
                    self.seats[i].member.gcc.force_fallback();
                }
            }
        }

        if let Some(rt) = run.recovery_time {
            if now >= rt && run.post_recovery_snapshot.is_none() {
                run.post_recovery_snapshot = Some(
                    (0..k)
                        .map(|i| self.uplink.flow_counters(i).delivered_bytes)
                        .collect(),
                );
            }
        }

        let next = now + FAIRNESS_WINDOW;
        if next <= run.global_end {
            sim.schedule_at(next, Event::FairnessTick);
        }
    }
}

/// Runs a full contention experiment: K tenant conversations plus cross-traffic on one
/// shared bottleneck, from time zero to the last tenant's final answer deadline.
///
/// # Panics
///
/// Panics when there is no tenant, a scripted turn has no frame, `config` fails
/// [`ContentionConfig::validate`] or a tenant's options [`NetSessionOptions::validate`], a
/// tenant's join or think time is longer than 1e6 s, or a tenant's `options.path.uplink`
/// disagrees with the shared link.
pub fn run_contention(config: &ContentionConfig, tenants: Vec<TenantSpec>) -> ContentionReport {
    run_contention_counted(config, tenants).0
}

/// [`run_contention`], with the tenants' always-on counters summed — the run's work counts
/// (`tests/fixtures/work_counts.json`), which the report does not carry.
///
/// # Panics
///
/// As [`run_contention`].
pub fn run_contention_counted(
    config: &ContentionConfig,
    tenants: Vec<TenantSpec>,
) -> (ContentionReport, SessionSnapshot) {
    assert!(!tenants.is_empty(), "a contention run needs at least one tenant");
    if let Err(e) = config.validate() {
        panic!("{e}");
    }
    // Destructured without `..`: a new field does not compile until its check (or its
    // reason for needing none) is written here.
    for (i, spec) in tenants.iter().enumerate() {
        let TenantSpec {
            join_at,
            think,
            options,
            turns,
        } = spec;
        if let Err(e) = options.validate() {
            panic!("tenant \"tenant-{i}\": {e}");
        }
        for (field, time) in [("join_at", *join_at - SimTime::ZERO), ("think", *think)] {
            if let Err(error) = time.check_bound() {
                panic!("tenant \"tenant-{i}\": {field} {error}");
            }
        }
        assert!(
            turns.iter().all(|turn| !turn.frames.is_empty()),
            "every scripted turn needs at least one frame"
        );
        // The transport times loss reports and the NACK budget off `options.path.uplink`'s
        // propagation delay, and turn reports read outage exposure off its fault
        // schedule — both must describe the link the packets really ride.
        let own = &options.path.uplink;
        assert!(
            own.propagation_delay == config.shared_uplink.propagation_delay
                && own.faults == config.shared_uplink.faults,
            "tenant \"tenant-{i}\": options.path.uplink must match the shared link's propagation delay and faults"
        );
    }
    let tenant_count = tenants.len();
    let flow_count = tenant_count + config.cross_traffic.len();
    let mut uplink = SharedLink::new(config.shared_uplink.clone(), config.shared_seed, flow_count);
    let recovery_time = config
        .shared_uplink
        .faults
        .episodes()
        .iter()
        .filter(|e| matches!(e.kind, FaultKind::Outage))
        .map(|e| e.end())
        .max();

    // The global horizon: every tenant's final answer deadline.
    let mut global_end = SimTime::ZERO;
    for t in &tenants {
        let (mut begin, mut horizon) = (t.join_at, t.join_at);
        for turn in &t.turns {
            horizon = TurnPlan::new(&t.options, 0, begin, turn.frames.len()).horizon;
            begin = horizon + t.think;
        }
        global_end = global_end.max(horizon);
    }

    // One sender per run — its model and Eq. 2 table are immutable, and a registry leg is
    // up to 30 tenants — copied into every member in the member's own mode.
    let sender = Streamer::new(
        tenants[0].options.mode,
        StreamerConfig::default(),
        Arc::new(ClipModel::mobile_default()),
    );
    let mut members: Vec<Member> = tenants
        .iter()
        .map(|spec| Member::new(spec.options.clone(), |mode| sender.clone_in_mode(mode)))
        .collect();
    // Tenants' turns overlap on the shared kernel, so each holds its own encoded window; the
    // per-event buffers are the run's one `TurnScratch`.
    let mut windows: Vec<EncodedWindow> = tenants.iter().map(|_| EncodedWindow::default()).collect();
    let mut seats: Vec<Seat> = members
        .iter_mut()
        .zip(&mut windows)
        .map(|(member, window)| Seat {
            member,
            window,
            frames: &[],
        })
        .collect();

    let cross: Vec<CrossState> = config
        .cross_traffic
        .iter()
        .map(|spec| CrossState {
            spec: spec.clone(),
            interval_us: ((spec.packet_bytes as f64 * 8.0 / spec.rate_bps) * 1e6)
                .round()
                .max(1.0) as u64,
            next_id: 0,
        })
        .collect();

    let mut run = Contention {
        tenants: tenants
            .iter()
            .map(|spec| Tenant {
                spec,
                turns_begun: 0,
                turns_ended: 0,
                capture_span: None,
                starve_streak: 0,
                starvation_events: 0,
                window_bytes_snapshot: 0,
            })
            .collect(),
        cross,
        starvation_floor_bps: config.starvation_floor_bps,
        windows: Vec::new(),
        recovery_time,
        post_recovery_snapshot: None,
        global_end,
    };
    let mut scratch = TurnScratch::default();

    let mut sim = Simulation::new();
    for (i, t) in tenants.iter().enumerate() {
        if !t.turns.is_empty() {
            sim.schedule_at(t.join_at, Event::TurnBegin { member: i });
        }
    }
    for (s, c) in run.cross.iter().enumerate() {
        sim.schedule_at(c.spec.start, Event::Cross { source: s });
    }
    sim.schedule_at(SimTime::ZERO + FAIRNESS_WINDOW, Event::FairnessTick);
    sim.run_until(
        global_end,
        &mut Driver {
            seats: &mut seats,
            uplink: &mut uplink,
            scratch: &mut scratch,
            contention: Some(&mut run),
        },
    );

    // --- Assemble the report.
    let tenant_bytes: Vec<u64> = (0..tenant_count)
        .map(|i| uplink.flow_counters(i).delivered_bytes)
        .collect();
    let total_tenant_bytes: u64 = tenant_bytes.iter().sum();
    let overall: Vec<f64> = tenant_bytes.iter().map(|&b| b as f64).collect();
    let jain_post_recovery = run.post_recovery_snapshot.as_ref().map(|snap| {
        let deltas: Vec<f64> = (0..tenant_count)
            .map(|i| (tenant_bytes[i] - snap[i]) as f64)
            .collect();
        jain_index(&deltas)
    });
    let cross_traffic_delivered_bytes: u64 = (tenant_count..flow_count)
        .map(|f| uplink.flow_counters(f).delivered_bytes)
        .sum();
    let reports: Vec<TenantReport> = run
        .tenants
        .iter()
        .zip(&members)
        .enumerate()
        .map(|(i, (t, member))| TenantReport {
            label: format!("tenant-{i}"),
            mode: match t.spec.options.abr {
                AbrPolicy::AiOriented { .. } => "ai_oriented",
                AbrPolicy::Traditional => "traditional",
                AbrPolicy::Held { .. } => "held",
            }
            .to_string(),
            join_ms: t.spec.join_at.as_micros() as f64 / 1e3,
            delivered_bytes: tenant_bytes[i],
            goodput_share: if total_tenant_bytes == 0 {
                0.0
            } else {
                tenant_bytes[i] as f64 / total_tenant_bytes as f64
            },
            starvation_events: t.starvation_events,
            conversation: member.report(),
        })
        .collect();
    let mut counters = SessionSnapshot::default();
    for member in &members {
        counters.accumulate(&member.metrics_snapshot());
    }
    let report = ContentionReport {
        tenants: reports,
        fairness: FairnessReport {
            window_ms: FAIRNESS_WINDOW.as_millis_f64(),
            jain_overall: jain_index(&overall),
            jain_post_recovery,
            windows: run.windows,
        },
        shared_link: uplink.counters(),
        cross_traffic_delivered_bytes,
    };
    (report, counters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aivc_mllm::QuestionFormat;
    use aivc_netsim::{FaultSchedule, LossModel, PathConfig};
    use aivc_scene::templates::basketball_game;
    use aivc_scene::{SourceConfig, VideoSource};

    fn clean_downlink() -> LinkConfig {
        LinkConfig::constant(100e6, SimDuration::from_millis(30), 300, LossModel::None)
    }

    fn turn_script(tenant: usize, turns: usize, frames_per_turn: usize, fps: f64) -> Vec<TenantTurn> {
        let scene = basketball_game(1);
        let source = VideoSource::new(scene.clone(), SourceConfig::fps30(6.0));
        (0..turns)
            .map(|turn| {
                let start = (turn * frames_per_turn + tenant * 3) % 150;
                TenantTurn {
                    frames: (0..frames_per_turn)
                        .map(|i| source.frame(((start + i) as f64 * 30.0 / fps) as u64 % 170))
                        .collect(),
                    question: Question::from_fact(
                        &scene.facts[(turn + tenant) % scene.facts.len()],
                        QuestionFormat::FreeResponse,
                    ),
                }
            })
            .collect()
    }

    fn tenant_options(seed: u64, uplink: &LinkConfig, fps: f64) -> NetSessionOptions {
        let mut o = NetSessionOptions::ai_oriented(
            seed,
            PathConfig {
                uplink: uplink.clone(),
                downlink: clean_downlink(),
            },
        );
        o.capture_fps = fps;
        o
    }

    fn base_config(uplink: LinkConfig, seed: u64) -> ContentionConfig {
        ContentionConfig {
            shared_uplink: uplink,
            shared_seed: seed,
            starvation_floor_bps: None,
            cross_traffic: Vec::new(),
        }
    }

    /// A tenant whose `options.path.uplink` disagrees with the shared link would time
    /// its loss reports off the wrong propagation delay and report outages the shared
    /// link never had (or miss the ones it has): rejected at input.
    #[test]
    #[should_panic(expected = "must match the shared link's propagation delay and faults")]
    fn tenant_uplink_config_must_match_the_shared_link() {
        let uplink = LinkConfig::constant(4e6, SimDuration::from_millis(30), 300, LossModel::None);
        let mut options = tenant_options(1, &uplink, 8.0);
        options.path.uplink.propagation_delay = SimDuration::from_millis(80);
        run_contention(
            &base_config(uplink, 1),
            vec![TenantSpec {
                join_at: SimTime::ZERO,
                think: SimDuration::ZERO,
                options,
                turns: turn_script(0, 1, 4, 8.0),
            }],
        );
    }

    /// A rate the turn clock cannot step by is rejected before the horizon arithmetic
    /// reads it, with the tenant and the field named.
    #[test]
    fn tenant_capture_fps_is_validated_at_input() {
        let uplink = LinkConfig::constant(4e6, SimDuration::from_millis(30), 300, LossModel::None);
        let with = |edit: &dyn Fn(&mut NetSessionOptions)| {
            let mut options = tenant_options(1, &uplink, 8.0);
            edit(&mut options);
            options
        };
        let mut rejected: Vec<(&str, NetSessionOptions)> = [0.0, -1.0, f64::NAN, f64::INFINITY]
            .into_iter()
            .map(|fps| ("capture_fps", tenant_options(1, &uplink, fps)))
            .collect();
        for secs in [f64::INFINITY, f64::NAN, -1.0] {
            rejected.push(("drain_secs", with(&|o| o.drain_secs = secs)));
        }
        rejected.extend([
            (
                "abr.bitrate_bps",
                with(&|o| o.abr = aivc_rtc::AbrPolicy::held_at(f64::NAN)),
            ),
            (
                "abr.accuracy_floor_bps",
                with(&|o| o.abr = aivc_rtc::AbrPolicy::ai_oriented(0.0)),
            ),
            (
                "gcc.initial_estimate_bps",
                with(&|o| o.gcc.initial_estimate_bps = f64::NEG_INFINITY),
            ),
        ]);
        for (field, options) in rejected {
            let expected = options.validate().expect_err(field).to_string();
            let tenant = TenantSpec {
                join_at: SimTime::ZERO,
                think: SimDuration::ZERO,
                options,
                turns: turn_script(0, 1, 4, 8.0),
            };
            let config = base_config(uplink.clone(), 1);
            let panic = std::panic::catch_unwind(|| run_contention(&config, vec![tenant]))
                .expect_err("invalid options must not run");
            let message = panic.downcast_ref::<String>().expect("a formatted panic message");
            assert!(
                message.starts_with("tenant \"tenant-0\": ")
                    && message.contains(field)
                    && message.ends_with(&expected),
                "{field}: {message}"
            );
        }
    }

    /// The shared link is held to what `NetSessionOptions::validate` holds a session's own
    /// uplink config to.
    #[test]
    fn a_shared_uplink_that_cannot_run_is_rejected_at_input() {
        let uplink = LinkConfig::constant(4e6, SimDuration::from_millis(30), 300, LossModel::None);
        let mut no_queue = uplink.clone();
        no_queue.queue_capacity_bytes = 0;
        let mut far = uplink.clone();
        far.propagation_delay = SimDuration::from_micros(u64::MAX);
        let mut nan_loss = uplink.clone();
        nan_loss.loss = LossModel::Iid { rate: f64::NAN };
        for (shared, needle) in [
            (no_queue, "shared_uplink.queue_capacity_bytes"),
            (far, "shared_uplink.propagation_delay"),
            (
                nan_loss,
                "shared_uplink.loss.rate must be a probability within 0..=1, got NaN",
            ),
        ] {
            let tenant = TenantSpec {
                join_at: SimTime::ZERO,
                think: SimDuration::ZERO,
                options: tenant_options(1, &uplink, 8.0),
                turns: turn_script(0, 1, 4, 8.0),
            };
            let config = base_config(shared, 1);
            let panic = std::panic::catch_unwind(|| run_contention(&config, vec![tenant]))
                .expect_err("an invalid shared link must not run");
            let message = panic.downcast_ref::<String>().expect("a formatted panic message");
            assert!(message.contains(needle), "{needle}: {message}");
        }
    }

    /// Each rule of `ContentionConfig::validate`, broken alone, is refused by name before
    /// the run builds anything — among them the cross-traffic rate of zero whose send
    /// interval used to overflow the clock (an add-overflow panic in debug, a hang in
    /// release) and the NaN rate and empty packets that used to collapse it to a send per
    /// microsecond — while the bounds themselves pass.
    #[test]
    fn a_contention_config_the_engine_cannot_run_is_refused_by_name() {
        let uplink = LinkConfig::constant(4e6, SimDuration::from_millis(30), 300, LossModel::None);
        fn cross(rate_bps: f64, packet_bytes: u32, start_ms: u64, stop_ms: u64) -> CrossTrafficSpec {
            CrossTrafficSpec {
                rate_bps,
                packet_bytes,
                start: SimTime::from_millis(start_ms),
                stop: SimTime::from_millis(stop_ms),
            }
        }
        type Edit = Box<dyn Fn(&mut ContentionConfig)>;
        let mut cases: Vec<(&str, Edit)> = Vec::new();
        for floor_bps in [f64::NAN, -1.0, f64::INFINITY] {
            cases.push((
                "starvation_floor_bps",
                Box::new(move |c| c.starvation_floor_bps = Some(floor_bps)),
            ));
        }
        for rate in [0.0, f64::NAN, 0.5, -2e6, f64::INFINITY, 2e12] {
            cases.push((
                "cross_traffic[1].rate_bps",
                Box::new(move |c| {
                    c.cross_traffic = vec![cross(1e6, 1_200, 0, 400), cross(rate, 1_200, 0, 400)]
                }),
            ));
        }
        cases.push((
            "cross_traffic[0].packet_bytes",
            Box::new(|c| c.cross_traffic = vec![cross(1e6, 0, 0, 400)]),
        ));
        for (start, stop) in [(400, 400), (500, 400)] {
            cases.push((
                "cross_traffic[0] must start before it stops",
                Box::new(move |c| c.cross_traffic = vec![cross(1e6, 1_200, start, stop)]),
            ));
        }
        for (needle, edit) in &cases {
            let mut config = base_config(uplink.clone(), 1);
            edit(&mut config);
            let expected = config.validate().expect_err(needle).to_string();
            assert!(
                expected.starts_with("contention config invalid: ") && expected.contains(needle),
                "{expected}"
            );
            let tenant = TenantSpec {
                join_at: SimTime::ZERO,
                think: SimDuration::ZERO,
                options: tenant_options(1, &uplink, 8.0),
                turns: turn_script(0, 1, 4, 8.0),
            };
            let panic = std::panic::catch_unwind(|| run_contention(&config, vec![tenant]))
                .expect_err("an invalid config must not run");
            assert_eq!(panic.downcast_ref::<String>(), Some(&expected), "{needle}");
        }
        // The edges of every rule are accepted.
        let mut config = base_config(uplink, 1);
        config.starvation_floor_bps = Some(0.0);
        config.cross_traffic = vec![cross(1.0, 1, 0, 1), cross(1e12, u32::MAX, 0, 1)];
        assert_eq!(config.validate(), Ok(()));
    }

    /// One tenant's one turn laid on the 500 ms fairness ticks: `captures` 8-fps captures
    /// from 500 ms, so nine span [500, 1500] ms and seventeen [500, 2500] ms, and its answer
    /// 500 ms after the last, the run's end. `edit` arms the watchdog or adds an outage.
    fn on_the_ticks(captures: usize, edit: impl FnOnce(&mut ContentionConfig)) -> ContentionReport {
        let uplink = LinkConfig::constant(4e6, SimDuration::from_millis(30), 300, LossModel::None);
        let mut config = base_config(uplink, 1);
        edit(&mut config);
        let mut options = tenant_options(1, &config.shared_uplink, 8.0);
        options.drain_secs = 0.5;
        let tenant = TenantSpec {
            join_at: SimTime::from_millis(500),
            think: SimDuration::ZERO,
            options,
            turns: turn_script(0, 1, captures, 8.0),
        };
        run_contention(&config, vec![tenant])
    }

    /// A tick due exactly at the run's end is still taken (`next <= global_end`).
    #[test]
    fn the_last_fairness_tick_lands_on_the_runs_end() {
        let report = on_the_ticks(9, |_| {});
        let ends: Vec<f64> = report.fairness.windows.iter().map(|w| w.end_ms).collect();
        assert_eq!(ends, [500.0, 1000.0, 1500.0, 2000.0]);
        assert_eq!(report.fairness.window_ms, 500.0);
    }

    /// An outage that ends exactly on a tick is recovered from at that tick (`now >= rt`):
    /// here the last one, so a later anchor would leave no post-recovery index at all.
    #[test]
    fn an_outage_ending_on_a_tick_is_recovered_from_at_that_tick() {
        let report = on_the_ticks(9, |c| {
            c.shared_uplink.faults =
                FaultSchedule::blackout(SimTime::from_millis(1500), SimDuration::from_millis(500))
        });
        assert_eq!(report.fairness.jain_post_recovery, Some(1.0));
    }

    /// A window that starts exactly at the first capture, and one that ends exactly at the
    /// last, both sit inside the capture span (`s <= window_start && now <= e`): under a
    /// floor nothing reaches, those two windows make the one escalation.
    #[test]
    fn windows_on_the_capture_spans_edges_are_watched() {
        let report = on_the_ticks(9, |c| c.starvation_floor_bps = Some(f64::MAX));
        assert_eq!(report.starvation_events_total(), 1);
    }

    /// An escalation restarts the streak, and a tenant may escalate again: a capture span
    /// of [500, 2500] ms holds four watched windows, all below a floor nothing reaches,
    /// which make two escalations — three if the streak ran on, one if a tenant escalated
    /// only once.
    #[test]
    fn each_second_starving_window_escalates_again() {
        let report = on_the_ticks(17, |c| c.starvation_floor_bps = Some(f64::MAX));
        assert_eq!(report.starvation_events_total(), 2);
    }

    /// A share exactly at the floor is not starving (`shares[i] < floor`): through a blackout
    /// both watched windows deliver nothing, which starves a tenant under a 1 bps floor but
    /// not under a floor of zero.
    #[test]
    fn a_share_exactly_at_the_floor_is_not_starving() {
        let dark = |floor_bps| {
            on_the_ticks(9, |c| {
                c.starvation_floor_bps = Some(floor_bps);
                c.shared_uplink.faults =
                    FaultSchedule::blackout(SimTime::ZERO, SimDuration::from_millis(2_000));
            })
        };
        let at_zero = dark(0.0);
        assert_eq!(at_zero.tenants[0].delivered_bytes, 0);
        assert_eq!(at_zero.starvation_events_total(), 0);
        assert_eq!(dark(1.0).starvation_events_total(), 1);
    }

    #[test]
    fn contention_runs_are_deterministic() {
        let uplink = LinkConfig::constant(
            6e6,
            SimDuration::from_millis(30),
            300,
            LossModel::Iid { rate: 0.01 },
        );
        let run = || {
            let config = base_config(uplink.clone(), 7);
            let tenants = (0..3)
                .map(|i| TenantSpec {
                    join_at: SimTime::from_millis(i as u64 * 100),
                    think: SimDuration::from_millis(300),
                    options: tenant_options(7 + i as u64, &uplink, 8.0),
                    turns: turn_script(i, 2, 4, 8.0),
                })
                .collect();
            run_contention(&config, tenants)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn per_tenant_flow_counters_reconcile_with_the_shared_link() {
        let uplink = LinkConfig::constant(5e6, SimDuration::from_millis(30), 300, LossModel::None);
        let config = base_config(uplink.clone(), 11);
        let tenants = (0..2)
            .map(|i| TenantSpec {
                join_at: SimTime::ZERO,
                think: SimDuration::from_millis(200),
                options: tenant_options(20 + i as u64, &uplink, 8.0),
                turns: turn_script(i, 2, 4, 8.0),
            })
            .collect();
        let report = run_contention(&config, tenants);
        let tenant_bytes: u64 = report.tenants.iter().map(|t| t.delivered_bytes).sum();
        assert_eq!(
            tenant_bytes + report.cross_traffic_delivered_bytes,
            report.shared_link.delivered_bytes
        );
        assert!(report.tenants.iter().all(|t| t.delivered_bytes > 0));
        let share_sum: f64 = report.tenants.iter().map(|t| t.goodput_share).sum();
        assert!((share_sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn starvation_watchdog_stays_quiet_on_an_evenly_shared_clean_link() {
        // Ample fault-free bandwidth, identical tenants: nobody's windowed goodput dips
        // below a conservative floor, so the watchdog must never escalate.
        let uplink = LinkConfig::constant(16e6, SimDuration::from_millis(30), 300, LossModel::None);
        let mut config = base_config(uplink.clone(), 13);
        config.starvation_floor_bps = Some(100_000.0);
        let tenants = (0..3)
            .map(|i| TenantSpec {
                join_at: SimTime::ZERO,
                think: SimDuration::from_millis(300),
                options: tenant_options(30 + i as u64, &uplink, 12.0),
                turns: turn_script(i, 3, 12, 12.0),
            })
            .collect();
        let report = run_contention(&config, tenants);
        assert_eq!(report.starvation_events_total(), 0);
        assert!(
            report.fairness.jain_overall > 0.9,
            "even tenants should share evenly"
        );
    }
}
