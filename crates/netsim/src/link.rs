//! The point-to-point link model.
//!
//! A [`Link`] is the emulator's core: it models a single bottleneck with a serialization
//! rate (possibly time-varying), a bounded drop-tail queue, a fixed one-way propagation
//! delay, optional delivery jitter and a random-loss process. The model is intentionally
//! the same one used by the paper's Figure 3 discussion:
//!
//! * sending faster than the bottleneck rate builds a standing queue → latency explodes
//!   (the region right of the bandwidth in Figure 3);
//! * below the bottleneck rate, per-frame latency still grows with bitrate because larger
//!   frames mean more packets, and any lost packet forces a retransmission round trip
//!   (the effect that motivates ultra-low-bitrate operation, §2.2).
//!
//! The link is *driven*, not threaded: callers hand it a packet together with the current
//! simulated time, and immediately receive the delivery outcome (arrival time or drop).
//! The RTC layer merges these outcomes into its own event queue.

use crate::fault::FaultSchedule;
use crate::loss::{LossModel, LossProcess};
use crate::packet::Packet;
use crate::trace::BandwidthTrace;
use aivc_sim::{SimDuration, SimTime};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

/// Static configuration of a link.
#[derive(Debug, Clone, Serialize)]
pub struct LinkConfig {
    /// Serialization rate over time, in bits per second.
    pub bandwidth: BandwidthTrace,
    /// One-way propagation delay.
    pub propagation_delay: SimDuration,
    /// Bottleneck queue capacity in bytes. The paper's emulator corresponds to a typical
    /// router buffer of a few hundred milliseconds at the bottleneck rate.
    pub queue_capacity_bytes: u64,
    /// Random-loss model applied after serialization (i.e. tail-drop and random loss are
    /// independent mechanisms, as in real networks).
    pub loss: LossModel,
    /// Maximum extra random delivery jitter, uniformly distributed in `[0, max_jitter]`.
    pub max_jitter: SimDuration,
    /// Timed fault episodes composed over every send (see [`crate::fault`]). Empty by
    /// default: a fault-free link draws nothing from the fault RNG and behaves exactly as
    /// it did before fault injection existed.
    pub faults: FaultSchedule,
}

impl LinkConfig {
    /// The paper's measurement configuration: 10 Mbps, 30 ms one-way delay, and the given
    /// i.i.d. loss rate. Queue sized to 300 ms at the bottleneck rate.
    pub fn paper_section_2_2(loss_rate: f64) -> Self {
        let bandwidth_bps = 10e6;
        Self {
            bandwidth: BandwidthTrace::constant(bandwidth_bps),
            propagation_delay: SimDuration::from_millis(30),
            queue_capacity_bytes: (bandwidth_bps * 0.3 / 8.0) as u64,
            loss: if loss_rate > 0.0 {
                LossModel::Iid { rate: loss_rate }
            } else {
                LossModel::None
            },
            max_jitter: SimDuration::ZERO,
            faults: FaultSchedule::none(),
        }
    }

    /// A generic configuration with constant bandwidth and queue sized to `queue_ms` of
    /// buffering at that rate.
    pub fn constant(bandwidth_bps: f64, one_way_delay: SimDuration, queue_ms: u64, loss: LossModel) -> Self {
        Self {
            bandwidth: BandwidthTrace::constant(bandwidth_bps),
            propagation_delay: one_way_delay,
            queue_capacity_bytes: ((bandwidth_bps / 8.0) * (queue_ms as f64 / 1_000.0)).max(3_000.0) as u64,
            loss,
            max_jitter: SimDuration::ZERO,
            faults: FaultSchedule::none(),
        }
    }

    /// Adds delivery jitter.
    pub fn with_jitter(mut self, max_jitter: SimDuration) -> Self {
        self.max_jitter = max_jitter;
        self
    }
}

/// The two links of a session's path. §2.1 of the paper points out that AI Video Chat is
/// asymmetric — the uplink carries video while the downlink only carries feedback and the
/// MLLM's low-bitrate responses — so the two directions are configured independently, and
/// each is a link of its own.
#[derive(Debug, Clone, Serialize)]
pub struct PathConfig {
    /// Client → cloud direction (video).
    pub uplink: LinkConfig,
    /// Cloud → client direction (feedback + responses).
    pub downlink: LinkConfig,
}

impl PathConfig {
    /// The paper's §2.2 measurement path with the given uplink loss rate; feedback flows on a
    /// clean, high-capacity downlink (100 Mbps) so feedback loss does not pollute the uplink
    /// latency measurement — matching how testbeds isolate the variable under study.
    pub fn paper_section_2_2(uplink_loss: f64) -> Self {
        Self {
            uplink: LinkConfig::paper_section_2_2(uplink_loss),
            downlink: LinkConfig::constant(100e6, SimDuration::from_millis(30), 300, LossModel::None),
        }
    }
}

/// What happened to a packet offered to the link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryOutcome {
    /// The packet will arrive at the far end at the given time.
    Delivered {
        /// Arrival time at the receiver.
        arrival: SimTime,
        /// Time the packet spent waiting behind earlier packets (queueing delay).
        queueing_delay: SimDuration,
    },
    /// The packet was dropped because the bottleneck queue was full.
    DroppedQueueFull,
    /// The packet was lost by the random loss process.
    LostRandom,
    /// The packet was dropped by an active [`crate::fault::FaultKind::Outage`] episode —
    /// the radio was gone, so the packet never touched the queue or the serializer.
    DroppedOutage,
}

impl DeliveryOutcome {
    /// The arrival time, if the packet was delivered.
    pub fn arrival(&self) -> Option<SimTime> {
        match self {
            DeliveryOutcome::Delivered { arrival, .. } => Some(*arrival),
            _ => None,
        }
    }
}

/// Counters describing everything a link has done so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct LinkCounters {
    /// Packets offered to the link.
    pub offered: u64,
    /// Packets delivered to the far end.
    pub delivered: u64,
    /// Packets dropped at the queue.
    pub dropped_queue: u64,
    /// Packets lost randomly.
    pub lost_random: u64,
    /// Total payload bytes delivered.
    pub delivered_bytes: u64,
    /// Extra packet copies emitted by [`crate::fault::FaultKind::Duplicate`] episodes
    /// (the original delivery is counted in `delivered`; this counts only the ghosts).
    pub duplicated: u64,
    /// Deliveries held back by [`crate::fault::FaultKind::Reorder`] episodes.
    pub reordered: u64,
    /// Packets dropped by [`crate::fault::FaultKind::Outage`] episodes.
    pub outage_drops: u64,
}

impl LinkCounters {
    /// Adds `other` into `self`, counter by counter — per-flow attribution and fleet
    /// rollups. Destructured without `..`: a new counter does not compile until it is
    /// summed here.
    pub fn add(&mut self, other: &LinkCounters) {
        let LinkCounters {
            offered,
            delivered,
            dropped_queue,
            lost_random,
            delivered_bytes,
            duplicated,
            reordered,
            outage_drops,
        } = *other;
        self.offered += offered;
        self.delivered += delivered;
        self.dropped_queue += dropped_queue;
        self.lost_random += lost_random;
        self.delivered_bytes += delivered_bytes;
        self.duplicated += duplicated;
        self.reordered += reordered;
        self.outage_drops += outage_drops;
    }

    /// What the link did since `earlier`, an earlier reading of the same counters.
    pub fn since(&self, earlier: &LinkCounters) -> LinkCounters {
        let LinkCounters {
            offered,
            delivered,
            dropped_queue,
            lost_random,
            delivered_bytes,
            duplicated,
            reordered,
            outage_drops,
        } = *earlier;
        LinkCounters {
            offered: self.offered - offered,
            delivered: self.delivered - delivered,
            dropped_queue: self.dropped_queue - dropped_queue,
            lost_random: self.lost_random - lost_random,
            delivered_bytes: self.delivered_bytes - delivered_bytes,
            duplicated: self.duplicated - duplicated,
            reordered: self.reordered - reordered,
            outage_drops: self.outage_drops - outage_drops,
        }
    }

    /// Fraction of offered packets that did not arrive.
    pub fn loss_fraction(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            1.0 - self.delivered as f64 / self.offered as f64
        }
    }
}

/// A unidirectional link instance.
#[derive(Debug, Clone)]
pub struct Link {
    config: LinkConfig,
    loss: LossProcess,
    jitter_rng: ChaCha8Rng,
    /// Separate stream for fault-episode draws, so adding (or emptying) a fault schedule
    /// never perturbs the loss or jitter sequences of an otherwise-identical link.
    fault_rng: ChaCha8Rng,
    /// Time at which the transmitter finishes serializing everything accepted so far.
    busy_until: SimTime,
    /// Arrival time of a fault-injected duplicate of the most recently delivered packet,
    /// until the caller collects it via [`Link::take_duplicate`].
    pending_duplicate: Option<SimTime>,
    counters: LinkCounters,
}

impl Link {
    /// Creates a link from a configuration and a seed for its random processes.
    pub fn new(config: LinkConfig, seed: u64) -> Self {
        let loss = LossProcess::new(config.loss, seed.wrapping_mul(0x9E37_79B9).wrapping_add(1));
        Self {
            config,
            loss,
            jitter_rng: ChaCha8Rng::seed_from_u64(seed.wrapping_mul(0x85EB_CA6B).wrapping_add(2)),
            fault_rng: ChaCha8Rng::seed_from_u64(seed.wrapping_mul(0xC2B2_AE35).wrapping_add(3)),
            busy_until: SimTime::ZERO,
            pending_duplicate: None,
            counters: LinkCounters::default(),
        }
    }

    /// The link configuration.
    pub fn config(&self) -> &LinkConfig {
        &self.config
    }

    /// Counters accumulated so far.
    pub fn counters(&self) -> LinkCounters {
        self.counters
    }

    /// Current backlog: how long a packet offered at `now` would wait before its first bit
    /// is serialized.
    pub fn backlog(&self, now: SimTime) -> SimDuration {
        self.busy_until - now
    }

    /// Current backlog expressed in bytes at the instantaneous link rate.
    pub fn backlog_bytes(&self, now: SimTime) -> u64 {
        let rate = self.config.bandwidth.rate_at(now);
        (self.backlog(now).as_secs_f64() * rate / 8.0) as u64
    }

    /// Offers a packet to the link at time `now` (which must be ≥ any previously used time).
    ///
    /// Returns where and when the packet ends up. Delivered packets arrive in FIFO order;
    /// the optional jitter is added *after* ordering is decided, so reordering can only be
    /// produced deliberately via large jitter values.
    pub fn send(&mut self, packet: &Packet, now: SimTime) -> DeliveryOutcome {
        self.counters.offered += 1;

        // Fault episodes sit in front of the physical link. An empty schedule costs this
        // one branch and draws nothing — the bit-identity guarantee of fault-free links.
        let fault = if self.config.faults.is_empty() {
            crate::fault::FaultAction::default()
        } else {
            self.config.faults.apply(now, &mut self.fault_rng)
        };
        if fault.drop_outage {
            self.counters.outage_drops += 1;
            return DeliveryOutcome::DroppedOutage;
        }

        // Tail-drop check against the standing queue.
        // Saturating: a backlog left by a slow segment, read at a fast one, is past `u64::MAX`
        // bytes (and past any capacity).
        if self.backlog_bytes(now).saturating_add(packet.size_bytes as u64) > self.config.queue_capacity_bytes
        {
            self.counters.dropped_queue += 1;
            return DeliveryOutcome::DroppedQueueFull;
        }

        let start = self.busy_until.max(now);
        let queueing_delay = start - now;
        let rate = self.config.bandwidth.rate_at(start);
        // Not a time from outside but one the link works out: a cross-traffic packet of
        // gigabytes on a link of a few kbps serializes for longer than `MAX_TIME`, and still
        // takes that long.
        let secs = packet.size_bits() as f64 / rate;
        let ser = SimDuration::try_from_secs_f64(secs)
            .unwrap_or_else(|_| SimDuration::from_micros((secs * 1e6).round() as u64));
        self.busy_until = start + ser;

        // Random loss is decided per packet regardless of outcome ordering so that the loss
        // pattern for a given seed does not depend on queue occupancy. Storm losses apply
        // at the same point: the packet was transmitted (occupied airtime) but corrupted.
        if self.loss.next_is_lost() || fault.drop_storm {
            self.counters.lost_random += 1;
            return DeliveryOutcome::LostRandom;
        }

        let jitter = if self.config.max_jitter == SimDuration::ZERO {
            SimDuration::ZERO
        } else {
            SimDuration::from_micros(self.jitter_rng.gen_range(0..=self.config.max_jitter.as_micros()))
        };
        if fault.reordered {
            self.counters.reordered += 1;
        }
        let arrival = self.busy_until + self.config.propagation_delay + jitter + fault.extra_delay;
        self.counters.delivered += 1;
        self.counters.delivered_bytes += packet.size_bytes as u64;
        if fault.duplicate {
            // The copy follows back to back: one more serialization time behind the
            // original. The caller collects it via `take_duplicate`.
            self.counters.duplicated += 1;
            self.pending_duplicate = Some(arrival + ser);
        }
        DeliveryOutcome::Delivered {
            arrival,
            queueing_delay,
        }
    }

    /// The arrival time of a fault-injected duplicate of the most recently delivered
    /// packet, if a [`crate::fault::FaultKind::Duplicate`] episode fired for it. Collect
    /// after every `send` when faults are configured; uncollected duplicates are simply
    /// replaced by the next one.
    pub fn take_duplicate(&mut self) -> Option<SimTime> {
        self.pending_duplicate.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mbps(m: f64) -> f64 {
        m * 1e6
    }

    #[test]
    fn lone_packet_latency_is_serialization_plus_propagation() {
        // Each link of the paper's §2.2 path is 30 ms one way: a lone 1250-byte packet on the
        // 10 Mbps uplink serializes in 1 ms, a 200-byte feedback packet on the 100 Mbps
        // downlink in 16 µs, and neither waits behind anything.
        let path = PathConfig::paper_section_2_2(0.0);
        for (config, bytes, serialization_us) in [(path.uplink, 1_250, 1_000), (path.downlink, 200, 16)] {
            let mut link = Link::new(config, 1);
            let out = link.send(&Packet::new(0, bytes, SimTime::ZERO), SimTime::ZERO);
            assert_eq!(
                out,
                DeliveryOutcome::Delivered {
                    arrival: SimTime::from_micros(serialization_us + 30_000),
                    queueing_delay: SimDuration::ZERO,
                }
            );
        }
    }

    #[test]
    fn back_to_back_packets_queue_behind_each_other() {
        let mut link = Link::new(LinkConfig::paper_section_2_2(0.0), 1);
        let a = link.send(&Packet::new(0, 1_250, SimTime::ZERO), SimTime::ZERO);
        let b = link.send(&Packet::new(1, 1_250, SimTime::ZERO), SimTime::ZERO);
        assert_eq!(a.arrival().unwrap().as_micros(), 31_000);
        assert_eq!(b.arrival().unwrap().as_micros(), 32_000);
        if let DeliveryOutcome::Delivered { queueing_delay, .. } = b {
            assert_eq!(queueing_delay.as_micros(), 1_000);
        } else {
            panic!("expected delivery");
        }
    }

    #[test]
    fn sustained_overload_fills_queue_and_drops() {
        // Offer 20 Mbps to a 10 Mbps link for 2 seconds: roughly half must be dropped once
        // the 300 ms queue has filled.
        let mut link = Link::new(LinkConfig::paper_section_2_2(0.0), 3);
        let pkt_size = 1_250u32;
        let interval_us = 500; // 1250 B / 0.5 ms = 20 Mbps
        let mut dropped = 0;
        let n = 4_000;
        for i in 0..n {
            let now = SimTime::from_micros(i * interval_us);
            let out = link.send(&Packet::new(i, pkt_size, now), now);
            if out == DeliveryOutcome::DroppedQueueFull {
                dropped += 1;
            }
        }
        let drop_frac = dropped as f64 / n as f64;
        assert!(drop_frac > 0.3 && drop_frac < 0.6, "drop fraction {drop_frac}");
        // Standing queue keeps end-to-end delay near the queue limit (300 ms) for survivors.
        let now = SimTime::from_micros(n * interval_us);
        assert!(link.backlog(now).as_millis_f64() > 250.0);
    }

    /// A serialization past the bound on outside times (4 GiB at 1 kbps, about 400 days) is a
    /// time the link works out, not one it refuses: the packet takes all of it.
    #[test]
    fn a_serialization_past_the_time_bound_runs_its_full_length() {
        let mut cfg = LinkConfig::constant(1_000.0, SimDuration::from_millis(30), 300, LossModel::None);
        cfg.queue_capacity_bytes = u64::MAX;
        let mut link = Link::new(cfg, 1);
        let outcome = link.send(&Packet::new(0, u32::MAX, SimTime::ZERO), SimTime::ZERO);
        let serialization_us = u64::from(u32::MAX) * 8_000;
        assert_eq!(
            outcome.arrival(),
            Some(SimTime::from_micros(serialization_us + 30_000))
        );
    }

    #[test]
    fn a_packet_that_exactly_fills_the_queue_is_delivered_and_one_more_byte_is_dropped() {
        let config = LinkConfig::constant(mbps(1.0), SimDuration::from_millis(10), 100, LossModel::None);
        let capacity = config.queue_capacity_bytes;
        let mut link = Link::new(config, 5);
        let now = SimTime::ZERO;
        // A standing queue first, so the boundary is checked against a non-zero backlog.
        assert!(link.send(&Packet::new(0, 1_250, now), now).arrival().is_some());
        let room = capacity - link.backlog_bytes(now);
        let fill = link.send(&Packet::new(1, room as u32, now), now);
        assert!(
            fill.arrival().is_some(),
            "{room} B bring the backlog to the capacity: {fill:?}"
        );
        let over = capacity - link.backlog_bytes(now) + 1;
        assert_eq!(
            link.send(&Packet::new(2, over as u32, now), now),
            DeliveryOutcome::DroppedQueueFull
        );
    }

    #[test]
    fn below_capacity_no_queue_builds() {
        // 5 Mbps offered to a 10 Mbps link: queueing delay stays ~0.
        let mut link = Link::new(LinkConfig::paper_section_2_2(0.0), 4);
        let interval_us = 2_000; // 1250 B / 2 ms = 5 Mbps
        let mut max_queueing = 0u64;
        for i in 0..5_000u64 {
            let now = SimTime::from_micros(i * interval_us);
            if let DeliveryOutcome::Delivered { queueing_delay, .. } =
                link.send(&Packet::new(i, 1_250, now), now)
            {
                max_queueing = max_queueing.max(queueing_delay.as_micros());
            }
        }
        assert_eq!(max_queueing, 0);
        assert_eq!(link.counters().dropped_queue, 0);
    }

    #[test]
    fn random_loss_rate_is_respected() {
        let mut link = Link::new(LinkConfig::paper_section_2_2(0.05), 5);
        let mut lost = 0;
        let n = 100_000u64;
        for i in 0..n {
            let now = SimTime::from_micros(i * 2_000);
            if link.send(&Packet::new(i, 1_250, now), now) == DeliveryOutcome::LostRandom {
                lost += 1;
            }
        }
        let rate = lost as f64 / n as f64;
        assert!((rate - 0.05).abs() < 0.01, "observed loss {rate}");
        assert!((link.counters().loss_fraction() - 0.05).abs() < 0.01);
    }

    #[test]
    fn jitter_stays_within_bound_and_is_deterministic() {
        let cfg = LinkConfig::constant(mbps(10.0), SimDuration::from_millis(30), 300, LossModel::None)
            .with_jitter(SimDuration::from_millis(10));
        let run = |seed| {
            let mut link = Link::new(cfg.clone(), seed);
            (0..100u64)
                .map(|i| {
                    let now = SimTime::from_micros(i * 5_000);
                    link.send(&Packet::new(i, 1_250, now), now)
                        .arrival()
                        .unwrap()
                        .as_micros()
                })
                .collect::<Vec<_>>()
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a, b);
        for (i, arrival) in a.iter().enumerate() {
            let base = i as u64 * 5_000 + 1_000 + 30_000;
            assert!(*arrival >= base && *arrival <= base + 10_000);
        }
    }

    #[test]
    fn outage_episode_drops_everything_without_touching_the_queue() {
        use crate::fault::FaultSchedule;
        let cfg = LinkConfig {
            faults: FaultSchedule::blackout(SimTime::from_millis(100), SimDuration::from_millis(200)),
            ..LinkConfig::paper_section_2_2(0.0)
        };
        let mut link = Link::new(cfg, 11);
        // Before the outage: delivered.
        let before = link.send(&Packet::new(0, 1_250, SimTime::ZERO), SimTime::ZERO);
        assert!(before.arrival().is_some());
        // During: dropped on the floor, no serialization (backlog unchanged).
        let t = SimTime::from_millis(150);
        let backlog_before = link.backlog(t);
        let during = link.send(&Packet::new(1, 1_250, t), t);
        assert_eq!(during, DeliveryOutcome::DroppedOutage);
        assert_eq!(link.backlog(t), backlog_before);
        // After: delivered again, and the counter recorded exactly one outage drop.
        let t = SimTime::from_millis(300);
        assert!(link.send(&Packet::new(2, 1_250, t), t).arrival().is_some());
        assert_eq!(link.counters().outage_drops, 1);
        assert_eq!(link.counters().delivered, 2);
    }

    #[test]
    fn burst_storm_episode_raises_loss_only_inside_its_window() {
        use crate::fault::{FaultEpisode, FaultKind, FaultSchedule};
        let cfg = LinkConfig {
            faults: FaultSchedule::new(vec![FaultEpisode {
                start: SimTime::from_secs_f64(10.0),
                duration: SimDuration::from_secs_f64(10.0),
                kind: FaultKind::BurstLoss { loss_rate: 0.5 },
            }]),
            ..LinkConfig::constant(mbps(50.0), SimDuration::from_millis(10), 300, LossModel::None)
        };
        let mut link = Link::new(cfg, 13);
        let mut lost_outside = 0u32;
        let mut lost_inside = 0u32;
        for i in 0..30_000u64 {
            let now = SimTime::from_millis(i); // 30 s at 1 packet/ms
            if link.send(&Packet::new(i, 1_250, now), now) == DeliveryOutcome::LostRandom {
                if (10_000..20_000).contains(&now.as_micros().checked_div(1_000).unwrap()) {
                    lost_inside += 1;
                } else {
                    lost_outside += 1;
                }
            }
        }
        assert_eq!(lost_outside, 0, "no loss outside the storm window");
        let inside_rate = lost_inside as f64 / 10_000.0;
        assert!((inside_rate - 0.5).abs() < 0.05, "storm loss {inside_rate}");
    }

    #[test]
    fn rtt_spike_episode_adds_exactly_the_configured_delay() {
        use crate::fault::{FaultEpisode, FaultKind, FaultSchedule};
        let cfg = LinkConfig {
            faults: FaultSchedule::new(vec![FaultEpisode {
                start: SimTime::from_millis(100),
                duration: SimDuration::from_millis(100),
                kind: FaultKind::RttSpike {
                    extra_delay: SimDuration::from_millis(250),
                },
            }]),
            ..LinkConfig::paper_section_2_2(0.0)
        };
        let mut link = Link::new(cfg, 17);
        let base = link
            .send(&Packet::new(0, 1_250, SimTime::ZERO), SimTime::ZERO)
            .arrival()
            .unwrap()
            - SimTime::ZERO;
        let t = SimTime::from_millis(150);
        let spiked = link.send(&Packet::new(1, 1_250, t), t).arrival().unwrap() - t;
        assert_eq!(spiked.as_micros() - base.as_micros(), 250_000);
    }

    #[test]
    fn duplicate_episode_emits_a_back_to_back_copy() {
        use crate::fault::{FaultEpisode, FaultKind, FaultSchedule};
        let cfg = LinkConfig {
            faults: FaultSchedule::new(vec![FaultEpisode {
                start: SimTime::ZERO,
                duration: SimDuration::from_secs_f64(100.0),
                kind: FaultKind::Duplicate { probability: 1.0 },
            }]),
            ..LinkConfig::paper_section_2_2(0.0)
        };
        let mut link = Link::new(cfg, 19);
        let out = link.send(&Packet::new(0, 1_250, SimTime::ZERO), SimTime::ZERO);
        let arrival = out.arrival().unwrap();
        let dup = link.take_duplicate().expect("duplicate stashed");
        // One more 1 ms serialization behind the original.
        assert_eq!(dup.as_micros() - arrival.as_micros(), 1_000);
        assert!(link.take_duplicate().is_none(), "collected exactly once");
        assert_eq!(link.counters().duplicated, 1);
    }

    #[test]
    fn reorder_episode_lets_later_packets_overtake_within_the_bound() {
        use crate::fault::{FaultEpisode, FaultKind, FaultSchedule};
        let max_delay = SimDuration::from_millis(20);
        let cfg = LinkConfig {
            faults: FaultSchedule::new(vec![FaultEpisode {
                start: SimTime::ZERO,
                duration: SimDuration::from_secs_f64(100.0),
                kind: FaultKind::Reorder {
                    probability: 0.3,
                    max_delay,
                },
            }]),
            ..LinkConfig::paper_section_2_2(0.0)
        };
        let mut link = Link::new(cfg, 23);
        let mut arrivals = Vec::new();
        for i in 0..2_000u64 {
            let now = SimTime::from_micros(i * 2_000); // 5 Mbps offered to 10 Mbps: no queue
            arrivals.push(link.send(&Packet::new(i, 1_250, now), now).arrival().unwrap());
        }
        let reordered_pairs = arrivals.windows(2).filter(|w| w[1] < w[0]).count();
        assert!(reordered_pairs > 0, "reorder episode must actually reorder");
        assert!(link.counters().reordered > 0);
        // Bounded: a held packet arrives at most max_delay later than its fault-free time.
        for (i, arrival) in arrivals.iter().enumerate() {
            let base = i as u64 * 2_000 + 1_000 + 30_000;
            assert!(arrival.as_micros() <= base + max_delay.as_micros());
        }
    }

    #[test]
    fn empty_fault_schedule_is_bit_identical_to_the_pre_fault_link() {
        // Same seed, same traffic: a link with an explicit empty schedule must reproduce
        // the exact arrival sequence of one built before fault injection existed (loss and
        // jitter RNG streams untouched).
        let base = LinkConfig::paper_section_2_2(0.03).with_jitter(SimDuration::from_millis(5));
        let with_empty = LinkConfig {
            faults: crate::fault::FaultSchedule::none(),
            ..base.clone()
        };
        let run = |cfg: LinkConfig| {
            let mut link = Link::new(cfg, 29);
            (0..3_000u64)
                .map(|i| {
                    let now = SimTime::from_micros(i * 2_000);
                    link.send(&Packet::new(i, 1_250, now), now)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(base), run(with_empty));
    }
}
