//! A shared bottleneck link contended by multiple flows.
//!
//! Production serving squeezes many tenants (plus background cross-traffic) through one cell
//! or uplink, and an outage there hits everyone at once. [`SharedLink`] models exactly that:
//! it wraps **one** [`Link`] — one serializer, one drop-tail queue, one fault schedule, one
//! set of RNG streams — and attributes every outcome to the flow that offered the packet.
//! It is every session's uplink type: a conversation on its own rides a one-flow link.
//!
//! Determinism note: the inner link is driven in strict chronological send order by the
//! timeline that owns it, so for a given seed the interleaving (and therefore every queueing
//! delay, drop and fault draw) is reproducible bit-for-bit. With a single flow and the same
//! seed, a `SharedLink` is indistinguishable from a private `Link`.

use crate::link::{DeliveryOutcome, Link, LinkConfig, LinkCounters};
use crate::packet::Packet;
use aivc_sim::{SimDuration, SimTime};

/// One bottleneck link multiplexed by `flow_count` flows.
///
/// Flows are dense indices `0..flow_count` assigned by the caller (tenant conversations
/// first, cross-traffic sources after, by convention). Per-flow counters are derived from
/// the inner link's own counters around each send, so totals always reconcile:
/// `flow_counters` summed over all flows equals [`SharedLink::counters`].
#[derive(Debug, Clone)]
pub struct SharedLink {
    link: Link,
    per_flow: Vec<LinkCounters>,
}

impl SharedLink {
    /// Creates a shared link with the given configuration, RNG seed and flow count.
    pub fn new(config: LinkConfig, seed: u64, flow_count: usize) -> Self {
        Self {
            link: Link::new(config, seed),
            per_flow: vec![LinkCounters::default(); flow_count],
        }
    }

    /// The underlying link configuration.
    pub fn config(&self) -> &LinkConfig {
        self.link.config()
    }

    /// Offers a packet on behalf of `flow`. Semantics are identical to [`Link::send`];
    /// the outcome is additionally accounted to the flow's counters.
    pub fn send(&mut self, flow: usize, packet: &Packet, now: SimTime) -> DeliveryOutcome {
        let before = self.link.counters();
        let outcome = self.link.send(packet, now);
        let after = self.link.counters();
        self.per_flow[flow].add(&after.since(&before));
        outcome
    }

    /// See [`Link::take_duplicate`]. Duplicates belong to whichever flow last delivered.
    pub fn take_duplicate(&mut self) -> Option<SimTime> {
        self.link.take_duplicate()
    }

    /// Shared standing-queue delay seen by a packet offered at `now` — the same value for
    /// every flow, which is the whole point of a shared bottleneck.
    pub fn backlog(&self, now: SimTime) -> SimDuration {
        self.link.backlog(now)
    }

    /// Shared backlog in bytes at the instantaneous link rate.
    pub fn backlog_bytes(&self, now: SimTime) -> u64 {
        self.link.backlog_bytes(now)
    }

    /// Aggregate counters across all flows (the inner link's counters).
    pub fn counters(&self) -> LinkCounters {
        self.link.counters()
    }

    /// Counters attributed to one flow.
    pub fn flow_counters(&self, flow: usize) -> LinkCounters {
        self.per_flow[flow]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultSchedule;
    use crate::loss::LossModel;

    fn cfg() -> LinkConfig {
        LinkConfig::constant(10e6, SimDuration::from_millis(30), 300, LossModel::None)
    }

    fn sum(link: &SharedLink) -> LinkCounters {
        let mut total = LinkCounters::default();
        for f in 0..link.per_flow.len() {
            total.add(&link.flow_counters(f));
        }
        total
    }

    #[test]
    fn flows_share_one_fifo_queue() {
        let mut link = SharedLink::new(cfg(), 1, 2);
        // Two packets at the same instant from different flows: the second queues behind
        // the first exactly as if one sender had sent both.
        let a = link.send(0, &Packet::new(0, 1_250, SimTime::ZERO), SimTime::ZERO);
        let b = link.send(1, &Packet::new(1, 1_250, SimTime::ZERO), SimTime::ZERO);
        assert_eq!(a.arrival().unwrap().as_micros(), 31_000);
        assert_eq!(b.arrival().unwrap().as_micros(), 32_000);
        if let DeliveryOutcome::Delivered { queueing_delay, .. } = b {
            assert_eq!(queueing_delay.as_micros(), 1_000);
        } else {
            panic!("expected delivery");
        }
    }

    #[test]
    fn per_flow_counters_reconcile_with_totals() {
        let mut link = SharedLink::new(
            LinkConfig::constant(
                5e6,
                SimDuration::from_millis(20),
                100,
                LossModel::Iid { rate: 0.05 },
            ),
            7,
            3,
        );
        for i in 0..3_000u64 {
            let now = SimTime::from_micros(i * 400); // heavy enough to hit tail drops
            link.send((i % 3) as usize, &Packet::new(i, 1_250, now), now);
        }
        let total = link.counters();
        assert_eq!(sum(&link), total);
        assert!(total.dropped_queue > 0, "overload must tail-drop");
        assert!(total.lost_random > 0, "loss process must fire");
    }

    #[test]
    fn outage_drops_are_attributed_to_the_sending_flow() {
        let cfg = LinkConfig {
            faults: FaultSchedule::blackout(SimTime::from_millis(100), SimDuration::from_millis(200)),
            ..cfg()
        };
        let mut link = SharedLink::new(cfg, 11, 2);
        let t = SimTime::from_millis(150);
        assert_eq!(
            link.send(1, &Packet::new(0, 1_250, t), t),
            DeliveryOutcome::DroppedOutage
        );
        assert_eq!(link.flow_counters(1).outage_drops, 1);
        assert_eq!(link.flow_counters(0).outage_drops, 0);
        assert_eq!(link.counters().outage_drops, 1);
    }

    #[test]
    fn single_flow_matches_a_private_link_bit_for_bit() {
        let cfg = LinkConfig::paper_section_2_2(0.03).with_jitter(SimDuration::from_millis(5));
        let mut private = Link::new(cfg.clone(), 29);
        let mut shared = SharedLink::new(cfg, 29, 1);
        for i in 0..3_000u64 {
            let now = SimTime::from_micros(i * 2_000);
            let p = Packet::new(i, 1_250, now);
            assert_eq!(private.send(&p, now), shared.send(0, &p, now));
        }
        assert_eq!(private.counters(), shared.counters());
        assert_eq!(private.counters(), shared.flow_counters(0));
    }

    #[test]
    fn interleaving_is_deterministic() {
        let run = || {
            let mut link = SharedLink::new(LinkConfig::paper_section_2_2(0.02), 17, 4);
            (0..2_000u64)
                .map(|i| {
                    let now = SimTime::from_micros(i * 700);
                    link.send((i % 4) as usize, &Packet::new(i, 1_000, now), now)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
