//! Receiver-driven NACK generation and sender-side retransmission queueing.
//!
//! The receiver detects sequence-number gaps, waits a short reordering guard, then requests
//! the missing packets; the sender keeps recently sent packets around and re-enqueues them
//! on request. Retransmission is the mechanism whose extra round trips make per-frame
//! latency grow with packet count — the §2.2 effect that motivates ultra-low bitrate.

use crate::rtp::RtpPacket;
use crate::seq_ring::{SeqBitset, SeqRing};
use aivc_sim::{SimDuration, SimTime};
use serde::Serialize;

/// Minimum spacing between successive NACKs for the same sequence number — and therefore
/// the cadence a receiver re-polls [`NackGenerator::due_nacks_into`] at while gaps remain.
pub const RETRY_INTERVAL: SimDuration = SimDuration::from_millis(70);

/// How many times one sequence number is NACKed before the receiver gives up on it.
pub const MAX_RETRIES: u32 = 4;

/// Configuration of the receiver's NACK generator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct NackConfig {
    /// How long to wait after detecting a gap before requesting it (reordering guard).
    pub reorder_guard: SimDuration,
}

impl Default for NackConfig {
    fn default() -> Self {
        Self {
            reorder_guard: SimDuration::from_millis(5),
        }
    }
}

/// One pending missing-sequence record.
#[derive(Debug, Clone, Copy)]
struct PendingNack {
    detected_at: SimTime,
    last_sent: Option<SimTime>,
    retries: u32,
    /// The conversational deadline in force when the gap was detected: a retransmission
    /// that cannot arrive before it is pointless (the frame's answer is already due), so
    /// [`NackGenerator::due_nacks_into`] drops the request instead of sending it.
    deadline: Option<SimTime>,
}

/// Receiver-side NACK generator.
#[derive(Debug, Clone)]
pub struct NackGenerator {
    config: NackConfig,
    highest_seen: Option<u64>,
    /// Missing sequences, ascending. Gaps are detected in ascending order, so detection
    /// appends, and the buffer is kept across turns: a conversation that loses a packet
    /// now and then never allocates for it again.
    pending: Vec<(u64, PendingNack)>,
    /// Receive history as a bitset ring: one bit per sequence, no per-arrival node
    /// allocations, retired wholesale at turn bounds.
    received: SeqBitset,
    /// Deadline stamped into newly detected gaps (None = no deadline awareness).
    deadline: Option<SimTime>,
    /// Expected NACK → retransmission arrival delay (feedback downlink + pacing + uplink),
    /// used to decide whether a request can still beat the deadline.
    recovery_estimate: SimDuration,
    nacks_suppressed: u64,
    /// Arrivals whose sequence fell below the retirement bound (a retransmission or
    /// straggler landing after its turn's frames were retired) — dropped, counted.
    late_drops: u64,
    /// Exact retirement bound from [`NackGenerator::forget_below`]. Tracked here because
    /// the receive-history bitset retires whole 64-bit words, so its own base can trail
    /// the requested bound by up to 63 sequences — a straggler in that trailing window
    /// must still be dropped, not re-admitted as a fresh arrival.
    retire_bound: u64,
}

impl NackGenerator {
    /// Creates a generator.
    pub fn new(config: NackConfig) -> Self {
        Self {
            config,
            highest_seen: None,
            pending: Vec::new(),
            received: SeqBitset::new(),
            deadline: None,
            recovery_estimate: SimDuration::ZERO,
            nacks_suppressed: 0,
            late_drops: 0,
            retire_bound: 0,
        }
    }

    /// Arms deadline-aware suppression: gaps detected from now on carry `deadline`, and
    /// [`NackGenerator::due_nacks_into`] drops (never requests) a sequence whose retransmission
    /// — expected `recovery_estimate` after the request — would land past its deadline.
    /// Such a retransmit is wasted uplink that competes with the next frame's media
    /// (the §1 300 ms conversational budget). `None` disables suppression for gaps
    /// detected afterwards; already-stamped gaps keep their deadline.
    ///
    /// A turn runner calls this at each turn start with the turn's answer deadline, so in
    /// a multi-turn conversation a gap is always judged against the deadline of the turn
    /// whose media it interrupted, not whatever turn is current when the retry fires.
    pub fn set_deadline(&mut self, deadline: Option<SimTime>, recovery_estimate: SimDuration) {
        self.deadline = deadline;
        self.recovery_estimate = recovery_estimate;
    }

    /// NACK requests dropped because their retransmission could not have met the deadline.
    pub fn nacks_suppressed(&self) -> u64 {
        self.nacks_suppressed
    }

    /// Records the arrival of a media/RTX/FEC packet, detecting new gaps. An arrival
    /// below the retirement bound ([`NackGenerator::forget_below`]) — a straggler or
    /// retransmission whose turn already concluded — is dropped and counted, never
    /// re-admitted to history (its RTX store entry is gone; re-detecting it as a gap or
    /// underflowing the ring would both be bugs).
    pub fn on_packet(&mut self, sequence: u64, now: SimTime) {
        if sequence < self.retire_bound {
            self.late_drops += 1;
            return;
        }
        if !self.received.insert(sequence) {
            // Duplicate above the bound (original + retransmission both landed): already
            // in history, nothing to drop or detect.
            return;
        }
        if let Ok(at) = self.pending.binary_search_by_key(&sequence, |&(seq, _)| seq) {
            self.pending.remove(at);
        }
        match self.highest_seen {
            None => self.highest_seen = Some(sequence),
            Some(h) if sequence > h => {
                // Everything between h+1 and sequence-1 is now known missing — all of it
                // above every sequence recorded so far, so appending keeps the order.
                debug_assert!(self.pending.last().is_none_or(|&(seq, _)| seq <= h));
                for missing in (h + 1)..sequence {
                    if !self.received.contains(missing) {
                        self.pending.push((
                            missing,
                            PendingNack {
                                detected_at: now,
                                last_sent: None,
                                retries: 0,
                                deadline: self.deadline,
                            },
                        ));
                    }
                }
                self.highest_seen = Some(sequence);
            }
            _ => {}
        }
    }

    /// Appends the sequences that should be NACKed at `now` to `due`, in ascending order.
    /// Each appended sequence's retry state is updated, so calling this repeatedly paces
    /// retries at [`RETRY_INTERVAL`]. Nothing else is allocated: exhausted and
    /// deadline-hopeless records are dropped in the same in-order pass. The steady-state
    /// poll path reuses one pooled buffer per feedback packet through this.
    pub fn due_nacks_into(&mut self, now: SimTime, due: &mut Vec<u64>) {
        let mut suppressed = 0u64;
        let NackConfig { reorder_guard } = self.config;
        let recovery_estimate = self.recovery_estimate;
        self.pending.retain_mut(|(seq, state)| {
            if state.retries >= MAX_RETRIES {
                return false;
            }
            // Deadline cutoff: if the retransmission would arrive after the gap's
            // conversational deadline, the request is wasted uplink — drop the record.
            if let Some(deadline) = state.deadline {
                if now + recovery_estimate > deadline {
                    suppressed += 1;
                    return false;
                }
            }
            let guard_passed = now >= state.detected_at + reorder_guard;
            let retry_ok = match state.last_sent {
                None => true,
                Some(last) => now >= last + RETRY_INTERVAL,
            };
            if guard_passed && retry_ok {
                state.last_sent = Some(now);
                state.retries += 1;
                due.push(*seq);
            }
            true
        });
        self.nacks_suppressed += suppressed;
    }

    /// Drops receive and pending history below `seq` — the history bound a long-lived
    /// conversation applies when a turn's frames are retired. Pending entries below the
    /// bound belong to frames whose answer already shipped, so requesting them would be
    /// wasted uplink.
    ///
    /// `highest_seen` is advanced to the bound as well: a retired sequence that never
    /// arrived must not be re-detected as a gap by the next turn's first arrival (its
    /// retransmission store entry is purged at the same bound, so a NACK for it could
    /// never be answered).
    pub fn forget_below(&mut self, seq: u64) {
        self.retire_bound = self.retire_bound.max(seq);
        self.received.forget_below(seq);
        let retired = self.pending.partition_point(|&(pending, _)| pending < seq);
        self.pending.drain(..retired);
        if let Some(floor) = seq.checked_sub(1) {
            self.highest_seen = Some(self.highest_seen.map_or(floor, |h| h.max(floor)));
        }
    }

    /// Number of sequences currently believed missing.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Arrivals dropped because their sequence was already retired.
    pub fn late_drops(&self) -> u64 {
        self.late_drops
    }
}

/// Sender-side retransmission store: a sequence-indexed ring ([`SeqRing`]) — packets are
/// remembered in allocation order and retired as a prefix, so the warm steady state of a
/// conversation stores and forgets without touching the heap.
#[derive(Debug, Clone, Default)]
pub struct RtxQueue {
    sent: SeqRing<RtpPacket>,
    retransmissions: u64,
}

impl RtxQueue {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Remembers a sent media packet so it can be retransmitted later. Returns `false`
    /// (without storing) when the sequence is already below the retirement bound — by
    /// then a NACK for it can no longer be answered, so there is nothing to remember.
    pub fn remember(&mut self, packet: &RtpPacket) -> bool {
        self.sent.insert(packet.header.sequence, *packet)
    }

    /// The retransmission copy of the NACKed sequence `seq`, with a fresh sequence number
    /// from `alloc_seq`, counted in [`RtxQueue::retransmissions`]; `None` when `seq` is not
    /// stored, in which case `alloc_seq` is never called.
    pub fn retransmit_one(&mut self, seq: u64, alloc_seq: impl FnOnce() -> u64) -> Option<RtpPacket> {
        let original = self.sent.get(seq)?;
        self.retransmissions += 1;
        Some(original.as_retransmission(alloc_seq()))
    }

    /// Drops state for packets older than `before_seq` (history bound).
    pub fn forget_before(&mut self, before_seq: u64) {
        self.sent.forget_below(before_seq);
    }

    /// Number of retransmissions produced so far.
    pub fn retransmissions(&self) -> u64 {
        self.retransmissions
    }

    /// Number of packets currently stored.
    pub fn stored(&self) -> usize {
        self.sent.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packetizer::{OutgoingFrame, Packetizer};

    /// The sequences `g` NACKs at `now`.
    fn nacks_at(g: &mut NackGenerator, now: SimTime) -> Vec<u64> {
        let mut due = Vec::new();
        g.due_nacks_into(now, &mut due);
        due
    }

    /// The media packets of a frame of `size_bytes`, numbered on from `packetizer`'s state.
    fn packetize(packetizer: &mut Packetizer, frame_id: u64, size_bytes: u64) -> Vec<RtpPacket> {
        let frame = OutgoingFrame {
            frame_id,
            capture_ts_us: 0,
            size_bytes,
            is_keyframe: false,
        };
        let mut packets = Vec::new();
        packetizer.packetize_into(&frame, &mut packets);
        packets
    }

    #[test]
    fn gap_detection_and_guard() {
        let mut g = NackGenerator::new(NackConfig::default());
        g.on_packet(0, SimTime::from_millis(0));
        g.on_packet(1, SimTime::from_millis(1));
        g.on_packet(4, SimTime::from_millis(2)); // 2 and 3 missing
        assert_eq!(g.pending_count(), 2);
        // Before the reorder guard nothing is due.
        assert!(nacks_at(&mut g, SimTime::from_millis(3)).is_empty());
        // After the guard both are due.
        assert_eq!(nacks_at(&mut g, SimTime::from_millis(8)), vec![2, 3]);
        // Immediately after, nothing new is due (retry interval).
        assert!(nacks_at(&mut g, SimTime::from_millis(9)).is_empty());
    }

    #[test]
    fn late_arrival_cancels_pending_nack() {
        let mut g = NackGenerator::new(NackConfig::default());
        g.on_packet(0, SimTime::from_millis(0));
        g.on_packet(2, SimTime::from_millis(1));
        assert_eq!(g.pending_count(), 1);
        g.on_packet(1, SimTime::from_millis(3)); // reordered, not lost
        assert_eq!(g.pending_count(), 0);
        assert!(nacks_at(&mut g, SimTime::from_millis(20)).is_empty());
    }

    #[test]
    fn retries_are_paced_and_bounded() {
        let mut g = NackGenerator::new(NackConfig::default());
        g.on_packet(0, SimTime::ZERO);
        g.on_packet(2, SimTime::ZERO);
        // One request per RETRY_INTERVAL (70 ms) once the guard has passed, never sooner.
        for round in 0..u64::from(MAX_RETRIES) {
            let t = 10 + round * 80;
            assert_eq!(
                nacks_at(&mut g, SimTime::from_millis(t)),
                vec![1],
                "round {round}"
            );
            assert!(nacks_at(&mut g, SimTime::from_millis(t + 69)).is_empty());
        }
        // Exhausted after MAX_RETRIES: the record is dropped, nothing resurfaces.
        assert!(nacks_at(&mut g, SimTime::from_millis(1_000)).is_empty());
        assert_eq!(g.pending_count(), 0);
    }

    #[test]
    fn deadline_suppression_drops_hopeless_requests() {
        let mut g = NackGenerator::new(NackConfig::default());
        // 60 ms expected NACK→RTX delay, answer due at t = 100 ms.
        g.set_deadline(Some(SimTime::from_millis(100)), SimDuration::from_millis(60));
        g.on_packet(0, SimTime::from_millis(0));
        g.on_packet(2, SimTime::from_millis(10)); // seq 1 missing
                                                  // At t = 20 ms the RTX would land at ~80 ms — still inside the deadline: requested.
        assert_eq!(nacks_at(&mut g, SimTime::from_millis(20)), vec![1]);
        // A second gap appears late in the window.
        g.on_packet(4, SimTime::from_millis(70)); // seq 3 missing
                                                  // At t = 90 ms any RTX lands at ~150 ms, past the deadline: both the retry of 1 and
                                                  // the first request of 3 are suppressed, and the records are dropped entirely.
        assert!(nacks_at(&mut g, SimTime::from_millis(90)).is_empty());
        assert_eq!(g.pending_count(), 0);
        assert_eq!(g.nacks_suppressed(), 2);
        // Nothing resurfaces later.
        assert!(nacks_at(&mut g, SimTime::from_millis(200)).is_empty());
    }

    #[test]
    fn a_request_whose_retransmission_lands_at_the_deadline_is_still_made() {
        // A turn concludes after every event of its deadline instant, so a retransmission
        // landing exactly at the deadline still counts: only one landing later is hopeless.
        let deadline = SimTime::from_millis(100);
        let request_at = |now| {
            let mut g = NackGenerator::new(NackConfig::default());
            g.set_deadline(Some(deadline), SimDuration::from_millis(60));
            g.on_packet(0, SimTime::ZERO);
            g.on_packet(2, SimTime::from_millis(10)); // seq 1 missing
            (nacks_at(&mut g, now), g.nacks_suppressed())
        };
        assert_eq!(request_at(SimTime::from_millis(40)), (vec![1], 0));
        assert_eq!(request_at(SimTime::from_micros(40_001)), (vec![], 1));
    }

    #[test]
    fn deadline_is_stamped_at_detection_time() {
        let mut g = NackGenerator::new(NackConfig::default());
        g.set_deadline(Some(SimTime::from_millis(50)), SimDuration::from_millis(30));
        g.on_packet(0, SimTime::from_millis(0));
        g.on_packet(2, SimTime::from_millis(5)); // gap stamped with the 50 ms deadline
                                                 // A new turn begins: a later deadline is armed, but the old gap keeps its own.
        g.set_deadline(Some(SimTime::from_millis(500)), SimDuration::from_millis(30));
        assert!(
            nacks_at(&mut g, SimTime::from_millis(40)).is_empty(),
            "RTX at ~70 ms cannot beat the 50 ms deadline stamped at detection"
        );
        assert_eq!(g.nacks_suppressed(), 1);
        // Gaps detected under the new deadline behave normally.
        g.on_packet(5, SimTime::from_millis(60));
        assert_eq!(nacks_at(&mut g, SimTime::from_millis(70)), vec![3, 4]);
    }

    #[test]
    fn no_deadline_means_no_suppression() {
        let mut g = NackGenerator::new(NackConfig::default());
        g.on_packet(0, SimTime::from_millis(0));
        g.on_packet(2, SimTime::from_millis(1));
        // Even absurdly late, the request is still made (legacy behaviour).
        assert_eq!(nacks_at(&mut g, SimTime::from_millis(10_000)), vec![1]);
        assert_eq!(g.nacks_suppressed(), 0);
    }

    #[test]
    fn forget_below_bounds_history_without_false_gaps() {
        let mut g = NackGenerator::new(NackConfig::default());
        for seq in 0..100u64 {
            g.on_packet(seq, SimTime::from_millis(seq));
        }
        g.on_packet(101, SimTime::from_millis(101)); // seq 100 missing
        g.forget_below(90);
        assert_eq!(g.pending_count(), 1, "the live gap survives the bound");
        // New arrivals above the bound do not re-detect forgotten sequences.
        g.on_packet(102, SimTime::from_millis(102));
        assert_eq!(g.pending_count(), 1);
        g.forget_below(101);
        assert_eq!(g.pending_count(), 0, "gaps of retired frames are dropped");
    }

    #[test]
    fn forget_below_never_redetects_retired_lost_sequences() {
        // Turn k's tail (seqs 102..=105) is lost outright: highest_seen stays at 101.
        let mut g = NackGenerator::new(NackConfig::default());
        for seq in 0..=101u64 {
            g.on_packet(seq, SimTime::from_millis(seq));
        }
        // The turn is retired at the allocator bound (next fresh sequence = 106).
        g.forget_below(106);
        assert_eq!(g.pending_count(), 0);
        // Turn k+1's first arrival must not resurrect 102..=105 as gaps — their RTX
        // store entries were purged at the same bound, so NACKing them is pure waste.
        g.on_packet(106, SimTime::from_millis(200));
        g.on_packet(107, SimTime::from_millis(201));
        assert_eq!(g.pending_count(), 0, "retired lost sequences were re-detected");
        assert!(nacks_at(&mut g, SimTime::from_millis(400)).is_empty());
        // Genuinely new gaps above the bound still work.
        g.on_packet(109, SimTime::from_millis(202));
        assert_eq!(g.pending_count(), 1);
    }

    #[test]
    fn retired_then_late_arrival_is_counted_not_panicking() {
        let mut g = NackGenerator::new(NackConfig::default());
        for seq in 0..=50u64 {
            g.on_packet(seq, SimTime::from_millis(seq));
        }
        g.forget_below(40);
        assert_eq!(g.late_drops(), 0);
        // A straggler RTX for a retired sequence lands after the bound moved.
        g.on_packet(10, SimTime::from_millis(60));
        g.on_packet(39, SimTime::from_millis(61));
        assert_eq!(g.late_drops(), 2);
        // The drop leaves gap state untouched: no pending entries appear.
        assert_eq!(g.pending_count(), 0);
        // At-the-bound and above-the-bound arrivals are still admitted.
        g.on_packet(40, SimTime::from_millis(62));
        g.on_packet(51, SimTime::from_millis(63));
        assert_eq!(g.late_drops(), 2);
    }

    #[test]
    fn rtx_remember_rejects_retired_sequences() {
        let packets = packetize(&mut Packetizer::default(), 1, 4_000);
        let mut rtx = RtxQueue::new();
        for p in &packets {
            assert!(rtx.remember(p));
        }
        rtx.forget_before(packets.last().unwrap().header.sequence + 1);
        assert!(!rtx.remember(&packets[0]), "retired sequence must be rejected");
        assert_eq!(rtx.stored(), 0);
    }

    #[test]
    fn rtx_queue_produces_copies_for_known_sequences() {
        let packets = packetize(&mut Packetizer::default(), 1, 4_000);
        let mut rtx = RtxQueue::new();
        for p in &packets {
            assert!(rtx.remember(p));
        }
        let mut next = 1_000u64;
        let out: Vec<RtpPacket> = [1, 2, 999]
            .into_iter()
            .filter_map(|seq| {
                rtx.retransmit_one(seq, || {
                    next += 1;
                    next
                })
            })
            .collect();
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|p| p.header.sequence > 1_000));
        assert_eq!(rtx.retransmissions(), 2);
        assert_eq!(out[0], packets[1].as_retransmission(out[0].header.sequence));
    }

    #[test]
    fn forget_before_bounds_history() {
        let mut rtx = RtxQueue::new();
        let mut packetizer = Packetizer::default();
        for f in 0..10u64 {
            for p in packetize(&mut packetizer, f, 2_000) {
                assert!(rtx.remember(&p));
            }
        }
        let before = rtx.stored();
        rtx.forget_before(10);
        assert!(rtx.stored() < before);
    }
}
