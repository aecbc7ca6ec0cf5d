//! Property + unit tests of the loss-recovery machinery the networked chat turns lean on:
//! XOR FEC (any single loss inside a protection group is recoverable without a round trip)
//! and receiver-driven NACK (never re-request what arrived, never exceed the retry budget).

use aivchat::netsim::SimTime;
use aivchat::rtc::fec::{group_of_index, FecConfig, FecEncoder, FecRecovery};
use aivchat::rtc::nack::{NackConfig, NackGenerator, RtxQueue, MAX_RETRIES};
use aivchat::rtc::packetizer::{OutgoingFrame, Packetizer};
use aivchat::rtc::RtpPacket;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;

/// The sequences `gen` NACKs at `now`.
fn nacks_at(gen: &mut NackGenerator, now: SimTime) -> Vec<u64> {
    let mut due = Vec::new();
    gen.due_nacks_into(now, &mut due);
    due
}

/// The media packets of a fresh packetizer's first frame, `size_bytes` long.
fn packetize(size_bytes: u64) -> Vec<RtpPacket> {
    let frame = OutgoingFrame {
        frame_id: 1,
        capture_ts_us: 0,
        size_bytes,
        is_keyframe: false,
    };
    let mut packets = Vec::new();
    Packetizer::default().packetize_into(&frame, &mut packets);
    packets
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any single media-packet loss inside any FEC group of any frame is recoverable once
    /// the group's parity packet arrives — and only that packet is reported recoverable.
    #[test]
    fn any_single_loss_in_a_group_is_recoverable(
        group_size in 1u32..=8,
        packet_count in 1usize..=40,
        lost_seed in 0u64..1_000,
        frame_id in 0u64..100,
    ) {
        let lost_idx = (lost_seed as usize) % packet_count;
        let group_of = |i| group_of_index(group_size, i).unwrap();
        let mut recovery = FecRecovery::new();
        for i in 0..packet_count {
            recovery.expect_media(frame_id, group_of(i), i);
        }
        for i in 0..packet_count {
            if i != lost_idx {
                recovery.on_media(frame_id, group_of(i), i);
            }
        }
        let lost_group = group_of(lost_idx);
        // Before parity arrives nothing is recoverable.
        prop_assert_eq!(recovery.recoverable(frame_id, lost_group).next(), None);
        let groups = packet_count.div_ceil(group_size as usize) as u32;
        for g in 0..groups {
            recovery.on_parity(frame_id, g);
        }
        // Exactly the lost packet is recoverable, in exactly its group.
        for g in 0..groups {
            let recoverable: Vec<usize> = recovery.recoverable(frame_id, g).collect();
            if g == lost_group {
                prop_assert_eq!(recoverable, vec![lost_idx]);
            } else {
                prop_assert!(recoverable.is_empty(), "group {g} should have nothing to recover");
            }
        }
    }

    /// Two losses inside the same group defeat XOR parity: nothing is recoverable there.
    #[test]
    fn double_loss_in_a_group_is_not_recoverable(
        group_size in 2u32..=8,
        groups in 1usize..=5,
        pick in 0u64..1_000,
    ) {
        let packet_count = groups * group_size as usize;
        let group_of = |i| group_of_index(group_size, i).unwrap();
        // Two distinct losses inside the same (arbitrary) group.
        let target_group = (pick as usize) % groups;
        let base = target_group * group_size as usize;
        let lost_a = base + (pick as usize / 7) % group_size as usize;
        let mut lost_b = base + (pick as usize / 13) % group_size as usize;
        if lost_b == lost_a {
            lost_b = base + (lost_a - base + 1) % group_size as usize;
        }
        let mut recovery = FecRecovery::new();
        for i in 0..packet_count {
            recovery.expect_media(7, group_of(i), i);
            if i != lost_a && i != lost_b {
                recovery.on_media(7, group_of(i), i);
            }
        }
        recovery.on_parity(7, target_group as u32);
        prop_assert_eq!(recovery.recoverable(7, target_group as u32).next(), None);
    }

    /// The FEC encoder emits exactly `ceil(packets / group_size)` parity packets, one per
    /// group, each numbered by `group_of_index` of the group's media packets.
    #[test]
    fn parity_packet_count_matches_group_structure(
        group_size in 1u32..=10,
        size_bytes in 200u64..60_000,
    ) {
        let media = packetize(size_bytes);
        let encoder = FecEncoder::new(FecConfig::with_group_size(group_size));
        let mut seq = 1_000u64;
        let mut parity = Vec::new();
        encoder.protect_into(&media, || { seq += 1; seq }, &mut parity);
        prop_assert_eq!(parity.len(), media.len().div_ceil(group_size as usize));
        for i in 0..media.len() {
            prop_assert_eq!(parity[i / group_size as usize].fec_group, group_of_index(group_size, i));
        }
    }

    /// Whatever the arrival/loss/reordering pattern, the NACK generator (a) never requests
    /// a sequence that has already arrived, (b) never requests any sequence more than
    /// [`MAX_RETRIES`] times, and (c) eventually stops requesting everything.
    #[test]
    fn nack_generator_never_rerequests_acked_and_respects_budget(
        seed in 0u64..10_000,
        stream_len in 2u64..120,
        loss_percent in 0u32..60,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut gen = NackGenerator::new(NackConfig::default());
        let mut received: BTreeSet<u64> = BTreeSet::new();
        let mut request_counts: std::collections::BTreeMap<u64, u32> = std::collections::BTreeMap::new();
        let mut now_ms = 0u64;
        for seq in 0..stream_len {
            now_ms += rng.gen_range(1..10);
            let now = SimTime::from_millis(now_ms);
            if rng.gen_range(0..100) < loss_percent {
                continue; // this sequence never arrives (until maybe reordered in below)
            }
            gen.on_packet(seq, now);
            received.insert(seq);
            // Occasionally a "late" (reordered) earlier packet arrives too.
            if rng.gen_bool(0.2) && seq > 2 {
                let late = rng.gen_range(0..seq);
                gen.on_packet(late, now);
                received.insert(late);
            }
            // Poll for due NACKs at irregular intervals.
            if rng.gen_bool(0.5) {
                now_ms += rng.gen_range(0..200);
                for due in nacks_at(&mut gen, SimTime::from_millis(now_ms)) {
                    prop_assert!(!received.contains(&due), "re-requested acked seq {due}");
                    *request_counts.entry(due).or_default() += 1;
                }
            }
        }
        // Drain the generator far past every guard/retry interval.
        for round in 0..(u64::from(MAX_RETRIES) + 3) {
            now_ms += 500 + round;
            for due in nacks_at(&mut gen, SimTime::from_millis(now_ms)) {
                prop_assert!(!received.contains(&due));
                *request_counts.entry(due).or_default() += 1;
            }
        }
        for (&seq, &count) in &request_counts {
            prop_assert!(count <= MAX_RETRIES, "seq {seq} requested {count} > {MAX_RETRIES} times");
        }
        // Budget exhausted: nothing left pending, nothing more requested.
        prop_assert_eq!(gen.pending_count(), 0);
        prop_assert!(nacks_at(&mut gen, SimTime::from_millis(now_ms + 10_000)).is_empty());
    }

    /// The retransmission store only ever produces copies of sequences it actually holds,
    /// with fresh sequence numbers, and counts them correctly.
    #[test]
    fn rtx_store_retransmits_only_known_sequences(
        size_bytes in 1_000u64..40_000,
        unknown in 500u64..1_000,
    ) {
        let packets = packetize(size_bytes);
        let mut rtx = RtxQueue::new();
        for p in &packets {
            rtx.remember(p);
        }
        let known = packets[0].header.sequence;
        let mut next = 10_000u64;
        let out: Vec<RtpPacket> = [known, unknown]
            .into_iter()
            .filter_map(|seq| rtx.retransmit_one(seq, || { next += 1; next }))
            .collect();
        prop_assert_eq!(out.len(), 1);
        prop_assert!(out[0].header.sequence > 10_000);
        prop_assert_eq!(out[0], packets[0].as_retransmission(out[0].header.sequence));
        prop_assert_eq!(rtx.retransmissions(), 1);
    }
}

/// An acked-then-lost boundary case the property above can miss: the very first packet
/// arrives, is later NACK-tracked via a gap, then arrives late — it must never be
/// re-requested afterwards.
#[test]
fn late_arrival_permanently_cancels_the_nack() {
    let mut gen = NackGenerator::new(NackConfig::default());
    gen.on_packet(0, SimTime::from_millis(0));
    gen.on_packet(3, SimTime::from_millis(1)); // 1 and 2 missing
    assert_eq!(gen.pending_count(), 2);
    gen.on_packet(1, SimTime::from_millis(2)); // reordered arrival
    let due = nacks_at(&mut gen, SimTime::from_millis(100));
    assert_eq!(due, vec![2]);
    gen.on_packet(2, SimTime::from_millis(101)); // retransmission lands
                                                 // Far in the future, nothing is ever requested again.
    assert!(nacks_at(&mut gen, SimTime::from_millis(10_000)).is_empty());
    assert_eq!(gen.pending_count(), 0);
}
