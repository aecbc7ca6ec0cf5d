//! XOR forward error correction.
//!
//! WebRTC's FlexFEC-style protection: for every group of `k` media packets of a frame, one
//! parity packet is appended that is the XOR of the group. If exactly one packet of the
//! group is lost, the receiver recovers it without waiting a retransmission round trip —
//! trading uplink bitrate (overhead `1/k`) for latency. The FEC-vs-RTX ablation uses this
//! module to show when that trade is worth it in the AI Video Chat regime.

use crate::rtp::{PayloadKind, RtpHeader, RtpPacket};
use serde::Serialize;
use std::collections::VecDeque;

/// FEC configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct FecConfig {
    /// Number of media packets protected by one parity packet. 0 disables FEC.
    pub group_size: u32,
}

impl FecConfig {
    /// FEC disabled.
    pub fn disabled() -> Self {
        Self { group_size: 0 }
    }

    /// One parity packet per `group_size` media packets.
    pub fn with_group_size(group_size: u32) -> Self {
        Self { group_size }
    }

    /// Whether FEC is enabled.
    pub fn is_enabled(&self) -> bool {
        self.group_size > 0
    }
}

/// Smallest adaptive parity group (heaviest protection, overhead 1/2).
const MIN_GROUP_SIZE: u32 = 2;
/// Largest adaptive parity group (leanest protection, overhead 1/12).
const MAX_GROUP_SIZE: u32 = 12;
/// Overhead headroom over the raw loss estimate: protect three times the observed loss.
const SAFETY_FACTOR: f64 = 3.0;

/// Adaptive FEC sizing: drives the parity group size from the congestion controller's
/// live loss estimate instead of a fixed configuration.
///
/// The target parity overhead is `loss_estimate × 3` (protect a bit more than the observed
/// loss), converted to a group size `k = round(1 / overhead)` and clamped to `[2, 12]` —
/// small groups (more parity) under heavy loss, large groups (lean parity) on clean links.
/// Disabled by default: the static [`FecConfig::group_size`] keeps ruling, preserving
/// existing behaviour bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct AdaptiveFecConfig {
    /// Master switch; `false` (default) keeps the static group size.
    pub enabled: bool,
}

impl AdaptiveFecConfig {
    /// Adaptation off: the static [`FecConfig`] group size stays in force.
    pub fn disabled() -> Self {
        Self { enabled: false }
    }

    /// The group size to protect the next frame with, given the live smoothed loss
    /// estimate; `fallback` (the static configured size) is returned when adaptation is
    /// off. An adapted size is always within `[2, 12]`, so the parity overhead `1/k` is
    /// bounded and the media budget shave stays bounded too.
    pub fn group_for_loss(&self, loss_estimate: f64, fallback: u32) -> u32 {
        if !self.enabled {
            return fallback;
        }
        let overhead = (loss_estimate.clamp(0.0, 1.0) * SAFETY_FACTOR)
            .clamp(1.0 / MAX_GROUP_SIZE as f64, 1.0 / MIN_GROUP_SIZE as f64);
        ((1.0 / overhead).round() as u32).clamp(MIN_GROUP_SIZE, MAX_GROUP_SIZE)
    }
}

impl Default for AdaptiveFecConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

/// The parity group a media packet (by its position within the frame) belongs to when the
/// frame was protected in groups of `group_size`; `None` when FEC was off (`group_size`
/// 0). Arrival paths pass the group size *stored per frame*: an adaptive encoder may have
/// moved on to a different size by the time packets arrive.
pub fn group_of_index(group_size: u32, media_packet_index: usize) -> Option<u32> {
    if group_size == 0 {
        return None;
    }
    Some((media_packet_index / group_size as usize) as u32)
}

/// Generates parity packets for the media packets of a frame.
#[derive(Debug, Clone)]
pub struct FecEncoder {
    config: FecConfig,
}

impl FecEncoder {
    /// Creates an encoder.
    pub fn new(config: FecConfig) -> Self {
        Self { config }
    }

    /// The current group size (0 = disabled).
    pub fn group_size(&self) -> u32 {
        self.config.group_size
    }

    /// Re-sizes the parity groups for subsequent frames (adaptive FEC). Frames already
    /// protected keep their old grouping — callers must remember the size used per frame.
    pub fn set_group_size(&mut self, group_size: u32) {
        self.config.group_size = group_size;
    }

    /// Builds the parity packets for `media_packets` (all belonging to one frame) into
    /// `parity`: one per group of [`FecEncoder::group_size`] consecutive media packets,
    /// numbered from `alloc_seq`, none when FEC is off. The buffer is cleared first; once
    /// it has grown to the session's largest parity count, further calls are
    /// allocation-free.
    pub fn protect_into(
        &self,
        media_packets: &[RtpPacket],
        mut alloc_seq: impl FnMut() -> u64,
        parity: &mut Vec<RtpPacket>,
    ) {
        parity.clear();
        if !self.config.is_enabled() || media_packets.is_empty() {
            return;
        }
        for (group_idx, group) in media_packets.chunks(self.config.group_size as usize).enumerate() {
            let max_payload = group.iter().map(|p| p.payload_len()).max().unwrap_or(0);
            let first = &group[0];
            parity.push(RtpPacket {
                header: RtpHeader {
                    sequence: alloc_seq(),
                    capture_ts_us: first.header.capture_ts_us,
                    frame_id: first.header.frame_id,
                    marker: false,
                    kind: PayloadKind::Fec,
                },
                // Parity payload is as large as the largest protected packet; its payload
                // range is symbolic (it does not carry original bytes directly).
                payload_start: 0,
                payload_end: max_payload as u64,
                fec_group: Some(group_idx as u32),
            });
        }
    }
}

/// Receiver-side recovery bookkeeping for one frame.
///
/// Tracks, per FEC group, how many media packets are still missing and whether the parity
/// packet arrived: one missing media packet + parity ⇒ recoverable.
///
/// Frames are dense, monotonically increasing ids retired as a prefix at turn bounds, so
/// group state lives in a ring indexed by `frame_id - base_frame` with a free-list of
/// retired per-frame group tables — the warm steady state of a conversation touches no
/// tree nodes and reuses every index buffer.
#[derive(Debug, Clone, Default)]
pub struct FecRecovery {
    /// Frame id of `frames[0]`. Meaningful only when `frames` is non-empty.
    base_frame: u64,
    frames: VecDeque<FrameGroups>,
    /// Retired group tables, kept for their buffer capacity.
    pool: Vec<FrameGroups>,
    tracked: usize,
}

/// Group states of one frame. `states` is a high-water-mark buffer: entries past the
/// touched set stay cleared, so reusing a pooled table never loses inner capacity.
#[derive(Debug, Clone, Default)]
struct FrameGroups {
    states: Vec<GroupState>,
}

#[derive(Debug, Clone, Default)]
struct GroupState {
    /// True once any event touched this (frame, group) — the unit `tracked_groups` counts.
    active: bool,
    expected: Vec<usize>,
    received: Vec<usize>,
    parity_received: bool,
}

impl GroupState {
    fn clear(&mut self) {
        self.active = false;
        self.expected.clear();
        self.received.clear();
        self.parity_received = false;
    }
}

impl FecRecovery {
    /// Creates empty recovery state.
    pub fn new() -> Self {
        Self::default()
    }

    /// The live state for (`frame_id`, `group`), creating it (and any gap frames up to
    /// it) on demand. Frames below the retirement bound are rejected: their answer
    /// already shipped, so recovering for them is pointless.
    fn group_mut(&mut self, frame_id: u64, group: u32) -> Option<&mut GroupState> {
        if self.frames.is_empty() {
            self.base_frame = frame_id;
        } else if frame_id < self.base_frame {
            return None;
        }
        let idx = (frame_id - self.base_frame) as usize;
        while self.frames.len() <= idx {
            let table = self.pool.pop().unwrap_or_default();
            self.frames.push_back(table);
        }
        let table = &mut self.frames[idx];
        let group = group as usize;
        while table.states.len() <= group {
            table.states.push(GroupState::default());
        }
        let state = &mut table.states[group];
        if !state.active {
            state.active = true;
            self.tracked += 1;
        }
        Some(state)
    }

    fn group(&self, frame_id: u64, group: u32) -> Option<&GroupState> {
        if self.frames.is_empty() || frame_id < self.base_frame {
            return None;
        }
        self.frames
            .get((frame_id - self.base_frame) as usize)?
            .states
            .get(group as usize)
            .filter(|s| s.active)
    }

    /// Declares that media packet `packet_index` of `frame_id` belongs to `group`.
    pub fn expect_media(&mut self, frame_id: u64, group: u32, packet_index: usize) {
        if let Some(state) = self.group_mut(frame_id, group) {
            state.expected.push(packet_index);
        }
    }

    /// Records a received media packet. Returns nothing; use [`FecRecovery::recoverable`].
    /// A second arrival of the same packet (original and retransmission, or a late
    /// original after XOR recovery) is already on record, so the list never outgrows the
    /// group and a pooled table's buffers stop growing after its first lossy turn.
    pub fn on_media(&mut self, frame_id: u64, group: u32, packet_index: usize) {
        if let Some(state) = self.group_mut(frame_id, group) {
            if !state.received.contains(&packet_index) {
                state.received.push(packet_index);
            }
        }
    }

    /// Records a received parity packet.
    pub fn on_parity(&mut self, frame_id: u64, group: u32) {
        if let Some(state) = self.group_mut(frame_id, group) {
            state.parity_received = true;
        }
    }

    /// The media packet index of `frame_id`/`group` that can be recovered right now — at
    /// most one: exactly one media packet missing and the parity packet present. The
    /// iterator owns its item and nothing is allocated: the arrival path asks on every
    /// packet of a lossy turn and feeds the answer straight back into this state.
    pub fn recoverable(&self, frame_id: u64, group: u32) -> std::option::IntoIter<usize> {
        let only_missing = || {
            let state = self.group(frame_id, group).filter(|s| s.parity_received)?;
            let mut missing = state
                .expected
                .iter()
                .filter(|i| !state.received.contains(i))
                .copied();
            missing.next().filter(|_| missing.next().is_none())
        };
        only_missing().into_iter()
    }

    /// Drops group state for frames below `frame_id` — the history bound a long-lived
    /// conversation applies once a turn's frames have been reported (their recovery can
    /// no longer influence any answer). Retired tables keep their buffers (in the pool)
    /// for the next turn's frames.
    pub fn retire_before(&mut self, frame_id: u64) {
        while self.base_frame < frame_id {
            let Some(mut table) = self.frames.pop_front() else {
                self.base_frame = frame_id;
                break;
            };
            self.base_frame += 1;
            for state in &mut table.states {
                if state.active {
                    self.tracked -= 1;
                }
                state.clear();
            }
            self.pool.push(table);
        }
    }

    /// Number of (frame, group) entries currently tracked.
    pub fn tracked_groups(&self) -> usize {
        self.tracked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packetizer::{OutgoingFrame, Packetizer};

    fn media_packets(size: u64) -> Vec<RtpPacket> {
        let mut packets = Vec::new();
        let frame = OutgoingFrame {
            frame_id: 1,
            capture_ts_us: 0,
            size_bytes: size,
            is_keyframe: false,
        };
        Packetizer::default().packetize_into(&frame, &mut packets);
        packets
    }

    /// The parity packets `enc` builds for `media`, numbered from `*seq + 1` on.
    fn parity_of(enc: &FecEncoder, media: &[RtpPacket], seq: &mut u64) -> Vec<RtpPacket> {
        let mut parity = Vec::new();
        enc.protect_into(
            media,
            || {
                *seq += 1;
                *seq
            },
            &mut parity,
        );
        parity
    }

    #[test]
    fn parity_count_matches_group_size() {
        let enc = FecEncoder::new(FecConfig::with_group_size(4));
        let media = media_packets(13_520); // 10 media packets
        let parity = parity_of(&enc, &media, &mut 100);
        assert_eq!(parity.len(), 3); // ceil(10 / 4)
        assert!(parity.iter().all(|p| p.header.kind == PayloadKind::Fec));
        assert_eq!(parity[0].fec_group, Some(0));
        assert_eq!(parity[2].fec_group, Some(2));
    }

    #[test]
    fn disabled_fec_produces_nothing() {
        let enc = FecEncoder::new(FecConfig::disabled());
        assert!(parity_of(&enc, &media_packets(5_000), &mut 0).is_empty());
        assert_eq!(group_of_index(enc.group_size(), 3), None);
    }

    #[test]
    fn overhead_fraction() {
        // Ten media packets in groups of five carry two parity packets: an overhead of 1/5.
        let enc = FecEncoder::new(FecConfig::with_group_size(5));
        let media = media_packets(13_520);
        assert_eq!(parity_of(&enc, &media, &mut 0).len() * 5, media.len());
    }

    #[test]
    fn single_loss_is_recoverable_with_parity() {
        let mut rec = FecRecovery::new();
        for i in 0..4 {
            rec.expect_media(7, 0, i);
        }
        rec.on_media(7, 0, 0);
        rec.on_media(7, 0, 2);
        rec.on_media(7, 0, 3);
        // Missing: packet 1. Not recoverable until parity arrives.
        assert_eq!(rec.recoverable(7, 0).next(), None);
        rec.on_parity(7, 0);
        assert_eq!(rec.recoverable(7, 0).collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn double_loss_is_not_recoverable() {
        let mut rec = FecRecovery::new();
        for i in 0..4 {
            rec.expect_media(7, 0, i);
        }
        rec.on_media(7, 0, 0);
        rec.on_media(7, 0, 3);
        rec.on_parity(7, 0);
        assert_eq!(rec.recoverable(7, 0).next(), None);
    }

    #[test]
    fn adaptive_sizing_tracks_loss_up_and_down_within_clamps() {
        let cfg = AdaptiveFecConfig { enabled: true };
        // Clean link: leanest protection.
        assert_eq!(cfg.group_for_loss(0.0, 4), MAX_GROUP_SIZE);
        // Catastrophic loss: heaviest protection.
        assert_eq!(cfg.group_for_loss(0.5, 4), MIN_GROUP_SIZE);
        // The form that read (min, max, safety) from fields, at the one value each ever had.
        let with_fields = |loss: f64, min: u32, max: u32, safety: f64| {
            let overhead = (loss.clamp(0.0, 1.0) * safety).clamp(1.0 / max as f64, 1.0 / min as f64);
            ((1.0 / overhead).round() as u32).clamp(min, max)
        };
        // Rising loss never increases the group size (more loss ⇒ more parity).
        let mut prev = u32::MAX;
        for step in 0..=50u32 {
            let loss = step as f64 / 100.0;
            let g = cfg.group_for_loss(loss, 4);
            assert!(g <= prev, "group size must fall (or hold) as loss rises");
            assert!((MIN_GROUP_SIZE..=MAX_GROUP_SIZE).contains(&g));
            assert_eq!(g, with_fields(loss, 2, 12, 3.0), "loss {loss}");
            prev = g;
        }
        // 10% loss × safety 3.0 → 30% overhead → group ≈ 3.
        assert_eq!(cfg.group_for_loss(0.10, 4), 3);
    }

    #[test]
    fn disabled_adaptation_returns_the_static_fallback() {
        let cfg = AdaptiveFecConfig::disabled();
        assert_eq!(cfg.group_for_loss(0.5, 4), 4);
        assert_eq!(cfg.group_for_loss(0.0, 0), 0, "FEC-off stays off");
    }

    #[test]
    fn group_of_index_matches_encoder_grouping() {
        let enc = FecEncoder::new(FecConfig::with_group_size(4));
        let media = media_packets(13_520); // 10 media packets
        let parity = parity_of(&enc, &media, &mut 0);
        // Every media packet of the chunk the encoder protected with parity packet `g` is
        // in group `g`.
        for (g, chunk) in media.chunks(4).enumerate() {
            assert_eq!(parity[g].fec_group, Some(g as u32));
            for i in 0..chunk.len() {
                assert_eq!(group_of_index(4, 4 * g + i), Some(g as u32));
            }
        }
        assert_eq!(group_of_index(0, 3), None);
    }

    #[test]
    fn set_group_size_applies_to_subsequent_frames() {
        let mut enc = FecEncoder::new(FecConfig::with_group_size(4));
        let media = media_packets(13_520); // 10 media packets
        let mut seq = 0u64;
        assert_eq!(parity_of(&enc, &media, &mut seq).len(), 3); // ceil(10/4)
        enc.set_group_size(2);
        assert_eq!(enc.group_size(), 2);
        assert_eq!(parity_of(&enc, &media, &mut seq).len(), 5); // ceil(10/2)
    }

    #[test]
    fn no_loss_means_nothing_to_recover() {
        let mut rec = FecRecovery::new();
        for i in 0..2 {
            rec.expect_media(1, 0, i);
            rec.on_media(1, 0, i);
        }
        rec.on_parity(1, 0);
        assert_eq!(rec.recoverable(1, 0).next(), None);
    }
}
