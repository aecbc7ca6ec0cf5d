//! Packetization and frame reassembly.
//!
//! The packetizer splits an encoded frame's bitstream into MTU-sized RTP packets
//! (~1400 bytes on the wire, §2.2); the assembler tracks which byte ranges of each frame
//! have arrived, answers "is the frame complete?", and produces the received-range list the
//! decoder uses to decide which blocks survived.

use crate::rtp::{
    PayloadKind, RtpHeader, RtpPacket, DEFAULT_MTU_BYTES, RTP_HEADER_BYTES, UDP_IP_HEADER_BYTES,
};
use aivc_sim::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// A frame as handed to the transport: identifiers plus its total coded size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OutgoingFrame {
    /// Frame identifier (the encoder's frame index).
    pub frame_id: u64,
    /// Capture timestamp in microseconds.
    pub capture_ts_us: u64,
    /// Total coded size in bytes.
    pub size_bytes: u64,
    /// Whether this is a keyframe (affects retransmission urgency in some policies).
    pub is_keyframe: bool,
}

/// Splits frames into RTP packets.
#[derive(Debug, Clone)]
pub struct Packetizer {
    mtu_bytes: u32,
    next_sequence: u64,
}

impl Default for Packetizer {
    fn default() -> Self {
        Self::new(DEFAULT_MTU_BYTES)
    }
}

impl Packetizer {
    /// Creates a packetizer with the given on-the-wire MTU.
    pub fn new(mtu_bytes: u32) -> Self {
        assert!(
            mtu_bytes > RTP_HEADER_BYTES + UDP_IP_HEADER_BYTES,
            "MTU must leave room for headers"
        );
        Self {
            mtu_bytes,
            next_sequence: 0,
        }
    }

    /// Maximum payload bytes per packet.
    pub fn max_payload(&self) -> u32 {
        self.mtu_bytes - RTP_HEADER_BYTES - UDP_IP_HEADER_BYTES
    }

    /// The next sequence number that will be assigned.
    pub fn next_sequence(&self) -> u64 {
        self.next_sequence
    }

    /// Allocates a fresh sequence number (used for retransmissions and FEC packets).
    pub fn allocate_sequence(&mut self) -> u64 {
        let s = self.next_sequence;
        self.next_sequence += 1;
        s
    }

    /// Splits a frame into media packets covering its full byte range.
    ///
    /// Allocates a fresh `Vec` per call; per-frame loops should reuse a buffer via
    /// [`Packetizer::packetize_into`] instead — the transport session does.
    pub fn packetize(&mut self, frame: &OutgoingFrame) -> Vec<RtpPacket> {
        let mut packets = Vec::new();
        self.packetize_into(frame, &mut packets);
        packets
    }

    /// [`Packetizer::packetize`] into a caller-owned buffer. The buffer is cleared first;
    /// once it has grown to the session's largest frame, further calls are allocation-free.
    /// Packet contents are identical to [`Packetizer::packetize`] from the same state.
    pub fn packetize_into(&mut self, frame: &OutgoingFrame, packets: &mut Vec<RtpPacket>) {
        packets.clear();
        let payload = self.max_payload() as u64;
        let count = packet_count(frame.size_bytes, payload);
        // A `Range::map` extend: the range is `TrustedLen`, so `extend` takes std's
        // exact-size fast path (one reservation, no per-item capacity checks).
        let mut sequence = self.next_sequence;
        let frame = *frame;
        packets.extend((0..count).map(|i| {
            let start = i * payload;
            let end = ((i + 1) * payload).min(frame.size_bytes);
            let packet = RtpPacket {
                header: RtpHeader {
                    sequence,
                    capture_ts_us: frame.capture_ts_us,
                    frame_id: frame.frame_id,
                    marker: i + 1 == count,
                    kind: PayloadKind::Media,
                },
                payload_start: start,
                payload_end: end,
                fec_group: None,
            };
            sequence += 1;
            packet
        }));
        self.next_sequence = sequence;
    }
}

/// Number of media packets a frame of `size_bytes` needs at the given per-packet payload.
fn packet_count(size_bytes: u64, payload: u64) -> u64 {
    size_bytes.div_ceil(payload).max(1)
}

/// Reassembly state for one frame.
#[derive(Debug, Clone, Default)]
struct FrameState {
    size_bytes: u64,
    capture_ts_us: u64,
    /// Sorted, disjoint received ranges.
    ranges: Vec<(u64, u64)>,
    first_arrival: Option<SimTime>,
    completed_at: Option<SimTime>,
}

impl FrameState {
    fn insert_range(&mut self, start: u64, end: u64) {
        if end <= start {
            return;
        }
        // `ranges` is always sorted and disjoint (it is the output of this merge), so the
        // new range can be spliced in at its sorted position and merged in place — no
        // scratch buffer. In-order arrival (the common case) appends or extends the tail.
        if let Some(last) = self.ranges.last_mut() {
            if start > last.1 {
                self.ranges.push((start, end));
                return;
            }
            if start == last.1 {
                last.1 = last.1.max(end);
                return;
            }
        } else {
            self.ranges.push((start, end));
            return;
        }
        let pos = self.ranges.partition_point(|r| *r < (start, end));
        self.ranges.insert(pos, (start, end));
        let mut w = 0;
        for i in 1..self.ranges.len() {
            let (s, e) = self.ranges[i];
            if s <= self.ranges[w].1 {
                self.ranges[w].1 = self.ranges[w].1.max(e);
            } else {
                w += 1;
                self.ranges[w] = (s, e);
            }
        }
        self.ranges.truncate(w + 1);
    }

    fn received_bytes(&self) -> u64 {
        self.ranges.iter().map(|(s, e)| e - s).sum()
    }

    fn is_complete(&self) -> bool {
        self.ranges.len() == 1 && self.ranges[0] == (0, self.size_bytes) && self.size_bytes > 0
    }
}

/// Per-frame reassembly across the whole session.
///
/// Frames are stored in a ring indexed by `frame_id - base_id`: ids are dense and
/// monotonically increasing (every capture produces the next id), so a deque plus a
/// free-list of retired [`FrameState`]s makes the steady state of a long conversation
/// allocation-free — retiring a turn returns its states (range buffers and all) to the
/// pool, and the next turn's frames draw from it.
#[derive(Debug, Clone, Default)]
pub struct FrameAssembler {
    /// Frame id of `slots[0]`. Meaningful only when `slots` is non-empty; retirement
    /// advances it past everything dropped.
    base_id: u64,
    slots: VecDeque<FrameSlot>,
    /// Retired states, kept for their buffer capacity.
    pool: Vec<FrameState>,
    tracked: usize,
}

/// One ring slot: `tracked` distinguishes a frame the assembler knows (expected or with
/// at least one arrival) from a gap id that merely sits between known frames.
#[derive(Debug, Clone, Default)]
struct FrameSlot {
    tracked: bool,
    state: FrameState,
}

/// Borrowed view of one frame's reassembly progress.
#[derive(Debug, Clone, Copy)]
pub struct FrameView<'a> {
    /// Capture timestamp.
    pub capture_ts_us: u64,
    /// Total frame size in bytes.
    pub size_bytes: u64,
    /// Bytes received so far.
    pub received_bytes: u64,
    /// Whether every byte has arrived.
    pub complete: bool,
    /// When the frame became complete (if it did).
    pub completed_at: Option<SimTime>,
    /// When the first packet of the frame arrived (if any).
    pub first_arrival: Option<SimTime>,
    /// The received byte ranges, sorted and disjoint.
    pub received_ranges: &'a [(u64, u64)],
}

impl FrameAssembler {
    /// Creates an empty assembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// The live state for `frame_id`, creating its slot (and any gap slots up to it) on
    /// demand. Ids below the retirement bound are rejected: their state is gone and a
    /// late packet for them carries no information any caller still reads.
    fn state_mut(&mut self, frame_id: u64) -> Option<&mut FrameState> {
        if self.slots.is_empty() {
            self.base_id = frame_id;
        } else if frame_id < self.base_id {
            return None;
        }
        let idx = (frame_id - self.base_id) as usize;
        while self.slots.len() <= idx {
            let state = self.pool.pop().unwrap_or_default();
            self.slots.push_back(FrameSlot {
                tracked: false,
                state,
            });
        }
        let slot = &mut self.slots[idx];
        if !slot.tracked {
            slot.tracked = true;
            self.tracked += 1;
        }
        Some(&mut slot.state)
    }

    fn state(&self, frame_id: u64) -> Option<&FrameState> {
        if self.slots.is_empty() || frame_id < self.base_id {
            return None;
        }
        let idx = (frame_id - self.base_id) as usize;
        self.slots.get(idx).filter(|s| s.tracked).map(|s| &s.state)
    }

    /// Registers a frame the receiver expects (size known from signaling or the first packet).
    pub fn expect_frame(&mut self, frame: &OutgoingFrame) {
        if let Some(state) = self.state_mut(frame.frame_id) {
            state.size_bytes = frame.size_bytes;
            state.capture_ts_us = frame.capture_ts_us;
        }
    }

    /// Records the arrival of a media or retransmission packet at `now`.
    /// Returns true if this arrival completed the frame.
    pub fn on_packet(&mut self, packet: &RtpPacket, now: SimTime) -> bool {
        let Some(state) = self.state_mut(packet.header.frame_id) else {
            return false; // retired frame: nothing left to assemble into
        };
        if state.capture_ts_us == 0 {
            state.capture_ts_us = packet.header.capture_ts_us;
        }
        if state.first_arrival.is_none() {
            state.first_arrival = Some(now);
        }
        let was_complete = state.is_complete();
        state.insert_range(packet.payload_start, packet.payload_end);
        let now_complete = state.is_complete();
        if now_complete && !was_complete && state.completed_at.is_none() {
            state.completed_at = Some(now);
        }
        now_complete && !was_complete
    }

    /// The reassembly view of a frame, if the assembler knows about it. Per-turn report
    /// paths use this; it borrows the range list rather than cloning it.
    pub fn view(&self, frame_id: u64) -> Option<FrameView<'_>> {
        self.state(frame_id).map(|state| FrameView {
            capture_ts_us: state.capture_ts_us,
            size_bytes: state.size_bytes,
            received_bytes: state.received_bytes(),
            complete: state.is_complete(),
            completed_at: state.completed_at,
            first_arrival: state.first_arrival,
            received_ranges: &state.ranges,
        })
    }

    /// Drops reassembly state for frames below `frame_id` — the history bound a
    /// long-lived conversation applies once a turn has been decoded and answered.
    /// Retired states keep their buffers (in the pool) for the next turn's frames.
    pub fn retire_before(&mut self, frame_id: u64) {
        while self.base_id < frame_id {
            let Some(mut slot) = self.slots.pop_front() else {
                self.base_id = frame_id;
                break;
            };
            self.base_id += 1;
            if slot.tracked {
                self.tracked -= 1;
            }
            slot.state.ranges.clear();
            slot.state.size_bytes = 0;
            slot.state.capture_ts_us = 0;
            slot.state.first_arrival = None;
            slot.state.completed_at = None;
            self.pool.push(slot.state);
        }
    }

    /// Number of frames currently tracked.
    pub fn tracked_frames(&self) -> usize {
        self.tracked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(size: u64) -> OutgoingFrame {
        OutgoingFrame {
            frame_id: 1,
            capture_ts_us: 1_000,
            size_bytes: size,
            is_keyframe: false,
        }
    }

    #[test]
    fn packet_count_matches_size_and_mtu() {
        let mut p = Packetizer::default();
        let packets = p.packetize(&frame(10_000));
        // Max payload = 1400 - 48 = 1352 bytes -> ceil(10000 / 1352) = 8 packets.
        assert_eq!(packets.len(), 8);
        assert!(packets.iter().take(7).all(|pk| pk.payload_len() == 1_352));
        assert_eq!(packets.last().unwrap().payload_len(), 10_000 - 7 * 1_352);
        assert!(packets.last().unwrap().header.marker);
        assert!(packets.iter().take(7).all(|pk| !pk.header.marker));
    }

    #[test]
    fn sequences_are_contiguous_across_frames() {
        let mut p = Packetizer::default();
        let a = p.packetize(&frame(3_000));
        let b = p.packetize(&OutgoingFrame {
            frame_id: 2,
            ..frame(3_000)
        });
        let seqs: Vec<u64> = a.iter().chain(b.iter()).map(|pk| pk.header.sequence).collect();
        assert_eq!(seqs, (0..seqs.len() as u64).collect::<Vec<_>>());
    }

    #[test]
    fn tiny_frame_still_gets_one_packet() {
        let mut p = Packetizer::default();
        let packets = p.packetize(&frame(40));
        assert_eq!(packets.len(), 1);
        assert_eq!(packets[0].payload_range(), (0, 40));
        assert!(packets[0].header.marker);
    }

    #[test]
    fn assembler_completes_when_all_ranges_arrive() {
        let mut p = Packetizer::default();
        let f = frame(5_000);
        let packets = p.packetize(&f);
        let mut asm = FrameAssembler::new();
        asm.expect_frame(&f);
        let mut completed = false;
        for (i, pk) in packets.iter().enumerate() {
            completed = asm.on_packet(pk, SimTime::from_millis(10 + i as u64));
        }
        assert!(completed);
        let status = asm.view(1).unwrap();
        assert!(status.complete);
        assert_eq!(status.received_bytes, 5_000);
        assert_eq!(status.completed_at, Some(SimTime::from_millis(13)));
        assert_eq!(status.first_arrival, Some(SimTime::from_millis(10)));
    }

    #[test]
    fn a_retransmission_closes_the_gap_a_lost_packet_left() {
        let mut p = Packetizer::default();
        let f = frame(5_000);
        let packets = p.packetize(&f);
        let mut asm = FrameAssembler::new();
        asm.expect_frame(&f);
        // Drop packet 1 (bytes 1352..2704).
        for (i, pk) in packets.iter().enumerate() {
            if i != 1 {
                asm.on_packet(pk, SimTime::from_millis(5));
            }
        }
        assert!(!asm.view(1).unwrap().complete);
        // Retransmission closes the gap.
        let done = asm.on_packet(&packets[1].as_retransmission(999), SimTime::from_millis(80));
        assert!(done);
        assert_eq!(asm.view(1).unwrap().completed_at, Some(SimTime::from_millis(80)));
    }

    #[test]
    fn duplicate_packets_do_not_complete_twice() {
        let mut p = Packetizer::default();
        let f = frame(1_000);
        let packets = p.packetize(&f);
        let mut asm = FrameAssembler::new();
        asm.expect_frame(&f);
        assert!(asm.on_packet(&packets[0], SimTime::from_millis(1)));
        assert!(!asm.on_packet(&packets[0], SimTime::from_millis(2)));
        assert_eq!(asm.view(1).unwrap().completed_at, Some(SimTime::from_millis(1)));
    }

    #[test]
    fn out_of_order_arrival_still_completes() {
        let mut p = Packetizer::default();
        let f = frame(4_000);
        let mut packets = p.packetize(&f);
        packets.reverse();
        let mut asm = FrameAssembler::new();
        asm.expect_frame(&f);
        let mut done = false;
        for pk in &packets {
            done = asm.on_packet(pk, SimTime::from_millis(3)) || done;
        }
        assert!(done);
    }

    #[test]
    #[should_panic(expected = "room for headers")]
    fn absurd_mtu_rejected() {
        let _ = Packetizer::new(30);
    }

    /// The sizes the reuse-equivalence tests sweep: empty, one byte, exactly one payload,
    /// one payload + 1, and the benchmark's 100 kB frame.
    fn equivalence_sizes() -> [u64; 5] {
        let payload = Packetizer::default().max_payload() as u64;
        [0, 1, payload, payload + 1, 100_000]
    }

    #[test]
    fn packetize_into_is_identical_to_packetize() {
        for size in equivalence_sizes() {
            // Two packetizers in the same initial state, so sequence numbers line up.
            let mut fresh = Packetizer::default();
            let mut reused = Packetizer::default();
            let mut buffer = Vec::new();
            let f = frame(size);
            let allocated = fresh.packetize(&f);
            reused.packetize_into(&f, &mut buffer);
            assert_eq!(buffer, allocated, "size {size}");
            assert_eq!(reused.next_sequence(), fresh.next_sequence(), "size {size}");
        }
    }

    #[test]
    fn packetize_into_reuses_the_buffer_across_frames() {
        let mut fresh = Packetizer::default();
        let mut reused = Packetizer::default();
        let mut buffer = Vec::new();
        for (i, size) in equivalence_sizes().into_iter().enumerate() {
            let f = OutgoingFrame {
                frame_id: i as u64,
                ..frame(size)
            };
            let allocated = fresh.packetize(&f);
            reused.packetize_into(&f, &mut buffer);
            assert_eq!(buffer, allocated, "frame {i} size {size}");
        }
        // After the 100 kB frame the buffer's capacity covers every smaller frame.
        let capacity = buffer.capacity();
        reused.packetize_into(&frame(100_000), &mut buffer);
        assert_eq!(buffer.capacity(), capacity, "buffer should not regrow");
    }

    #[test]
    fn empty_frame_still_gets_one_marker_packet() {
        let mut p = Packetizer::default();
        let packets = p.packetize(&frame(0));
        assert_eq!(packets.len(), 1);
        assert_eq!(packets[0].payload_range(), (0, 0));
        assert!(packets[0].header.marker);
    }
}
