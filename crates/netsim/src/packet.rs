//! Packets as the emulator sees them: opaque payloads with a size, an id and timestamps.
//!
//! The emulator never inspects payload bytes — the RTC layer (`aivc-rtc`) owns the wire
//! format. Keeping the boundary at "size in bytes + metadata" mirrors how a real kernel
//! queue treats an RTP/UDP datagram.

use aivc_sim::SimTime;

/// Globally unique packet identifier assigned by the sender.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PacketId(pub u64);

/// A packet in flight through the emulator.
#[derive(Debug, Clone, PartialEq)]
pub struct Packet {
    /// Unique id (used to correlate send/deliver/drop records).
    pub id: PacketId,
    /// Total on-the-wire size in bytes, including transport headers.
    pub size_bytes: u32,
    /// When the application handed the packet to the network.
    pub send_time: SimTime,
    /// Flow label: lets one emulator carry media, retransmissions and feedback separately
    /// in statistics (e.g. uplink video vs downlink audio in §2.1's asymmetry discussion).
    pub flow: u32,
    /// Opaque tag the upper layer may use to find its own state (e.g. an RTP sequence
    /// number or a frame id). The emulator never interprets it.
    pub tag: u64,
}

impl Packet {
    /// Creates a packet.
    pub fn new(id: u64, size_bytes: u32, send_time: SimTime) -> Self {
        Self {
            id: PacketId(id),
            size_bytes,
            send_time,
            flow: 0,
            tag: 0,
        }
    }

    /// Sets the flow label.
    pub fn with_flow(mut self, flow: u32) -> Self {
        self.flow = flow;
        self
    }

    /// Sets the opaque upper-layer tag.
    pub fn with_tag(mut self, tag: u64) -> Self {
        self.tag = tag;
        self
    }

    /// Size in bits, as used by serialization-time computations.
    pub fn size_bits(&self) -> u64 {
        self.size_bytes as u64 * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_builder() {
        let p = Packet::new(7, 1_200, SimTime::from_millis(5))
            .with_flow(2)
            .with_tag(99);
        assert_eq!(p.id, PacketId(7));
        assert_eq!(p.size_bits(), 9_600);
        assert_eq!(p.flow, 2);
        assert_eq!(p.tag, 99);
    }

    #[test]
    fn packet_ids_order() {
        assert!(PacketId(1) < PacketId(2));
    }
}
