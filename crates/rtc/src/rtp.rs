//! RTP-style packet headers.
//!
//! The emulator only needs sizes and identifiers, not actual bit-packing, but the header
//! layout and byte accounting mirror RTP over UDP/IP so that packet counts and per-packet
//! overhead match what the paper's WebRTC prototype would put on the wire.

/// Bytes of RTP header (12) + the generic frame-marking / transport-cc extensions WebRTC
/// adds (~8 bytes amortized).
pub const RTP_HEADER_BYTES: u32 = 20;
/// UDP + IPv4 header bytes.
pub const UDP_IP_HEADER_BYTES: u32 = 28;
/// Maximum transmission unit the paper cites (~1400 bytes per packet, §2.2).
pub const DEFAULT_MTU_BYTES: u32 = 1400;

/// The kind of payload a packet carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PayloadKind {
    /// Original media payload.
    Media,
    /// A retransmission of an earlier media packet.
    Retransmission,
    /// An XOR FEC parity packet.
    Fec,
    /// Receiver feedback (NACK / receiver report) flowing on the downlink.
    Feedback,
}

/// An RTP-style header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RtpHeader {
    /// Monotonically increasing sequence number (64-bit to avoid wrap handling in analysis;
    /// a real implementation would use 16 bits + extension).
    pub sequence: u64,
    /// Capture timestamp of the frame this packet belongs to, in microseconds.
    pub capture_ts_us: u64,
    /// Frame identifier within the session.
    pub frame_id: u64,
    /// Marker bit: set on the last packet of a frame.
    pub marker: bool,
    /// Payload kind.
    pub kind: PayloadKind,
}

/// A full packet: header + payload byte range of its frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RtpPacket {
    /// Header fields.
    pub header: RtpHeader,
    /// First byte (inclusive) of the frame's bitstream this packet carries.
    pub payload_start: u64,
    /// One past the last byte of the frame's bitstream this packet carries.
    pub payload_end: u64,
    /// For FEC packets: index of the FEC group within the frame.
    pub fec_group: Option<u32>,
}

impl RtpPacket {
    /// Payload length in bytes.
    pub fn payload_len(&self) -> u32 {
        (self.payload_end - self.payload_start) as u32
    }

    /// Total on-the-wire size in bytes (payload + RTP + UDP/IP headers).
    pub fn wire_size(&self) -> u32 {
        self.payload_len() + RTP_HEADER_BYTES + UDP_IP_HEADER_BYTES
    }

    /// Makes a retransmission copy of this packet with a fresh sequence number.
    pub fn as_retransmission(&self, new_sequence: u64) -> RtpPacket {
        let mut p = *self;
        p.header.sequence = new_sequence;
        p.header.kind = PayloadKind::Retransmission;
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn packet(start: u64, end: u64) -> RtpPacket {
        RtpPacket {
            header: RtpHeader {
                sequence: 5,
                capture_ts_us: 100,
                frame_id: 2,
                marker: false,
                kind: PayloadKind::Media,
            },
            payload_start: start,
            payload_end: end,
            fec_group: None,
        }
    }

    #[test]
    fn wire_size_includes_headers() {
        let p = packet(0, 1_352);
        assert_eq!(p.payload_len(), 1_352);
        assert_eq!(p.wire_size(), 1_352 + 20 + 28);
        assert_eq!(p.wire_size(), DEFAULT_MTU_BYTES);
    }

    #[test]
    fn retransmission_copy_changes_kind_and_sequence_only() {
        let p = packet(100, 200);
        let r = p.as_retransmission(99);
        assert_eq!(r.header.kind, PayloadKind::Retransmission);
        assert_eq!(r.header.sequence, 99);
        let header = RtpHeader {
            sequence: 99,
            kind: PayloadKind::Retransmission,
            ..p.header
        };
        assert_eq!(r, RtpPacket { header, ..p });
    }
}
