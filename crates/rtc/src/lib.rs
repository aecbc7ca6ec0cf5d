//! # aivc-rtc — a packet-level real-time video transport
//!
//! The paper's prototype is "a WebRTC-based unidirectional video transmission system and a
//! network emulator" (§2.2). This crate is the transport half, as sender- and receiver-side
//! machines with no event loop of their own:
//!
//! * RTP-style packetization of encoded frames at a ~1400-byte MTU ([`packetizer`], [`rtp`]),
//! * a token-bucket pacer ([`pacer`]),
//! * receiver-driven NACK / sender retransmission ([`nack`]),
//! * XOR forward error correction ([`fec`]),
//! * a jitter buffer that AI-oriented receivers can simply remove (§2.1, [`jitter`]),
//! * a GCC-style delay+loss congestion controller and ABR policies ([`cc`], [`abr`]).
//!
//! The loop that drives them over the emulated link — and measures what Figure 3 plots, the
//! time from a frame being sent to being completely received — is `aivchat-core`'s turn
//! engine under `Conversation`. Everything is synchronous and packet-accurate; no sockets,
//! threads or wall-clock time are involved, so experiment runs are reproducible bit-for-bit.

pub mod abr;
pub mod cc;
pub mod fec;
pub mod jitter;
pub mod nack;
pub mod pacer;
pub mod packetizer;
pub mod rtp;
pub mod seq_ring;

pub use abr::AbrPolicy;
pub use cc::{CcState, FeedbackFold, GccConfig, GccController, PacketFeedback};
pub use fec::{group_of_index, AdaptiveFecConfig, FecConfig, FecEncoder, FecRecovery};
pub use jitter::JitterBuffer;
pub use nack::{NackGenerator, RtxQueue};
pub use pacer::Pacer;
pub use packetizer::{FrameAssembler, FrameView, OutgoingFrame, Packetizer};
pub use rtp::{RtpHeader, RtpPacket, RTP_HEADER_BYTES};
pub use seq_ring::{SeqBitset, SeqRing};
