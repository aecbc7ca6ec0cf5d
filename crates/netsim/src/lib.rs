//! # aivc-netsim — deterministic packet-level network emulation
//!
//! The paper's §2.2 measurement runs a WebRTC uplink through a network emulator with a
//! configured bandwidth (10 Mbps), one-way propagation delay (30 ms) and packet-loss rate,
//! and reports per-frame transmission latency (Figure 3). This crate is the emulator
//! substitute: a **discrete-event, fully deterministic** model of a point-to-point link with
//!
//! * token-rate serialization (bandwidth),
//! * a bounded drop-tail queue (congestion → queueing delay → the "enormous latency" region
//!   of Figure 3),
//! * configurable propagation delay and optional jitter,
//! * i.i.d. and Gilbert–Elliott (bursty) loss models, and
//! * time-varying bandwidth traces.
//!
//! Design notes (following the event-driven style of the networking guides): there is no
//! async runtime and no wall-clock time. Simulated time is a `u64` microsecond counter
//! ([`SimTime`]); every random decision flows through a seeded ChaCha RNG, so a given seed
//! reproduces byte-identical results.

pub mod fault;
pub mod link;
pub mod loss;
pub mod packet;
pub mod shared;
pub mod stats;
pub mod trace;

pub use fault::{FaultEpisode, FaultKind, FaultSchedule};
pub use link::{DeliveryOutcome, Link, LinkConfig, LinkCounters, PathConfig};
pub use loss::LossModel;
pub use packet::{Packet, PacketId};
pub use shared::SharedLink;
pub use stats::{jain_index, LatencyStats};
// The virtual clock lives in `aivc-sim`; its time types and their error are re-exported here
// because every link, trace and fault signature speaks them.
pub use aivc_sim::{SimDuration, SimTime, TimeError};
pub use trace::{BandwidthTrace, BandwidthTraceError};
