//! The two-way network emulator: an uplink (client → cloud, carrying video) and a downlink
//! (cloud → client, carrying feedback and the MLLM's audio/text response).
//!
//! §2.1 of the paper points out that AI Video Chat is asymmetric — the uplink carries video
//! while the downlink only carries low-bitrate responses — so the emulator allows the two
//! directions to be configured independently.

use crate::link::{DeliveryOutcome, Link, LinkConfig};
use crate::loss::LossModel;
use crate::packet::Packet;
use aivc_sim::{SimDuration, SimTime};
use serde::Serialize;

/// Configuration of a bidirectional network path.
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

/// Direction of travel through the emulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Client → cloud.
    Uplink,
    /// Cloud → client.
    Downlink,
}

/// The bidirectional emulator.
#[derive(Debug, Clone)]
pub struct NetworkEmulator {
    uplink: Link,
    downlink: Link,
}

impl NetworkEmulator {
    /// Creates an emulator from a path configuration and a seed.
    pub fn new(config: PathConfig, seed: u64) -> Self {
        Self {
            uplink: Link::new(config.uplink, seed),
            downlink: Link::new(config.downlink, seed.wrapping_add(0x0BAD_F00D)),
        }
    }

    /// Sends a packet in the given direction at time `now`.
    pub fn send(&mut self, direction: Direction, packet: &Packet, now: SimTime) -> DeliveryOutcome {
        match direction {
            Direction::Uplink => self.uplink.send(packet, now),
            Direction::Downlink => self.downlink.send(packet, now),
        }
    }

    /// The uplink link (for inspection).
    pub fn uplink(&self) -> &Link {
        &self.uplink
    }

    /// The downlink link (for inspection).
    pub fn downlink(&self) -> &Link {
        &self.downlink
    }

    /// Collects the arrival time of an uplink duplicate stashed by a
    /// [`crate::fault::FaultKind::Duplicate`] episode during the most recent uplink
    /// [`NetworkEmulator::send`]. The transport schedules a second arrival of the same
    /// packet at the returned time.
    pub fn take_uplink_duplicate(&mut self) -> Option<SimTime> {
        self.uplink.take_duplicate()
    }

    /// Resets both directions' dynamic state.
    pub fn reset(&mut self) {
        self.uplink.reset();
        self.downlink.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directions_are_independent() {
        let mut emu = NetworkEmulator::new(PathConfig::paper_section_2_2(0.0), 1);
        // Saturate the uplink.
        for i in 0..2_000u64 {
            emu.send(
                Direction::Uplink,
                &Packet::new(i, 1_250, SimTime::ZERO),
                SimTime::ZERO,
            );
        }
        // Downlink should still deliver with zero queueing.
        let out = emu.send(
            Direction::Downlink,
            &Packet::new(9_999, 200, SimTime::ZERO),
            SimTime::ZERO,
        );
        match out {
            DeliveryOutcome::Delivered { queueing_delay, .. } => {
                assert_eq!(queueing_delay, SimDuration::ZERO)
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn paper_path_has_30ms_owd_each_way() {
        let mut emu = NetworkEmulator::new(PathConfig::paper_section_2_2(0.0), 2);
        let up = emu.send(
            Direction::Uplink,
            &Packet::new(0, 1_250, SimTime::ZERO),
            SimTime::ZERO,
        );
        let down = emu.send(
            Direction::Downlink,
            &Packet::new(1, 200, SimTime::ZERO),
            SimTime::ZERO,
        );
        assert!(up.arrival().unwrap().as_micros() >= 30_000);
        assert!(down.arrival().unwrap().as_micros() >= 30_000);
    }

    #[test]
    fn reset_restores_clean_state() {
        let mut emu = NetworkEmulator::new(PathConfig::paper_section_2_2(0.0), 4);
        for i in 0..500u64 {
            emu.send(
                Direction::Uplink,
                &Packet::new(i, 1_250, SimTime::ZERO),
                SimTime::ZERO,
            );
        }
        emu.reset();
        assert_eq!(emu.uplink().counters().offered, 0);
        let out = emu.send(
            Direction::Uplink,
            &Packet::new(0, 1_250, SimTime::ZERO),
            SimTime::ZERO,
        );
        assert_eq!(out.arrival().unwrap().as_micros(), 31_000);
    }
}
