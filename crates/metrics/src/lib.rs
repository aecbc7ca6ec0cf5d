//! Always-on serving metrics: one plain struct of `u64` counters per session.
//!
//! A session's transport owns its [`SessionSnapshot`] by value. Every writer holds the
//! transport mutably (`metrics.packets_sent += 1` at the event site) and every reader holds
//! the session immutably and gets a copy, so nothing can observe the counters concurrently:
//! the hot path pays one add per event — no locks, no atomics, no branch on a "metrics
//! enabled" flag, no allocation, ever — and a fleet rollup sums copies with
//! [`SessionSnapshot::accumulate`], entirely off the per-packet path. A counter costs one
//! field, one `accumulate` line and one `Display` slot.
//!
//! Two counter families live side by side:
//!
//! * **turn-committed** counters are added in one batch when a turn concludes, from the
//!   same numbers the turn's `NetTurnReport` carries — these reconcile *exactly*
//!   against per-session report sums, at any pool size;
//! * **live** counters tick at the event site (packet sends, late-sequence drops, pacer
//!   clamps, rate-search probes) and intentionally include work that never reaches a
//!   report (think-gap stragglers, drain-window sends) — they are diagnostics, not report
//!   mirrors.

use std::fmt;

/// A session's always-on counters (or, summed, a whole fleet's). The transport increments
/// its own; everything else sees copies — value types to compare, diff and sum freely.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionSnapshot {
    // -- turn-committed (reconcile exactly against NetTurnReport sums) --
    /// Frames captured and sent uplink.
    pub frames_sent: u64,
    /// Frames fully delivered (all packets arrived or were recovered).
    pub frames_delivered: u64,
    /// Frames reconstructed from FEC parity.
    pub fec_recovered_frames: u64,
    /// Uplink packets lost in flight.
    pub packets_lost: u64,
    /// Retransmissions sent in response to NACKs.
    pub retransmissions_sent: u64,
    /// NACKs suppressed by the answer-deadline gate.
    pub nacks_suppressed: u64,
    /// Frames shed by the degradation ladder.
    pub frames_shed: u64,
    /// Captures suppressed during outage conservation.
    pub captures_suppressed: u64,
    /// Turns whose answer missed the deadline (zero frames decoded in the window).
    pub deadline_missed: u64,
    /// GCC watchdog fallback activations.
    pub watchdog_fallbacks: u64,
    // -- live (event-site; includes think-gap/drain work no report ever sees) --
    /// Media + parity + RTX packets handed to the uplink.
    pub packets_sent: u64,
    /// Below-retirement-bound sequence numbers dropped by ring/bitset stores.
    pub late_seq_drops: u64,
    /// Pacer rate updates clamped up to the documented floor.
    pub pacer_rate_clamps: u64,
    /// Per-frame budget searches run by the sender's rate control (one per encoded capture).
    pub rate_searches: u64,
    /// Size probes those searches evaluated; `rate_probes / rate_searches` is the mean
    /// probes per frame.
    pub rate_probes: u64,
}

impl SessionSnapshot {
    /// Adds `other` into `self`, field by field — the fleet rollup primitive.
    pub fn accumulate(&mut self, other: &SessionSnapshot) {
        self.frames_sent += other.frames_sent;
        self.frames_delivered += other.frames_delivered;
        self.fec_recovered_frames += other.fec_recovered_frames;
        self.packets_lost += other.packets_lost;
        self.retransmissions_sent += other.retransmissions_sent;
        self.nacks_suppressed += other.nacks_suppressed;
        self.frames_shed += other.frames_shed;
        self.captures_suppressed += other.captures_suppressed;
        self.deadline_missed += other.deadline_missed;
        self.watchdog_fallbacks += other.watchdog_fallbacks;
        self.packets_sent += other.packets_sent;
        self.late_seq_drops += other.late_seq_drops;
        self.pacer_rate_clamps += other.pacer_rate_clamps;
        self.rate_searches += other.rate_searches;
        self.rate_probes += other.rate_probes;
    }
}

impl fmt::Display for SessionSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "frames {}/{} | pkts {} sent, {} lost, {} rtx | fec {} | shed {} | \
             suppressed {} nacks, {} captures | missed {} deadlines | {} fallbacks | \
             {} late drops | {} pacer clamps | {} rate probes in {} searches",
            self.frames_delivered,
            self.frames_sent,
            self.packets_sent,
            self.packets_lost,
            self.retransmissions_sent,
            self.fec_recovered_frames,
            self.frames_shed,
            self.nacks_suppressed,
            self.captures_suppressed,
            self.deadline_missed,
            self.watchdog_fallbacks,
            self.late_seq_drops,
            self.pacer_rate_clamps,
            self.rate_probes,
            self.rate_searches,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshots_accumulate_field_by_field() {
        let a = SessionSnapshot {
            frames_sent: 3,
            deadline_missed: 1,
            rate_searches: 4,
            rate_probes: 9,
            ..SessionSnapshot::default()
        };
        let b = SessionSnapshot {
            frames_sent: 7,
            pacer_rate_clamps: 2,
            ..SessionSnapshot::default()
        };
        let mut total = a;
        total.accumulate(&b);
        assert_eq!(
            total,
            SessionSnapshot {
                frames_sent: 10,
                deadline_missed: 1,
                pacer_rate_clamps: 2,
                rate_searches: 4,
                rate_probes: 9,
                ..SessionSnapshot::default()
            }
        );
    }

    #[test]
    fn snapshot_display_is_one_line() {
        let snapshot = SessionSnapshot {
            frames_sent: 8,
            frames_delivered: 8,
            ..SessionSnapshot::default()
        };
        let line = snapshot.to_string();
        assert!(line.contains("frames 8/8"), "{line}");
        assert!(!line.contains('\n'));
    }
}
