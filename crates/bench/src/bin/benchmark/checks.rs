//! Output checks and the simulated-quality sums.
//!
//! A session-turn that fails a check counts in `failed` (and in `core.failed_turn_share`);
//! the checks are conservation laws the engine's own counters must satisfy, so they need
//! no reference output:
//!
//! * every number in the serialized report is finite;
//! * `frames_delivered ≤ frames_decoded ≤ frames_sent`;
//! * the session's turn-committed always-on counters equal the sums of its turn reports;
//! * link conservation `offered = delivered + dropped_queue + lost_random + outage_drops`;
//! * the repetitions of a run — same seed, same inputs — produce the same digest.

use aivc_netsim::LinkCounters;
use aivchat_core::{NetTurnReport, SessionSnapshot};
use serde::{Serialize, Value};

/// Attempted / failed session-turns of one repetition, with the first few reasons.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    /// Session-turns run and checked.
    pub attempted: u64,
    /// Session-turns that failed at least one check.
    pub failed: u64,
    /// The first few failure reasons, for the log.
    pub reasons: Vec<String>,
}

impl Tally {
    const MAX_REASONS: usize = 8;

    /// Counts one checked session-turn.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = outcome {
            self.failed += 1;
            self.note(reason);
        }
    }

    /// Fails `turns` already-counted session-turns at once (a session- or run-level law
    /// broke, so none of its turns can be trusted).
    pub fn fail_turns(&mut self, turns: u64, reason: String) {
        self.failed = (self.failed + turns).min(self.attempted);
        self.note(reason);
    }

    fn note(&mut self, reason: String) {
        if self.reasons.len() < Self::MAX_REASONS {
            self.reasons.push(reason);
        }
    }

    /// Adds another tally in.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for r in other.reasons {
            self.note(r);
        }
    }
}

/// True when no number anywhere in `value` is NaN or infinite.
pub fn all_numbers_finite(value: &Value) -> bool {
    match value {
        Value::F64(x) => x.is_finite(),
        Value::Array(items) => items.iter().all(all_numbers_finite),
        Value::Object(pairs) => pairs.iter().all(|(_, v)| all_numbers_finite(v)),
        _ => true,
    }
}

/// The per-turn checks: finite numbers and the frame-count ordering.
pub fn check_turn(report: &NetTurnReport) -> Result<(), String> {
    if !all_numbers_finite(&report.to_value()) {
        return Err("non-finite number in report".to_string());
    }
    if !(report.frames_delivered <= report.frames_decoded && report.frames_decoded <= report.frames_sent) {
        return Err(format!(
            "frame ordering violated: delivered {} decoded {} sent {}",
            report.frames_delivered, report.frames_decoded, report.frames_sent
        ));
    }
    Ok(())
}

/// Link conservation: every offered packet was delivered or dropped with a cause.
pub fn check_link(c: &LinkCounters) -> Result<(), String> {
    let accounted = c.delivered + c.dropped_queue + c.lost_random + c.outage_drops;
    if c.offered == accounted {
        Ok(())
    } else {
        Err(format!(
            "link conservation violated: offered {} != delivered {} + queue {} + random {} + outage {}",
            c.offered, c.delivered, c.dropped_queue, c.lost_random, c.outage_drops
        ))
    }
}

/// The turn-committed counter family of `snapshot` must equal the sums over `turns`
/// (every turn the session has run).
pub fn check_reconciliation(snapshot: &SessionSnapshot, turns: &[NetTurnReport]) -> Result<(), String> {
    let sum = |f: fn(&NetTurnReport) -> u64| turns.iter().map(f).sum::<u64>();
    let pairs = [
        ("frames_sent", snapshot.frames_sent, sum(|t| t.frames_sent as u64)),
        (
            "frames_delivered",
            snapshot.frames_delivered,
            sum(|t| t.frames_delivered as u64),
        ),
        (
            "fec_recovered_frames",
            snapshot.fec_recovered_frames,
            sum(|t| t.fec_recovered_frames),
        ),
        ("packets_lost", snapshot.packets_lost, sum(|t| t.packets_lost)),
        (
            "retransmissions_sent",
            snapshot.retransmissions_sent,
            sum(|t| t.retransmissions_sent),
        ),
        (
            "frames_shed",
            snapshot.frames_shed,
            sum(|t| t.resilience.frames_shed),
        ),
        (
            "captures_suppressed",
            snapshot.captures_suppressed,
            sum(|t| t.resilience.captures_suppressed),
        ),
        (
            "watchdog_fallbacks",
            snapshot.watchdog_fallbacks,
            sum(|t| t.resilience.watchdog_fallbacks),
        ),
        (
            "deadline_missed",
            snapshot.deadline_missed,
            sum(|t| u64::from(t.frames_decoded == 0)),
        ),
    ];
    for (name, counter, reports) in pairs {
        if counter != reports {
            return Err(format!(
                "counter {name} = {counter} but turn reports sum to {reports}"
            ));
        }
    }
    Ok(())
}

/// Sums over the fixed block's turn reports: the simulated chat user's quality (exact and
/// seed-reproducible) plus the report-borne counts the per-layer metrics divide by turns.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimSums {
    /// Session-turns summed.
    pub turns: u64,
    /// Σ `answer.probability_correct`.
    pub p_correct: f64,
    /// Σ `answer.perceived_evidence_quality`.
    pub evidence_quality: f64,
    /// Σ `p95_frame_latency_ms`.
    pub p95_latency_ms: f64,
    /// Σ `achieved_bitrate_bps`.
    pub achieved_bps: f64,
    /// Σ `mean_target_bitrate_bps`.
    pub target_bps: f64,
    /// Σ `frames_sent`.
    pub frames_sent: u64,
    /// Σ `frames_delivered`.
    pub frames_delivered: u64,
    /// Σ `retransmissions_sent`.
    pub rtx: u64,
    /// Σ `fec_recovered_frames`.
    pub fec_recovered_frames: u64,
    /// Σ `resilience.watchdog_fallbacks`.
    pub watchdog_fallbacks: u64,
    /// Σ `answer.visual_tokens`.
    pub visual_tokens: u64,
}

impl SimSums {
    /// Adds one turn report.
    pub fn add(&mut self, t: &NetTurnReport) {
        self.turns += 1;
        self.p_correct += t.answer.probability_correct;
        self.evidence_quality += t.answer.perceived_evidence_quality;
        self.p95_latency_ms += t.p95_frame_latency_ms;
        self.achieved_bps += t.achieved_bitrate_bps;
        self.target_bps += t.mean_target_bitrate_bps;
        self.frames_sent += t.frames_sent as u64;
        self.frames_delivered += t.frames_delivered as u64;
        self.rtx += t.retransmissions_sent;
        self.fec_recovered_frames += t.fec_recovered_frames;
        self.watchdog_fallbacks += t.resilience.watchdog_fallbacks;
        self.visual_tokens += u64::from(t.answer.visual_tokens);
    }

    /// Mean of a summed quantity per session-turn.
    pub fn per_turn(&self, sum: f64) -> f64 {
        sum / self.turns.max(1) as f64
    }

    /// Frames complete by the 300 ms deadline over frames attempted.
    pub fn deadline_hit_share(&self) -> f64 {
        self.frames_delivered as f64 / self.frames_sent.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(sent: usize, decoded: usize, delivered: usize) -> NetTurnReport {
        NetTurnReport {
            frames_sent: sent,
            frames_decoded: decoded,
            frames_delivered: delivered,
            ..NetTurnReport::placeholder()
        }
    }

    #[test]
    fn turn_checks_catch_nan_and_frame_ordering() {
        assert!(check_turn(&report(4, 4, 3)).is_ok());
        assert!(check_turn(&report(4, 3, 4)).is_err());
        assert!(check_turn(&report(3, 4, 2)).is_err());
        let mut nan = report(4, 4, 4);
        nan.goodput_bps = f64::NAN;
        assert!(check_turn(&nan).is_err());
        let mut inf = report(4, 4, 4);
        inf.answer.latency.decode_ms = f64::INFINITY;
        assert!(check_turn(&inf).is_err());
    }

    #[test]
    fn link_conservation_needs_every_packet_accounted_for() {
        let mut c = LinkCounters {
            offered: 10,
            delivered: 6,
            dropped_queue: 1,
            lost_random: 2,
            outage_drops: 1,
            ..LinkCounters::default()
        };
        assert!(check_link(&c).is_ok());
        c.delivered = 5;
        assert!(check_link(&c).is_err());
    }

    #[test]
    fn reconciliation_compares_counters_with_report_sums() {
        let mut a = report(4, 4, 4);
        a.retransmissions_sent = 3;
        a.resilience.watchdog_fallbacks = 1;
        let b = report(4, 0, 0);
        let mut snap = SessionSnapshot {
            frames_sent: 8,
            frames_delivered: 4,
            retransmissions_sent: 3,
            watchdog_fallbacks: 1,
            deadline_missed: 1,
            ..SessionSnapshot::default()
        };
        assert!(check_reconciliation(&snap, &[a.clone(), b.clone()]).is_ok());
        snap.retransmissions_sent = 4;
        let err = check_reconciliation(&snap, &[a, b]).unwrap_err();
        assert!(err.contains("retransmissions_sent"), "{err}");
    }

    #[test]
    fn tally_counts_and_caps_failures_at_attempts() {
        let mut t = Tally::default();
        t.record(Ok(()));
        t.record(Err("bad".into()));
        t.record(Ok(()));
        assert_eq!((t.attempted, t.failed), (3, 1));
        t.fail_turns(10, "digest mismatch".into());
        assert_eq!(t.failed, 3);
        assert_eq!(t.reasons.len(), 2);
    }

    #[test]
    fn sums_give_means_and_the_deadline_hit_share() {
        let mut s = SimSums::default();
        let mut a = report(4, 4, 4);
        a.answer.probability_correct = 0.9;
        a.p95_frame_latency_ms = 40.0;
        let mut b = report(4, 3, 2);
        b.answer.probability_correct = 0.7;
        b.p95_frame_latency_ms = 60.0;
        s.add(&a);
        s.add(&b);
        assert_eq!(s.turns, 2);
        assert!((s.per_turn(s.p_correct) - 0.8).abs() < 1e-12);
        assert!((s.per_turn(s.p95_latency_ms) - 50.0).abs() < 1e-12);
        assert!((s.deadline_hit_share() - 0.75).abs() < 1e-12);
    }
}
