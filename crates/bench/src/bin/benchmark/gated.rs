//! The gated run (`--trace 0`): repetitions until `--seconds` are measured, end-to-end
//! metrics only, tracing off.

use crate::alloc::HEAP;
use crate::checks::{SimSums, Tally};
use crate::inputs::SeedPlan;
use crate::schema::{assert_matches, Values, END_TO_END};
use crate::stats::{nearest_rank, FAST_STATE_QUANTILE};
use crate::trace::Tracer;
use crate::workloads::{set_up, RepOutcome, RoundSample, Workload, MIN_REPETITIONS};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One timed round with where it ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundRow {
    /// Repetition, 0-based.
    pub repetition: usize,
    /// Round index within the repetition, 0-based.
    pub index: usize,
    /// `index % round_kinds`: rounds of one kind do the same work.
    pub kind: usize,
    /// Whether every engine call of the round sat inside a root span (traced run only).
    pub spanned: bool,
    /// The measurement.
    pub sample: RoundSample,
}

/// One repetition as run.
#[derive(Debug, Clone)]
pub struct RepetitionRun {
    /// Wall time of set-up: input generation, construction and warm-up.
    pub setup_s: f64,
    /// Peak live heap from the start of set-up to the end of the fixed block, over what
    /// was live before set-up began.
    pub peak_heap_bytes: u64,
    /// Wall time from the first round's start to the last round's end.
    pub measured: Duration,
    /// The rounds, in order.
    pub rounds: Vec<RoundRow>,
    /// Checks, sums, counts and digest.
    pub outcome: RepOutcome,
}

/// Runs one repetition: set-up, the fixed block, then more rounds until `budget` of
/// measured time is spent (none when `budget` is zero). With a tracer, every second cycle
/// of rounds is spanned, and at least one spanned cycle is run.
pub fn run_repetition(
    workload: Workload,
    plan: SeedPlan,
    repetition: usize,
    budget: Duration,
    mut tracer: Option<&mut Tracer>,
) -> RepetitionRun {
    let fixed_rounds = workload.fixed_rounds();
    let kinds = workload.round_kinds();
    let min_rounds = if tracer.is_some() {
        fixed_rounds.max(2 * kinds)
    } else {
        fixed_rounds
    };
    // The benchmark's own bookkeeping is allocated before the baseline is read, so the
    // peak is the workload's growth over it, whatever earlier repetitions (or an A/A
    // self-check's first run) left live.
    let mut rounds = Vec::with_capacity(fixed_rounds.max(4096));
    HEAP.reset_peak();
    let heap_baseline = HEAP.live_bytes();
    let setup_start = Instant::now();
    let mut rep = set_up(workload, plan);
    let setup_s = setup_start.elapsed().as_secs_f64();

    let mut peak_heap_bytes = 0;
    let measured_start = Instant::now();
    let mut index = 0;
    loop {
        let spanned = tracer.is_some() && (index / kinds) % 2 == 1;
        let sample = rep.run_round(index, if spanned { tracer.as_deref_mut() } else { None });
        rounds.push(RoundRow {
            repetition,
            index,
            kind: index % kinds,
            spanned,
            sample,
        });
        index += 1;
        if index == fixed_rounds {
            rep.end_fixed_block();
            peak_heap_bytes = HEAP.peak_bytes().saturating_sub(heap_baseline);
        }
        if index >= min_rounds && measured_start.elapsed() >= budget {
            break;
        }
    }
    RepetitionRun {
        setup_s,
        peak_heap_bytes,
        measured: measured_start.elapsed(),
        rounds,
        outcome: rep.finish(fixed_rounds),
    }
}

/// Fast-state host time per session-turn, in µs: for each kind of round, the nearest-rank
/// p10 of its wall times; summed over kinds and divided by the session-turns of one round
/// of each kind. With one kind this is simply p10(round time) ÷ turns per round.
pub fn fast_state_turn_us<'a>(rounds: impl Iterator<Item = &'a RoundRow>) -> f64 {
    let mut by_kind: BTreeMap<usize, (f64, Vec<f64>)> = BTreeMap::new();
    for row in rounds {
        let (turns, walls) = by_kind.entry(row.kind).or_default();
        *turns = f64::from(row.sample.turns);
        walls.push(row.sample.wall_ns as f64);
    }
    let mut wall_ns = 0.0;
    let mut turns = 0.0;
    for (kind_turns, walls) in by_kind.values() {
        wall_ns += nearest_rank(walls, FAST_STATE_QUANTILE).unwrap_or(0.0);
        turns += kind_turns;
    }
    if turns == 0.0 {
        0.0
    } else {
        wall_ns / turns / 1_000.0
    }
}

/// Everything a gated run measured.
#[derive(Debug, Clone)]
pub struct GatedOutcome {
    /// The repetitions.
    pub repetitions: Vec<RepetitionRun>,
    /// All repetitions' tallies, after the digest comparison.
    pub tally: Tally,
    /// Whether every repetition produced the same digest, sums and counts.
    pub repetitions_agree: bool,
}

impl GatedOutcome {
    /// The fixed block's sums (identical in every repetition when they agree).
    pub fn sums(&self) -> &SimSums {
        &self.repetitions[0].outcome.sums
    }

    /// The workload's `report_digest`.
    pub fn digest_hex(&self) -> String {
        self.repetitions[0].outcome.digest.hex()
    }

    /// True when no session-turn failed a check.
    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.tally.attempted > 0
    }

    /// Every round of every repetition.
    pub fn rounds(&self) -> impl Iterator<Item = &RoundRow> + Clone {
        self.repetitions.iter().flat_map(|r| r.rounds.iter())
    }

    /// The end-to-end metrics, in schema order.
    pub fn metrics(&self) -> Values {
        let sums = self.sums();
        let setup: Vec<f64> = self.repetitions.iter().map(|r| r.setup_s).collect();
        let peak = self
            .repetitions
            .iter()
            .map(|r| r.peak_heap_bytes)
            .max()
            .unwrap_or(0);
        let values = vec![
            ("turn_host_us", fast_state_turn_us(self.rounds())),
            (
                "setup_s",
                nearest_rank(&setup, FAST_STATE_QUANTILE).unwrap_or(0.0),
            ),
            ("peak_heap_mb", peak as f64 / 1e6),
            ("answer_p_correct", sums.per_turn(sums.p_correct)),
            ("evidence_quality", sums.per_turn(sums.evidence_quality)),
            ("deadline_hit_share", sums.deadline_hit_share()),
            ("sim_frame_latency_ms", sums.per_turn(sums.p95_latency_ms)),
        ];
        assert_matches(END_TO_END, &values);
        values
    }
}

/// Runs the gated benchmark of one workload.
pub fn run_gated(workload: Workload, seed: u64, seconds: f64) -> GatedOutcome {
    let plan = SeedPlan::from_seed(seed);
    let mut repetitions: Vec<RepetitionRun> = Vec::new();
    match workload.long_repetitions() {
        Some(n) => {
            let budget = Duration::from_secs_f64(seconds / n as f64);
            repetitions.extend((0..n).map(|rep| run_repetition(workload, plan, rep, budget, None)));
        }
        None => {
            let mut measured = 0.0;
            while repetitions.len() < MIN_REPETITIONS || measured < seconds {
                let run = run_repetition(workload, plan, repetitions.len(), Duration::ZERO, None);
                measured += run.measured.as_secs_f64();
                repetitions.push(run);
            }
        }
    }
    let mut tally = Tally::default();
    for r in &repetitions {
        tally.absorb(r.outcome.tally.clone());
    }
    let first = &repetitions[0].outcome;
    let repetitions_agree = repetitions[1..].iter().all(|r| {
        r.outcome.digest == first.digest && r.outcome.sums == first.sums && r.outcome.counts == first.counts
    });
    if !repetitions_agree {
        // Same seed, same inputs, different simulated outputs: nothing this run printed
        // about the workload can be trusted.
        tally.fail_turns(
            tally.attempted,
            "repetitions of one seed disagree on the fixed block's reports".to_string(),
        );
    }
    GatedOutcome {
        repetitions,
        tally,
        repetitions_agree,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::AllocMark;

    fn row(kind: usize, wall_ns: u64, turns: u32) -> RoundRow {
        RoundRow {
            repetition: 0,
            index: kind,
            kind,
            spanned: false,
            sample: RoundSample {
                wall_ns,
                turns,
                alloc: AllocMark::default(),
            },
        }
    }

    #[test]
    fn one_kind_is_p10_of_round_time_over_turns() {
        // Twenty rounds of 16 turns: p10 is the 2nd fastest (rank ceil(0.1 * 20) = 2).
        let rounds: Vec<RoundRow> = (0..20).map(|i| row(0, 16_000 * (100 + i), 16)).collect();
        let us = fast_state_turn_us(rounds.iter());
        assert!((us - 101.0).abs() < 1e-9, "{us}");
    }

    #[test]
    fn several_kinds_sum_their_fast_rounds_before_dividing() {
        // Kind 0: 20 turns, fastest 400 µs; kind 1: 10 turns, fastest 200 µs.
        let rounds = [
            row(0, 500_000, 20),
            row(1, 200_000, 10),
            row(0, 400_000, 20),
            row(1, 900_000, 10),
        ];
        let us = fast_state_turn_us(rounds.iter());
        assert!((us - 20.0).abs() < 1e-9, "{us}");
        assert_eq!(fast_state_turn_us([].iter()), 0.0);
    }
}
