//! The Figure 9 experiment: MLLM accuracy vs bitrate, context-aware streaming vs the
//! uniform-QP baseline, at matched actual bitrates.
//!
//! The paper reports (on an early, free-response DeViBench snapshot): the baseline drops
//! from 0.73 accuracy at 827.9 Kbps to 0.33 at 426.4 Kbps, while context-aware streaming
//! only drops from 0.93 at 850.1 Kbps to 0.87 at 432.7 Kbps. The reproduction evaluates
//! both methods on the corpus's quality-sensitive questions across a bitrate sweep and
//! reports the same curve; the *shape* (ours stays flat and high, the baseline collapses)
//! is the claim under test.

use crate::context_aware::{Streamer, StreamerConfig};
use crate::session::StreamingMode;
use aivc_mllm::{MllmChat, Question, QuestionFormat};
use aivc_scene::Corpus;
use aivc_semantics::ClipModel;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One point of the Figure 9 curve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AccuracyPoint {
    /// Method.
    pub method: StreamingMode,
    /// Requested target bitrate in bits per second.
    pub target_bitrate_bps: f64,
    /// Mean achieved bitrate across clips in bits per second.
    pub achieved_bitrate_bps: f64,
    /// Fraction of questions answered correctly.
    pub accuracy: f64,
    /// Mean model probability of a correct answer (smoother than sampled accuracy).
    pub mean_probability: f64,
    /// Number of questions evaluated.
    pub questions: usize,
}

/// Runs the accuracy-vs-bitrate experiment over a corpus.
///
/// For every quality-sensitive ground-truth fact (required detail ≥ `min_detail`), both
/// methods encode the clip's question window at each target bitrate (matched by trial and
/// error), the responder MLLM answers, and per-method/per-bitrate accuracy is aggregated.
/// Questions are posed free-response, matching the DeViBench snapshot used for the paper's
/// Figure 9.
pub fn run_accuracy_vs_bitrate(
    corpus: &Corpus,
    bitrates_bps: &[f64],
    min_detail: f64,
    frames_per_clip: usize,
    seed: u64,
) -> Vec<AccuracyPoint> {
    let model = Arc::new(ClipModel::mobile_default());
    // In draw-tag order: the baseline's answers draw under tag 0, ours under tag 1.
    let senders = [StreamingMode::Baseline, StreamingMode::ContextAware]
        .map(|mode| Streamer::new(mode, StreamerConfig::default(), Arc::clone(&model)));
    let responder = MllmChat::responder(seed);
    let mut points = Vec::new();

    for (b_idx, &bitrate) in bitrates_bps.iter().enumerate() {
        for (draw_tag, sender) in senders.iter().enumerate() {
            let mut correct = 0usize;
            let mut questions = 0usize;
            let mut prob_sum = 0.0;
            let mut achieved_sum = 0.0;
            let mut achieved_count = 0usize;

            for clip in corpus.clips() {
                let source = clip.source();
                let sensitive: Vec<Question> = clip
                    .scene
                    .facts
                    .iter()
                    .filter(|f| f.required_detail >= min_detail)
                    .map(|f| Question::from_fact(f, QuestionFormat::FreeResponse))
                    .collect();
                // The baseline's encode does not depend on the question (test-asserted in
                // `context_aware`), so it is done once per clip, under the first one.
                let per_clip = sensitive
                    .first()
                    .filter(|_| sender.mode() == StreamingMode::Baseline)
                    .map(|question| sender.offline_decode(&source, question, bitrate, frames_per_clip));
                for (q_idx, question) in sensitive.iter().enumerate() {
                    let per_question;
                    let (frames, encode) = match &per_clip {
                        Some(shared) => shared,
                        None => {
                            per_question = sender.offline_decode(&source, question, bitrate, frames_per_clip);
                            &per_question
                        }
                    };
                    achieved_sum += encode.achieved_bitrate_bps;
                    achieved_count += 1;
                    let tag = (b_idx as u64) << 40 | (clip.id) << 20 | (q_idx as u64) << 4 | draw_tag as u64;
                    let answer = responder.respond(question, frames, tag);
                    questions += 1;
                    prob_sum += answer.probability_correct;
                    if answer.correct {
                        correct += 1;
                    }
                }
            }
            points.push(AccuracyPoint {
                method: sender.mode(),
                target_bitrate_bps: bitrate,
                achieved_bitrate_bps: if achieved_count == 0 {
                    0.0
                } else {
                    achieved_sum / achieved_count as f64
                },
                accuracy: if questions == 0 {
                    0.0
                } else {
                    correct as f64 / questions as f64
                },
                mean_probability: if questions == 0 {
                    0.0
                } else {
                    prob_sum / questions as f64
                },
                questions,
            });
        }
    }
    points
}

/// Renders the points as a markdown table, paper values alongside (used by the
/// `fig9_accuracy_vs_bitrate` harness).
pub fn accuracy_table(points: &[AccuracyPoint]) -> String {
    let mut out = String::from(
        "| method | target kbps | achieved kbps | accuracy | mean P(correct) | questions |\n|---|---|---|---|---|---|\n",
    );
    for p in points {
        out.push_str(&format!(
            "| {} | {:.0} | {:.1} | {:.2} | {:.2} | {} |\n",
            p.method,
            p.target_bitrate_bps / 1_000.0,
            p.achieved_bitrate_bps / 1_000.0,
            p.accuracy,
            p.mean_probability,
            p.questions
        ));
    }
    out.push_str(
        "\nPaper (Figure 9): baseline 0.73 @ 827.9 kbps -> 0.33 @ 426.4 kbps; ours 0.93 @ 850.1 kbps -> 0.87 @ 432.7 kbps\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Corpus {
        // Hold the capture rate at 30 FPS so the bitrate sweep is the only variable, as in
        // the paper's Figure 9 setup.
        let mut c = Corpus::streamingbench_like(31, 5, 10.0, 15.0);
        c.set_uniform_fps(30.0);
        c
    }

    #[test]
    fn figure9_shape_ours_stays_high_while_baseline_collapses() {
        let points = run_accuracy_vs_bitrate(&corpus(), &[850_000.0, 430_000.0], 0.55, 4, 77);
        let find = |method, bitrate: f64| {
            points
                .iter()
                .find(|p| p.method == method && (p.target_bitrate_bps - bitrate).abs() < 1.0)
                .copied()
                .unwrap()
        };
        let base_high = find(StreamingMode::Baseline, 850_000.0);
        let base_low = find(StreamingMode::Baseline, 430_000.0);
        let ours_high = find(StreamingMode::ContextAware, 850_000.0);
        let ours_low = find(StreamingMode::ContextAware, 430_000.0);

        // Baseline collapses when the bitrate is halved.
        assert!(
            base_low.mean_probability < base_high.mean_probability - 0.15,
            "baseline did not collapse: {} -> {}",
            base_high.mean_probability,
            base_low.mean_probability
        );
        // Ours degrades far more gracefully than the baseline (the paper's content keeps the
        // chat-relevant regions small, where ours is nearly flat; our corpus includes
        // whole-frame-evidence scenes such as lecture slides, so some drop remains).
        let ours_drop = ours_high.mean_probability - ours_low.mean_probability;
        let base_drop = base_high.mean_probability - base_low.mean_probability;
        assert!(
            ours_drop < base_drop,
            "ours dropped {ours_drop} vs baseline {base_drop}"
        );
        assert!(ours_drop < 0.35, "ours dropped too much: {ours_drop}");
        assert!(
            ours_low.mean_probability > base_low.mean_probability + 0.25,
            "ours {} should clearly beat baseline {} at ~430 kbps",
            ours_low.mean_probability,
            base_low.mean_probability
        );
        // Ours at ~430 kbps should be at least on par with the baseline at ~850 kbps — the
        // "half the bitrate, same accuracy" headline of §3.2.
        assert!(
            ours_low.mean_probability >= base_high.mean_probability - 0.05,
            "ours@430 {} vs baseline@850 {}",
            ours_low.mean_probability,
            base_high.mean_probability
        );
        // Bitrates are actually matched between the two methods.
        let ratio = ours_low.achieved_bitrate_bps / base_low.achieved_bitrate_bps;
        assert!(ratio > 0.6 && ratio < 1.6, "achieved bitrate ratio {ratio}");
    }

    #[test]
    fn table_rendering_includes_both_methods() {
        let points = run_accuracy_vs_bitrate(&corpus(), &[600_000.0], 0.55, 3, 5);
        let table = accuracy_table(&points);
        assert!(table.contains("baseline"));
        assert!(table.contains("context-aware"));
        assert!(table.contains("Paper (Figure 9)"));
    }
}
