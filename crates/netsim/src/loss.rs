//! Packet-loss models.
//!
//! Figure 3 sweeps the random loss rate (0–10 %) on a fixed-bandwidth link; the
//! [`LossModel::Iid`] model reproduces that setting. Real access networks lose packets in
//! bursts, so a Gilbert–Elliott two-state model is provided as well and is used by the
//! ablation experiments (FEC vs retransmission behaves very differently under bursty loss).

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

/// Configuration of a loss process.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum LossModel {
    /// No loss at all.
    None,
    /// Independent (Bernoulli) loss with the given probability per packet.
    Iid {
        /// Loss probability in `[0, 1]`.
        rate: f64,
    },
    /// Gilbert–Elliott bursty loss: a two-state Markov chain alternating between a `good`
    /// state (low loss) and a `bad` state (high loss).
    GilbertElliott {
        /// Probability of transitioning good → bad per packet.
        p_good_to_bad: f64,
        /// Probability of transitioning bad → good per packet.
        p_bad_to_good: f64,
        /// Loss probability while in the good state.
        loss_good: f64,
        /// Loss probability while in the bad state.
        loss_bad: f64,
    },
}

impl LossModel {
    /// A bursty model with the given average loss rate and mean burst length (in packets).
    ///
    /// Useful for ablations: same average rate as an i.i.d. model, very different impact on
    /// frame completion latency.
    pub fn bursty(avg_rate: f64, mean_burst_len: f64) -> Self {
        let avg_rate = avg_rate.clamp(0.0, 0.99);
        let mean_burst_len = mean_burst_len.max(1.0);
        // Loss only happens in the bad state, where everything is lost.
        let p_bad_to_good = 1.0 / mean_burst_len;
        // Stationary bad-state probability must equal avg_rate:
        //   pi_bad = p_gb / (p_gb + p_bg) = avg_rate  =>  p_gb = avg_rate * p_bg / (1 - avg_rate)
        let p_good_to_bad = (avg_rate * p_bad_to_good / (1.0 - avg_rate)).min(1.0);
        LossModel::GilbertElliott {
            p_good_to_bad,
            p_bad_to_good,
            loss_good: 0.0,
            loss_bad: 1.0,
        }
    }
}

/// Stateful loss process instantiated from a [`LossModel`] and a seed.
#[derive(Debug, Clone)]
pub struct LossProcess {
    model: LossModel,
    rng: ChaCha8Rng,
    in_bad_state: bool,
}

impl LossProcess {
    /// Creates a loss process.
    pub fn new(model: LossModel, seed: u64) -> Self {
        Self {
            model,
            rng: ChaCha8Rng::seed_from_u64(seed),
            in_bad_state: false,
        }
    }

    /// The configured model.
    pub fn model(&self) -> LossModel {
        self.model
    }

    /// Decides whether the next packet is lost.
    pub fn next_is_lost(&mut self) -> bool {
        match self.model {
            LossModel::None => false,
            LossModel::Iid { rate } => self.rng.gen_bool(rate.clamp(0.0, 1.0)),
            LossModel::GilbertElliott {
                p_good_to_bad,
                p_bad_to_good,
                loss_good,
                loss_bad,
            } => {
                // State transition first, then loss decision in the new state.
                if self.in_bad_state {
                    if self.rng.gen_bool(p_bad_to_good.clamp(0.0, 1.0)) {
                        self.in_bad_state = false;
                    }
                } else if self.rng.gen_bool(p_good_to_bad.clamp(0.0, 1.0)) {
                    self.in_bad_state = true;
                }
                let p = if self.in_bad_state { loss_bad } else { loss_good };
                self.rng.gen_bool(p.clamp(0.0, 1.0))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_loses() {
        let mut p = LossProcess::new(LossModel::None, 1);
        assert!((0..10_000).all(|_| !p.next_is_lost()));
    }

    #[test]
    fn iid_rate_converges_to_configured() {
        let mut p = LossProcess::new(LossModel::Iid { rate: 0.05 }, 7);
        let n = 200_000;
        let losses = (0..n).filter(|_| p.next_is_lost()).count();
        let observed = losses as f64 / n as f64;
        assert!((observed - 0.05).abs() < 0.005, "observed {observed}");
    }

    #[test]
    fn bursty_mean_rate_matches_target() {
        let model = LossModel::bursty(0.05, 8.0);
        let mut p = LossProcess::new(model, 11);
        let n = 400_000;
        let losses = (0..n).filter(|_| p.next_is_lost()).count();
        let observed = losses as f64 / n as f64;
        assert!((observed - 0.05).abs() < 0.01, "observed {observed}");
    }

    #[test]
    fn bursty_losses_are_clustered() {
        // Compare the number of loss "runs" under bursty vs iid at the same average rate:
        // bursty loss should concentrate losses into fewer, longer runs.
        let count_runs = |model: LossModel, seed: u64| {
            let mut p = LossProcess::new(model, seed);
            let seq: Vec<bool> = (0..100_000).map(|_| p.next_is_lost()).collect();
            let mut runs = 0;
            let mut prev = false;
            for &l in &seq {
                if l && !prev {
                    runs += 1;
                }
                prev = l;
            }
            runs
        };
        let iid_runs = count_runs(LossModel::Iid { rate: 0.05 }, 3);
        let bursty_runs = count_runs(LossModel::bursty(0.05, 10.0), 3);
        assert!(
            (bursty_runs as f64) < (iid_runs as f64) * 0.5,
            "bursty {bursty_runs} vs iid {iid_runs}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let seq = |seed| {
            let mut p = LossProcess::new(LossModel::Iid { rate: 0.3 }, seed);
            (0..1000).map(|_| p.next_is_lost()).collect::<Vec<_>>()
        };
        assert_eq!(seq(5), seq(5));
        assert_ne!(seq(5), seq(6));
    }
}
