//! Configuration-space search strategies.
//!
//! §VI-A uses exhaustive search "as our framework can be applied to
//! accelerate any configuration-space search strategy". This module provides
//! that generality: alongside exhaustive sweeps, a seeded random subsample
//! and a successive-halving search that spends loose-tolerance (cheap,
//! heavily-skipped) evaluations on the full space and progressively tightens
//! ε on the survivors — composing the paper's accuracy/cost dial with the
//! search itself.

use std::sync::Arc;

use critter_algs::Workload;
use critter_machine::rng::CounterRng;

use crate::{Autotuner, ConfigResult, TuningOptions};

/// A search strategy over a configuration space.
#[derive(Debug, Clone)]
pub enum SearchStrategy {
    /// Evaluate every configuration (the paper's protocol).
    Exhaustive,
    /// Evaluate a seeded random subset of the space.
    Random {
        /// Number of configurations to sample (without replacement).
        samples: usize,
        /// Sampling seed.
        seed: u64,
    },
    /// Successive halving: evaluate all configurations at a loose tolerance,
    /// keep the best `1/eta` fraction, tighten ε by `eta`, repeat until one
    /// survivor remains.
    SuccessiveHalving {
        /// Reduction factor per round (≥ 2).
        eta: usize,
    },
}

/// Outcome of a search: which configurations were evaluated (with their
/// results), the winner, and the total simulated cost paid.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// `(index into the original space, result)` in evaluation order.
    /// A configuration re-evaluated in a later halving round appears again.
    pub evaluated: Vec<(usize, ConfigResult)>,
    /// Index (into the original space) of the selected configuration.
    pub best: usize,
    /// Total simulated tuning time paid across all evaluations.
    pub tuning_time: f64,
    /// Total simulated time the equivalent full executions cost (reference).
    pub full_time: f64,
}

impl SearchOutcome {
    /// Search-level speedup against paying full executions for the same
    /// evaluations.
    pub fn speedup(&self) -> f64 {
        self.full_time / self.tuning_time.max(f64::MIN_POSITIVE)
    }

    /// Number of evaluations performed.
    pub fn evaluations(&self) -> usize {
        self.evaluated.len()
    }
}

fn mean_pred(c: &ConfigResult) -> f64 {
    let n = c.pairs.len().max(1) as f64;
    c.pairs.iter().map(|(_, t)| t.predicted).sum::<f64>() / n
}

fn accumulate(outcome: &mut SearchOutcome, idx: usize, c: ConfigResult) {
    outcome.tuning_time += c.pairs.iter().map(|(_, t)| t.elapsed).sum::<f64>()
        + c.offline.iter().map(|r| r.elapsed).sum::<f64>();
    outcome.full_time += c.pairs.iter().map(|(f, _)| f.elapsed).sum::<f64>();
    outcome.evaluated.push((idx, c));
}

/// Run `strategy` over `workloads` with the tuner's options (the options'
/// ε is the *final* tolerance; halving rounds start looser).
pub fn search(
    opts: &TuningOptions,
    workloads: &[Arc<dyn Workload>],
    strategy: &SearchStrategy,
) -> SearchOutcome {
    assert!(!workloads.is_empty(), "empty configuration space");
    let mut outcome =
        SearchOutcome { evaluated: Vec::new(), best: 0, tuning_time: 0.0, full_time: 0.0 };
    match strategy {
        SearchStrategy::Exhaustive => {
            let report = Autotuner::new(opts.clone()).tune(workloads);
            let best = report.selected();
            for (i, c) in report.configs.into_iter().enumerate() {
                accumulate(&mut outcome, i, c);
            }
            outcome.best = best;
        }
        SearchStrategy::Random { samples, seed } => {
            assert!(*samples > 0, "random search needs at least one sample");
            // Seeded Fisher–Yates prefix over the index set.
            let mut idx: Vec<usize> = (0..workloads.len()).collect();
            let mut rng = CounterRng::new(*seed, 0x5EA6C4);
            let take = (*samples).min(idx.len());
            for i in 0..take {
                let j = i + rng.below((idx.len() - i) as u64) as usize;
                idx.swap(i, j);
            }
            let chosen: Vec<usize> = idx[..take].to_vec();
            let subset: Vec<Arc<dyn Workload>> =
                chosen.iter().map(|&i| Arc::clone(&workloads[i])).collect();
            let report = Autotuner::new(opts.clone()).tune(&subset);
            let sel = report.selected();
            for (pos, c) in report.configs.into_iter().enumerate() {
                accumulate(&mut outcome, chosen[pos], c);
            }
            outcome.best = chosen[sel];
        }
        SearchStrategy::SuccessiveHalving { eta } => {
            assert!(*eta >= 2, "halving needs eta >= 2");
            // Number of rounds to reduce the space to one survivor.
            let mut rounds = 1usize;
            let mut span = workloads.len();
            while span > 1 {
                span = span.div_ceil(*eta);
                rounds += 1;
            }
            // Tolerances: geometric from loose to the caller's final ε.
            let final_eps = opts.epsilon;
            let mut survivors: Vec<usize> = (0..workloads.len()).collect();
            for round in 0..rounds {
                let eps = final_eps * (*eta as f64).powi((rounds - 1 - round) as i32);
                let mut round_opts = opts.clone();
                round_opts.epsilon = eps;
                // Distinct noise environments per round.
                round_opts.seed = opts.seed.wrapping_add(round as u64 + 1);
                let subset: Vec<Arc<dyn Workload>> =
                    survivors.iter().map(|&i| Arc::clone(&workloads[i])).collect();
                let report = Autotuner::new(round_opts).tune(&subset);
                // Rank by predicted time, keep the best 1/eta.
                let mut ranked: Vec<(usize, f64)> =
                    report.configs.iter().enumerate().map(|(pos, c)| (pos, mean_pred(c))).collect();
                ranked.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("NaN prediction"));
                let keep = survivors.len().div_ceil(*eta).max(1);
                let kept: Vec<usize> =
                    ranked[..keep].iter().map(|&(pos, _)| survivors[pos]).collect();
                for (pos, c) in report.configs.into_iter().enumerate() {
                    accumulate(&mut outcome, survivors[pos], c);
                }
                survivors = kept;
                if survivors.len() == 1 {
                    break;
                }
            }
            outcome.best = survivors[0];
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spaces::TuningSpace;
    use critter_core::ExecutionPolicy;

    fn opts() -> TuningOptions {
        let mut o =
            TuningOptions::new(ExecutionPolicy::OnlinePropagation, 0.25).with_test_machine();
        o.reset_between_configs = true;
        o
    }

    #[test]
    fn exhaustive_evaluates_everything() {
        let ws = TuningSpace::SlateQr.smoke();
        let out = search(&opts(), &ws, &SearchStrategy::Exhaustive);
        assert_eq!(out.evaluations(), ws.len());
        assert!(out.best < ws.len());
        assert!(out.tuning_time > 0.0 && out.full_time > 0.0);
    }

    #[test]
    fn random_subsamples_without_replacement() {
        let ws = TuningSpace::SlateCholesky.smoke();
        let out = search(&opts(), &ws, &SearchStrategy::Random { samples: 2, seed: 7 });
        assert_eq!(out.evaluations(), 2);
        let mut seen: Vec<usize> = out.evaluated.iter().map(|(i, _)| *i).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 2, "no duplicates");
        assert!(seen.contains(&out.best));
    }

    #[test]
    fn random_is_seeded() {
        let ws = TuningSpace::SlateCholesky.smoke();
        let pick = |seed| {
            search(&opts(), &ws, &SearchStrategy::Random { samples: 2, seed })
                .evaluated
                .iter()
                .map(|(i, _)| *i)
                .collect::<Vec<_>>()
        };
        assert_eq!(pick(1), pick(1));
    }

    #[test]
    fn halving_converges_to_single_survivor() {
        let ws = TuningSpace::CandmcQr.smoke();
        let out = search(&opts(), &ws, &SearchStrategy::SuccessiveHalving { eta: 2 });
        assert!(out.best < ws.len());
        // First round touches everything.
        let first_round: Vec<usize> =
            out.evaluated.iter().take(ws.len()).map(|(i, _)| *i).collect();
        assert_eq!(first_round.len(), ws.len());
        // Total evaluations exceed one pass (re-evaluation of survivors).
        assert!(out.evaluations() > ws.len());
    }

    #[test]
    fn halving_picks_a_good_configuration() {
        let ws = TuningSpace::SlateCholesky.smoke();
        let exhaustive = search(&opts(), &ws, &SearchStrategy::Exhaustive);
        let halved = search(&opts(), &ws, &SearchStrategy::SuccessiveHalving { eta: 2 });
        // The halving winner's true performance is within 25% of exhaustive's.
        let truth = |o: &SearchOutcome, idx: usize| {
            o.evaluated
                .iter()
                .rev()
                .find(|(i, _)| *i == idx)
                .map(|(_, c)| {
                    c.pairs.iter().map(|(f, _)| f.elapsed).sum::<f64>() / c.pairs.len() as f64
                })
                .expect("winner was evaluated")
        };
        let t_ex = truth(&exhaustive, exhaustive.best);
        let t_half = truth(&halved, halved.best);
        assert!(t_half <= t_ex * 1.25, "halving winner {t_half} vs exhaustive {t_ex}");
    }
}
