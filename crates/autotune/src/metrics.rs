//! Evaluation metrics over a [`TuningReport`] (§VI-A).

use critter_stats::summary::{mean, relative_error};

use crate::records::TuningReport;

impl TuningReport {
    /// Total simulated time the selective tuning sweep paid (selective runs
    /// plus any offline passes) — the x-axis quantity of Figs. 4a/4b/5a/5b.
    pub fn tuning_time(&self) -> f64 {
        self.configs
            .iter()
            .map(|c| {
                let tuned: f64 = c.pairs.iter().map(|(_, t)| t.elapsed).sum();
                let offline: f64 = c.offline.iter().map(|r| r.elapsed).sum();
                tuned + offline
            })
            .sum()
    }

    /// Total simulated time of the full-execution sweep (the red line).
    pub fn full_time(&self) -> f64 {
        self.configs.iter().map(|c| c.pairs.iter().map(|(f, _)| f.elapsed).sum::<f64>()).sum()
    }

    /// Autotuning speedup: full sweep time / selective sweep time.
    pub fn speedup(&self) -> f64 {
        self.full_time() / self.tuning_time().max(f64::MIN_POSITIVE)
    }

    /// Per-configuration relative execution-time prediction error, averaged
    /// over repetitions: `|predicted − full| / full` against the reference
    /// full execution run directly prior (Figs. 4g/4h/5g/5h).
    pub fn per_config_error(&self) -> Vec<f64> {
        self.configs
            .iter()
            .map(|c| {
                mean(
                    &c.pairs
                        .iter()
                        .map(|(f, t)| relative_error(t.predicted, f.elapsed))
                        .collect::<Vec<_>>(),
                )
            })
            .collect()
    }

    /// Mean relative prediction error across configurations
    /// (Figs. 4e/4f/5e/5f).
    pub fn mean_error(&self) -> f64 {
        self.mean_over_completed(&self.per_config_error())
    }

    /// Per-configuration relative error of the *critical-path computation
    /// kernel time* prediction (Figs. 4d/5d).
    fn per_config_comp_error(&self) -> Vec<f64> {
        self.configs
            .iter()
            .map(|c| {
                mean(
                    &c.pairs
                        .iter()
                        .map(|(f, t)| relative_error(t.path.comp_time, f.path.comp_time))
                        .collect::<Vec<_>>(),
                )
            })
            .collect()
    }

    /// Mean critical-path computation-time prediction error.
    pub fn mean_comp_error(&self) -> f64 {
        self.mean_over_completed(&self.per_config_comp_error())
    }

    /// Mean of a per-configuration metric over the configurations with at
    /// least one completed repetition. A quarantined configuration with none
    /// reads 0.0 and would otherwise dilute the mean.
    fn mean_over_completed(&self, per_config: &[f64]) -> f64 {
        let completed: Vec<f64> = (per_config.iter().zip(&self.configs))
            .filter(|(_, c)| !c.pairs.is_empty())
            .map(|(&x, _)| x)
            .collect();
        mean(&completed)
    }

    /// Total max-over-ranks *executed* kernel time of the selective sweep —
    /// Fig. 4c/5c's quantity (profiling overheads excluded by construction).
    pub fn kernel_time(&self) -> f64 {
        self.configs
            .iter()
            .map(|c| c.pairs.iter().map(|(_, t)| t.max_kernel_time).sum::<f64>())
            .sum()
    }

    /// The same quantity for the full-execution sweep.
    pub fn full_kernel_time(&self) -> f64 {
        self.configs
            .iter()
            .map(|c| c.pairs.iter().map(|(f, _)| f.max_kernel_time).sum::<f64>())
            .sum()
    }

    /// Kernel-time speedup (Fig. 4c/5c).
    pub fn kernel_time_speedup(&self) -> f64 {
        self.full_kernel_time() / self.kernel_time().max(f64::MIN_POSITIVE)
    }

    /// Mean reference full-execution time of each configuration (its "true"
    /// performance).
    pub fn true_times(&self) -> Vec<f64> {
        self.configs
            .iter()
            .map(|c| mean(&c.pairs.iter().map(|(f, _)| f.elapsed).collect::<Vec<_>>()))
            .collect()
    }

    /// Mean predicted time of each configuration.
    pub fn predicted_times(&self) -> Vec<f64> {
        self.configs
            .iter()
            .map(|c| mean(&c.pairs.iter().map(|(_, t)| t.predicted).collect::<Vec<_>>()))
            .collect()
    }

    /// Index of the configuration the tuner selects (minimum prediction).
    ///
    /// Quarantined configurations are excluded: they have no completed
    /// repetitions, so their "mean" would read as 0.0 and spuriously win
    /// the argmin.
    pub fn selected(&self) -> usize {
        argmin_live(&self.predicted_times(), &self.configs)
    }

    /// Index of the truly optimal configuration (minimum reference time,
    /// quarantined configurations excluded).
    pub fn optimal(&self) -> usize {
        argmin_live(&self.true_times(), &self.configs)
    }

    /// Selection quality: optimal true time / selected configuration's true
    /// time (1.0 = the tuner picked the optimum; the paper reports ≥ 0.99).
    pub fn selection_quality(&self) -> f64 {
        let t = self.true_times();
        t[self.optimal()] / t[self.selected()].max(f64::MIN_POSITIVE)
    }

    /// Fraction of kernel invocations skipped across the sweep.
    pub fn skip_fraction(&self) -> f64 {
        let (mut ex, mut sk) = (0u64, 0u64);
        for c in &self.configs {
            for (_, t) in &c.pairs {
                ex += t.kernels_executed;
                sk += t.kernels_skipped;
            }
        }
        if ex + sk == 0 {
            0.0
        } else {
            sk as f64 / (ex + sk) as f64
        }
    }
}

/// Argmin over configurations that actually completed (not quarantined).
fn argmin_live(xs: &[f64], configs: &[crate::records::ConfigResult]) -> usize {
    xs.iter()
        .enumerate()
        .filter(|&(i, _)| !configs[i].quarantined)
        .min_by(|a, b| a.1.partial_cmp(b.1).expect("NaN in times"))
        .map(|(i, _)| i)
        .expect("every configuration was quarantined")
}

#[cfg(test)]
mod tests {
    use crate::records::{ConfigResult, RunRecord, TuningReport};
    use critter_core::ExecutionPolicy;

    fn record(elapsed: f64, predicted: f64) -> RunRecord {
        RunRecord { elapsed, predicted, max_kernel_time: elapsed * 0.8, ..Default::default() }
    }

    fn report() -> TuningReport {
        TuningReport {
            policy: ExecutionPolicy::OnlinePropagation,
            epsilon: 0.25,
            configs: vec![
                ConfigResult {
                    name: "a".into(),
                    pairs: vec![(record(10.0, 0.0), record(4.0, 11.0))],
                    offline: vec![],
                    quarantined: false,
                },
                ConfigResult {
                    name: "b".into(),
                    pairs: vec![(record(8.0, 0.0), record(2.0, 7.6))],
                    offline: vec![record(8.0, 0.0)],
                    quarantined: false,
                },
            ],
            obs: None,
        }
    }

    #[test]
    fn timing_metrics() {
        let r = report();
        assert_eq!(r.full_time(), 18.0);
        assert_eq!(r.tuning_time(), 4.0 + 2.0 + 8.0);
        assert!((r.speedup() - 18.0 / 14.0).abs() < 1e-12);
    }

    #[test]
    fn error_metrics() {
        let r = report();
        let e = r.per_config_error();
        assert!((e[0] - 0.1).abs() < 1e-12);
        assert!((e[1] - 0.05).abs() < 1e-12);
        assert!((r.mean_error() - 0.075).abs() < 1e-12);
    }

    #[test]
    fn selection_metrics() {
        let r = report();
        assert_eq!(r.optimal(), 1); // true times 10 vs 8
        assert_eq!(r.selected(), 1); // predictions 11 vs 7.6
        assert_eq!(r.selection_quality(), 1.0);
    }

    #[test]
    fn quarantined_configs_never_win_selection() {
        let mut r = report();
        // An abandoned configuration has no pairs; its mean predicted/true
        // time reads as 0.0, which must not win the argmin.
        r.configs.push(ConfigResult {
            name: "dead".into(),
            quarantined: true,
            ..Default::default()
        });
        assert_eq!(r.optimal(), 1);
        assert_eq!(r.selected(), 1);
        assert_eq!(r.selection_quality(), 1.0);
    }

    #[test]
    fn quarantined_configs_do_not_dilute_mean_errors() {
        // With one repetition a quarantined configuration has no pairs, so
        // its per-config errors read 0.0; the means cover the live one only.
        let path = |comp_time| critter_core::PathMetrics { comp_time, ..Default::default() };
        let live = ConfigResult {
            name: "live".into(),
            pairs: vec![(
                RunRecord { path: path(5.0), ..record(10.0, 0.0) },
                RunRecord { path: path(4.0), ..record(4.0, 11.0) },
            )],
            ..Default::default()
        };
        let dead = ConfigResult { name: "dead".into(), quarantined: true, ..Default::default() };
        let r = TuningReport { configs: vec![live, dead], ..report() };
        assert!((r.mean_error() - 0.1).abs() < 1e-12, "mean error {}", r.mean_error());
        assert!((r.mean_comp_error() - 0.2).abs() < 1e-12, "comp error {}", r.mean_comp_error());
    }

    #[test]
    fn kernel_time_speedup() {
        let r = report();
        assert!((r.full_kernel_time() - 14.4).abs() < 1e-12);
        assert!((r.kernel_time() - 4.8).abs() < 1e-12);
        assert!((r.kernel_time_speedup() - 3.0).abs() < 1e-12);
    }
}
