//! Confidence intervals for kernel execution time, including the paper's
//! path-count-scaled variant.
//!
//! §III-A: a kernel (routine + input size) is modeled as i.i.d. draws of a
//! random variable `X`. After `n` locally collected samples, the half-width of
//! the two-sided interval on `E[X]` is `t*(level, n-1) · s / √n`. The paper's
//! *relative* criterion `ε̃ = CI size / mean ≤ ε` decides when a kernel becomes
//! predictable and execution can stop.
//!
//! The twist that makes the framework fast: if the kernel appears `k` times
//! along the current sub-critical path, the quantity we actually need to
//! predict is the *sum* `T` of those `k` occurrences, whose relative error
//! shrinks by `√k`. The paper writes this as assigning variance `σ²/k` to the
//! kernel's contribution — `Var[T] ≈ k^{-3/2} Σ (w̄ - wᵢ)²` in their §III-A
//! estimator — so the effective criterion divides the relative half-width by
//! `√k`. [`ConfidenceInterval::relative_scaled`] implements exactly that.

use std::sync::OnceLock;

use crate::special::{normal_critical, student_t_critical};
use crate::welford::OnlineStats;

/// A two-sided confidence level and its table of critical values.
///
/// Tuning runs evaluate the same `(level, dof)` pairs millions of times; the
/// bisection-based t quantile is exact but not free, so each dof below 200
/// has one slot in a table, filled by the first lookup and read without a
/// lock after that; from 200 dof on, the normal value stands in. Share one
/// level rather than building one per use: a fresh level starts empty.
#[derive(Debug, Clone)]
pub struct ConfidenceLevel {
    level: f64,
    z: f64,
    /// `t*(level, dof)` at index `dof - 1`, for `dof` in `1..200`.
    table: [OnceLock<f64>; 199],
}

impl ConfidenceLevel {
    /// A new confidence level, e.g. `0.95` for the paper's experiments.
    pub fn new(level: f64) -> Self {
        assert!(
            level > 0.0 && level < 1.0,
            "confidence level must be in the open interval (0,1), got {level}"
        );
        let table = std::array::from_fn(|_| OnceLock::new());
        ConfidenceLevel { level, z: normal_critical(level), table }
    }

    /// The level itself (e.g. 0.95).
    pub fn level(&self) -> f64 {
        self.level
    }

    /// Critical value for `n` samples: Student-t with `n-1` dof for small `n`,
    /// converging to the normal value for large `n`.
    pub fn critical(&self, n: u64) -> f64 {
        if n < 2 {
            return f64::INFINITY; // one sample says nothing about spread
        }
        let dof = n - 1;
        if dof >= 200 {
            return self.z;
        }
        *self.table[dof as usize - 1].get_or_init(|| student_t_critical(self.level, dof as f64))
    }
}

impl Default for ConfidenceLevel {
    /// The paper's 95% level.
    fn default() -> Self {
        ConfidenceLevel::new(0.95)
    }
}

/// A computed two-sided confidence interval on a kernel's mean time.
///
/// # Examples
///
/// ```
/// use critter_stats::{ConfidenceInterval, ConfidenceLevel, OnlineStats};
///
/// let stats = OnlineStats::from_slice(&[9.0, 10.0, 11.0, 10.0]);
/// let level = ConfidenceLevel::new(0.95);
/// let ci = ConfidenceInterval::from_stats(&stats, &level);
/// assert!(ci.lo() < 10.0 && 10.0 < ci.hi());
///
/// // The paper's relative criterion ε̃ = CI size / mean, and its
/// // path-count-scaled variant: k occurrences on the critical path tighten
/// // the effective criterion by √k (§III-A).
/// assert!(ci.relative() > ci.relative_scaled(4));
/// assert!((ci.relative_scaled(4) - ci.relative() / 2.0).abs() < 1e-12);
///
/// // Too few samples ⇒ an infinite interval: never predictable.
/// let one = ConfidenceInterval::from_stats(&OnlineStats::from_slice(&[1.0]), &level);
/// assert!(!one.predictable(0.5, 1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Sample mean the interval is centred on.
    pub mean: f64,
    /// Half-width of the interval.
    pub half_width: f64,
}

impl ConfidenceInterval {
    /// Interval on `E[X]` from locally accumulated statistics.
    pub fn from_stats(stats: &OnlineStats, level: &ConfidenceLevel) -> Self {
        let n = stats.count();
        let half = if n < 2 { f64::INFINITY } else { level.critical(n) * stats.std_error() };
        ConfidenceInterval { mean: stats.mean(), half_width: half }
    }

    /// Lower endpoint.
    pub fn lo(&self) -> f64 {
        self.mean - self.half_width
    }

    /// Upper endpoint.
    pub fn hi(&self) -> f64 {
        self.mean + self.half_width
    }

    /// The paper's relative criterion `ε̃`: full interval size divided by the
    /// mean. Infinite when the mean is not positive or too few samples exist.
    pub fn relative(&self) -> f64 {
        if self.mean <= 0.0 {
            f64::INFINITY
        } else {
            2.0 * self.half_width / self.mean
        }
    }

    /// Relative criterion scaled by the critical-path execution count `k`
    /// (§III-A): predicting the *sum* of `k` occurrences tightens the relative
    /// error by `√k`, so the effective `ε̃` is `relative() / √k`.
    pub fn relative_scaled(&self, path_count: u64) -> f64 {
        if path_count == 0 {
            self.relative()
        } else {
            self.relative() / (path_count as f64).sqrt()
        }
    }

    /// Whether the (possibly path-scaled) criterion meets tolerance `epsilon`.
    pub fn predictable(&self, epsilon: f64, path_count: u64) -> bool {
        self.relative_scaled(path_count) <= epsilon
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_of(xs: &[f64]) -> OnlineStats {
        OnlineStats::from_slice(xs)
    }

    #[test]
    fn interval_width_shrinks_with_samples() {
        let level = ConfidenceLevel::default();
        let base = [10.0, 10.5, 9.5, 10.2, 9.8];
        let small = ConfidenceInterval::from_stats(&stats_of(&base), &level);
        let mut many = Vec::new();
        for _ in 0..20 {
            many.extend_from_slice(&base);
        }
        let big = ConfidenceInterval::from_stats(&stats_of(&many), &level);
        assert!(big.half_width < small.half_width);
        assert!((big.mean - small.mean).abs() < 1e-9);
    }

    #[test]
    fn one_sample_is_never_predictable() {
        let level = ConfidenceLevel::default();
        let ci = ConfidenceInterval::from_stats(&stats_of(&[3.0]), &level);
        assert!(ci.half_width.is_infinite());
        assert!(!ci.predictable(1e9, 1));
    }

    #[test]
    fn zero_variance_immediately_predictable() {
        let level = ConfidenceLevel::default();
        let ci = ConfidenceInterval::from_stats(&stats_of(&[2.0, 2.0, 2.0]), &level);
        assert_eq!(ci.half_width, 0.0);
        assert!(ci.predictable(0.001, 1));
    }

    #[test]
    fn path_count_scales_criterion_by_sqrt_k() {
        let level = ConfidenceLevel::default();
        let ci = ConfidenceInterval::from_stats(&stats_of(&[1.0, 1.2, 0.8, 1.1, 0.9]), &level);
        let r1 = ci.relative_scaled(1);
        let r4 = ci.relative_scaled(4);
        assert!((r1 / r4 - 2.0).abs() < 1e-12);
        // k = 0 (kernel not on the path) falls back to unscaled.
        assert_eq!(ci.relative_scaled(0), ci.relative());
    }

    #[test]
    fn t_critical_larger_than_z_for_small_n() {
        let level = ConfidenceLevel::new(0.95);
        assert!(level.critical(3) > level.critical(1000));
        assert!((level.critical(1000) - 1.959_964).abs() < 1e-3);
    }

    #[test]
    fn critical_cache_is_consistent() {
        let level = ConfidenceLevel::new(0.95);
        let a = level.critical(5);
        let b = level.critical(5);
        assert_eq!(a, b);
        assert!((a - 2.776).abs() < 2e-3);
    }

    #[test]
    fn nonpositive_mean_never_predictable() {
        let level = ConfidenceLevel::default();
        let ci = ConfidenceInterval::from_stats(&stats_of(&[-1.0, -1.0, -1.0]), &level);
        assert!(ci.relative().is_infinite());
    }

    #[test]
    #[should_panic(expected = "open interval")]
    fn zero_level_is_rejected() {
        // Regression: `(0.0..1.0).contains(&0.0)` accepted level == 0.0, and
        // `normal_critical(0.0)` then yields a degenerate interval.
        let _ = ConfidenceLevel::new(0.0);
    }

    #[test]
    #[should_panic(expected = "open interval")]
    fn unit_level_is_rejected() {
        let _ = ConfidenceLevel::new(1.0);
    }

    #[test]
    fn boundary_adjacent_levels_are_accepted() {
        assert!(ConfidenceLevel::new(1e-9).level() > 0.0);
        assert!(ConfidenceLevel::new(1.0 - 1e-9).level() < 1.0);
    }

    #[test]
    fn critical_cache_is_race_free_under_contention() {
        // Threads sharing one level, all filling the table at once, must
        // see one value per dof.
        let level = std::sync::Arc::new(ConfidenceLevel::new(0.95));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let level = std::sync::Arc::clone(&level);
                std::thread::spawn(move || {
                    (2..32u64).map(|n| level.critical(n)).collect::<Vec<f64>>()
                })
            })
            .collect();
        let results: Vec<Vec<f64>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for other in &results[1..] {
            assert_eq!(&results[0], other);
        }
    }

    #[test]
    fn the_table_is_the_function() {
        for level in [0.95, 0.90] {
            let table = ConfidenceLevel::new(level);
            let z = normal_critical(level);
            for n in 0..=300u64 {
                let got = table.critical(n);
                let want = match n {
                    0 | 1 => f64::INFINITY,
                    2..=200 => student_t_critical(level, (n - 1) as f64),
                    _ => z,
                };
                assert_eq!(got.to_bits(), want.to_bits(), "level {level}, n {n}");
            }
        }
    }

    #[test]
    fn endpoints_bracket_mean() {
        let level = ConfidenceLevel::default();
        let ci = ConfidenceInterval::from_stats(&stats_of(&[5.0, 6.0, 7.0, 5.5]), &level);
        assert!(ci.lo() < ci.mean && ci.mean < ci.hi());
    }
}
