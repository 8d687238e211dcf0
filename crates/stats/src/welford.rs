//! Single-pass mean/variance accumulation (Welford's algorithm).
//!
//! The paper's framework requires "standard single-pass algorithms" to build
//! kernel performance models during execution (§III-A): each intercepted
//! kernel contributes one observation; no sample is ever stored. Welford's
//! update is numerically stable and its pairwise `merge` (Chan et al.) lets the
//! eager-propagation policy combine statistics gathered on different ranks.

/// Single-pass accumulator of count, mean, and variance.
///
/// # Examples
///
/// ```
/// use critter_stats::OnlineStats;
///
/// // One observation at a time, no samples stored (§III-A's requirement).
/// let mut s = OnlineStats::new();
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     s.push(x);
/// }
/// assert_eq!(s.count(), 4);
/// assert_eq!(s.mean(), 2.5);
/// assert!((s.variance() - 5.0 / 3.0).abs() < 1e-12);
///
/// // Chan's merge combines accumulators as if their samples interleaved —
/// // what eager propagation does with statistics from different ranks.
/// let mut a = OnlineStats::from_slice(&[1.0, 2.0]);
/// a.merge(&OnlineStats::from_slice(&[3.0, 4.0]));
/// assert_eq!(a.count(), s.count());
/// assert_eq!(a.mean(), s.mean());
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    /// Sum of squared deviations from the running mean (Welford's M2).
    m2: f64,
    min: f64,
    max: f64,
    total: f64,
}

impl OnlineStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            total: 0.0,
        }
    }

    /// Rebuild an accumulator from previously extracted raw parts, the
    /// inverse of reading `count`/`mean`/[`m2`](Self::m2)/`min`/`max`/`total`.
    /// Used by the profile snapshot layer to restore persisted kernel models
    /// bit-exactly; callers are responsible for passing a self-consistent
    /// tuple (the accessors of a live accumulator always are).
    pub fn from_parts(count: u64, mean: f64, m2: f64, min: f64, max: f64, total: f64) -> Self {
        if count == 0 {
            return Self::new();
        }
        OnlineStats { count, mean, m2, min, max, total }
    }

    /// Accumulator pre-loaded with one pass over `xs`.
    pub fn from_slice(xs: &[f64]) -> Self {
        let mut s = Self::new();
        for &x in xs {
            s.push(x);
        }
        s
    }

    /// Add one observation.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        self.total += x;
    }

    /// Number of observations.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean; `0.0` when empty.
    #[inline]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sum of all observations.
    #[inline]
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Welford's running sum of squared deviations (M2). Exposed so the
    /// accumulator can be persisted and rebuilt via
    /// [`from_parts`](Self::from_parts) without loss.
    #[inline]
    pub fn m2(&self) -> f64 {
        self.m2
    }

    /// Smallest observation; `+∞` when empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation; `-∞` when empty.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Unbiased sample variance (`n-1` denominator); `0.0` for fewer than two
    /// observations.
    #[inline]
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / (self.count - 1) as f64).max(0.0)
        }
    }

    /// Sample standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean, `s/√n`.
    pub fn std_error(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.stddev() / (self.count as f64).sqrt()
        }
    }

    /// Merge another accumulator into this one (Chan's parallel combination),
    /// as if all of `other`'s observations had been pushed here.
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += delta * n2 / n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.total += other.total;
    }

    /// Reset to empty.
    pub fn clear(&mut self) {
        *self = OnlineStats::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn two_pass(xs: &[f64]) -> (f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = if xs.len() < 2 {
            0.0
        } else {
            xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0)
        };
        (mean, var)
    }

    #[test]
    fn matches_two_pass() {
        let xs = [1.0, 2.0, 4.0, 8.0, 16.5, 3.25];
        let s = OnlineStats::from_slice(&xs);
        let (m, v) = two_pass(&xs);
        assert!((s.mean() - m).abs() < 1e-12);
        assert!((s.variance() - v).abs() < 1e-12);
        assert_eq!(s.count(), 6);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 16.5);
    }

    #[test]
    fn empty_and_singleton() {
        let s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        let mut s = s;
        s.push(5.0);
        assert_eq!(s.mean(), 5.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.std_error(), 0.0);
    }

    #[test]
    fn from_parts_round_trips_bit_exactly() {
        let s = OnlineStats::from_slice(&[1.0, 2.5, 9.0, 0.125]);
        let r = OnlineStats::from_parts(s.count(), s.mean(), s.m2(), s.min(), s.max(), s.total());
        assert_eq!(s, r);
        // The empty accumulator restores through from_parts regardless of the
        // sentinel values handed in (persisted form drops the ±∞ min/max).
        assert_eq!(OnlineStats::from_parts(0, 0.0, 0.0, 0.0, 0.0, 0.0), OnlineStats::new());
    }

    #[test]
    fn merge_matches_concatenation() {
        let a = [0.5, 1.5, 2.5];
        let b = [10.0, 20.0];
        let mut sa = OnlineStats::from_slice(&a);
        let sb = OnlineStats::from_slice(&b);
        sa.merge(&sb);
        let all: Vec<f64> = a.iter().chain(b.iter()).copied().collect();
        let sc = OnlineStats::from_slice(&all);
        assert_eq!(sa.count(), sc.count());
        assert!((sa.mean() - sc.mean()).abs() < 1e-12);
        assert!((sa.variance() - sc.variance()).abs() < 1e-12);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s = OnlineStats::from_slice(&[1.0, 2.0]);
        let before = s;
        s.merge(&OnlineStats::new());
        assert_eq!(s, before);
        let mut e = OnlineStats::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn numerical_stability_large_offset() {
        // Welford must survive a huge common offset where naive sum-of-squares
        // would catastrophically cancel.
        let xs: Vec<f64> = (0..1000).map(|i| 1.0e9 + (i % 7) as f64).collect();
        let s = OnlineStats::from_slice(&xs);
        let (_, v) = two_pass(&xs);
        assert!((s.variance() - v).abs() / v < 1e-7, "{} vs {}", s.variance(), v);
    }

    proptest! {
        #[test]
        fn prop_matches_two_pass(xs in proptest::collection::vec(-1e3f64..1e3, 2..200)) {
            let s = OnlineStats::from_slice(&xs);
            let (m, v) = two_pass(&xs);
            prop_assert!((s.mean() - m).abs() < 1e-9);
            prop_assert!((s.variance() - v).abs() < 1e-6 * (1.0 + v));
        }

        #[test]
        fn prop_merge_associative(
            a in proptest::collection::vec(0.0f64..1e3, 1..50),
            b in proptest::collection::vec(0.0f64..1e3, 1..50),
            c in proptest::collection::vec(0.0f64..1e3, 1..50),
        ) {
            let (sa, sb, sc) = (
                OnlineStats::from_slice(&a),
                OnlineStats::from_slice(&b),
                OnlineStats::from_slice(&c),
            );
            let mut left = sa; left.merge(&sb); left.merge(&sc);
            let mut bc = sb; bc.merge(&sc);
            let mut right = sa; right.merge(&bc);
            prop_assert_eq!(left.count(), right.count());
            prop_assert!((left.mean() - right.mean()).abs() < 1e-9);
            prop_assert!((left.variance() - right.variance()).abs() < 1e-6 * (1.0 + left.variance()));
        }

        #[test]
        fn prop_variance_nonnegative(xs in proptest::collection::vec(-1e6f64..1e6, 0..100)) {
            let s = OnlineStats::from_slice(&xs);
            prop_assert!(s.variance() >= 0.0);
        }
    }
}
