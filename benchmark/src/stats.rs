//! The statistics the benchmark reports: medians, the tail-percentile rule,
//! and quartile spreads. All take unsorted samples and never mutate them.

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle samples for an even count); 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest rank (1-based) of the percentile `pm` per mille among `n` samples.
fn rank(n: usize, pm: usize) -> usize {
    (n * pm).div_ceil(1000).clamp(1, n.max(1))
}

/// The percentile `pm` per mille (`900` is p90) by nearest rank; 0 for no
/// samples. Per mille as an integer, so that ranks are exact.
pub fn percentile(samples: &[f64], pm: usize) -> f64 {
    let v = sorted(samples);
    if v.is_empty() {
        return 0.0;
    }
    v[rank(v.len(), pm) - 1]
}

/// Whether percentile `pm` may be reported for `n` samples: at least ten
/// samples must lie beyond it, so p90 needs 100 samples and p99 needs 1000.
pub fn percentile_allowed(n: usize, pm: usize) -> bool {
    n >= rank(n, pm) + 10
}

/// The highest percentile of the usual ladder that `n` samples support under
/// [`percentile_allowed`]; `None` when not even p50 has ten samples beyond it.
pub fn highest_percentile(n: usize) -> Option<usize> {
    [999, 990, 950, 900, 750, 500].into_iter().find(|&pm| percentile_allowed(n, pm))
}

/// Percentile `pm` if the sample count supports it, otherwise the highest
/// percentile that does (the median below 20 samples), with the percentile
/// actually used.
pub fn tail(samples: &[f64], pm: usize) -> (f64, usize) {
    let used = if percentile_allowed(samples.len(), pm) {
        pm
    } else {
        highest_percentile(samples.len()).unwrap_or(500).min(pm)
    };
    if used == 500 {
        (median(samples), used)
    } else {
        (percentile(samples, used), used)
    }
}

/// First and third quartile by the exclusive method, the one Python's
/// `statistics.quantiles(values, n=4)` uses; needs at least two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(samples);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |k: usize| {
        // Position k(n+1)/4 on a 1-based axis; the interval is clamped to the
        // sample range, the position is not, so small samples extrapolate.
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let frac = (pos as f64 - 4.0 * j as f64) / 4.0;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    Some((at(1), at(3)))
}

/// Interquartile range as a share of the median; 0 when undefined.
pub fn spread(samples: &[f64]) -> f64 {
    let m = median(samples);
    match quartiles(samples) {
        Some((q1, q3)) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn median_ignores_one_outlier() {
        assert_eq!(median(&[1.0, 1.0, 1.0, 1.0, 1000.0]), 1.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 500), 50.0);
        assert_eq!(percentile(&v, 900), 90.0);
        assert_eq!(percentile(&v, 990), 99.0);
        assert_eq!(percentile(&[5.0], 900), 5.0);
        assert_eq!(percentile(&[], 900), 0.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert!(!percentile_allowed(99, 900));
        assert!(percentile_allowed(100, 900));
        assert!(!percentile_allowed(999, 990));
        assert!(percentile_allowed(1000, 990));
        assert_eq!(highest_percentile(19), None);
        assert_eq!(highest_percentile(20), Some(500));
        assert_eq!(highest_percentile(40), Some(750));
        assert_eq!(highest_percentile(100), Some(900));
        assert_eq!(highest_percentile(200), Some(950));
        assert_eq!(highest_percentile(1000), Some(990));
        assert_eq!(highest_percentile(10_000), Some(999));
    }

    #[test]
    fn tail_falls_back_to_the_supported_percentile() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        // 40 samples support p75 at most: asking for p90 yields p75.
        assert_eq!(tail(&v, 900), (30.0, 750));
        let w: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&w, 900), (180.0, 900));
        // Too few samples for any tail: the median stands in.
        assert_eq!(tail(&[1.0, 2.0, 3.0, 4.0], 900), (2.5, 500));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25] — the
        // exclusive method extrapolates; Python clamps j to [1, n-1].
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        // statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
        assert_eq!(quartiles(&[30.0, 10.0, 20.0]), Some((10.0, 30.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0, 5.0, 5.0]), 0.0);
        assert_eq!(spread(&[5.0]), 0.0);
    }
}
