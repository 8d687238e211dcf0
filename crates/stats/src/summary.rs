//! Summary helpers for the evaluation harness: relative errors, means and
//! percentiles used when reporting the paper's metrics (§VI-A:
//! per-configuration relative prediction error, mean relative error,
//! autotuning speedup).

/// Relative error `|predicted - reference| / reference`.
///
/// Returns `+∞` for a non-positive reference (an execution time of zero means
/// the measurement itself is broken; surfacing infinity is more honest than a
/// silent zero).
pub fn relative_error(predicted: f64, reference: f64) -> f64 {
    if reference <= 0.0 {
        f64::INFINITY
    } else {
        (predicted - reference).abs() / reference
    }
}

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Linear-interpolation percentile `q ∈ [0, 1]` of an unsorted slice.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "percentile q must be in [0,1]");
    assert!(!xs.is_empty(), "percentile of an empty slice");
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        v[lo]
    } else {
        let frac = pos - lo as f64;
        v[lo] * (1.0 - frac) + v[hi] * frac
    }
}

/// Median (50th percentile).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_error_basics() {
        assert_eq!(relative_error(11.0, 10.0), 0.1);
        assert_eq!(relative_error(9.0, 10.0), 0.1);
        assert_eq!(relative_error(10.0, 10.0), 0.0);
        assert!(relative_error(1.0, 0.0).is_infinite());
    }

    #[test]
    fn mean_basics() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert!((percentile(&xs, 0.25) - 1.75).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_empty_panics() {
        percentile(&[], 0.5);
    }
}
