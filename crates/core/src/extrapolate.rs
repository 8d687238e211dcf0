//! Kernel-performance extrapolation across input sizes (§VIII).
//!
//! The paper's framework models each kernel *signature* independently, which
//! the conclusion calls out as its key limitation for algorithms like
//! CANDMC's pipelined QR: a gradually shrinking trailing matrix produces a
//! long tail of signatures that each collect only a handful of samples and
//! therefore never become predictable. The proposed extension — "extrapolation
//! of individual kernel performance models to characterize kernel performance
//! across varying input sizes … such line-fitting approaches can permit kernel
//! execution to be more selective" — is implemented here.
//!
//! For every *routine family* (e.g. all `gemm`s, regardless of dimensions) we
//! maintain a single-pass ordinary-least-squares fit of execution time
//! against the kernel's flop count: `t ≈ a + b·f`. Once the family has enough
//! samples and the fit explains the variance well (R² above a configurable
//! threshold), an unseen or under-sampled signature may be skipped using the
//! fitted prediction instead of its own (insufficient) statistics. The fit is
//! deliberately per-family and per-rank: efficiency varies by routine class
//! and node, and both are captured by the family key and the local fit.
//!
//! The fit is affine in raw space, `t ≈ a + b·f`: for saturating efficiency
//! curves of the form `eff(f) = e·f/(f+h)` this is *exact*
//! (`t = o + (f+h)/(P·e)`), and on real machines a per-family affine law is
//! the natural first-order model (a fixed startup plus a per-flop rate).
//!
//! The usability gate is the **relative residual error** of the fit — the
//! residual standard deviation divided by the predicted value — not R²:
//! when a family's sizes span a narrow range, R² is low even though the
//! line predicts every member to within the measurement noise, which is
//! exactly the regime where skipping is safe. Predictions are also confined
//! to a moderate extension of the sampled size range.

use critter_machine::CommOp;

use crate::fnv::FnvMap;
use crate::signature::ComputeOp;

/// Single-pass ordinary least squares of `y` on `x`.
#[derive(Debug, Clone, Copy)]
pub struct LineFit {
    n: u64,
    sx: f64,
    sy: f64,
    sxx: f64,
    sxy: f64,
    syy: f64,
    min_x: f64,
    max_x: f64,
}

impl Default for LineFit {
    fn default() -> Self {
        LineFit {
            n: 0,
            sx: 0.0,
            sy: 0.0,
            sxx: 0.0,
            sxy: 0.0,
            syy: 0.0,
            min_x: f64::INFINITY,
            max_x: f64::NEG_INFINITY,
        }
    }
}

impl LineFit {
    /// Empty fit.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add an observation.
    pub fn push(&mut self, x: f64, y: f64) {
        self.n += 1;
        self.sx += x;
        self.sy += y;
        self.sxx += x * x;
        self.sxy += x * y;
        self.syy += y * y;
        self.min_x = self.min_x.min(x);
        self.max_x = self.max_x.max(x);
    }

    /// Sampled `x` range.
    pub fn x_range(&self) -> (f64, f64) {
        (self.min_x, self.max_x)
    }

    /// The raw accumulator moments `(n, Σx, Σy, Σx², Σxy, Σy²)`, the
    /// persisted form of the fit. Together with [`x_range`](Self::x_range)
    /// and [`from_parts`](Self::from_parts) they round-trip a fit exactly.
    pub fn raw_parts(&self) -> (u64, f64, f64, f64, f64, f64) {
        (self.n, self.sx, self.sy, self.sxx, self.sxy, self.syy)
    }

    /// Rebuild a fit from persisted raw moments and `x` range, the inverse
    /// of [`raw_parts`](Self::raw_parts). An `n` of zero restores the empty
    /// fit (with its ±∞ range sentinels) regardless of the other arguments.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        n: u64,
        sx: f64,
        sy: f64,
        sxx: f64,
        sxy: f64,
        syy: f64,
        min_x: f64,
        max_x: f64,
    ) -> Self {
        if n == 0 {
            return Self::default();
        }
        LineFit { n, sx, sy, sxx, sxy, syy, min_x, max_x }
    }

    /// Residual standard deviation of the fit (`√(SS_res/(n−2))`);
    /// `None` when degenerate or fewer than three points.
    pub fn residual_sd(&self) -> Option<f64> {
        if self.n < 3 {
            return None;
        }
        let r2 = self.r_squared()?;
        let n = self.n as f64;
        let vy = (self.syy - self.sy * self.sy / n).max(0.0);
        Some((vy * (1.0 - r2) / (n - 2.0)).max(0.0).sqrt())
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// `(intercept, slope)` of the least-squares line, `None` when degenerate
    /// (fewer than two points or zero x-variance).
    pub fn line(&self) -> Option<(f64, f64)> {
        if self.n < 2 {
            return None;
        }
        let n = self.n as f64;
        let vx = self.sxx - self.sx * self.sx / n;
        if vx <= 1e-12 * self.sxx.abs().max(1.0) {
            return None;
        }
        let cov = self.sxy - self.sx * self.sy / n;
        let slope = cov / vx;
        let intercept = (self.sy - slope * self.sx) / n;
        Some((intercept, slope))
    }

    /// Coefficient of determination R² of the fit; `None` when degenerate.
    pub fn r_squared(&self) -> Option<f64> {
        self.line()?; // degenerate fits have no R²
        let n = self.n as f64;
        let vy = self.syy - self.sy * self.sy / n;
        if vy <= 0.0 {
            // Zero variance in y: the line explains everything trivially.
            return Some(1.0);
        }
        let cov = self.sxy - self.sx * self.sy / n;
        let vx = self.sxx - self.sx * self.sx / n;
        Some((cov * cov / (vx * vy)).clamp(0.0, 1.0))
    }

    /// Predicted `y` at `x`.
    pub fn predict(&self, x: f64) -> Option<f64> {
        let (a, b) = self.line()?;
        Some(a + b * x)
    }

    /// Reset to empty.
    pub fn clear(&mut self) {
        *self = Self::default();
    }
}

/// Configuration of the extrapolation extension.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExtrapolationConfig {
    /// Minimum samples in a routine family before its fit may be used.
    pub min_fit_samples: u64,
    /// Maximum relative residual error (`residual sd / prediction`) the fit
    /// may have — the analogue of the framework's relative confidence gate.
    pub max_rel_residual: f64,
    /// How far beyond the sampled size range predictions may reach, as a
    /// multiple of the range endpoints (2.0 = up to twice the largest / half
    /// the smallest sampled flop count).
    pub range_slack: f64,
}

impl Default for ExtrapolationConfig {
    fn default() -> Self {
        ExtrapolationConfig { min_fit_samples: 8, max_rel_residual: 0.10, range_slack: 2.0 }
    }
}

/// Per-rank routine-family fits of time against flop count (computation) and
/// against message size per communicator shape (communication).
#[derive(Debug, Clone, Default)]
pub struct ExtrapolationTable {
    fits: FnvMap<ComputeOp, LineFit>,
    comm_fits: FnvMap<(CommOp, u64, u64), LineFit>,
}

impl ExtrapolationTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one executed kernel: `flops` work, `time` seconds.
    pub fn record(&mut self, op: ComputeOp, flops: f64, time: f64) {
        if flops <= 0.0 || time <= 0.0 {
            return; // zero-work or unmeasured kernels carry no signal
        }
        self.fits.entry(op).or_default().push(flops, time);
    }

    /// Predicted execution time of an `op` kernel with `flops` work, if the
    /// family's fit passes the config's gates.
    pub fn predict(&self, op: ComputeOp, flops: f64, cfg: &ExtrapolationConfig) -> Option<f64> {
        if flops <= 0.0 {
            return None;
        }
        let fit = self.fits.get(&op)?;
        if fit.count() < cfg.min_fit_samples {
            return None;
        }
        let (lo, hi) = fit.x_range();
        if flops < lo / cfg.range_slack || flops > hi * cfg.range_slack {
            return None; // too far outside the evidence
        }
        let t = fit.predict(flops)?;
        if t <= 0.0 {
            return None;
        }
        let sd = fit.residual_sd()?;
        (sd <= cfg.max_rel_residual * t).then_some(t)
    }

    /// The fit of one routine family (diagnostics).
    pub fn fit(&self, op: ComputeOp) -> Option<&LineFit> {
        self.fits.get(&op)
    }

    /// Record one executed communication kernel of family
    /// `(op, comm_size, stride)` moving `words` in `time` seconds.
    pub fn record_comm(&mut self, op: CommOp, comm_size: u64, stride: u64, words: f64, time: f64) {
        if words <= 0.0 || time <= 0.0 {
            return;
        }
        self.comm_fits.entry((op, comm_size, stride)).or_default().push(words, time);
    }

    /// Predicted time of a communication kernel, under the same gates as
    /// [`ExtrapolationTable::predict`]. The message-size axis replaces flops;
    /// the α-β cost law is affine in words, so the same model applies.
    pub fn predict_comm(
        &self,
        op: CommOp,
        comm_size: u64,
        stride: u64,
        words: f64,
        cfg: &ExtrapolationConfig,
    ) -> Option<f64> {
        if words <= 0.0 {
            return None;
        }
        let fit = self.comm_fits.get(&(op, comm_size, stride))?;
        if fit.count() < cfg.min_fit_samples {
            return None;
        }
        let (lo, hi) = fit.x_range();
        if words < lo / cfg.range_slack || words > hi * cfg.range_slack {
            return None;
        }
        let t = fit.predict(words)?;
        if t <= 0.0 {
            return None;
        }
        let sd = fit.residual_sd()?;
        (sd <= cfg.max_rel_residual * t).then_some(t)
    }

    /// Iterate over all compute-family fits (arbitrary map order; callers
    /// that need determinism — e.g. the profile snapshot — must sort).
    pub fn fits(&self) -> impl Iterator<Item = (&ComputeOp, &LineFit)> {
        self.fits.iter()
    }

    /// Iterate over all communication-family fits (arbitrary map order).
    pub fn comm_fits(&self) -> impl Iterator<Item = (&(CommOp, u64, u64), &LineFit)> {
        self.comm_fits.iter()
    }

    /// Install a compute-family fit wholesale (profile restore path).
    pub fn insert_fit(&mut self, op: ComputeOp, fit: LineFit) {
        self.fits.insert(op, fit);
    }

    /// Install a communication-family fit wholesale (profile restore path).
    pub fn insert_comm_fit(&mut self, op: CommOp, comm_size: u64, stride: u64, fit: LineFit) {
        self.comm_fits.insert((op, comm_size, stride), fit);
    }

    /// Drop all observations (per-configuration reset).
    pub fn clear(&mut self) {
        self.fits.clear();
        self.comm_fits.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_fit_recovers_exact_line() {
        let mut f = LineFit::new();
        for i in 1..20 {
            let x = i as f64;
            f.push(x, 3.0 + 2.0 * x);
        }
        let (a, b) = f.line().unwrap();
        assert!((a - 3.0).abs() < 1e-9);
        assert!((b - 2.0).abs() < 1e-9);
        assert!((f.r_squared().unwrap() - 1.0).abs() < 1e-12);
        assert!((f.predict(100.0).unwrap() - 203.0).abs() < 1e-8);
    }

    #[test]
    fn line_fit_raw_parts_round_trip() {
        let mut f = LineFit::new();
        for i in 1..9 {
            f.push(i as f64 * 1e3, 2e-6 + 3e-10 * i as f64);
        }
        let (n, sx, sy, sxx, sxy, syy) = f.raw_parts();
        let (lo, hi) = f.x_range();
        let g = LineFit::from_parts(n, sx, sy, sxx, sxy, syy, lo, hi);
        assert_eq!(g.count(), f.count());
        assert_eq!(g.x_range(), f.x_range());
        assert_eq!(g.line(), f.line());
        assert_eq!(g.raw_parts(), f.raw_parts());
        // Empty fits restore with their sentinels intact.
        let e = LineFit::from_parts(0, 1.0, 2.0, 3.0, 4.0, 5.0, 0.0, 0.0);
        assert_eq!(e.count(), 0);
        assert_eq!(e.x_range(), (f64::INFINITY, f64::NEG_INFINITY));
    }

    #[test]
    fn degenerate_fits_refuse() {
        let mut f = LineFit::new();
        assert!(f.line().is_none());
        f.push(1.0, 1.0);
        assert!(f.line().is_none(), "one point is not a line");
        f.push(1.0, 2.0);
        assert!(f.line().is_none(), "zero x-variance is degenerate");
    }

    #[test]
    fn noisy_data_has_low_r_squared() {
        let mut f = LineFit::new();
        // y unrelated to x.
        let ys = [5.0, -3.0, 7.0, 1.0, -6.0, 4.0, 0.5, -2.0];
        for (i, &y) in ys.iter().enumerate() {
            f.push(i as f64, y);
        }
        assert!(f.r_squared().unwrap() < 0.5);
        assert!(f.residual_sd().unwrap() > 1.0, "erratic data has large residuals");
        assert_eq!(f.x_range(), (0.0, 7.0));
    }

    #[test]
    fn table_predicts_affine_law() {
        let cfg = ExtrapolationConfig::default();
        let mut t = ExtrapolationTable::new();
        // t = a + b·f, the saturating-efficiency law in closed form.
        for i in 1..=10 {
            let f = 1e4 * i as f64;
            t.record(ComputeOp::Gemm, f, 2e-6 + 1e-10 * f);
        }
        let p = t.predict(ComputeOp::Gemm, 1.5e5, &cfg).unwrap();
        let expect = 2e-6 + 1e-10 * 1.5e5;
        assert!((p - expect).abs() / expect < 1e-6, "{p} vs {expect}");
    }

    #[test]
    fn table_gates_on_sample_count_and_family() {
        let cfg = ExtrapolationConfig::default();
        let mut t = ExtrapolationTable::new();
        for i in 1..=4 {
            t.record(ComputeOp::Gemm, 1e4 * i as f64, 1e-6 * i as f64);
        }
        assert!(t.predict(ComputeOp::Gemm, 1e5, &cfg).is_none(), "below min samples");
        assert!(t.predict(ComputeOp::Trsm, 1e5, &cfg).is_none(), "unknown family");
    }

    #[test]
    fn table_gates_on_relative_residual() {
        let cfg = ExtrapolationConfig::default();
        let mut t = ExtrapolationTable::new();
        // Erratic timings: residuals dwarf the prediction → no usable fit.
        let ys = [1e-3, 1e-6, 5e-4, 2e-6, 8e-4, 3e-6, 9e-4, 1e-5, 7e-4, 2e-5];
        for (i, &y) in ys.iter().enumerate() {
            t.record(ComputeOp::Syrk, 1e4 * (i + 1) as f64, y);
        }
        assert!(t.predict(ComputeOp::Syrk, 5e4, &cfg).is_none());
    }

    #[test]
    fn table_gates_on_sampled_range() {
        let cfg = ExtrapolationConfig::default();
        let mut t = ExtrapolationTable::new();
        for i in 1..=10 {
            let f = 1e4 * i as f64;
            t.record(ComputeOp::Gemm, f, 2e-6 + 1e-10 * f);
        }
        // Inside (and moderately beyond) the sampled range: fine.
        assert!(t.predict(ComputeOp::Gemm, 5e4, &cfg).is_some());
        assert!(t.predict(ComputeOp::Gemm, 1.5e5, &cfg).is_some());
        // An order of magnitude beyond the evidence: refused.
        assert!(t.predict(ComputeOp::Gemm, 5e6, &cfg).is_none());
        assert!(t.predict(ComputeOp::Gemm, 1e3, &cfg).is_none());
    }

    #[test]
    fn narrow_range_with_low_noise_is_usable() {
        // The regime that motivated the relative-residual gate: a shallow
        // slope (low R²) but residuals well under 10% of the prediction.
        let cfg = ExtrapolationConfig::default();
        let mut t = ExtrapolationTable::new();
        let base = 5.0e-6;
        for i in 0..12 {
            let f = 1e4 + 100.0 * i as f64; // narrow flop range
            let wiggle = 1.0 + 0.01 * ((i % 3) as f64 - 1.0); // ±1% noise
            t.record(ComputeOp::Trsm, f, base * wiggle);
        }
        assert!(
            t.predict(ComputeOp::Trsm, 1.05e4, &cfg).is_some(),
            "flat-but-tight families must be predictable"
        );
    }

    #[test]
    fn nonpositive_observations_ignored() {
        let mut t = ExtrapolationTable::new();
        t.record(ComputeOp::Gemm, 0.0, 1.0);
        t.record(ComputeOp::Gemm, 1.0, 0.0);
        assert!(t.fit(ComputeOp::Gemm).is_none());
    }

    #[test]
    fn clear_resets() {
        let mut t = ExtrapolationTable::new();
        t.record(ComputeOp::Gemm, 1e4, 1e-5);
        t.record_comm(CommOp::Bcast, 4, 1, 128.0, 1e-5);
        t.clear();
        assert!(t.fit(ComputeOp::Gemm).is_none());
        assert!(t.comm_fits().next().is_none());
    }

    #[test]
    fn comm_fit_predicts_alpha_beta_law() {
        let cfg = ExtrapolationConfig::default();
        let mut t = ExtrapolationTable::new();
        // t = α + β·w for a bcast family on a 4-rank stride-1 fiber.
        for i in 1..=10 {
            let w = 64.0 * i as f64;
            t.record_comm(CommOp::Bcast, 4, 1, w, 2e-6 + 1e-9 * w);
        }
        let p = t.predict_comm(CommOp::Bcast, 4, 1, 320.0, &cfg).unwrap();
        assert!((p - (2e-6 + 1e-9 * 320.0)).abs() < 1e-12);
        // Different shape = different family.
        assert!(t.predict_comm(CommOp::Bcast, 8, 1, 320.0, &cfg).is_none());
        assert!(t.predict_comm(CommOp::Allreduce, 4, 1, 320.0, &cfg).is_none());
    }
}
