//! `--compare A.json B.json`: judge result file B against result file A with
//! each metric's recorded bound. Used A/A (two sets of runs of one commit) to
//! show the benchmark is steady, and parent/change to show no regression.

use serde_json::Value;

use crate::metrics::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, spread};

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The runs of one side spread wider than the bound, and B does not beat
    /// A in every run: the metric can be called neither unchanged nor worse.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a`; negative when better.
pub fn worsening(better: Better, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return if b == a { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// Judge a bounded metric from the runs of both sides.
pub fn judge(better: Better, bound: f64, a: &[f64], b: &[f64]) -> Verdict {
    if worsening(better, median(a), median(b)) > bound {
        return Verdict::Regressed;
    }
    let beats = |x: f64, y: f64| worsening(better, y, x) < 0.0;
    let b_wins_every_run = b.iter().all(|&x| a.iter().all(|&y| beats(x, y)));
    if spread(a).max(spread(b)) > bound && !b_wins_every_run {
        return Verdict::Unresolved;
    }
    Verdict::Ok
}

/// Judge an exact metric: every run of both sides must read the same.
pub fn judge_exact(a: &[f64], b: &[f64]) -> Verdict {
    match a.first() {
        Some(first) if a.iter().chain(b).all(|x| x == first) => Verdict::Ok,
        _ => Verdict::Regressed,
    }
}

/// The runs of one metric on both sides, when both files have it.
fn both(a: &Value, b: &Value, path: [&str; 3]) -> Option<(Vec<f64>, Vec<f64>)> {
    let values = |doc: &Value| -> Option<Vec<f64>> {
        let [workload, group, metric] = path;
        let runs = doc.get("workloads")?.get(workload)?.get(group)?.get(metric)?.get("values")?;
        runs.as_array()?.iter().map(Value::as_f64).collect()
    };
    Some((values(a)?, values(b)?))
}

/// Print one row; returns whether it is free of a regression.
fn report(
    workload: &str,
    name: &str,
    unit: &str,
    a: &[f64],
    b: &[f64],
    v: Option<Verdict>,
) -> bool {
    println!(
        "{workload:<20} {name:<34} {:>16.6} -> {:>16.6} {unit:<8} {}",
        median(a),
        median(b),
        v.map_or("-", Verdict::name),
    );
    v != Some(Verdict::Regressed)
}

/// Print one verdict per metric per workload; returns whether nothing regressed.
pub fn compare(a: &Value, b: &Value) -> bool {
    let mut clean = true;
    for (workload, _) in WORKLOADS {
        for m in &END_TO_END {
            if let Some((va, vb)) = both(a, b, [workload, "end_to_end", m.name]) {
                let verdict = judge(m.better, m.bound, &va, &vb);
                clean &= report(workload, m.name, m.unit, &va, &vb, Some(verdict));
            }
        }
        for m in &PER_LAYER {
            if let Some((va, vb)) = both(a, b, [workload, "per_layer", m.name]) {
                // Per-layer timings have no bound: they are shown, not judged.
                let verdict = m.exact.then(|| judge_exact(&va, &vb));
                clean &= report(workload, m.name, m.unit, &va, &vb, verdict);
            }
        }
        for side in [a, b] {
            let failed = side
                .get("workloads")
                .and_then(|w| w.get(workload))
                .and_then(|w| w.get("failed"))
                .and_then(Value::as_u64);
            if failed != Some(0) {
                println!("{workload:<20} failed operations: {failed:?} regressed");
                clean = false;
            }
        }
    }
    clean
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn within_bound_is_ok_beyond_is_regressed() {
        let a = [100.0, 101.0, 99.0];
        assert_eq!(judge(Better::Lower, 0.10, &a, &[105.0, 106.0, 104.0]), Verdict::Ok);
        assert_eq!(judge(Better::Lower, 0.10, &a, &[115.0, 116.0, 114.0]), Verdict::Regressed);
        // Higher is better: a drop is the worsening.
        assert_eq!(judge(Better::Higher, 0.10, &a, &[85.0, 86.0, 84.0]), Verdict::Regressed);
        assert_eq!(judge(Better::Higher, 0.10, &a, &[120.0, 121.0, 119.0]), Verdict::Ok);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_wins() {
        let noisy = [100.0, 70.0, 130.0, 95.0, 105.0];
        assert_eq!(judge(Better::Lower, 0.10, &noisy, &[101.0, 99.0, 100.0]), Verdict::Unresolved);
        assert_eq!(judge(Better::Lower, 0.10, &noisy, &[60.0, 61.0, 62.0]), Verdict::Ok);
    }

    #[test]
    fn exact_metrics_must_be_equal_in_every_run() {
        assert_eq!(judge_exact(&[7.0, 7.0], &[7.0]), Verdict::Ok);
        assert_eq!(judge_exact(&[7.0, 7.0], &[7.0, 8.0]), Verdict::Regressed);
        assert_eq!(judge_exact(&[], &[]), Verdict::Regressed);
    }

    #[test]
    fn worsening_handles_zero_baselines() {
        assert_eq!(worsening(Better::Lower, 0.0, 0.0), 0.0);
        assert_eq!(worsening(Better::Lower, 0.0, 1.0), f64::INFINITY);
        assert_eq!(worsening(Better::Lower, 10.0, 12.0), 0.2);
    }
}
