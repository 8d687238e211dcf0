//! Nightly scale stress: the `tasks` backend's reason to exist is hosting
//! rank counts that drown a thread-per-rank design — 10k+ simulated ranks in
//! one process, with the runnable set bounded by the worker budget. These
//! oracles run a one-configuration SLATE Cholesky tuning sweep at 4096 and
//! 10240 ranks on the `tasks` backend and enforce the nightly budgets:
//!
//! * wall clock under `CRITTER_STRESS_BUDGET_SECS` (default 1200 s);
//! * peak resident set (Linux `VmHWM`) under `CRITTER_STRESS_RSS_GIB`
//!   (default 6 GiB).
//!
//! `#[ignore]`d in tier-1; the nightly deep-verify job's `--include-ignored`
//! picks them up. These budgets are where the 10240-rank shape's host cost is
//! tracked over time; `benchmark/` has no metric at this rank count.

use std::sync::Arc;
use std::time::{Duration, Instant};

use critter_algs::slate_chol::SlateCholesky;
use critter_algs::Workload;
use critter_autotune::{Autotuner, TuningOptions};
use critter_core::ExecutionPolicy;
use critter_sim::BackendKind;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.trim().parse().ok()).unwrap_or(default)
}

/// Peak resident set size of this process in bytes (Linux only; `None`
/// elsewhere, which skips the RSS bound rather than failing the test).
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// One-configuration OnlinePropagation sweep (a full reference execution
/// plus a tuned execution) of a `pr×pc`-grid tile Cholesky on `tasks`.
fn stress_sweep(pr: usize, pc: usize) {
    let w = SlateCholesky { n: 1280, tile: 8, lookahead: 1, pr, pc };
    let ranks = w.ranks();
    assert_eq!(ranks, pr * pc);
    let workloads: Vec<Arc<dyn Workload>> = vec![Arc::new(w)];
    let opts = TuningOptions::new(ExecutionPolicy::OnlinePropagation, 0.25)
        .with_test_machine()
        .with_backend(BackendKind::Tasks);

    let budget = Duration::from_secs(env_u64("CRITTER_STRESS_BUDGET_SECS", 1200));
    let start = Instant::now();
    let report = Autotuner::new(opts).tune(&workloads);
    let elapsed = start.elapsed();

    assert_eq!(report.configs.len(), 1);
    let (full, tuned) = &report.configs[0].pairs[0];
    assert!(full.elapsed.is_finite() && full.elapsed > 0.0, "full run must produce a makespan");
    assert!(tuned.elapsed.is_finite() && tuned.elapsed > 0.0, "tuned run must produce a makespan");
    assert!(
        elapsed < budget,
        "{ranks}-rank sweep took {elapsed:?}, over the {budget:?} nightly budget"
    );
    let rss = peak_rss_bytes();
    if let Some(rss) = rss {
        let bound = env_u64("CRITTER_STRESS_RSS_GIB", 6) << 30;
        assert!(
            rss < bound,
            "{ranks}-rank sweep peaked at {} MiB resident, over the {} MiB bound",
            rss >> 20,
            bound >> 20
        );
    }
    eprintln!(
        "stress sweep: {ranks} ranks on tasks in {elapsed:.1?}, peak RSS {} MiB",
        rss.map(|b| b >> 20).unwrap_or(0)
    );
}

#[test]
#[ignore = "nightly stress: thousands of simulated ranks in one process"]
fn slate_cholesky_4096_ranks_on_tasks() {
    stress_sweep(64, 64);
}

#[test]
#[ignore = "nightly stress: 10k+ simulated ranks in one process"]
fn slate_cholesky_10240_ranks_on_tasks() {
    stress_sweep(64, 160);
}
