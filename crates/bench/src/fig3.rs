//! Figure 3 (panels a–l): per-configuration critical-path costs for the four
//! workloads — BSP communication vs synchronization (a–d), BSP computation vs
//! synchronization (e–h), and critical-path execution time (i–l) — measured
//! on full executions, with each configuration's analytic BSP model
//! (`Workload::bsp`) printed alongside where its schedule has one.
//!
//! Lives in the library (rather than only in the `fig3` binary) so the
//! testkit can drive the full pipeline — including `--trace-out` exports —
//! through [`run_with`] and assert byte-identical artifacts across `--jobs`
//! levels.

use critter_autotune::TuningSpace;
use critter_core::ExecutionPolicy;
use critter_obs::ObsReport;

use crate::{emit_obs, f, parallel_map, sweep, write_json, FigOpts, Table};

/// Regenerate Figure 3 over the paper's four tuning spaces.
pub fn run(opts: &FigOpts) {
    run_with(opts, &TuningSpace::PAPER, false);
}

/// [`run`] over an explicit space list; `smoke` swaps in each space's reduced
/// smoke-test configurations (used by the testkit's trace-determinism oracle
/// to keep the end-to-end run fast).
pub fn run_with(opts: &FigOpts, spaces: &[TuningSpace], smoke: bool) {
    let observe = opts.observe();
    let mut summary = serde_json::Map::new();
    // One full-execution pass per configuration measures the schedule's
    // critical-path costs (Fig. 3 is produced from full executions). The
    // spaces are independent: sweep them concurrently, splitting the job
    // budget between space-level fan-out and each sweep's own reference-run
    // pipeline.
    let workers = 1 + opts.jobs / spaces.len().max(1);
    let reports = parallel_map(spaces, opts.jobs, |&space| {
        sweep(opts, space, ExecutionPolicy::Full, 0.0, 0, workers, observe, smoke)
    });
    for (&space, report) in spaces.iter().zip(&reports) {
        // The analytic models are printed for the full grid only.
        let models = if smoke { Vec::new() } else { space.bench() };
        let mut table = Table::new(
            &format!("fig3-{}", space.name()),
            &[
                "v",
                "config",
                "syncs(S)",
                "words(W)",
                "flops(F)",
                "comp_time",
                "comm_time",
                "exec_time",
                "bsp_S",
                "bsp_W",
                "bsp_F",
            ],
        );
        let mut rows_json = Vec::new();
        for (v, cfg) in report.configs.iter().enumerate() {
            let (full, _) = &cfg.pairs[0];
            let bsp = models.get(v).and_then(|w| w.bsp());
            let (bs, bw, bf) =
                bsp.map(|b| (f(b.supersteps), f(b.words), f(b.flops))).unwrap_or_default();
            table.row(vec![
                v.to_string(),
                cfg.name.clone(),
                f(full.path.syncs),
                f(full.path.comm_words),
                f(full.path.flops),
                f(full.path.comp_time),
                f(full.path.comm_time),
                f(full.elapsed),
                bs,
                bw,
                bf,
            ]);
            rows_json.push(serde_json::json!({
                "v": v,
                "config": cfg.name,
                "syncs": full.path.syncs,
                "words": full.path.comm_words,
                "flops": full.path.flops,
                "exec_time": full.elapsed,
            }));
        }
        table.emit(&opts.out_dir);
        summary.insert(space.name().to_string(), serde_json::Value::Array(rows_json));
    }
    write_json(&opts.out_dir, "fig3", &serde_json::Value::Object(summary));
    if observe {
        // Absorb each space's timeline in the fixed space order — never the
        // dispatch order — so the combined artifact is identical at any
        // `--jobs` level.
        let mut combined = ObsReport::new();
        for (&space, report) in spaces.iter().zip(reports) {
            if let Some(obs) = report.obs {
                combined.absorb(obs, space.name());
            }
        }
        emit_obs(opts, &combined);
    }
}
