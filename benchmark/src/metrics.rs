//! The benchmark's contract as data: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics. `BENCHMARK.json` at the repo root
//! is `manifest()` rendered; a unit test keeps the two identical.

use serde_json::{json, Value};

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 8;

/// Seed of the recorded numbers, and the seed kept aside: a claim made with
/// the first must also hold on the second.
pub const DEFAULT_SEED: u64 = 20210517;
pub const HELD_OUT_SEED: u64 = 77003;

/// Workload names with the one-line reason each was chosen.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "sweep-collectives",
        "Capital Cholesky, 5 configs x 64 ranks on 2 cores: collective matching and rank wake-ups are nearly all of the wall time, so a simulator-core change must show here",
    ),
    (
        "sweep-p2p",
        "SLATE QR, 63 configs x 16 ranks, 126 short runs: p2p matching, kernel interception, path propagation and per-run launch cost dominate; numerics are negligible",
    ),
    (
        "sweep-kernels",
        "SLATE Cholesky n=1536 on 4 ranks: dla numerics are most of the time, so skipped kernels save host time here only; it is the bypass workload for simulator changes",
    ),
    (
        "sweep-observed-ckpt",
        "SLATE Cholesky, 4 configs, observed and checkpointed: same engine as sweep-p2p, but checkpoint rewrites and the obs timeline are ~95% of the time",
    ),
    (
        "serve-small-jobs",
        "real critter-serve child, 2 closed-loop clients, seeded mix of smoke jobs whose sweep is ~40% of their latency: HTTP, scheduler, registry, event log and artifact writes are the rest",
    ),
    (
        "store-churn",
        "publish beside warm_start on a 256-generation history: publish pays the full-history index snapshot, warm start the re-list and blob merge",
    ),
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// What a user of the system sees. Every workload reports every one of them:
/// an operation is one sweep, one served job, or one publish/warm-start pair.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "op_wall_ms_p50", unit: "ms", better: Better::Lower, bound: 0.20 },
    EndToEnd { name: "ops_per_s", unit: "1/s", better: Better::Higher, bound: 0.20 },
    EndToEnd { name: "cpu_ms_per_op", unit: "ms", better: Better::Lower, bound: 0.20 },
    EndToEnd { name: "peak_rss_mib", unit: "MiB", better: Better::Lower, bound: 0.15 },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Repeats exactly for a seed; `--compare` demands equality.
    pub exact: bool,
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better, exact: true }
}

const fn measured(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better, exact: false }
}

use Better::{Higher, Lower};

/// Single-layer metrics, prefix = module. The first block comes from the
/// workload's own traced operations (0 where the workload does not enter the
/// layer), the second from the mid-layer circuit, the third from the leaf
/// probes, the last from the benchmark itself.
pub const PER_LAYER: [PerLayer; 89] = [
    exact("core.kernels_executed", "count", Lower),
    exact("core.kernels_skipped", "count", Higher),
    exact("core.skip_fraction", "ratio", Higher),
    exact("core.propagations", "count", Lower),
    exact("core.path_adoptions", "count", Lower),
    exact("core.decisions", "count", Lower),
    exact("core.internal_words", "count", Lower),
    exact("sim.runs", "count", Lower),
    exact("sim.rank_runs", "count", Lower),
    exact("sim.sends", "count", Lower),
    exact("sim.collectives", "count", Lower),
    exact("sim.words_sent", "count", Lower),
    exact("sim.compute_calls", "count", Lower),
    exact("dla.flops", "flop", Lower),
    exact("autotune.units", "count", Lower),
    exact("autotune.report_bytes", "bytes", Lower),
    exact("autotune.sim_speedup", "ratio", Higher),
    exact("autotune.sim_mean_error", "ratio", Lower),
    exact("autotune.selection_quality", "ratio", Higher),
    measured("autotune.full_policy_wall_ratio", "ratio", Higher),
    exact("obs.events", "count", Lower),
    exact("obs.chrome_bytes", "bytes", Lower),
    exact("session.checkpoints", "count", Lower),
    exact("session.checkpoint_bytes_last", "bytes", Lower),
    exact("session.checkpoint_bytes_total", "bytes", Lower),
    measured("session.observed_ckpt_cost_ratio", "ratio", Lower),
    exact("store.generations", "count", Lower),
    exact("store.blobs", "count", Lower),
    exact("store.warm_start_models", "count", Lower),
    exact("store.index_bytes_last", "bytes", Lower),
    exact("store.disk_kib", "KiB", Lower),
    measured("store.publish_share", "ratio", Lower),
    measured("store.publish_growth_ratio", "ratio", Lower),
    measured("serve.http_requests_per_job", "count", Lower),
    measured("serve.events_polls_per_job", "count", Lower),
    measured("serve.http_non2xx_per_job", "count", Lower),
    measured("serve.report_conflict_retries_per_job", "count", Lower),
    measured("serve.job_dir_kib", "KiB", Lower),
    measured("serve.engine_share", "ratio", Higher),
    measured("serve.first_progress_share", "ratio", Lower),
    measured("serve.latency_tail_ratio", "ratio", Lower),
    // Mid-layer circuit.
    measured("autotune.sweep_ms", "ms", Lower),
    measured("autotune.unit_wall_ms_p50", "ms", Lower),
    measured("autotune.unit_wall_ms_p90", "ms", Lower),
    measured("autotune.first_unit_ms", "ms", Lower),
    measured("autotune.json_render_ms", "ms", Lower),
    measured("autotune.json_parse_ms", "ms", Lower),
    measured("obs.render_ms", "ms", Lower),
    measured("obs.overhead_ratio", "ratio", Lower),
    measured("session.ckpt_overhead_ms", "ms", Lower),
    measured("session.resume_ms", "ms", Lower),
    measured("store.publish_ms_p50", "ms", Lower),
    measured("store.warm_start_ms_p50", "ms", Lower),
    measured("store.verify_ms", "ms", Lower),
    measured("store.contended_publish_ms_p50", "ms", Lower),
    measured("serve.startup_ms", "ms", Lower),
    measured("serve.job_ms_p50", "ms", Lower),
    measured("serve.submit_ms_p50", "ms", Lower),
    measured("serve.first_progress_ms_p50", "ms", Lower),
    measured("serve.report_fetch_ms_p50", "ms", Lower),
    measured("serve.status_rtt_ms_p50", "ms", Lower),
    measured("serve.status_rtt_ms_p99", "ms", Lower),
    measured("serve.healthz_rtt_ms_p50", "ms", Lower),
    measured("serve.recovery_ms", "ms", Lower),
    measured("serve.overhead_ms_p50", "ms", Lower),
    // Leaf probes.
    measured("machine.draw_ns", "ns", Lower),
    measured("machine.comm_ns", "ns", Lower),
    measured("stats.push_ns", "ns", Lower),
    measured("stats.merge_ns", "ns", Lower),
    measured("stats.ci_ns", "ns", Lower),
    measured("dla.gemm64_mflops", "Mflop/s", Higher),
    measured("dla.gemm128_mflops", "Mflop/s", Higher),
    measured("dla.potrf_mflops", "Mflop/s", Higher),
    measured("dla.trsm_mflops", "Mflop/s", Higher),
    measured("dla.syrk_mflops", "Mflop/s", Higher),
    measured("dla.geqrf_mflops", "Mflop/s", Higher),
    measured("sim.compute_ns", "ns", Lower),
    measured("sim.p2p_ns", "ns", Lower),
    measured("sim.allreduce16_us", "us", Lower),
    measured("sim.allreduce64_us", "us", Lower),
    measured("sim.launch16_us", "us", Lower),
    measured("sim.launch64_us", "us", Lower),
    measured("core.kernel_exec_ns", "ns", Lower),
    measured("core.kernel_skip_ns", "ns", Lower),
    measured("core.comm_ns", "ns", Lower),
    // The benchmark's own tracing cost.
    measured("bench.op_wall_ms_p50", "ms", Lower),
    measured("bench.traced_op_wall_ms_p50", "ms", Lower),
    measured("bench.trace_overhead_ratio", "ratio", Lower),
    measured("bench.rounds", "count", Higher),
];

/// The `BENCHMARK.json` document.
pub fn manifest() -> Value {
    let workloads: Vec<Value> =
        WORKLOADS.iter().map(|(name, why)| json!({ "name": *name, "why": *why })).collect();
    let end_to_end: Vec<Value> = END_TO_END
        .iter()
        .map(|m| json!({ "name": m.name, "unit": m.unit, "better": m.better.name(), "bound": m.bound }))
        .collect();
    let per_layer: Vec<Value> = PER_LAYER
        .iter()
        .map(|m| json!({ "name": m.name, "unit": m.unit, "better": m.better.name() }))
        .collect();
    let strings = |v: &[&str]| Value::Array(v.iter().map(|s| json!(*s)).collect());
    json!({
        "command": strings(&["bash", "benchmark/run.sh"]),
        "paths": strings(&["benchmark"]),
        "run_seconds": RUN_SECONDS,
        "workloads": workloads,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    })
}

pub fn manifest_string() -> String {
    let mut s = serde_json::to_string_pretty(&manifest()).expect("json writer is total");
    s.push('\n');
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn committed_manifest_matches_the_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest_string(),
            "regenerate with: benchmark/run.sh --manifest > BENCHMARK.json"
        );
    }

    #[test]
    fn names_units_and_bounds_meet_the_contract() {
        let name_ok = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = BTreeSet::new();
        for (name, why) in WORKLOADS {
            assert!(name_ok(name) && seen.insert(name), "{name}");
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}: why is {} long", why.len());
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit) && seen.insert(m.name), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for m in &PER_LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit) && seen.insert(m.name), "{}", m.name);
        }
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(PER_LAYER.len() <= 128 && manifest_string().len() <= 64 << 10);
    }
}
