//! The four sweep workloads: one operation is one complete tuning sweep
//! through `Autotuner::tune_session`, rendered to its canonical report bytes.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use critter_algs::slate_chol::SlateCholesky;
use critter_algs::Workload;
use critter_autotune::{
    Autotuner, ProgressVerdict, SessionConfig, TuningOptions, TuningReport, TuningSpace,
};
use critter_core::ExecutionPolicy;

use crate::harness::{ms_since, proc_cpu_s, Run};
use crate::stats::median;
use crate::trace::{SpanId, Tracer};

/// The policy and tolerance every sweep workload tunes under.
pub const POLICY: ExecutionPolicy = ExecutionPolicy::OnlinePropagation;
pub const EPSILON: f64 = 0.25;

/// A sweep workload's fixed shape. Sizes are chosen so that one sweep takes
/// one to two seconds on a 2-core machine and a run sees several of them.
pub struct SweepSpec {
    pub configs: Vec<Arc<dyn Workload>>,
    /// Keep kernel models across configurations (the Capital protocol).
    pub persist: bool,
    pub observe: bool,
    pub checkpoint: bool,
    pub ops_per_round: usize,
}

pub fn spec(workload: &str) -> Option<SweepSpec> {
    let plain = |configs, persist, ops_per_round| SweepSpec {
        configs,
        persist,
        observe: false,
        checkpoint: false,
        ops_per_round,
    };
    Some(match workload {
        // Strategy 1 over all five block sizes, 64 ranks each: rank threads
        // outnumber cores 32 to 1, so collective matching and wake-ups are
        // nearly all of the wall time.
        "sweep-collectives" => {
            plain(TuningSpace::CapitalCholesky.bench().into_iter().take(5).collect(), true, 3)
        }
        // All 63 SLATE QR configurations on 16 ranks: many short runs of
        // point-to-point messages and intercepted kernels.
        "sweep-p2p" => plain(TuningSpace::SlateQr.bench(), false, 3),
        // Large tiles on 4 ranks: the numerics dominate, the simulator idles.
        "sweep-kernels" => plain(
            [64usize, 96, 128]
                .into_iter()
                .flat_map(|tile| {
                    (0..2).map(move |lookahead| {
                        Arc::new(SlateCholesky { n: 1536, tile, lookahead, pr: 2, pc: 2 })
                            as Arc<dyn Workload>
                    })
                })
                .collect(),
            false,
            3,
        ),
        // The engine of sweep-p2p used differently: every unit appends its
        // timeline to a checkpoint that is rewritten whole.
        "sweep-observed-ckpt" => SweepSpec {
            configs: TuningSpace::SlateCholesky.bench().into_iter().take(4).collect(),
            persist: false,
            observe: true,
            checkpoint: true,
            ops_per_round: 2,
        },
        _ => return None,
    })
}

/// What one sweep produced, plus what the progress hook saw.
pub struct SweepOut {
    pub report: TuningReport,
    pub bytes: String,
    /// Host milliseconds from the call to the rendered report.
    pub wall_ms: f64,
    /// Host milliseconds from the call to each committed unit.
    pub unit_done_ms: Vec<f64>,
    /// Checkpoint file size after each committed unit (checkpointed sweeps).
    pub ckpt_bytes: Vec<u64>,
}

/// Run one sweep. With `hook` a progress hook timestamps every committed unit
/// (and stats the checkpoint file); with tracing on, spans are recorded too.
pub fn sweep(
    configs: &[Arc<dyn Workload>],
    opts: TuningOptions,
    ckpt_dir: Option<&Path>,
    hook: bool,
    tracer: &Tracer,
    parent: SpanId,
) -> Result<SweepOut, String> {
    let session = match ckpt_dir {
        Some(dir) => SessionConfig::new().with_checkpoint_dir(dir),
        None => SessionConfig::new(),
    };
    let seen: Arc<Mutex<Vec<(Instant, u64)>>> = Arc::new(Mutex::new(Vec::new()));
    let mut tuner = Autotuner::new(opts);
    if hook {
        let sink = Arc::clone(&seen);
        let ckpt_path = session.checkpoint_path();
        tuner = tuner.with_progress(move |p| {
            if p.units_done > 0 {
                let size = ckpt_path
                    .as_ref()
                    .and_then(|path| std::fs::metadata(path).ok())
                    .map_or(0, |m| m.len());
                sink.lock().expect("hook never panics").push((Instant::now(), size));
            }
            ProgressVerdict::Continue
        });
    }
    let started = Instant::now();
    let root = tracer.begin("autotune.tune_session", parent);
    let result = tuner.tune_session(configs, &session);
    tracer.end(root);
    let report = result.map_err(|e| format!("tune_session failed: {e}"))?;
    let bytes = tracer.span("autotune.json_render", parent, |_| report.to_json_string());
    let wall_ms = ms_since(started);

    let seen = seen.lock().expect("hook never panics");
    let mut prev = started;
    for (i, &(at, _)) in seen.iter().enumerate() {
        tracer.record(format!("autotune.unit[{i}]"), prev, at, root);
        prev = at;
    }
    Ok(SweepOut {
        report,
        bytes,
        wall_ms,
        unit_done_ms: seen
            .iter()
            .map(|&(at, _)| at.duration_since(started).as_secs_f64() * 1e3)
            .collect(),
        ckpt_bytes: seen.iter().map(|&(_, size)| size).collect(),
    })
}

pub fn options(
    spec: &SweepSpec,
    policy: ExecutionPolicy,
    seed: u64,
    observe: bool,
) -> TuningOptions {
    let opts =
        TuningOptions::new(policy, EPSILON).with_seed(seed).with_persist_models(spec.persist);
    if observe {
        opts.with_observe()
    } else {
        opts
    }
}

/// Per-layer counts of one observed sweep: exact for a seed.
fn record_counts(run: &mut Run, out: &SweepOut) {
    let r = &out.report;
    run.set("autotune.units", out.unit_done_ms.len() as f64);
    run.set("autotune.report_bytes", out.bytes.len() as f64);
    run.set("autotune.sim_speedup", r.speedup());
    run.set("autotune.sim_mean_error", r.mean_error());
    run.set("autotune.selection_quality", r.selection_quality());
    run.set("core.skip_fraction", r.skip_fraction());
    if let Some(obs) = &r.obs {
        let m = &obs.metrics;
        let propagations: u64 =
            m.counters().filter(|(name, _)| name.starts_with("propagate[")).map(|(_, n)| n).sum();
        run.set("core.kernels_executed", m.counter("kernels_executed") as f64);
        run.set("core.kernels_skipped", m.counter("kernels_skipped") as f64);
        run.set("core.propagations", propagations as f64);
        run.set("core.path_adoptions", m.counter("path_adoptions") as f64);
        run.set(
            "core.decisions",
            (m.counter("decisions_skip") + m.counter("decisions_execute")) as f64,
        );
        run.set("core.internal_words", m.counter("internal_words") as f64);
        run.set("sim.runs", obs.timeline.len() as f64);
        run.set(
            "sim.rank_runs",
            obs.timeline.runs().iter().map(|t| t.ranks.len()).sum::<usize>() as f64,
        );
        run.set("sim.sends", m.counter("sim_sends") as f64);
        run.set("sim.collectives", m.counter("sim_collectives") as f64);
        run.set("sim.words_sent", m.counter("sim_words_sent") as f64);
        run.set("sim.compute_calls", m.counter("sim_compute_calls") as f64);
        run.set("dla.flops", m.sum("sim_flops"));
        run.set("obs.events", obs.timeline.event_count() as f64);
        let chrome = run.tracer.span("obs.render", None, |_| obs.timeline.to_chrome_string());
        run.set("obs.chrome_bytes", chrome.len() as f64);
    }
    if !out.ckpt_bytes.is_empty() {
        let written = out.ckpt_bytes.iter().filter(|&&b| b > 0).count();
        run.set("session.checkpoints", written as f64);
        run.set("session.checkpoint_bytes_last", *out.ckpt_bytes.last().unwrap_or(&0) as f64);
        run.set("session.checkpoint_bytes_total", out.ckpt_bytes.iter().sum::<u64>() as f64);
    }
}

/// The round loop of a sweep workload.
pub fn run(spec_name: &str, run: &mut Run) -> Result<(), String> {
    let seed = run.cfg.seed;
    let mut sweep_no = 0usize;
    let mut fresh_dir = |checkpoint: bool, tmp: &Path| -> Option<PathBuf> {
        sweep_no += 1;
        checkpoint.then(|| tmp.join(format!("ckpt-{sweep_no}")))
    };
    // Reference bytes of the untraced and of the observed sweep: every repeat
    // must reproduce them exactly.
    let mut reference: [Option<String>; 2] = [None, None];
    while let Some(traced) = run.next_round() {
        let tracer = run.tracer_for(traced);
        let setup_started = Instant::now();
        let spec = spec(spec_name).ok_or_else(|| format!("unknown sweep workload {spec_name}"))?;
        let observe = spec.observe || traced;
        let opts = options(&spec, POLICY, seed, observe);
        let dir = fresh_dir(spec.checkpoint, &run.cfg.tmp);
        let warm_bytes =
            sweep(&spec.configs, opts.clone(), dir.as_deref(), false, run.tracer_for(false), None)?
                .bytes;
        run.record_setup(setup_started);
        let slot = &mut reference[usize::from(observe)];
        let expect = slot.get_or_insert_with(|| warm_bytes.clone()).clone();
        run.check(warm_bytes == expect, || "warm-up sweep bytes differ between rounds".into());
        // Checkpoint directories are removed after the timed segment: that
        // is the benchmark's housekeeping, not the sweep's.
        let mut dirs: Vec<PathBuf> = dir.into_iter().collect();

        // Only the last report is kept: an observed report holds its whole
        // timeline, and holding several would show up in the peak RSS.
        let (segment, cpu0) = (Instant::now(), proc_cpu_s("self"));
        let (mut walls, mut same, mut last) = (Vec::new(), Vec::new(), None);
        for _ in 0..spec.ops_per_round {
            let dir = fresh_dir(spec.checkpoint, &run.cfg.tmp);
            let out = sweep(&spec.configs, opts.clone(), dir.as_deref(), traced, tracer, None)?;
            run.record_op(traced, out.wall_ms);
            walls.push(out.wall_ms);
            same.push(out.bytes == expect);
            last = Some(out);
            dirs.extend(dir);
        }
        run.record_segment(traced, segment, proc_cpu_s("self") - cpu0, walls.len() as u64);

        for ok in same {
            run.check(ok, || format!("repeat of {spec_name} rendered different report bytes"));
        }
        if let Some(dir) = dirs.last() {
            // Resuming the finished session must return the same bytes.
            let resumed = tracer.span("session.resume", None, |id| {
                sweep(&spec.configs, opts.clone(), Some(dir), false, tracer, id)
            })?;
            run.check(resumed.bytes == expect, || "resumed report differs".into());
        }
        for dir in dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
        if traced {
            if let Some(out) = &last {
                record_counts(run, out);
            }
            // What selective execution and what persistence cost in host
            // time: the same space under `full`, and swept plain.
            let round_ms = median(&walls);
            let full = options(&spec, ExecutionPolicy::Full, seed, observe);
            let dir = fresh_dir(spec.checkpoint, &run.cfg.tmp);
            let full = sweep(&spec.configs, full, dir.as_deref(), false, tracer, None)?;
            run.set("autotune.full_policy_wall_ratio", full.wall_ms / round_ms);
            if let Some(dir) = dir {
                let _ = std::fs::remove_dir_all(dir);
                let plain = options(&spec, POLICY, seed, false);
                let plain = sweep(&spec.configs, plain, None, false, tracer, None)?;
                run.set("session.observed_ckpt_cost_ratio", round_ms / plain.wall_ms);
            }
        }
    }
    Ok(())
}
