//! Mid-layer timings: host time of public calls into `autotune`, `obs`,
//! `session`, `store` and `serve`, on fixed inputs that are smaller than the
//! workloads'. Like the leaf probes they do not depend on the workload: every
//! traced run walks this circuit once, so each layer has a timing beside every
//! workload's counts.

use std::time::Instant;

use critter_autotune::{StalenessPolicy, TuningReport, TuningSpace};
use critter_store::Store;

use crate::harness::{ms_since as ms, Config, Rng};
use crate::serve::{http, job, job_mix, run_jobs, Daemon, JobOut};
use crate::stats::{median, percentile, tail};
use crate::store::{algo, machine, synthetic_profile, RANKS};
use crate::sweeps::{options, spec, sweep, POLICY};
use crate::trace::Tracer;

/// Ephemeral sweeps timed for the per-unit distribution; 5 × 21 units give
/// the 100 samples a p90 needs.
const SWEEPS: usize = 5;

pub fn run(
    cfg: &Config,
    tracer: &Tracer,
    set: &mut dyn FnMut(&'static str, f64),
) -> Result<(), String> {
    autotune_obs_session(cfg, tracer, set)?;
    store(cfg, tracer, set)?;
    serve(cfg, tracer, set)
}

/// One grid shape of the SLATE QR space (21 configurations, 16 ranks), swept
/// ephemeral, observed, and checkpointed, then resumed.
fn autotune_obs_session(
    cfg: &Config,
    tracer: &Tracer,
    set: &mut dyn FnMut(&'static str, f64),
) -> Result<(), String> {
    let mut qr = spec("sweep-p2p").expect("sweep-p2p is a sweep workload");
    qr.configs.truncate(21);
    let root = tracer.begin("circuit.autotune", None);
    let (mut walls, mut units, mut firsts) = (Vec::new(), Vec::new(), Vec::new());
    let mut plain = None;
    for _ in 0..SWEEPS {
        let out =
            sweep(&qr.configs, options(&qr, POLICY, cfg.seed, false), None, true, tracer, root)?;
        walls.push(out.wall_ms);
        firsts.push(out.unit_done_ms[0]);
        units.extend(out.unit_done_ms.windows(2).map(|w| w[1] - w[0]));
        units.push(out.unit_done_ms[0]);
        plain = Some(out);
    }
    let plain = plain.expect("SWEEPS > 0");
    set("autotune.sweep_ms", median(&walls));
    set("autotune.unit_wall_ms_p50", median(&units));
    set("autotune.unit_wall_ms_p90", tail(&units, 900).0);
    set("autotune.first_unit_ms", median(&firsts));

    let render: Vec<f64> = (0..20)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(plain.report.to_json_string());
            ms(t)
        })
        .collect();
    set("autotune.json_render_ms", median(&render));
    let parse: Vec<f64> = (0..20)
        .map(|_| {
            let t = Instant::now();
            let doc = serde_json::from_str(&plain.bytes).expect("report bytes are JSON");
            std::hint::black_box(TuningReport::from_json(&doc).expect("report round-trips"));
            ms(t)
        })
        .collect();
    set("autotune.json_parse_ms", median(&parse));

    let observed =
        sweep(&qr.configs, options(&qr, POLICY, cfg.seed, true), None, false, tracer, root)?;
    set("obs.overhead_ratio", observed.wall_ms / median(&walls));
    let timeline = &observed.report.obs.as_ref().expect("observed sweep has a timeline").timeline;
    let t = Instant::now();
    std::hint::black_box(tracer.span("obs.render", root, |_| timeline.to_chrome_string()));
    set("obs.render_ms", ms(t));

    let dir = cfg.tmp.join("circuit-ckpt");
    let _ = std::fs::remove_dir_all(&dir);
    let opts = options(&qr, POLICY, cfg.seed, false);
    let checkpointed = sweep(&qr.configs, opts.clone(), Some(&dir), false, tracer, root)?;
    set("session.ckpt_overhead_ms", checkpointed.wall_ms - median(&walls));
    let resume = tracer.begin("session.resume", root);
    let resumed = sweep(&qr.configs, opts, Some(&dir), false, tracer, resume)?;
    tracer.end(resume);
    set("session.resume_ms", resumed.wall_ms);
    let _ = std::fs::remove_dir_all(&dir);
    tracer.end(root);
    if checkpointed.bytes != plain.bytes || resumed.bytes != plain.bytes {
        return Err("circuit: checkpointed or resumed sweep changed the report bytes".into());
    }
    Ok(())
}

/// A 64-generation store: single-writer publish and warm start, fsck, then
/// two writers contending for the generation CAS.
fn store(
    cfg: &Config,
    tracer: &Tracer,
    set: &mut dyn FnMut(&'static str, f64),
) -> Result<(), String> {
    let err = |e: critter_core::CritterError| format!("circuit store: {e}");
    let root = tracer.begin("circuit.store", None);
    let dir = cfg.tmp.join("circuit-store");
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::open(&dir).map_err(err)?;
    let (machine, staleness) = (machine(), StalenessPolicy::fresh());
    let mut rng = Rng::new(cfg.seed);
    let profiles: Vec<_> = (0..64).map(|_| synthetic_profile(&mut rng)).collect();

    let mut publish = Vec::new();
    for (i, profile) in profiles.iter().enumerate() {
        let t = Instant::now();
        tracer
            .span("store.publish", root, |_| store.publish(&machine, &algo(i), profile))
            .map_err(err)?;
        publish.push(ms(t));
    }
    set("store.publish_ms_p50", median(&publish));
    let mut warm = Vec::new();
    for i in 0..32 {
        let t = Instant::now();
        let seeded = tracer
            .span("store.warm_start", root, |_| {
                store.warm_start(&machine, &algo(i), RANKS, &staleness)
            })
            .map_err(err)?;
        warm.push(ms(t));
        if seeded.is_none() {
            return Err("circuit store: warm_start found no history".into());
        }
    }
    set("store.warm_start_ms_p50", median(&warm));
    let t = Instant::now();
    let report = tracer.span("store.verify", root, |_| store.verify()).map_err(err)?;
    set("store.verify_ms", ms(t));

    let contended: Vec<f64> = std::thread::scope(|scope| {
        let writers: Vec<_> = profiles
            .chunks(32)
            .enumerate()
            .map(|(w, chunk)| {
                let (store, machine) = (store.clone(), machine.clone());
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|profile| {
                            let t = Instant::now();
                            // The same profiles again: the blobs exist, so
                            // this times the commit the writers contend for.
                            store.publish(&machine, &format!("writer-{w}"), profile).map(|_| ms(t))
                        })
                        .collect::<Result<Vec<f64>, _>>()
                })
            })
            .collect();
        writers
            .into_iter()
            .map(|h| h.join().expect("writer thread panicked"))
            .collect::<Result<Vec<_>, _>>()
    })
    .map_err(err)?
    .concat();
    set("store.contended_publish_ms_p50", median(&contended));
    let ok = report.ok() && store.verify().map_err(err)?.ok();
    let _ = std::fs::remove_dir_all(&dir);
    tracer.end(root);
    if ok {
        Ok(())
    } else {
        Err("circuit store: verify found problems".into())
    }
}

/// One daemon, one client: 40 smoke jobs, status and health round trips, a
/// `kill -9` with restart over the same data directory, and five full-size
/// jobs against the in-process wall time of the same sweep.
fn serve(
    cfg: &Config,
    tracer: &Tracer,
    set: &mut dyn FnMut(&'static str, f64),
) -> Result<(), String> {
    let root = tracer.begin("circuit.serve", None);
    let data_dir = cfg.tmp.join("circuit-serve");
    let _ = std::fs::remove_dir_all(&data_dir);
    let mut rng = Rng::new(cfg.seed);
    let jobs = job_mix(&mut rng, 40);

    let t = Instant::now();
    let daemon = Daemon::spawn(&cfg.serve_bin, &data_dir, &cfg.tmp)?;
    set("serve.startup_ms", ms(t));
    let outs = run_jobs(&daemon.addr, &jobs, 1, tracer, root);
    if let Some(bad) = outs.iter().find(|o| !o.ok) {
        return Err(format!("circuit serve: {}", bad.why));
    }
    let col = |f: fn(&JobOut) -> f64| median(&outs.iter().map(f).collect::<Vec<_>>());
    set("serve.job_ms_p50", col(|o| o.latency_ms));
    set("serve.submit_ms_p50", col(|o| o.submit_ms));
    set("serve.first_progress_ms_p50", col(|o| o.first_progress_ms));
    set("serve.report_fetch_ms_p50", col(|o| o.report_fetch_ms));

    let rtt = |path: &str, n: usize| -> Result<Vec<f64>, String> {
        (0..n)
            .map(|_| {
                let t = Instant::now();
                match http(&daemon.addr, "GET", path, b"")? {
                    (200, _) => Ok(ms(t)),
                    (status, _) => Err(format!("circuit serve: GET {path} answered {status}")),
                }
            })
            .collect()
    };
    let status = tracer.span("serve.status_rtt", root, |_| rtt("/v1/jobs/job-000001", 1000))?;
    set("serve.status_rtt_ms_p50", median(&status));
    set("serve.status_rtt_ms_p99", percentile(&status, 990));
    let health = tracer.span("serve.healthz_rtt", root, |_| rtt("/v1/healthz", 200))?;
    set("serve.healthz_rtt_ms_p50", median(&health));

    // Crash and recover: time from spawn to the first healthz over a data
    // directory that holds the 40 finished jobs.
    daemon.kill();
    let t = Instant::now();
    let daemon = tracer
        .span("serve.recovery", root, |_| Daemon::spawn(&cfg.serve_bin, &data_dir, &cfg.tmp))?;
    set("serve.recovery_ms", ms(t));

    // What the daemon adds to a full-size sweep: served latency minus the
    // in-process wall time of the same spec.
    let (mut served, mut inproc) = (Vec::new(), Vec::new());
    for i in 0..5 {
        let full = job(TuningSpace::SlateCholesky, 2, false, cfg.seed % (1 << 31) + i);
        inproc.push(full.inproc_ms);
        let out = run_jobs(&daemon.addr, std::slice::from_ref(&full), 1, tracer, root).remove(0);
        if !out.ok {
            return Err(format!("circuit serve: full-size job: {}", out.why));
        }
        served.push(out.latency_ms);
    }
    set("serve.overhead_ms_p50", median(&served) - median(&inproc));
    daemon.kill();
    let _ = std::fs::remove_dir_all(&data_dir);
    tracer.end(root);
    Ok(())
}
