//! Hot-path micro-benchmarks feeding the perf trajectory (`BENCH_<n>.json`).
//!
//! The cases cover the paths critter-obs flamegraph folds show the tuner
//! actually spends host time on: per-invocation noise draws in the machine
//! model, the simulator's virtual-clock matching core (p2p and collectives),
//! the Critter interception layer with observability recording on,
//! `OnlineStats`/Welford updates along path propagation, canonical-JSON
//! report serialization, and the dense kernels a numerics-bound sweep (large
//! SLATE Cholesky tiles) waits for.
//!
//! Flags: `--quick` for CI smoke sizes, `--emit FILE` for the trajectory
//! (`--help` lists them).

use std::path::PathBuf;
use std::time::Instant;

use critter_autotune::{Autotuner, TuningOptions, TuningSpace};
use critter_bench::harness::{bench, black_box, summarize};
use critter_bench::trajectory::Trajectory;
use critter_bench::CARGO_BENCH;
use critter_core::{ComputeOp, CritterConfig, CritterEnv, ExecutionPolicy, KernelStore};
use critter_dla::{gemm, potrf, syrk, trsm, trtri, Matrix, Side, Trans, Uplo};
use critter_machine::{KernelClass, MachineModel};
use critter_session::cli::{Cli, Flag};
use critter_sim::{run_simulation, BackendKind, ReduceOp, SimConfig};
use critter_stats::OnlineStats;

const FLAGS: &[Flag] = &[
    Flag("--quick", "reduced sizes and iteration counts (CI smoke mode)"),
    Flag("--emit FILE", "write the machine-fingerprinted trajectory JSON (see `bench-compare`)"),
    CARGO_BENCH,
];

const CLI: Cli = Cli {
    about: "Hot-path micro-benchmarks feeding the perf trajectory (`BENCH_<n>.json`).",
    ..Cli::new("hot_paths", &[FLAGS])
};

fn main() {
    let (q, emit) = CLI.parse_env(|p| Ok((p.switch("--quick"), p.get::<PathBuf>("--emit")?)));
    // (size divisor, iteration count) per mode: quick mode shrinks both so
    // the CI smoke job stays in seconds.
    let div = if q { 4 } else { 1 };
    let iters = if q { 4 } else { 12 };
    let mut traj = Trajectory::capture();

    // Per-invocation noise draws through the public sampling API: the cost
    // of one modeled compute time (base cost × node factor × jitter).
    {
        let m = MachineModel::test_noisy(4, 42);
        let n = 100_000 / div as u64;
        let t = bench("machine", "noise_draws", iters, || {
            let mut acc = 0.0;
            for i in 0..n {
                acc += m.compute_time(KernelClass::Gemm, 1e4, (i % 4) as usize, i);
            }
            black_box(acc);
        });
        traj.record("machine", "noise_draws", t);
    }

    // The production compute path: RankCtx::compute inside a running
    // simulation (noise sampling + clock + counters).
    {
        let n = 40_000 / div;
        let t = bench("sim", "compute_loop", iters, || {
            let m = MachineModel::test_noisy(1, 7).shared();
            let r = run_simulation(SimConfig::new(1), m, move |ctx| {
                for _ in 0..n {
                    ctx.compute(KernelClass::Gemm, 1e4);
                }
                ctx.now()
            });
            black_box(r.elapsed());
        });
        traj.record("sim", "compute_loop", t);
    }

    // Point-to-point matching: eager ping-pong through the p2p queues.
    {
        let n = 2_000 / div;
        let t = bench("sim", "p2p_pingpong", iters, || {
            let m = MachineModel::test_noisy(2, 11).shared();
            let r = run_simulation(SimConfig::new(2), m, move |ctx| {
                let world = ctx.world();
                for _ in 0..n {
                    if ctx.rank() == 0 {
                        ctx.send(&world, 1, 0, &[1.0; 8]);
                        ctx.recv(&world, 1, 1);
                    } else {
                        ctx.recv(&world, 0, 0);
                        ctx.send(&world, 0, 1, &[2.0; 8]);
                    }
                }
                ctx.now()
            });
            black_box(r.elapsed());
        });
        traj.record("sim", "p2p_pingpong", t);
    }

    // Collective matching: allreduce slots under rank-thread contention.
    {
        let n = 300 / div;
        let t = bench("sim", "allreduce", iters, || {
            let m = MachineModel::test_noisy(4, 13).shared();
            let r = run_simulation(SimConfig::new(4), m, move |ctx| {
                let world = ctx.world();
                let data = [1.5; 256];
                for _ in 0..n {
                    black_box(ctx.allreduce(&world, ReduceOp::Sum, &data));
                }
                ctx.now()
            });
            black_box(r.elapsed());
        });
        traj.record("sim", "allreduce", t);
    }

    // The Critter interception layer with observability recording on: every
    // kernel pays signature hashing, model updates, an obs event, and
    // metrics counters.
    {
        let n = 20_000 / div;
        let t = bench("core", "env_kernels_obs", iters, || {
            let m = MachineModel::test_noisy(1, 17).shared();
            let cfg = CritterConfig::new(ExecutionPolicy::ConditionalExecution, 0.25).with_obs();
            let r = run_simulation(SimConfig::new(1), m, move |ctx| {
                let mut env = CritterEnv::new(ctx, cfg.clone(), KernelStore::new());
                for i in 0..n {
                    let dim = 16 << (i % 4);
                    env.kernel(ComputeOp::Gemm, dim, dim, dim, (dim * dim * dim) as f64, || {});
                }
                let (rep, _store) = env.finish();
                black_box(rep.predicted_time);
            });
            black_box(r.elapsed());
        });
        traj.record("core", "env_kernels_obs", t);
    }

    // Welford accumulation: the per-sample path every kernel interception
    // takes when it records an observation.
    {
        let n = 1_000_000 / div as u64;
        let t = bench("stats", "welford_push", iters, || {
            let mut s = OnlineStats::new();
            for i in 0..n {
                s.push(1.0 + (i % 17) as f64 * 0.25);
            }
            black_box(s.variance());
        });
        traj.record("stats", "welford_push", t);
    }

    // Chan's pairwise merge: the eager-propagation combine of per-rank
    // accumulators.
    {
        let n = 200_000 / div as u64;
        let t = bench("stats", "welford_merge", iters, || {
            let part = OnlineStats::from_slice(&[1.0, 2.0, 4.0, 8.0]);
            let mut acc = OnlineStats::new();
            for _ in 0..n {
                acc.merge(&part);
            }
            black_box(acc.mean());
        });
        traj.record("stats", "welford_merge", t);
    }

    // The tasks backend at scale: one run with thousands of ranks — ring
    // exchanges plus world allreduces — timed once rather than through
    // `bench()` (its warm-up would repeat a run that costs tens of seconds
    // at full size; a single cold run is exactly what the nightly stress
    // budget tracks).
    {
        let p = if q { 1024 } else { 10_240 };
        let m = MachineModel::test_noisy(p, 23).shared();
        let cfg = SimConfig::new(p).with_backend(BackendKind::Tasks);
        let start = Instant::now();
        let r = run_simulation(cfg, m, move |ctx| {
            let world = ctx.world();
            let right = (ctx.rank() + 1) % p;
            let left = (ctx.rank() + p - 1) % p;
            let mut acc = [ctx.rank() as f64, 0.0, 0.0, 0.0];
            for round in 0..3u64 {
                ctx.send(&world, right, round, &acc); // eager: completes locally
                let got = ctx.recv(&world, left, round);
                acc[1] += got[0];
                let sum = ctx.allreduce(&world, ReduceOp::Sum, &acc);
                acc[2] = sum[1];
            }
            ctx.now()
        });
        black_box(r.elapsed());
        let t = summarize(vec![start.elapsed()]);
        println!(
            "{:<44} min {:>10.3?}  median {:>10.3?}  ({} iters)",
            "sim/backend_tasks_10k", t.min, t.median, t.iters
        );
        traj.record("sim", "backend_tasks_10k", t);
    }

    // Profile-store batch commit: stage + CAS-link one generation per
    // publish into a fresh store. Disk-bound by design — this is the cost
    // a sweep pays once at session end, and what the concurrent-writer
    // retry loop amortizes.
    {
        let n = 48 / div as u64;
        let machine = critter_store::MachineSpec::from_models(
            &critter_machine::MachineParams::test_machine(),
            &critter_machine::NoiseParams::cluster(),
        );
        let mut round = 0u64;
        let base = std::env::temp_dir().join(format!("critter-bench-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let t = bench("store", "batch_commit", iters, || {
            round += 1;
            let dir = base.join(format!("commit-{round}"));
            let store = critter_store::Store::open(&dir).expect("open store");
            for c in 0..n {
                let mut s = KernelStore::new();
                let sig = critter_core::signature::KernelSig::compute(ComputeOp::Gemm, 8, 8, 8);
                s.record(&sig, 1.0e-3 + (round * 1009 + c) as f64 * 1.0e-9);
                black_box(store.publish(&machine, "bench", &[s]).expect("publish"));
            }
        });
        traj.record("store", "batch_commit", t);

        // Warm-start lookup + merge over an accumulated history: re-list
        // the index, load every matching blob, and fold the statistics
        // through the staleness policy — the read path every store-backed
        // sweep pays once at session start.
        let dir = base.join("lookup");
        let store = critter_store::Store::open(&dir).expect("open store");
        for c in 0..16u64 {
            let mut s = KernelStore::new();
            for i in 0..32u64 {
                let dim = (4 << (i % 4)) as usize;
                let sig =
                    critter_core::signature::KernelSig::compute(ComputeOp::Gemm, dim, dim, dim);
                s.record(&sig, 1.0e-3 + (c * 31 + i) as f64 * 1.0e-8);
            }
            store.publish(&machine, "bench", &[s]).expect("publish");
        }
        let staleness =
            critter_session::StalenessPolicy::fresh().with_decay(0.5).with_variance_inflation(2.0);
        let m = 32 / div as u64;
        let t = bench("store", "lookup_merge", iters, || {
            for _ in 0..m {
                let seeded = store
                    .warm_start(&machine, "bench", 1, &staleness)
                    .expect("warm start")
                    .expect("history exists");
                black_box(seeded.1);
            }
        });
        traj.record("store", "lookup_merge", t);
        let _ = std::fs::remove_dir_all(&base);
    }

    // Canonical-JSON serialization of a full tuning report (the committed
    // artifact form: sorted keys, pretty printing).
    {
        let opts_t =
            TuningOptions::new(ExecutionPolicy::OnlinePropagation, 0.25).with_test_machine();
        let report = Autotuner::new(opts_t).tune(&TuningSpace::SlateCholesky.smoke());
        let t = bench("json", "report_canonical", iters, || {
            black_box(report.to_json_string().len());
        });
        traj.record("json", "report_canonical", t);
    }

    // The level-3 kernels at the shapes SLATE Cholesky calls them with (its
    // trailing update is `gemm` No/Yes, `syrk` Lower/No, `trsm`
    // Right/Lower/Yes), the two factorizations, and an 8×8×8 product as the
    // guard on the small-shape path. Quick mode cuts the calls per iteration,
    // not the shapes.
    {
        let dim = 128;
        let (a, b) = (Matrix::random(dim, dim, 1), Matrix::random(dim, dim, 2));
        let spd = Matrix::random_spd(dim, 3);
        let mut l = spd.clone();
        potrf(&mut l).expect("random_spd is positive definite");
        let calls = 48 / div;
        let mut dla = |case: &str, body: &mut dyn FnMut()| {
            let t = bench("dla", case, iters, || (0..calls).for_each(|_| body()));
            traj.record("dla", case, t);
        };

        let mut c = Matrix::zeros(dim, dim);
        dla("gemm_nt_128", &mut || {
            gemm(Trans::No, Trans::Yes, -1.0, &a, &b, 1.0, &mut c);
            black_box(c.data()[0]);
        });
        let (a64, b64) = (a.sub(0, 0, 64, 64), b.sub(0, 0, 64, 64));
        let mut c64 = Matrix::zeros(64, 64);
        dla("gemm_nn_64", &mut || {
            for _ in 0..8 {
                gemm(Trans::No, Trans::No, 1.0, &a64, &b64, 0.0, &mut c64);
            }
            black_box(c64.data()[0]);
        });
        dla("syrk_ln_128", &mut || {
            syrk(Uplo::Lower, Trans::No, -1.0, &a, 1.0, &mut c);
            black_box(c.data()[0]);
        });
        let mut x = b.clone();
        dla("trsm_rlt_128", &mut || {
            x.data_mut().copy_from_slice(b.data());
            trsm(Side::Right, Uplo::Lower, Trans::Yes, false, 1.0, &l, &mut x);
            black_box(x.data()[0]);
        });
        dla("potrf_128", &mut || {
            x.data_mut().copy_from_slice(spd.data());
            potrf(&mut x).expect("random_spd is positive definite");
            black_box(x.data()[0]);
        });
        dla("trtri_128", &mut || {
            x.data_mut().copy_from_slice(l.data());
            trtri(&mut x);
            black_box(x.data()[0]);
        });
        let (a8, b8) = (a.sub(0, 0, 8, 8), b.sub(0, 0, 8, 8));
        let mut c8 = Matrix::zeros(8, 8);
        dla("gemm_nn_8", &mut || {
            for _ in 0..4096 {
                gemm(Trans::No, Trans::No, 1.0, &a8, &b8, 0.0, &mut c8);
            }
            black_box(c8.data()[0]);
        });
    }

    if let Some(path) = &emit {
        traj.write(path).expect("write trajectory");
        eprintln!("wrote {}", path.display());
    }
}
