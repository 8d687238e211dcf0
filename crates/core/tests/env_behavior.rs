//! Behavioral tests of the Critter interception layer on the simulator:
//! selective execution, path propagation, policy semantics.

use critter_core::{ComputeOp, CritterConfig, CritterEnv, ExecutionPolicy, KernelStore};
use critter_machine::MachineModel;
use critter_obs::{Event, EventKind};
use critter_sim::{run_simulation, RankCtx, ReduceOp, SimConfig};

fn run_env<R: Send + 'static>(
    ranks: usize,
    machine: MachineModel,
    cfg: CritterConfig,
    f: impl Fn(&mut CritterEnv) -> R + Send + Sync + 'static,
) -> Vec<(R, critter_core::CritterReport, f64)> {
    let machine = machine.shared();
    let report = run_simulation(SimConfig::new(ranks), machine, move |ctx: &mut RankCtx| {
        let mut env = CritterEnv::new(ctx, cfg.clone(), KernelStore::new());
        let out = f(&mut env);
        let (rep, _store) = env.finish();
        (out, rep)
    });
    report.outputs.into_iter().zip(report.rank_times).map(|((out, rep), t)| (out, rep, t)).collect()
}

#[test]
fn full_policy_prediction_matches_clock() {
    // With no skipping and uncharged internals, P.exec_time must track the
    // virtual clock exactly for a compute+allreduce program.
    let out = run_env(
        4,
        MachineModel::test_exact(4),
        CritterConfig::full().with_internal_charging(false),
        |env| {
            let world = env.world();
            for _ in 0..5 {
                env.kernel(ComputeOp::Gemm, 32, 32, 32, 2.0 * 32f64.powi(3), || {});
                env.allreduce(&world, ReduceOp::Sum, &[1.0; 64]);
            }
            env.exec_time()
        },
    );
    for (pred, rep, clock) in &out {
        assert!((pred - clock).abs() < 1e-9 * clock, "pred {pred} clock {clock}");
        assert_eq!(rep.kernels_skipped, 0);
        assert!(rep.kernels_executed >= 10);
    }
}

#[test]
fn conditional_skips_after_convergence_with_zero_noise() {
    // Noise-free machine: two samples pin the variance at zero, so the CI is
    // degenerate and everything after the warmup is skipped.
    let reps = 20;
    let out = run_env(
        1,
        MachineModel::test_exact(1),
        CritterConfig::new(ExecutionPolicy::ConditionalExecution, 0.1),
        move |env| {
            for _ in 0..reps {
                env.kernel(ComputeOp::Gemm, 64, 64, 64, 2.0 * 64f64.powi(3), || {});
            }
        },
    );
    let rep = &out[0].1;
    assert_eq!(rep.kernels_executed, 2, "warmup takes exactly min_samples executions");
    assert_eq!(rep.kernels_skipped, reps - 2);
}

#[test]
fn a_run_that_does_not_verify_never_calls_a_body() {
    // Every kernel executes under full execution, and is charged and
    // counted, but a run that does not verify reads no kernel result.
    let out = run_env(1, MachineModel::test_exact(1), CritterConfig::full(), |env| {
        assert!(!env.verifies());
        for _ in 0..4 {
            env.kernel(ComputeOp::Gemm, 16, 16, 16, 2.0 * 16f64.powi(3), || panic!("body ran"));
        }
        env.custom_kernel(1, 1000, 5e4, || panic!("body ran"));
        env.exec_time()
    });
    let (predicted, rep, _) = &out[0];
    assert_eq!(rep.kernels_executed, 5);
    assert!(*predicted > 0.0, "executed kernels are still charged");
}

#[test]
fn a_verifying_run_calls_each_executed_body_once_and_no_skipped_one() {
    // Noise-free machine: two samples pin the variance at zero, so every
    // later call is skipped and must not run its body.
    let machine = MachineModel::test_exact(1).shared();
    let cfg = CritterConfig::new(ExecutionPolicy::ConditionalExecution, 0.1);
    let out = run_simulation(SimConfig::new(1), machine, move |ctx: &mut RankCtx| {
        let mut env = CritterEnv::new(ctx, cfg.clone(), KernelStore::new()).verifying();
        assert!(env.verifies());
        let mut bodies = 0u64;
        for _ in 0..20 {
            env.kernel(ComputeOp::Gemm, 64, 64, 64, 2.0 * 64f64.powi(3), || bodies += 1);
        }
        (bodies, env.finish().0)
    });
    let (bodies, rep) = &out.outputs[0];
    assert_eq!((rep.kernels_executed, rep.kernels_skipped), (2, 18));
    assert_eq!(*bodies, rep.kernels_executed, "one body per executed kernel, none per skip");
}

#[test]
fn prediction_accurate_when_skipping_zero_noise() {
    let reps = 50u64;
    let out = run_env(
        1,
        MachineModel::test_exact(1),
        CritterConfig::new(ExecutionPolicy::ConditionalExecution, 0.1)
            .with_internal_charging(false),
        move |env| {
            for _ in 0..reps {
                env.kernel(ComputeOp::Syrk, 48, 48, 16, 1e6, || {});
            }
            env.exec_time()
        },
    );
    let (pred, _, clock) = &out[0];
    // Clock only advanced for 2 executions; prediction covers all 50 at the
    // exact per-kernel time.
    assert!(*clock < *pred, "skipping must save time");
    let per = clock / 2.0;
    assert!((pred - per * reps as f64).abs() < 1e-9 * pred, "prediction must extrapolate exactly");
}

#[test]
fn tight_epsilon_never_skips_noisy_kernels() {
    let out = run_env(
        1,
        MachineModel::test_noisy(1, 7),
        CritterConfig::new(ExecutionPolicy::ConditionalExecution, 1e-9),
        |env| {
            for _ in 0..30 {
                env.kernel(ComputeOp::Gemm, 64, 64, 64, 1e7, || {});
            }
        },
    );
    assert_eq!(out[0].1.kernels_skipped, 0, "ε→0 approaches full execution");
}

#[test]
fn loose_epsilon_skips_noisy_kernels_eventually() {
    let out = run_env(
        1,
        MachineModel::test_noisy(1, 7),
        CritterConfig::new(ExecutionPolicy::ConditionalExecution, 1.0),
        |env| {
            for _ in 0..60 {
                env.kernel(ComputeOp::Gemm, 64, 64, 64, 1e7, || {});
            }
        },
    );
    let rep = &out[0].1;
    assert!(rep.kernels_skipped > 30, "loose ε should skip most of the loop");
    assert!(rep.kernels_executed >= 2);
}

#[test]
fn online_propagation_skips_sooner_than_conditional() {
    // A kernel appearing k times along the path has its criterion scaled by
    // 1/√k under online propagation, so it converges with fewer samples.
    let prog = |env: &mut CritterEnv| {
        for _ in 0..100 {
            env.kernel(ComputeOp::Trsm, 32, 32, 0, 5e5, || {});
        }
    };
    let cond = run_env(
        1,
        MachineModel::test_noisy(1, 3),
        CritterConfig::new(ExecutionPolicy::ConditionalExecution, 0.05),
        prog,
    );
    let online = run_env(
        1,
        MachineModel::test_noisy(1, 3),
        CritterConfig::new(ExecutionPolicy::OnlinePropagation, 0.05),
        prog,
    );
    assert!(
        online[0].1.kernels_executed < cond[0].1.kernels_executed,
        "online ({}) should execute fewer than conditional ({})",
        online[0].1.kernels_executed,
        cond[0].1.kernels_executed
    );
}

#[test]
fn comm_kernel_skips_require_unanimity() {
    // Rank 1 executes a *different-size* compute kernel mix, but both see the
    // same allreduce kernel. The allreduce may only be skipped when every
    // rank's model deems it predictable; with a noise-free machine both
    // converge after 2 samples, so skips must happen and be symmetric.
    let out = run_env(
        2,
        MachineModel::test_exact(2),
        CritterConfig::new(ExecutionPolicy::ConditionalExecution, 0.5),
        |env| {
            let world = env.world();
            for _ in 0..10 {
                env.allreduce(&world, ReduceOp::Max, &[0.0; 128]);
            }
            (env.store().local.len(), env.exec_time())
        },
    );
    let r0 = &out[0].1;
    let r1 = &out[1].1;
    assert_eq!(r0.kernels_executed, r1.kernels_executed, "decisions must agree");
    assert!(r0.kernels_skipped > 0);
}

#[test]
fn path_time_propagates_to_idle_ranks() {
    // Rank 0 computes a lot; rank 1 computes nothing. After the allreduce the
    // longest-path estimate on rank 1 must reflect rank 0's compute time.
    let out = run_env(
        2,
        MachineModel::test_exact(2),
        CritterConfig::full().with_internal_charging(false),
        |env| {
            let world = env.world();
            if env.rank() == 0 {
                env.kernel(ComputeOp::Gemm, 128, 128, 128, 2.0 * 128f64.powi(3), || {});
            }
            env.allreduce(&world, ReduceOp::Sum, &[1.0]);
            env.exec_time()
        },
    );
    let (p0, _, _) = &out[0];
    let (p1, _, _) = &out[1];
    assert!((p0 - p1).abs() < 1e-12, "exec_time must agree after propagation");
    assert!(*p1 > 1e-4, "idle rank must inherit the busy rank's path time");
}

#[test]
fn eager_switches_off_globally_and_persists() {
    // World-communicator broadcasts cover the whole grid in one aggregation,
    // so a locally-predictable kernel is switched off everywhere, without the
    // execute-once-per-config requirement.
    let machine = MachineModel::test_exact(4).shared();
    let cfg = CritterConfig::new(ExecutionPolicy::EagerPropagation, 0.5);
    let report = run_simulation(SimConfig::new(4), machine, move |ctx: &mut RankCtx| {
        let mut env = CritterEnv::new(ctx, cfg.clone(), KernelStore::new());
        let world = env.world();
        for _ in 0..4 {
            env.kernel(ComputeOp::Potrf, 32, 0, 0, 1e5, || {});
            let mut buf = vec![1.0; 16];
            env.bcast(&world, 0, &mut buf);
        }
        let (rep, store) = env.finish();
        let key = critter_core::KernelSig::compute(ComputeOp::Potrf, 32, 0, 0).key();
        let off = store.model(key).map(|m| m.eager_off).unwrap_or(false);
        (rep, off)
    });
    for (rep, off) in &report.outputs {
        assert!(*off, "potrf kernel must be globally off after propagation");
        assert!(rep.kernels_skipped > 0);
    }
}

#[test]
fn isend_decision_governs_receiver() {
    // Noise-free: after two executions the sender skips; the receiver must
    // follow and fabricate a zero buffer of the right size.
    let out = run_env(
        2,
        MachineModel::test_exact(2),
        CritterConfig::new(ExecutionPolicy::ConditionalExecution, 0.5),
        |env| {
            let world = env.world();
            let mut received = Vec::new();
            for i in 0..6 {
                if env.rank() == 0 {
                    let req = env.isend(&world, 1, i, vec![7.0; 10]);
                    env.wait(req);
                } else {
                    received = env.recv(&world, 0, i, 10);
                }
            }
            received
        },
    );
    // Rank 1's last receive was skipped (sender predictable): zeros.
    assert_eq!(out[1].0, vec![0.0; 10]);
    assert_eq!(out[0].1.kernels_skipped, out[1].1.kernels_skipped);
}

#[test]
fn blocking_send_uses_vote_or() {
    // Symmetric protocol: both sides converge on the same execute count.
    let out = run_env(
        2,
        MachineModel::test_exact(2),
        CritterConfig::new(ExecutionPolicy::ConditionalExecution, 0.5),
        |env| {
            let world = env.world();
            for i in 0..8u64 {
                if env.rank() == 0 {
                    env.send(&world, 1, i, &[1.0; 20]);
                } else {
                    let d = env.recv(&world, 0, i, 20);
                    assert_eq!(d.len(), 20);
                }
            }
        },
    );
    assert_eq!(out[0].1.kernels_executed, out[1].1.kernels_executed);
    assert!(out[0].1.kernels_skipped > 0, "pair must converge and skip");
}

#[test]
fn skipped_bcast_zeroes_non_root_buffers() {
    let out = run_env(
        2,
        MachineModel::test_exact(2),
        CritterConfig::new(ExecutionPolicy::ConditionalExecution, 0.5),
        |env| {
            let world = env.world();
            let mut last = Vec::new();
            for _ in 0..6 {
                let mut buf = if env.rank() == 0 { vec![3.0; 8] } else { vec![9.9; 8] };
                env.bcast(&world, 0, &mut buf);
                last = buf;
            }
            last
        },
    );
    assert_eq!(out[1].0, vec![0.0; 8], "skipped bcast leaves a zeroed placeholder");
    assert_eq!(out[0].0, vec![3.0; 8], "root keeps its own payload");
}

#[test]
fn custom_kernel_is_profiled() {
    let out = run_env(1, MachineModel::test_exact(1), CritterConfig::full(), |env| {
        env.custom_kernel(1, 1000, 5e4, || {});
        env.custom_kernel(1, 1000, 5e4, || {});
        env.store().local.len()
    });
    assert_eq!(out[0].0, 1, "one distinct custom kernel signature");
    assert_eq!(out[0].1.kernels_executed, 2);
}

#[test]
fn apriori_counts_enable_scaling_from_start() {
    // Offline full pass captures path counts; the tuning pass then skips
    // sooner than conditional would with the same sample budget.
    let machine = MachineModel::test_noisy(1, 11).shared();
    let reps = 64;
    let report = run_simulation(SimConfig::new(1), machine, move |ctx: &mut RankCtx| {
        // Offline pass.
        let mut env = CritterEnv::new(ctx, CritterConfig::full(), KernelStore::new());
        for _ in 0..reps {
            env.kernel(ComputeOp::Gemm, 24, 24, 24, 3e5, || {});
        }
        let (_, mut store) = env.finish();
        store.capture_apriori();
        store.start_config(true);
        // Tuning pass under a-priori propagation.
        let mut env = CritterEnv::new(
            ctx,
            CritterConfig::new(ExecutionPolicy::APrioriPropagation, 0.05),
            store,
        );
        for _ in 0..reps {
            env.kernel(ComputeOp::Gemm, 24, 24, 24, 3e5, || {});
        }
        let (rep, store) = env.finish();
        let key = critter_core::KernelSig::compute(ComputeOp::Gemm, 24, 24, 24).key();
        (rep, store.apriori_counts.get(&key).copied())
    });
    let (rep, count) = &report.outputs[0];
    assert_eq!(*count, Some(reps as u64), "offline pass must record the path count");
    assert!(rep.kernels_skipped > 0, "a-priori counts should allow skipping");
}

#[test]
fn internal_traffic_is_accounted() {
    let out = run_env(4, MachineModel::test_exact(4), CritterConfig::full(), |env| {
        let world = env.world();
        env.allreduce(&world, ReduceOp::Sum, &[1.0; 4]);
        env.allgather(&world, &[1.0]);
    });
    for (_, rep, _) in &out {
        assert!(rep.internal_words > 0, "piggyback payloads must be measured");
    }
}

#[test]
fn charged_internals_slow_the_run() {
    let prog = |env: &mut CritterEnv| {
        let world = env.world();
        for _ in 0..10 {
            env.allreduce(&world, ReduceOp::Sum, &[1.0; 8]);
        }
    };
    let charged = run_env(2, MachineModel::test_exact(2), CritterConfig::full(), prog);
    let free = run_env(
        2,
        MachineModel::test_exact(2),
        CritterConfig::full().with_internal_charging(false),
        prog,
    );
    assert!(charged[0].2 > free[0].2, "profiling overhead must be visible when charged");
}

#[test]
fn extrapolation_skips_unseen_sizes_accurately() {
    // A family of gemms over many distinct sizes, each appearing once: the
    // paper's framework can never skip them (min_samples unmet per signature),
    // but the §VIII line-fit extension can — and its predictions must track
    // the exact per-size cost on a noise-free machine.
    let run = |cfg: CritterConfig| {
        run_env(1, MachineModel::test_exact(1), cfg, |env| {
            for i in 1..=40usize {
                let n = 16 + 4 * i;
                env.kernel(ComputeOp::Gemm, n, n, n, 2.0 * (n as f64).powi(3), || {});
            }
            env.exec_time()
        })
        .remove(0)
    };
    let baseline = run(CritterConfig::new(ExecutionPolicy::OnlinePropagation, 0.25));
    let extrap =
        run(CritterConfig::new(ExecutionPolicy::OnlinePropagation, 0.25).with_extrapolation());
    assert_eq!(baseline.1.kernels_skipped, 0, "distinct sizes cannot converge per-signature");
    assert!(
        extrap.1.kernels_skipped > 20,
        "line fit should skip most of the tail, skipped {}",
        extrap.1.kernels_skipped
    );
    // Prediction stays close to the fully-executed time.
    let err = (extrap.0 - baseline.0).abs() / baseline.0;
    assert!(err < 0.05, "extrapolated prediction error {err}");
}

#[test]
fn extrapolation_disabled_by_default() {
    let cfg = CritterConfig::new(ExecutionPolicy::OnlinePropagation, 0.25);
    assert!(cfg.extrapolate.is_none());
}

#[test]
fn trace_records_all_interceptions() {
    let out = run_env(
        2,
        MachineModel::test_exact(2),
        CritterConfig::new(ExecutionPolicy::ConditionalExecution, 0.5).with_obs(),
        |env| {
            let world = env.world();
            for _ in 0..6 {
                env.kernel(ComputeOp::Gemm, 16, 16, 16, 1e5, || {});
                env.allreduce(&world, ReduceOp::Sum, &[1.0; 8]);
            }
        },
    );
    for (_, rep, _) in &out {
        assert!(rep.kernels_skipped > 0, "noise-free loop must skip");
        let trace = rep.obs.as_ref().expect("obs recorded");
        let evs: Vec<&Event> = trace
            .events
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    EventKind::KernelExec
                        | EventKind::KernelSkip
                        | EventKind::CommExec
                        | EventKind::CommSkip
                )
            })
            .collect();
        // One event per interception, in chronological order.
        assert_eq!(evs.len() as u64, rep.kernels_executed + rep.kernels_skipped);
        for w in evs.windows(2) {
            assert!(w[1].start >= w[0].start);
        }
        // Skipped kernels are instantaneous.
        let skips: Vec<&&Event> = evs
            .iter()
            .filter(|e| matches!(e.kind, EventKind::KernelSkip | EventKind::CommSkip))
            .collect();
        assert_eq!(skips.len() as u64, rep.kernels_skipped);
        assert!(skips.iter().all(|e| e.dur == 0.0));
        // Each event's `arg` is the time it charged to the prediction.
        let charged: f64 = evs.iter().map(|e| e.arg).sum();
        let predicted = rep.local_comp_predicted + rep.local_comm_predicted;
        assert!((charged - predicted).abs() <= 1e-12 * predicted, "{charged} vs {predicted}");
        // Both kernel families are covered.
        let mut labels: Vec<&str> = evs.iter().map(|e| &*e.label).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 2);
    }
}

#[test]
fn trace_disabled_is_empty() {
    let out = run_env(1, MachineModel::test_exact(1), CritterConfig::full(), |env| {
        env.kernel(ComputeOp::Gemm, 16, 16, 16, 1e5, || {});
    });
    assert!(out[0].1.obs.is_none());
}

/// The intercepted collectives, for the table-driven placeholder test.
#[derive(Debug, Clone, Copy)]
enum Coll {
    Bcast,
    Allreduce,
    Allgather,
    Gather,
    Scatter,
}

const COLLECTIVES: [Coll; 5] =
    [Coll::Bcast, Coll::Allreduce, Coll::Allgather, Coll::Gather, Coll::Scatter];
const ROOT: usize = 1;
const WORDS: usize = 3;

/// A rank's distinct contribution, so a misrouted payload shows.
fn contribution(rank: usize, len: usize) -> Vec<f64> {
    (0..len).map(|i| (10 * rank + i + 1) as f64).collect()
}

/// Run `op` on the world communicator through the interception layer
/// (`via_env`) or on the raw simulator context; `None` is a gather's
/// non-root result.
fn run_collective(env: &mut CritterEnv, op: Coll, via_env: bool) -> Option<Vec<f64>> {
    let world = env.world();
    let (rank, p) = (env.rank(), env.size());
    let mine = contribution(rank, WORDS);
    let scattered = if rank == ROOT { contribution(rank, WORDS * p) } else { Vec::new() };
    if via_env {
        match op {
            Coll::Bcast => {
                let mut buf = mine;
                env.bcast(&world, ROOT, &mut buf);
                Some(buf)
            }
            Coll::Allreduce => Some(env.allreduce(&world, ReduceOp::Sum, &mine)),
            Coll::Allgather => Some(env.allgather(&world, &mine)),
            Coll::Gather => env.gather(&world, ROOT, &mine),
            Coll::Scatter => Some(env.scatter(&world, ROOT, &scattered, WORDS)),
        }
    } else {
        let ctx = env.ctx();
        match op {
            Coll::Bcast => {
                let mut buf = mine;
                ctx.bcast(&world, ROOT, &mut buf);
                Some(buf)
            }
            Coll::Allreduce => Some(ctx.allreduce(&world, ReduceOp::Sum, &mine)),
            Coll::Allgather => Some(ctx.allgather(&world, &mine)),
            Coll::Gather => ctx.gather(&world, ROOT, &mine),
            Coll::Scatter => Some(ctx.scatter(&world, ROOT, &scattered)),
        }
    }
}

#[test]
fn collectives_match_raw_results_and_skip_to_sized_placeholders() {
    let p = 4;
    for op in COLLECTIVES {
        // Full execution: the intercepted result is the simulator's result.
        let full = run_env(p, MachineModel::test_exact(p), CritterConfig::full(), move |env| {
            (run_collective(env, op, true), run_collective(env, op, false))
        });
        for (rank, ((got, want), _, _)) in full.iter().enumerate() {
            assert_eq!(got, want, "{op:?} on rank {rank} under full execution");
        }

        // Noise-free, so the kernel converges after its warmup and the last
        // calls are skipped: every rank gets the placeholder of its result.
        let skipping = run_env(
            p,
            MachineModel::test_exact(p),
            CritterConfig::new(ExecutionPolicy::ConditionalExecution, 0.5),
            move |env| (0..6).map(|_| run_collective(env, op, true)).last().unwrap(),
        );
        for (rank, (last, rep, _)) in skipping.iter().enumerate() {
            let zeros = |len: usize| Some(vec![0.0; len]);
            let placeholder = match op {
                Coll::Bcast if rank == ROOT => Some(contribution(ROOT, WORDS)),
                Coll::Bcast | Coll::Allreduce | Coll::Scatter => zeros(WORDS),
                Coll::Allgather => zeros(WORDS * p),
                Coll::Gather if rank == ROOT => zeros(WORDS * p),
                Coll::Gather => None,
            };
            assert_eq!(*last, placeholder, "{op:?} placeholder on rank {rank}");
            assert!(rep.kernels_skipped > 0, "{op:?} must converge and skip");
            assert_eq!(
                rep.kernels_skipped, skipping[0].1.kernels_skipped,
                "{op:?}: skip decisions must agree on every rank"
            );
        }
    }
}

#[test]
fn comm_extrapolation_skips_unseen_message_sizes() {
    // A bcast family over many distinct message sizes on the same fiber: each
    // signature occurs once, so per-signature statistics never converge — but
    // the (op, shape) line fit does.
    let run = |cfg: CritterConfig| {
        run_env(2, MachineModel::test_exact(2), cfg, |env| {
            let world = env.world();
            for i in 1..=30usize {
                let mut buf = vec![1.0; 32 * i];
                env.bcast(&world, 0, &mut buf);
            }
            env.exec_time()
        })
        .remove(0)
    };
    let base = run(CritterConfig::new(ExecutionPolicy::OnlinePropagation, 0.25));
    let extrap =
        run(CritterConfig::new(ExecutionPolicy::OnlinePropagation, 0.25).with_extrapolation());
    assert_eq!(base.1.kernels_skipped, 0, "distinct sizes cannot converge per-signature");
    assert!(
        extrap.1.kernels_skipped > 10,
        "comm line fit should skip the tail, skipped {}",
        extrap.1.kernels_skipped
    );
    // Prediction remains close to the fully-executed path time.
    let err = (extrap.0 - base.0).abs() / base.0;
    assert!(err < 0.05, "extrapolated comm prediction error {err}");
}
