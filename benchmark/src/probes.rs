//! Leaf-layer probes: fixed operation counts against one layer each, timed
//! from outside. This is the only file that reaches below the tuning API
//! (`run_simulation`, `SimConfig::new`, `CritterEnv`), so it is the only file
//! a change to those interfaces has to port. Every probe repeats its body and
//! reports the median; its input does not depend on the workload.

use std::hint::black_box;
use std::time::Instant;

use critter_core::{ComputeOp, CritterConfig, CritterEnv, ExecutionPolicy, KernelStore};
use critter_dla::{flops, gemm, geqrf, potrf, syrk, trsm, Matrix, Side, Trans, Uplo};
use critter_machine::{CommOp, KernelClass, MachineModel};
use critter_sim::{run_simulation, ReduceOp, SimConfig};
use critter_stats::{ConfidenceInterval, ConfidenceLevel, OnlineStats};

use crate::stats::median;
use crate::trace::Tracer;

/// Repetitions of each probe body; the median is reported.
const REPS: usize = 5;

/// Seconds per call of `body`, as the median of `REPS` timed calls after one
/// untimed call, under a span named after the metric.
fn timed(tracer: &Tracer, name: &str, mut body: impl FnMut()) -> f64 {
    tracer.span(name, None, |_| {
        body();
        let samples: Vec<f64> = (0..REPS)
            .map(|_| {
                let t = Instant::now();
                body();
                t.elapsed().as_secs_f64()
            })
            .collect();
        median(&samples)
    })
}

struct Probes<'a> {
    tracer: &'a Tracer,
    set: &'a mut dyn FnMut(&'static str, f64),
}

impl Probes<'_> {
    /// Report `body`'s time per operation, in units of `1 / scale` seconds.
    fn per_op(&mut self, name: &'static str, ops: usize, scale: f64, body: &mut dyn FnMut()) {
        (self.set)(name, timed(self.tracer, name, body) / ops as f64 * scale);
    }

    /// Report the rate of `calls` calls of `body` doing `flop` flops each.
    fn mflops(&mut self, name: &'static str, flop: f64, calls: usize, body: &mut dyn FnMut()) {
        let s = timed(self.tracer, name, || (0..calls).for_each(|_| body()));
        (self.set)(name, flop * calls as f64 / s / 1e6);
    }
}

/// Run every leaf probe; `set` receives each metric by name.
pub fn run(seed: u64, tracer: &Tracer, set: &mut dyn FnMut(&'static str, f64)) {
    let mut p = Probes { tracer, set };
    const NS: f64 = 1e9;
    const US: f64 = 1e6;

    // machine: one modeled compute time and one modeled communication time.
    let machine = MachineModel::test_noisy(4, seed);
    let n = 200_000;
    p.per_op("machine.draw_ns", n, NS, &mut || {
        let mut acc = 0.0;
        for i in 0..n as u64 {
            acc += machine.compute_time(KernelClass::Gemm, 1e4, (i % 4) as usize, i);
        }
        black_box(acc);
    });
    p.per_op("machine.comm_ns", n, NS, &mut || {
        let mut acc = 0.0;
        for i in 0..n as u64 {
            acc += machine.comm_time(CommOp::Allreduce, 256, 16, i % 7, i);
        }
        black_box(acc);
    });

    // stats: Welford push, pairwise merge, and a confidence-interval test.
    let n = 2_000_000;
    p.per_op("stats.push_ns", n, NS, &mut || {
        let mut s = OnlineStats::new();
        for i in 0..n as u64 {
            s.push(1.0 + (i % 17) as f64 * 0.25);
        }
        black_box(s.variance());
    });
    let n = 400_000;
    let part = OnlineStats::from_slice(&[1.0, 2.0, 4.0, 8.0]);
    p.per_op("stats.merge_ns", n, NS, &mut || {
        let mut acc = OnlineStats::new();
        for _ in 0..n {
            acc.merge(black_box(&part));
        }
        black_box(acc.mean());
    });
    let level = ConfidenceLevel::new(0.95);
    p.per_op("stats.ci_ns", n, NS, &mut || {
        let mut hits = 0u64;
        for i in 0..n as u64 {
            let ci = ConfidenceInterval::from_stats(black_box(&part), &level);
            hits += u64::from(ci.predictable(0.25, 1 + i % 64));
        }
        black_box(hits);
    });

    // dla: the kernels the four algorithms spend their flops in.
    for (name, dim, calls) in [("dla.gemm64_mflops", 64, 40), ("dla.gemm128_mflops", 128, 8)] {
        let (a, b) = (Matrix::random(dim, dim, seed), Matrix::random(dim, dim, seed + 1));
        let mut c = Matrix::zeros(dim, dim);
        p.mflops(name, flops::gemm(dim, dim, dim), calls, &mut || {
            gemm(Trans::No, Trans::No, 1.0, &a, &b, 0.0, &mut c);
            black_box(c.data()[0]);
        });
    }
    let dim = 128;
    let spd = Matrix::random_spd(dim, seed);
    p.mflops("dla.potrf_mflops", flops::potrf(dim), 16, &mut || {
        let mut a = spd.clone();
        potrf(&mut a).expect("random_spd is positive definite");
        black_box(a.data()[0]);
    });
    let mut l = spd.clone();
    potrf(&mut l).expect("random_spd is positive definite");
    let rhs = Matrix::random(dim, dim, seed + 2);
    p.mflops("dla.trsm_mflops", flops::trsm(dim, dim), 8, &mut || {
        let mut b = rhs.clone();
        trsm(Side::Left, Uplo::Lower, Trans::No, false, 1.0, &l, &mut b);
        black_box(b.data()[0]);
    });
    let mut c = Matrix::zeros(dim, dim);
    p.mflops("dla.syrk_mflops", flops::syrk(dim, dim), 8, &mut || {
        syrk(Uplo::Lower, Trans::No, -1.0, &rhs, 0.0, &mut c);
        black_box(c.data()[0]);
    });
    let tall = Matrix::random(256, 64, seed + 3);
    p.mflops("dla.geqrf_mflops", flops::geqrf(256, 64), 8, &mut || {
        let mut a = tall.clone();
        black_box(geqrf(&mut a).len());
    });

    // sim: the compute path, p2p matching, collective matching at 16 and 64
    // ranks, and the fixed cost of launching a run that does nothing.
    let n = 100_000;
    p.per_op("sim.compute_ns", n, NS, &mut || {
        let m = MachineModel::test_noisy(1, seed).shared();
        let r = run_simulation(SimConfig::new(1), m, move |ctx| {
            for _ in 0..n {
                ctx.compute(KernelClass::Gemm, 1e4);
            }
            ctx.now()
        });
        black_box(r.elapsed());
    });
    let n = 2_000;
    p.per_op("sim.p2p_ns", 2 * n, NS, &mut || {
        let m = MachineModel::test_noisy(2, seed).shared();
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
    for (name, ranks, n) in [("sim.allreduce16_us", 16, 300), ("sim.allreduce64_us", 64, 100)] {
        p.per_op(name, n, US, &mut || {
            let m = MachineModel::test_noisy(ranks, seed).shared();
            let r = run_simulation(SimConfig::new(ranks), m, move |ctx| {
                let world = ctx.world();
                let data = [1.5; 64];
                for _ in 0..n {
                    black_box(ctx.allreduce(&world, ReduceOp::Sum, &data));
                }
                ctx.now()
            });
            black_box(r.elapsed());
        });
    }
    for (name, ranks, n) in [("sim.launch16_us", 16, 40), ("sim.launch64_us", 64, 12)] {
        p.per_op(name, n, US, &mut || {
            for _ in 0..n {
                let m = MachineModel::test_noisy(ranks, seed).shared();
                let r = run_simulation(SimConfig::new(ranks), m, |ctx| ctx.now());
                black_box(r.elapsed());
            }
        });
    }

    // core: an intercepted kernel that executes, one that is skipped, and an
    // intercepted point-to-point message with its piggybacked path data.
    let n = 50_000;
    let kernels = |policy: ExecutionPolicy, epsilon: f64| {
        let m = MachineModel::test_noisy(1, seed).shared();
        let cfg = CritterConfig::new(policy, epsilon);
        let r = run_simulation(SimConfig::new(1), m, move |ctx| {
            let mut env = CritterEnv::new(ctx, cfg.clone(), KernelStore::new());
            for i in 0..n {
                let dim = 16 << (i % 4);
                env.kernel(ComputeOp::Gemm, dim, dim, dim, (dim * dim * dim) as f64, || {});
            }
            env.finish().0.kernels_skipped
        });
        r.outputs[0]
    };
    p.per_op("core.kernel_exec_ns", n, NS, &mut || {
        black_box(kernels(ExecutionPolicy::Full, 0.0));
    });
    p.per_op("core.kernel_skip_ns", n, NS, &mut || {
        // A loose tolerance makes all but the first few samples skip.
        let skipped = kernels(ExecutionPolicy::ConditionalExecution, 0.9);
        assert!(skipped * 10 > n as u64 * 9, "skip probe skipped only {skipped} of {n}");
    });
    let n = 1_000;
    p.per_op("core.comm_ns", 2 * n, NS, &mut || {
        let m = MachineModel::test_noisy(2, seed).shared();
        let r = run_simulation(SimConfig::new(2), m, move |ctx| {
            let mut env = CritterEnv::new(ctx, CritterConfig::full(), KernelStore::new());
            let world = env.world();
            for _ in 0..n {
                if env.rank() == 0 {
                    env.send(&world, 1, 0, &[1.0; 8]);
                    env.recv(&world, 1, 1, 8);
                } else {
                    env.recv(&world, 0, 0, 8);
                    env.send(&world, 0, 1, &[2.0; 8]);
                }
            }
            env.finish().0.predicted_time
        });
        black_box(r.elapsed());
    });
}
