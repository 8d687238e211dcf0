//! Schedule-perturbation fuzzing: the determinism contract says every
//! stochastic cost draw is keyed by *operation identity* (channel id,
//! sequence number, invocation counter), never by thread scheduling. So
//! injecting random wall-clock yields and sleeps into the rank threads —
//! `SimConfig::with_perturb` / `TuningOptions::with_perturb` — must leave
//! every virtual result bit-identical: `CritterReport`s, `TuningReport`s,
//! makespans, all of it. Any dependence on real-time interleaving (a racy
//! communicator id, noise drawn in arrival order) shows up here as an exact
//! inequality.
//!
//! Two metamorphic symmetries ride along, checked on a noise-free machine
//! where they hold exactly:
//!
//! * **rank relabeling** — rotating which world rank plays which logical
//!   role leaves the critical-path length invariant;
//! * **grid-dimension permutation** — transposing a pr×pc process grid
//!   under a role-symmetric workload leaves the makespan invariant.

use std::sync::Arc;

use critter_algs::Workload;
use critter_autotune::{Autotuner, TuningOptions, TuningReport, TuningSpace};
use critter_core::{CritterConfig, CritterEnv, ExecutionPolicy, KernelStore};
use critter_machine::{KernelClass, MachineModel};
use critter_sim::{run_simulation, PerturbParams, ReduceOp, SimConfig};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Bit-identical reports under perturbation
// ---------------------------------------------------------------------

/// A communication-heavy profiled program: computes, ring exchanges, and a
/// collective, all through the interception layer.
fn profiled_run(perturb: Option<PerturbParams>) -> Vec<critter_core::CritterReport> {
    let mut config = SimConfig::new(4);
    if let Some(p) = perturb {
        config = config.with_perturb(p);
    }
    let machine = MachineModel::test_noisy(4, 11).shared();
    let report = run_simulation(config, machine, |ctx| {
        let mut env = CritterEnv::new(ctx, CritterConfig::full(), KernelStore::new());
        let world = env.world();
        for i in 0..6 {
            env.kernel(critter_core::ComputeOp::Gemm, 16, 16, 16, 2.0 * 4096.0, || {});
            let right = (env.rank() + 1) % 4;
            let left = (env.rank() + 3) % 4;
            let _ = env.sendrecv(&world, right, i, &[env.rank() as f64], left, i, 1);
            let _ = env.allreduce(&world, ReduceOp::Sum, &[1.0, 2.0]);
        }
        env.finish().0
    });
    report.outputs
}

fn tuned_sweep(perturb: Option<PerturbParams>) -> TuningReport {
    let mut opts = TuningOptions::new(ExecutionPolicy::LocalPropagation, 0.25)
        .with_test_machine()
        .with_workers(3);
    if let Some(p) = perturb {
        opts = opts.with_perturb(p);
    }
    let workloads: Vec<Arc<dyn Workload>> = TuningSpace::SlateCholesky.smoke();
    Autotuner::new(opts).tune(&workloads)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Critter reports from a directly profiled run are bit-identical under
    /// any yield/sleep pattern.
    #[test]
    fn profiled_reports_survive_schedule_perturbation(
        seed in 0u64..0xFFFF_FFFF,
        yield_pct in 0u32..101,
        sleep_pct in 0u32..41,
        max_sleep_us in 0u64..50,
    ) {
        let perturb = PerturbParams {
            seed,
            yield_prob: yield_pct as f64 / 100.0,
            sleep_prob: sleep_pct as f64 / 100.0,
            max_sleep_us,
        };
        let base = profiled_run(None);
        let shaken = profiled_run(Some(perturb));
        prop_assert_eq!(base, shaken);
    }

    /// A whole tuning sweep — including the parallel reference-run pipeline —
    /// is bit-identical under perturbation.
    #[test]
    fn tuning_reports_survive_schedule_perturbation(
        seed in 0u64..0xFFFF_FFFF,
        yield_pct in 0u32..101,
        max_sleep_us in 0u64..30,
    ) {
        let perturb = PerturbParams {
            seed,
            yield_prob: yield_pct as f64 / 100.0,
            sleep_prob: 0.2,
            max_sleep_us,
        };
        let base = tuned_sweep(None);
        let shaken = tuned_sweep(Some(perturb));
        prop_assert_eq!(base, shaken);
    }
}

// ---------------------------------------------------------------------
// Metamorphic symmetries (noise-free machine)
// ---------------------------------------------------------------------

/// Makespan of a ring program where world rank `r` plays logical role
/// `(r + shift) % p`: compute cost depends only on the logical role, and
/// messages flow between logical neighbors. On a noise-free machine the
/// schedule is a pure function of the *logical* structure, so the makespan
/// must not depend on the relabeling shift.
fn relabeled_ring_makespan(p: usize, shift: usize) -> f64 {
    let machine = MachineModel::test_exact(p).shared();
    let report = run_simulation(SimConfig::new(p), machine, move |ctx| {
        let role = (ctx.rank() + shift) % p;
        let world = ctx.world();
        // Role-dependent load: role i performs (i+1) cost units.
        ctx.compute(KernelClass::Gemm, 1e5 * (role + 1) as f64);
        // Logical ring: role i sends to role i+1. World destination is the
        // rank playing that role, i.e. logical index minus shift (mod p).
        let next_role = (role + 1) % p;
        let prev_role = (role + p - 1) % p;
        let dst = (next_role + p - shift) % p;
        let src = (prev_role + p - shift) % p;
        let req = ctx.isend(&world, dst, role as u64, vec![role as f64]);
        let got = ctx.recv(&world, src, prev_role as u64);
        ctx.wait(req);
        assert_eq!(got[0], prev_role as f64);
        let _ = ctx.allreduce(&world, ReduceOp::Max, &[ctx.now()]);
    });
    report.elapsed()
}

/// Makespan of a role-symmetric pr×pc grid workload: every rank computes a
/// fixed-cost kernel, then allreduces W words across its row and W words
/// across its column. Transposing the grid (pr ↔ pc) swaps the roles of the
/// two phases, which are identical by construction, so the makespan is
/// invariant on a noise-free machine.
fn grid_makespan(pr: usize, pc: usize, words: usize) -> f64 {
    let p = pr * pc;
    let machine = MachineModel::test_exact(p).shared();
    let report = run_simulation(SimConfig::new(p), machine, move |ctx| {
        let world = ctx.world();
        let row = ctx.rank() / pc;
        let col = ctx.rank() % pc;
        let row_comm = ctx.split(&world, row as i64, col as i64).expect("row comm");
        let col_comm = ctx.split(&world, (pr + col) as i64, row as i64).expect("col comm");
        ctx.compute(KernelClass::Gemm, 2e5);
        let data = vec![1.0; words];
        let _ = ctx.allreduce(&row_comm, ReduceOp::Sum, &data);
        let _ = ctx.allreduce(&col_comm, ReduceOp::Sum, &data);
    });
    report.elapsed()
}

proptest! {
    /// Rank relabeling leaves the critical-path length invariant.
    #[test]
    fn rank_relabeling_is_a_symmetry(p_idx in 0usize..3, shift in 0usize..8) {
        let p = [2, 4, 6][p_idx];
        let base = relabeled_ring_makespan(p, 0);
        let shifted = relabeled_ring_makespan(p, shift % p);
        prop_assert_eq!(base, shifted);
    }

    /// Grid-dimension permutation leaves the makespan invariant.
    #[test]
    fn grid_transpose_is_a_symmetry(shape_idx in 0usize..3, w_exp in 0u32..4) {
        let (pr, pc) = [(1usize, 4usize), (2, 2), (2, 4)][shape_idx];
        let words = 16usize << w_exp;
        let a = grid_makespan(pr, pc, words);
        let b = grid_makespan(pc, pr, words);
        prop_assert_eq!(a, b);
    }
}

/// The perturbation hooks must be genuinely schedule-only: a perturbed and
/// an unperturbed run must also agree on per-rank *virtual clocks*, not
/// just on the aggregated report.
#[test]
fn perturbation_leaves_rank_clocks_untouched() {
    let run = |perturb: Option<PerturbParams>| {
        let mut config = SimConfig::new(4);
        if let Some(p) = perturb {
            config = config.with_perturb(p);
        }
        let machine = MachineModel::test_noisy(4, 23).shared();
        run_simulation(config, machine, |ctx| {
            let world = ctx.world();
            ctx.compute(KernelClass::Gemm, 3e5 * (1 + ctx.rank() % 2) as f64);
            let _ = ctx.allreduce(&world, ReduceOp::Sum, &[1.0]);
            ctx.now()
        })
    };
    let perturb = PerturbParams { seed: 5, yield_prob: 0.9, sleep_prob: 0.6, max_sleep_us: 80 };
    let base = run(None);
    let shaken = run(Some(perturb));
    assert_eq!(base.rank_times, shaken.rank_times);
    assert_eq!(base.outputs, shaken.outputs);
}
