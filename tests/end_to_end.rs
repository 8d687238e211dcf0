//! Workspace-level integration tests: the full stack (machine model →
//! simulator → dense kernels → Critter interception → workloads → autotuner)
//! exercised end to end, checking the paper's qualitative claims at smoke
//! scale.

use critter::prelude::*;

/// All four factorization workloads produce numerically correct results under
/// full execution (the substrate is real, not mocked).
#[test]
fn all_workloads_factor_correctly() {
    use critter::algs::{
        candmc_qr::CandmcQr, capital::CapitalCholesky, slate_chol::SlateCholesky, slate_qr::SlateQr,
    };
    let workloads: Vec<Box<dyn Workload>> = vec![
        Box::new(CapitalCholesky { n: 32, block: 8, strategy: 2, ranks: 8 }),
        Box::new(SlateCholesky { n: 64, tile: 16, lookahead: 1, pr: 2, pc: 2 }),
        Box::new(CandmcQr { m: 64, n: 16, block: 4, pr: 2, pc: 2 }),
        Box::new(SlateQr { m: 64, n: 16, nb: 8, inner: 4, pr: 2, pc: 2 }),
    ];
    for w in workloads {
        let machine = MachineModel::test_exact(w.ranks()).shared();
        let name = w.name();
        let outs = run_simulation(SimConfig::new(w.ranks()), machine, move |ctx| {
            let mut env =
                CritterEnv::new(ctx, CritterConfig::full(), KernelStore::new()).verifying();
            let out = w.run(&mut env);
            let _ = env.finish();
            out
        });
        for o in &outs.outputs {
            let r = o.residual.expect("verification requested");
            assert!(r < 1e-8, "{name}: residual {r}");
        }
    }
}

/// Every selective policy completes a tuning sweep and produces finite,
/// sensible metrics on every space.
#[test]
fn every_policy_tunes_every_space() {
    for space in TuningSpace::ALL {
        for policy in ExecutionPolicy::ALL_SELECTIVE {
            let mut opts = TuningOptions::new(policy, 0.5).with_test_machine();
            opts.reset_between_configs = space.resets_between_configs();
            let report = Autotuner::new(opts).tune(&space.smoke());
            assert!(report.tuning_time() > 0.0, "{} {}", space.name(), policy.name());
            assert!(report.mean_error().is_finite());
            assert!(report.selection_quality() > 0.0 && report.selection_quality() <= 1.0 + 1e-12);
        }
    }
}

/// The headline qualitative result (§VI-B): selective execution accelerates
/// autotuning, and eager propagation is the fastest method at loose ε on a
/// bulk-synchronous Cholesky. A single noisy sweep can land either side of a
/// small timing margin, so the claim is checked on the mean over three node
/// allocations (mirroring the paper's repeat-per-allocation protocol) plus
/// the noise-independent structural fact that eager skips at least as many
/// kernels as conditional on every allocation.
#[test]
fn eager_beats_conditional_beats_full_on_capital() {
    let space = TuningSpace::CapitalCholesky;
    let ws = space.smoke();
    let run = |policy, alloc: u64| {
        let mut opts = TuningOptions::new(policy, 1.0);
        opts.reset_between_configs = false;
        opts.allocation = alloc;
        Autotuner::new(opts).tune(&ws)
    };
    let mut eager_total = 0.0;
    let mut cond_total = 0.0;
    for alloc in 0..3 {
        let cond = run(ExecutionPolicy::ConditionalExecution, alloc);
        let eager = run(ExecutionPolicy::EagerPropagation, alloc);
        assert!(cond.speedup() > 1.0, "conditional speedup {} on alloc {alloc}", cond.speedup());
        assert!(
            eager.skip_fraction() >= cond.skip_fraction(),
            "eager must not skip less than conditional on alloc {alloc}: {} vs {}",
            eager.skip_fraction(),
            cond.skip_fraction()
        );
        eager_total += eager.tuning_time();
        cond_total += cond.tuning_time();
    }
    assert!(
        eager_total < cond_total,
        "eager mean tuning time {} vs conditional {}",
        eager_total / 3.0,
        cond_total / 3.0
    );
}

/// Tightening ε systematically reduces the prediction error (§VI-C) down to
/// the environment noise floor.
#[test]
fn error_decreases_with_epsilon() {
    let space = TuningSpace::SlateCholesky;
    let ws = space.smoke();
    let err_at = |eps: f64| {
        let mut opts = TuningOptions::new(ExecutionPolicy::ConditionalExecution, eps);
        opts.reset_between_configs = true;
        opts.reps = 2;
        Autotuner::new(opts).tune(&ws).mean_error()
    };
    let loose = err_at(2.0);
    let tight = err_at(1.0 / 256.0);
    assert!(
        tight <= loose + 0.02,
        "error should not grow as ε tightens: loose {loose}, tight {tight}"
    );
}

/// A-priori propagation's offline pass prevents speedup relative to
/// conditional execution (§VI-B, Fig. 4a discussion).
#[test]
fn apriori_slower_than_conditional() {
    let space = TuningSpace::CandmcQr;
    let ws = space.smoke();
    let run = |policy| {
        let mut opts = TuningOptions::new(policy, 0.5).with_test_machine();
        opts.reset_between_configs = true;
        Autotuner::new(opts).tune(&ws)
    };
    let cond = run(ExecutionPolicy::ConditionalExecution);
    let apriori = run(ExecutionPolicy::APrioriPropagation);
    assert!(apriori.tuning_time() > cond.tuning_time());
}

/// Critter selects a near-optimal configuration (§VI-C: ≥ 99% of the optimal
/// configuration's performance in the paper; we require ≥ 90% at smoke scale
/// where configurations are closer together).
#[test]
fn selection_quality_is_high() {
    for space in [TuningSpace::SlateCholesky, TuningSpace::CandmcQr] {
        let mut opts = TuningOptions::new(ExecutionPolicy::OnlinePropagation, 0.25);
        opts.reset_between_configs = space.resets_between_configs();
        opts.reps = 2;
        let report = Autotuner::new(opts).tune(&space.smoke());
        assert!(
            report.selection_quality() > 0.9,
            "{}: quality {}",
            space.name(),
            report.selection_quality()
        );
    }
}

/// Simulated tuning runs are bit-reproducible (deterministic counter-based
/// noise regardless of thread scheduling).
#[test]
fn tuning_is_deterministic() {
    let run = || {
        let mut opts =
            TuningOptions::new(ExecutionPolicy::OnlinePropagation, 0.25).with_test_machine();
        opts.reset_between_configs = true;
        let r = Autotuner::new(opts).tune(&TuningSpace::SlateQr.smoke());
        (r.tuning_time(), r.full_time(), r.per_config_error())
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
    assert_eq!(a.2, b.2);
}

/// Different node allocations produce different timings (the reason the paper
/// repeats every experiment on two allocations).
#[test]
fn allocations_perturb_results() {
    let run = |alloc: u64| {
        let mut opts = TuningOptions::new(ExecutionPolicy::Full, 0.0).with_test_machine();
        opts.allocation = alloc;
        Autotuner::new(opts).tune(&TuningSpace::SlateCholesky.smoke()).full_time()
    };
    assert_ne!(run(0), run(1));
}

/// The §VIII extrapolation extension accelerates CANDMC QR (the workload the
/// paper names) without blowing up prediction error.
#[test]
fn extrapolation_helps_candmc_qr() {
    let space = TuningSpace::CandmcQr;
    let ws = space.smoke();
    let run = |extrapolate: bool| {
        let mut opts =
            TuningOptions::new(ExecutionPolicy::OnlinePropagation, 0.25).with_test_machine();
        opts.reset_between_configs = true;
        opts.extrapolate = extrapolate;
        Autotuner::new(opts).tune(&ws)
    };
    let base = run(false);
    let ext = run(true);
    assert!(
        ext.skip_fraction() >= base.skip_fraction(),
        "extrapolation must not skip less: {} vs {}",
        ext.skip_fraction(),
        base.skip_fraction()
    );
    assert!(ext.mean_error() < 0.5, "error stays bounded: {}", ext.mean_error());
}

/// Search strategies: successive halving pays less than exhaustive while
/// choosing a configuration whose true time is competitive.
#[test]
fn successive_halving_is_cheaper_than_exhaustive() {
    use critter::autotune::{search, SearchStrategy};
    let space = TuningSpace::SlateQr;
    let ws = space.smoke();
    let mut opts =
        TuningOptions::new(ExecutionPolicy::OnlinePropagation, 0.0625).with_test_machine();
    opts.reset_between_configs = true;
    let ex = search(&opts, &ws, &SearchStrategy::Exhaustive);
    let rnd = search(&opts, &ws, &SearchStrategy::Random { samples: 2, seed: 3 });
    assert!(rnd.tuning_time < ex.tuning_time, "2 of 4 evaluations must cost less");
    assert!(rnd.best < ws.len());
}

/// Observed full runs record one event per interception and expose the
/// per-kernel critical-path profile through the report.
#[test]
fn trace_and_path_profile_cover_a_full_run() {
    use critter::algs::slate_chol::SlateCholesky;
    let w = SlateCholesky { n: 64, tile: 16, lookahead: 0, pr: 2, pc: 2 };
    let machine = MachineModel::test_exact(w.ranks()).shared();
    let rep = run_simulation(SimConfig::new(w.ranks()), machine, move |ctx| {
        let mut env = CritterEnv::new(ctx, CritterConfig::full().with_obs(), KernelStore::new());
        w.run(&mut env);
        env.finish().0
    });
    for r in &rep.outputs {
        let events = &r.obs.as_ref().expect("obs recorded").events;
        let kinds: Vec<&str> = events.iter().map(|e| e.kind.name()).collect();
        let executed = kinds.iter().filter(|k| ["kernel_exec", "comm_exec"].contains(k)).count();
        assert_eq!(executed as u64, r.kernels_executed);
        assert!(!kinds.iter().any(|k| k.ends_with("_skip")), "a full run skips nothing");
        assert!(!r.top_kernels.is_empty(), "path profile must be populated");
        let path_total: f64 = r.top_kernels.iter().map(|(_, _, t)| t).sum();
        assert!(path_total > 0.0);
        assert!(r.imbalance() >= 1.0);
    }
}
