//! Failure-injection tests: programming errors in simulated programs must be
//! caught loudly (panics with diagnostics), never silently corrupt state or
//! hang forever. Deadlocks are covered, on both backends, by
//! `deadlock_shapes.rs`.

use critter_machine::MachineModel;
use critter_sim::{run_simulation, sim_error_of, ReduceOp, SimConfig};

fn expect_panic<F: FnOnce() + std::panic::UnwindSafe>(f: F, needle: &str) {
    let result = std::panic::catch_unwind(f);
    let err = result.expect_err("program should have panicked");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .or_else(|| sim_error_of(err.as_ref()).map(|e| e.to_string()))
        .unwrap_or_default();
    assert!(msg.contains(needle), "panic message {msg:?} should contain {needle:?}");
}

#[test]
fn mismatched_collectives_are_detected() {
    // Rank 0 calls a bcast while rank 1 calls an allreduce at the same
    // sequence number: a program-order divergence, caught by the slot check.
    expect_panic(
        || {
            let machine = MachineModel::test_exact(2).shared();
            run_simulation(SimConfig::new(2), machine, |ctx| {
                let world = ctx.world();
                if ctx.rank() == 0 {
                    ctx.bcast(&world, 0, &mut vec![1.0]);
                } else {
                    ctx.allreduce(&world, ReduceOp::Sum, &[1.0]);
                }
            });
        },
        "collective mismatch",
    );
}

#[test]
fn mismatched_reduction_lengths_are_detected() {
    expect_panic(
        || {
            let machine = MachineModel::test_exact(2).shared();
            run_simulation(SimConfig::new(2), machine, |ctx| {
                let world = ctx.world();
                let data = vec![1.0; 1 + ctx.rank()];
                ctx.allreduce(&world, ReduceOp::Sum, &data);
            });
        },
        "length mismatch",
    );
}

#[test]
fn scatter_with_indivisible_payload_is_detected() {
    expect_panic(
        || {
            let machine = MachineModel::test_exact(2).shared();
            run_simulation(SimConfig::new(2), machine, |ctx| {
                let world = ctx.world();
                let data = if ctx.rank() == 0 { vec![1.0; 3] } else { Vec::new() };
                ctx.scatter(&world, 0, &data);
            });
        },
        "not divisible",
    );
}

#[test]
fn cloned_handles_share_one_sequence_stream() {
    // Regression for the `Cell<u64>` sequence counter that used to live on
    // the `Communicator` handle: a handle cloned before the first collective
    // carried a *copy* of the counter, so using it afterwards replayed
    // sequence 0 and deadlocked the ranks onto different slots. Sequence
    // numbers are now derived in the rank context from the communicator id,
    // so any mix of clones of the same communicator is indistinguishable
    // from using one handle throughout.
    let machine = MachineModel::test_exact(2).shared();
    let report = run_simulation(SimConfig::new(2), machine, |ctx| {
        let world = ctx.world();
        let cloned = world.clone(); // before any collective
        if ctx.rank() == 0 {
            ctx.allreduce(&world, ReduceOp::Sum, &[]);
            ctx.allreduce(&cloned, ReduceOp::Sum, &[]); // same stream: seq 1, not a replay of 0
        } else {
            ctx.allreduce(&world, ReduceOp::Sum, &[]);
            ctx.allreduce(&world, ReduceOp::Sum, &[]);
        }
        ctx.now()
    });
    assert_eq!(report.rank_times[0], report.rank_times[1]);
}

#[test]
fn rank_count_must_match_machine() {
    expect_panic(
        || {
            let machine = MachineModel::test_exact(4).shared();
            run_simulation(SimConfig::new(2), machine, |_ctx| {});
        },
        "rank count",
    );
}
