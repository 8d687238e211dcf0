//! Property oracles for collective sequence derivation.
//!
//! Regression target: `Communicator` used to carry its own `Cell<u64>`
//! sequence counter, which `clone` *copied* — a handle cloned before a
//! collective replayed that collective's sequence number when used later,
//! colliding two different operations onto one matching slot (deadlock or
//! data corruption). Sequence numbers are now derived in the rank context as
//! a pure function of `(communicator id, op index on this rank)`, so the
//! property here is: any mix of handle clones taken at any point produces a
//! bit-identical simulation to using the original handles throughout.

use critter_sim::machine::MachineModel;
use critter_sim::{run_simulation, RankCtx, ReduceOp, SimConfig};
use proptest::prelude::*;

/// One generated collective op: which communicator family it targets and
/// which handle *vintage* the clone-happy run goes through.
#[derive(Debug, Clone, Copy)]
struct OpPick {
    on_world: bool,
    /// 0 = a clone taken fresh this iteration, 1 = a clone taken before any
    /// collective ran (the historical collision trigger), 2 = the original.
    vintage: u8,
}

fn op_picks() -> impl Strategy<Value = Vec<OpPick>> {
    proptest::collection::vec(
        (any::<bool>(), 0u8..3).prop_map(|(on_world, vintage)| OpPick { on_world, vintage }),
        1..12,
    )
}

fn run_program(seed: u64, ops: &[OpPick], use_clones: bool) -> (Vec<f64>, Vec<(f64, Vec<f64>)>) {
    let p = 4;
    let machine = MachineModel::test_noisy(p, seed).shared();
    let ops = ops.to_vec();
    let report = run_simulation(SimConfig::new(p), machine, move |ctx: &mut RankCtx| {
        let world = ctx.world();
        let early_world = world.clone(); // taken before ANY collective
        let row = ctx.split(&world, (ctx.rank() / 2) as i64, ctx.rank() as i64).unwrap();
        let early_row = row.clone();
        let mut sums = Vec::with_capacity(ops.len());
        for (i, pick) in ops.iter().enumerate() {
            let base = if pick.on_world { &world } else { &row };
            let fresh = base.clone();
            let handle = if !use_clones {
                base
            } else {
                match pick.vintage {
                    0 => &fresh,
                    1 => {
                        if pick.on_world {
                            &early_world
                        } else {
                            &early_row
                        }
                    }
                    _ => base,
                }
            };
            let s = ctx.allreduce(handle, ReduceOp::Sum, &[ctx.now(), i as f64]);
            sums.push(s[0]);
        }
        (ctx.now(), sums)
    });
    (report.rank_times, report.outputs)
}

proptest! {
    /// Clone-vintage independence: a program routing every collective through
    /// arbitrarily aged handle clones is bit-identical to one using the
    /// original handles — no replayed sequence numbers, no collisions.
    #[test]
    fn handle_clones_never_collide_sequence_numbers(
        seed in 0u64..1_000,
        ops in op_picks(),
    ) {
        let reference = run_program(seed, &ops, false);
        let cloned = run_program(seed, &ops, true);
        prop_assert_eq!(reference, cloned);
    }
}
