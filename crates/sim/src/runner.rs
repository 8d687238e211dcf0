//! Launching simulations: configuration, the `'static` rank-program entry
//! point, and the report.

use std::sync::Arc;

use critter_machine::MachineModel;

use crate::backend::{execute_ranks, BackendKind};
use crate::counters::RankCounters;
use crate::ctx::RankCtx;
use crate::pool::WORKERS;

/// Wall-clock schedule perturbation injected at the simulator's interception
/// points (test-only configuration).
///
/// The simulator's determinism contract is that *virtual* results — clocks,
/// noise draws, reports — are a pure function of the program and the machine,
/// never of how the OS interleaves the rank threads. The testkit's
/// schedule-perturbation fuzzer stresses exactly that contract: it randomly
/// yields and sleeps rank threads (perturbing the real interleaving as an
/// adversarial scheduler would) and asserts the reports are bit-identical to
/// an unperturbed run. Perturbation draws come from a counter-based stream
/// keyed by `(seed, rank)`, so the fuzzer itself is reproducible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerturbParams {
    /// Seed of the per-rank perturbation stream.
    pub seed: u64,
    /// Probability in `[0, 1]` that a perturbation point yields the OS thread.
    pub yield_prob: f64,
    /// Probability in `[0, 1]` that a perturbation point sleeps.
    pub sleep_prob: f64,
    /// Upper bound (exclusive) of the wall-clock sleep, in microseconds.
    pub max_sleep_us: u64,
}

/// Seeded fault injection at the simulator's interception points.
///
/// Where [`PerturbParams`] shakes the *real* schedule while promising the
/// virtual results stay fixed, a fault plan perturbs the *simulated* machine
/// itself: ranks panic mid-operation (a crashed node) and messages suffer
/// injected virtual delays (congestion) or drops (modeled as a retransmit
/// timeout — the payload still arrives, late, which keeps the simulation
/// deadlock-free). Faults draw from a counter-based stream keyed by
/// `(seed, rank)` and indexed by the rank's fault-point counter, so a plan
/// is a pure function of the program — the same plan always kills the same
/// rank at the same operation, regardless of thread scheduling. That
/// determinism is what lets the autotuner retry a faulted run with a
/// reseeded plan and lets the testkit assert recovery byte-for-byte.
///
/// # Examples
///
/// ```
/// use critter_sim::FaultPlan;
///
/// // A plan that kills ranks roughly once per fifty operations and delays
/// // one message in ten by up to 100 µs of virtual time.
/// let plan =
///     FaultPlan { delay_prob: 0.1, max_delay: 1e-4, ..FaultPlan::new(7).with_rank_panics(0.02) };
/// assert_eq!(plan.seed, 7);
/// assert!(plan.panic_prob > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed of the per-rank fault stream.
    pub seed: u64,
    /// Probability in `[0, 1]` that a fault point panics the rank.
    pub panic_prob: f64,
    /// Probability in `[0, 1]` that a fault point delays the rank's clock.
    pub delay_prob: f64,
    /// Upper bound of an injected delay, in virtual seconds.
    pub max_delay: f64,
    /// Probability in `[0, 1]` that a fault point "drops" the operation's
    /// message: the rank is charged [`FaultPlan::retransmit_timeout`] and
    /// the operation then proceeds (the retransmit succeeds).
    pub drop_prob: f64,
    /// Virtual seconds charged for each dropped-and-retransmitted message.
    pub retransmit_timeout: f64,
}

impl FaultPlan {
    /// A fault-free plan on `seed`; arm it with
    /// [`with_rank_panics`](Self::with_rank_panics) or by setting fields.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            panic_prob: 0.0,
            delay_prob: 0.0,
            max_delay: 0.0,
            drop_prob: 0.0,
            retransmit_timeout: 0.0,
        }
    }

    /// Arm seeded rank panics with probability `prob` per fault point.
    pub fn with_rank_panics(mut self, prob: f64) -> Self {
        self.panic_prob = prob;
        self
    }

    /// Derive the plan for one specific run attempt: the driver reseeds the
    /// fault stream per `(run index, attempt)` so a retry explores a
    /// different fault schedule while staying fully deterministic.
    pub fn reseeded(mut self, salt: u64) -> Self {
        self.seed ^= salt.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17) | 1;
        self
    }
}

/// Configuration of a simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of simulated ranks (each gets an OS thread).
    pub ranks: usize,
    /// Messages of at most this many words take the eager path (the sender
    /// does not synchronize with the receiver). 512 words = 4 KiB.
    pub eager_words: usize,
    /// Schedule perturbation injected at interception points (`None` off).
    pub perturb: Option<PerturbParams>,
    /// Fault injection (rank panics, message delays/drops) at interception
    /// points (`None` off).
    pub faults: Option<FaultPlan>,
    /// Which communicator backend hosts the rank programs (see
    /// [`BackendKind`]). Scheduling only — virtual results are
    /// backend-independent.
    pub backend: BackendKind,
    /// Number of shards the matching core is split over; `0` = auto (sized
    /// to the rank count). Scheduling only — results are shard-independent.
    pub shards: usize,
}

impl SimConfig {
    /// Default configuration for `ranks` ranks.
    pub fn new(ranks: usize) -> Self {
        SimConfig {
            ranks,
            eager_words: 512,
            perturb: None,
            faults: None,
            backend: BackendKind::default(),
            shards: 0,
        }
    }

    /// Select the communicator backend (`threads` default; `tasks` bounds
    /// the runnable set so 10k+ ranks fit in one process).
    pub fn with_backend(mut self, b: BackendKind) -> Self {
        self.backend = b;
        self
    }

    /// Override the matching-core shard count (`0` = auto).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Override the eager threshold (the p2p-semantics ablation uses 0 and `usize::MAX`).
    pub fn with_eager_words(mut self, w: usize) -> Self {
        self.eager_words = w;
        self
    }

    /// Enable schedule perturbation (the testkit's determinism fuzzer).
    pub fn with_perturb(mut self, p: PerturbParams) -> Self {
        self.perturb = Some(p);
        self
    }

    /// Enable fault injection (seeded rank panics and message delays/drops).
    pub fn with_faults(mut self, f: FaultPlan) -> Self {
        self.faults = Some(f);
        self
    }
}

/// Result of a simulation: per-rank outputs, virtual times, and counters.
#[derive(Debug)]
pub struct SimReport<R> {
    /// Per-rank return values of the program closure.
    pub outputs: Vec<R>,
    /// Final virtual clock of each rank.
    pub rank_times: Vec<f64>,
    /// Volumetric counters of each rank.
    pub counters: Vec<RankCounters>,
}

impl<R> SimReport<R> {
    /// The simulated execution time: the maximum final clock over all ranks.
    pub fn elapsed(&self) -> f64 {
        self.rank_times.iter().copied().fold(0.0, f64::max)
    }
}

/// Run `program` on every rank of a simulated machine.
///
/// The closure receives a mutable [`RankCtx`] and may return any `Send` value;
/// outputs are collected in rank order. A panic on any rank poisons the core
/// (unblocking peers) and is re-raised on the calling thread.
///
/// The program owns what it captures (`'static`): each rank's job holds a
/// shared handle to it and sends its result back on a channel. Rank threads
/// come from one process-wide free list of idle threads: a run leases one per
/// rank, spawning only the shortfall, and later runs of any rank count —
/// including runs after a panicked simulation — reuse them. Concurrent calls
/// never share a thread while in flight. `config.backend` picks the execution
/// backend (see [`BackendKind`]); virtual results are identical across
/// backends.
pub fn run_simulation<R, F>(
    config: SimConfig,
    machine: Arc<MachineModel>,
    program: F,
) -> SimReport<R>
where
    R: Send + 'static,
    F: Fn(&mut RankCtx) -> R + Send + Sync + 'static,
{
    execute_ranks(&config, machine, program, &WORKERS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::ReduceOp;
    use crate::pool::Workers;
    use critter_machine::KernelClass;
    use std::panic::AssertUnwindSafe;

    fn machine(p: usize) -> Arc<MachineModel> {
        MachineModel::test_exact(p).shared()
    }

    #[test]
    fn single_rank_compute_advances_clock() {
        let report = run_simulation(SimConfig::new(1), machine(1), |ctx| {
            let t = ctx.compute(KernelClass::Gemm, 1e6);
            assert!(t > 0.0);
            ctx.now()
        });
        assert_eq!(report.outputs.len(), 1);
        assert!(report.elapsed() > 0.0);
        assert_eq!(report.outputs[0], report.rank_times[0]);
    }

    #[test]
    fn ping_pong_transfers_data_and_time() {
        let report = run_simulation(SimConfig::new(2), machine(2), |ctx| {
            let world = ctx.world();
            if ctx.rank() == 0 {
                ctx.send(&world, 1, 7, &[1.0, 2.0, 3.0]);
                let back = ctx.recv(&world, 1, 8);
                assert_eq!(back, vec![6.0]);
            } else {
                let data = ctx.recv(&world, 0, 7);
                assert_eq!(data, vec![1.0, 2.0, 3.0]);
                ctx.send(&world, 0, 8, &[data.iter().sum::<f64>()]);
            }
            ctx.now()
        });
        // Both ranks end after two messages' worth of time.
        let alpha = 1.0e-6;
        assert!(report.elapsed() >= 2.0 * alpha);
    }

    #[test]
    fn allreduce_sums_across_ranks() {
        let p = 8;
        let report = run_simulation(SimConfig::new(p), machine(p), |ctx| {
            let world = ctx.world();
            ctx.allreduce(&world, ReduceOp::Sum, &[ctx.rank() as f64, 1.0])
        });
        let expect = vec![(0..8).sum::<usize>() as f64, 8.0];
        for out in &report.outputs {
            assert_eq!(*out, expect);
        }
        // Collectives synchronize: all ranks share one completion time.
        let t0 = report.rank_times[0];
        for &t in &report.rank_times {
            assert!((t - t0).abs() < 1e-15);
        }
    }

    #[test]
    fn bcast_distributes_root_payload() {
        let p = 4;
        let report = run_simulation(SimConfig::new(p), machine(p), |ctx| {
            let world = ctx.world();
            let mut data = if ctx.rank() == 2 { vec![9.0, 8.0] } else { Vec::new() };
            ctx.bcast(&world, 2, &mut data);
            data
        });
        for out in &report.outputs {
            assert_eq!(*out, vec![9.0, 8.0]);
        }
    }

    #[test]
    fn gather_scatter_roundtrip() {
        let p = 4;
        let report = run_simulation(SimConfig::new(p), machine(p), |ctx| {
            let world = ctx.world();
            let gathered = ctx.gather(&world, 0, &[ctx.rank() as f64]);
            let chunk = if ctx.rank() == 0 {
                let g = gathered.unwrap();
                assert_eq!(g, vec![0.0, 1.0, 2.0, 3.0]);
                ctx.scatter(&world, 0, &g.iter().map(|x| x * 10.0).collect::<Vec<_>>())
            } else {
                assert!(gathered.is_none());
                ctx.scatter(&world, 0, &[])
            };
            chunk
        });
        for (r, out) in report.outputs.iter().enumerate() {
            assert_eq!(*out, vec![r as f64 * 10.0]);
        }
    }

    #[test]
    fn allgather_concatenates_in_rank_order() {
        let p = 3;
        let report = run_simulation(SimConfig::new(p), machine(p), |ctx| {
            let world = ctx.world();
            ctx.allgather(&world, &[ctx.rank() as f64, -(ctx.rank() as f64)])
        });
        for out in &report.outputs {
            assert_eq!(*out, vec![0.0, -0.0, 1.0, -1.0, 2.0, -2.0]);
        }
    }

    #[test]
    fn split_builds_rows_and_columns() {
        let p = 4; // 2x2 grid
        let report = run_simulation(SimConfig::new(p), machine(p), |ctx| {
            let world = ctx.world();
            let row = ctx.split(&world, (ctx.rank() / 2) as i64, ctx.rank() as i64).unwrap();
            let col = ctx.split(&world, (ctx.rank() % 2) as i64, ctx.rank() as i64).unwrap();
            // Sum within the row, then within the column: grand total via grid.
            let rsum = ctx.allreduce(&row, ReduceOp::Sum, &[ctx.rank() as f64]);
            let total = ctx.allreduce(&col, ReduceOp::Sum, &rsum);
            (row.size(), col.size(), row.meta().stride(), col.meta().stride(), total[0])
        });
        for (r, &(rs, cs, rstride, cstride, total)) in report.outputs.iter().enumerate() {
            assert_eq!(rs, 2, "rank {r} row size");
            assert_eq!(cs, 2);
            assert_eq!(rstride, 1);
            assert_eq!(cstride, 2);
            assert_eq!(total, 6.0);
        }
    }

    #[test]
    fn split_undefined_color_returns_none() {
        let p = 3;
        let report = run_simulation(SimConfig::new(p), machine(p), |ctx| {
            let world = ctx.world();
            let c = ctx.split(&world, if ctx.rank() == 0 { -1 } else { 0 }, 0);
            c.is_none()
        });
        assert_eq!(report.outputs, vec![true, false, false]);
    }

    #[test]
    fn split_ids_agree_among_members() {
        let p = 4;
        let report = run_simulation(SimConfig::new(p), machine(p), |ctx| {
            let world = ctx.world();
            let sub = ctx.split(&world, (ctx.rank() % 2) as i64, 0).unwrap();
            sub.id()
        });
        assert_eq!(report.outputs[0], report.outputs[2]);
        assert_eq!(report.outputs[1], report.outputs[3]);
        assert_ne!(report.outputs[0], report.outputs[1]);
    }

    #[test]
    fn nonblocking_send_recv() {
        let report = run_simulation(SimConfig::new(2), machine(2), |ctx| {
            let world = ctx.world();
            if ctx.rank() == 0 {
                let r1 = ctx.isend(&world, 1, 1, vec![1.0]);
                let r2 = ctx.isend(&world, 1, 2, vec![2.0]);
                ctx.wait(r1);
                ctx.wait(r2);
                Vec::new()
            } else {
                // Receive in reverse tag order: matching is by tag, not arrival.
                let d2 = ctx.recv(&world, 0, 2);
                let d1 = ctx.recv(&world, 0, 1);
                vec![d1[0], d2[0]]
            }
        });
        assert_eq!(report.outputs[1], vec![1.0, 2.0]);
    }

    #[test]
    fn ring_exchange_completes_without_deadlock() {
        let p = 4;
        let report = run_simulation(SimConfig::new(p), machine(p), move |ctx| {
            let world = ctx.world();
            let right = (ctx.rank() + 1) % p;
            let left = (ctx.rank() + p - 1) % p;
            // Everyone sends right, receives from left — classic ring shift.
            let req = ctx.isend(&world, right, 0, vec![ctx.rank() as f64]);
            let got = ctx.recv(&world, left, 0);
            ctx.wait(req);
            got[0]
        });
        for (r, &g) in report.outputs.iter().enumerate() {
            assert_eq!(g as usize, (r + p - 1) % p);
        }
    }

    #[test]
    fn determinism_across_runs() {
        let run = || {
            let m = MachineModel::test_noisy(4, 99).shared();
            run_simulation(SimConfig::new(4), m, |ctx| {
                let world = ctx.world();
                ctx.compute(KernelClass::Gemm, 1e6 * (1 + ctx.rank()) as f64);
                let s = ctx.allreduce(&world, ReduceOp::Sum, &[ctx.now()]);
                ctx.compute(KernelClass::Factorize, 2e5);
                ctx.allreduce(&world, ReduceOp::Sum, &[]);
                (ctx.now(), s[0])
            })
        };
        let a = run();
        let b = run();
        assert_eq!(a.rank_times, b.rank_times, "virtual times must be bit-identical");
        assert_eq!(a.outputs, b.outputs);
    }

    #[test]
    fn tasks_backend_and_shard_counts_match_threads_bit_for_bit() {
        // The backend/shard knobs are pure scheduling: every virtual result
        // must be bit-identical to the default threads backend. (The testkit
        // `backend_equivalence` suite pins this at the artifact level; this
        // is the fast in-crate canary.)
        let prog = |ctx: &mut RankCtx| {
            let world = ctx.world();
            ctx.compute(KernelClass::Gemm, 1e5 * (1 + ctx.rank()) as f64);
            let s = ctx.allreduce(&world, ReduceOp::Sum, &[ctx.now()]);
            let right = (ctx.rank() + 1) % 4;
            let left = (ctx.rank() + 3) % 4;
            let req = ctx.isend(&world, right, 0, vec![ctx.rank() as f64]);
            let got = ctx.recv(&world, left, 0);
            ctx.wait(req);
            let sub = ctx.split(&world, (ctx.rank() % 2) as i64, 0).unwrap();
            let t = ctx.allreduce(&sub, ReduceOp::Max, &[ctx.now()]);
            (ctx.now(), s[0], got[0], t[0])
        };
        let m = || MachineModel::test_noisy(4, 21).shared();
        let reference = run_simulation(SimConfig::new(4), m(), prog);
        for shards in [1, 4] {
            let cfg = SimConfig::new(4).with_backend(BackendKind::Tasks).with_shards(shards);
            let tasks = run_simulation(cfg, m(), prog);
            assert_eq!(reference.rank_times, tasks.rank_times, "shards={shards}");
            assert_eq!(reference.outputs, tasks.outputs, "shards={shards}");
        }
    }

    #[test]
    fn schedule_perturbation_leaves_virtual_results_unchanged() {
        // The determinism contract the testkit fuzzer stresses at scale:
        // yields/sleeps injected at interception points shake the real
        // thread interleaving but must not move any virtual result.
        let prog = |ctx: &mut RankCtx| {
            let world = ctx.world();
            ctx.compute(KernelClass::Gemm, 1e5 * (1 + ctx.rank()) as f64);
            let s = ctx.allreduce(&world, ReduceOp::Sum, &[ctx.now()]);
            let right = (ctx.rank() + 1) % 4;
            let left = (ctx.rank() + 3) % 4;
            let req = ctx.isend(&world, right, 0, vec![ctx.rank() as f64]);
            let got = ctx.recv(&world, left, 0);
            ctx.wait(req);
            (ctx.now(), s[0], got[0])
        };
        let m = || MachineModel::test_noisy(4, 5).shared();
        let base = run_simulation(SimConfig::new(4), m(), prog);
        let perturb =
            PerturbParams { seed: 99, yield_prob: 0.7, sleep_prob: 0.5, max_sleep_us: 50 };
        let shaken = run_simulation(SimConfig::new(4).with_perturb(perturb), m(), prog);
        assert_eq!(base.rank_times, shaken.rank_times);
        assert_eq!(base.outputs, shaken.outputs);
    }

    #[test]
    fn fault_free_plan_changes_nothing() {
        let prog = |ctx: &mut RankCtx| {
            let world = ctx.world();
            ctx.compute(KernelClass::Gemm, 1e5 * (1 + ctx.rank()) as f64);
            ctx.allreduce(&world, ReduceOp::Sum, &[ctx.now()]);
            ctx.now()
        };
        let m = || MachineModel::test_noisy(4, 11).shared();
        let base = run_simulation(SimConfig::new(4), m(), prog);
        let unarmed = run_simulation(SimConfig::new(4).with_faults(FaultPlan::new(3)), m(), prog);
        assert_eq!(base.rank_times, unarmed.rank_times);
        assert_eq!(base.outputs, unarmed.outputs);
    }

    #[test]
    fn injected_delays_are_deterministic_and_slow_the_run() {
        let prog = |ctx: &mut RankCtx| {
            let world = ctx.world();
            for _ in 0..10 {
                ctx.compute(KernelClass::Gemm, 1e5 * (1 + ctx.rank()) as f64);
                ctx.allreduce(&world, ReduceOp::Sum, &[ctx.now()]);
            }
            ctx.now()
        };
        let m = || MachineModel::test_noisy(4, 11).shared();
        let plan = FaultPlan { delay_prob: 0.5, max_delay: 1e-3, ..FaultPlan::new(42) };
        let base = run_simulation(SimConfig::new(4), m(), prog);
        let a = run_simulation(SimConfig::new(4).with_faults(plan), m(), prog);
        let b = run_simulation(SimConfig::new(4).with_faults(plan), m(), prog);
        assert_eq!(a.rank_times, b.rank_times, "fault schedule must be deterministic");
        assert_eq!(a.outputs, b.outputs);
        assert!(a.elapsed() > base.elapsed(), "injected delays must cost virtual time");
        // A different seed draws a different delay schedule.
        let c = run_simulation(SimConfig::new(4).with_faults(plan.reseeded(1)), m(), prog);
        assert_ne!(a.rank_times, c.rank_times);
    }

    #[test]
    fn dropped_messages_cost_the_retransmit_timeout() {
        let prog = |ctx: &mut RankCtx| {
            let world = ctx.world();
            for _ in 0..20 {
                ctx.allreduce(&world, ReduceOp::Sum, &[]);
            }
            ctx.now()
        };
        let m = || machine(2);
        let base = run_simulation(SimConfig::new(2), m(), prog);
        let plan = FaultPlan { drop_prob: 1.0, retransmit_timeout: 0.25, ..FaultPlan::new(9) };
        let dropped = run_simulation(SimConfig::new(2).with_faults(plan), m(), prog);
        // Every fault point drops: elapsed grows by ≥ 20 retransmit timeouts.
        assert!(dropped.elapsed() >= base.elapsed() + 20.0 * 0.25);
    }

    #[test]
    fn injected_rank_panic_reports_the_fault_point() {
        let plan = FaultPlan::new(5).with_rank_panics(1.0); // first fault point kills
        let result = std::panic::catch_unwind(|| {
            run_simulation(SimConfig::new(2).with_faults(plan), machine(2), |ctx| {
                ctx.compute(KernelClass::Gemm, 1e5);
                let world = ctx.world();
                ctx.allreduce(&world, ReduceOp::Sum, &[]);
            })
        });
        let err = result.unwrap_err();
        let msg = err.downcast_ref::<String>().map(String::as_str).unwrap_or_default();
        assert!(msg.contains("injected fault"), "panic message was {msg:?}");
    }

    #[test]
    fn noisy_machine_perturbs_times() {
        let m1 = MachineModel::test_noisy(2, 1).shared();
        let m2 = MachineModel::test_noisy(2, 2).shared();
        let prog = |ctx: &mut RankCtx| {
            ctx.compute(KernelClass::Gemm, 1e7);
            ctx.now()
        };
        let a = run_simulation(SimConfig::new(2), m1, prog);
        let b = run_simulation(SimConfig::new(2), m2, prog);
        assert_ne!(a.rank_times, b.rank_times);
    }

    #[test]
    fn counters_track_volume() {
        let p = 2;
        let report = run_simulation(SimConfig::new(p), machine(p), |ctx| {
            let world = ctx.world();
            if ctx.rank() == 0 {
                ctx.send(&world, 1, 0, &[0.0; 10]);
            } else {
                ctx.recv(&world, 0, 0);
            }
            ctx.allreduce(&world, ReduceOp::Sum, &[]);
        });
        assert_eq!(report.counters[0].sends, 1);
        assert_eq!(report.counters[0].words_sent, 10);
        assert_eq!(report.counters[1].recvs, 1);
        assert_eq!(report.counters[1].words_received, 10);
        assert_eq!(report.counters[0].collectives, 1);
        assert!(report.counters.iter().any(|c| c.comm_time > 0.0));
    }

    #[test]
    fn idle_time_attributed_to_late_sender() {
        let p = 2;
        let report = run_simulation(SimConfig::new(p), machine(p), |ctx| {
            let world = ctx.world();
            if ctx.rank() == 0 {
                ctx.compute(KernelClass::Gemm, 1e9); // slow: receiver waits
                ctx.send(&world, 1, 0, &[1.0; 4]);
            } else {
                ctx.recv(&world, 0, 0);
            }
        });
        assert!(report.counters[1].idle_time > 0.0, "receiver should record idle time");
        assert!(report.counters[0].idle_time == 0.0);
    }

    #[test]
    fn rank_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            run_simulation(SimConfig::new(2), machine(2), |ctx| {
                if ctx.rank() == 1 {
                    panic!("boom on rank 1");
                }
                // Rank 0 blocks on a recv that will never be matched; the
                // poison must unblock it promptly.
                let world = ctx.world();
                ctx.recv(&world, 1, 0);
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn custom_allreduce_folds_in_rank_order() {
        let p = 4;
        fn keep_max_first(a: &[f64], b: &[f64]) -> Vec<f64> {
            if a.first() >= b.first() {
                a.to_vec()
            } else {
                b.to_vec()
            }
        }
        let report = run_simulation(SimConfig::new(p), machine(p), |ctx| {
            let world = ctx.world();
            let payload = vec![(ctx.rank() as f64 * 7.0) % 5.0, ctx.rank() as f64];
            ctx.allreduce_custom(&world, payload, keep_max_first, Some(None)).0
        });
        // Values of first element: r0=0, r1=2, r2=4, r3=1 → winner rank 2.
        for out in &report.outputs {
            assert_eq!(*out, vec![4.0, 2.0]);
        }
    }

    #[test]
    fn uncharged_collective_synchronizes_without_cost() {
        let p = 2;
        fn first(a: &[f64], _b: &[f64]) -> Vec<f64> {
            a.to_vec()
        }
        let report = run_simulation(SimConfig::new(p), machine(p), |ctx| {
            let world = ctx.world();
            if ctx.rank() == 0 {
                ctx.compute(KernelClass::Gemm, 1e8);
            }
            let before = ctx.now();
            ctx.allreduce_custom(&world, vec![0.0], first, None);
            (before, ctx.now())
        });
        // Rank 1 must be dragged to rank 0's clock (sync), but the op is free
        // for rank 0 (no added cost).
        let (r0_before, r0_after) = report.outputs[0];
        let (_, r1_after) = report.outputs[1];
        assert_eq!(r0_before, r0_after);
        assert_eq!(r0_after, r1_after);
    }

    #[test]
    fn eager_send_does_not_wait_for_receiver() {
        let p = 2;
        let report = run_simulation(SimConfig::new(p), machine(p), |ctx| {
            let world = ctx.world();
            if ctx.rank() == 0 {
                ctx.send(&world, 1, 0, &[1.0; 8]); // small → eager
                ctx.now()
            } else {
                ctx.compute(KernelClass::Gemm, 1e9); // receiver is very late
                ctx.recv(&world, 0, 0);
                ctx.now()
            }
        });
        // Sender finished long before the receiver.
        assert!(report.outputs[0] < 0.01 * report.outputs[1]);
    }

    #[test]
    fn pooled_threads_are_reused_across_consecutive_runs() {
        // A private free list, so the rest of the suite running in parallel
        // cannot take these threads between the two runs.
        let workers = Workers::default();
        let run = || {
            execute_ranks(&SimConfig::new(2), machine(2), |_| std::thread::current().id(), &workers)
        };
        let first = run();
        let second = run();
        assert_eq!(first.outputs, second.outputs, "consecutive runs must reuse rank threads");
    }

    #[test]
    fn simulation_recovers_after_panicked_run_on_same_pool() {
        let workers = Workers::default();
        let cfg = SimConfig::new(2);
        let m = machine(2);
        let ids = || {
            let id = |_: &mut RankCtx| std::thread::current().id();
            execute_ranks(&cfg, Arc::clone(&m), id, &workers).outputs
        };
        let before = ids();
        let payload = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let program = |ctx: &mut RankCtx| {
                if ctx.rank() == 1 {
                    panic!("rank 1 exploded");
                }
                // Blocks until the poison wakes it with the peer cascade.
                let world = ctx.world();
                ctx.recv(&world, 1, 0);
            };
            execute_ranks(&cfg, Arc::clone(&m), program, &workers)
        }))
        .expect_err("panic must propagate to the caller");
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(
            msg.contains("rank 1 exploded"),
            "root cause, not the peer cascade, must be re-raised; got {msg:?}"
        );
        // The lease went back to the free list although the run panicked, and
        // the threads it parked are clean: same threads, fresh core, rank order.
        assert_eq!(before, ids(), "the panicked run's threads must be reused, not leaked");
        let sum = |ctx: &mut RankCtx| {
            let world = ctx.world();
            (ctx.rank(), ctx.allreduce(&world, ReduceOp::Sum, &[ctx.rank() as f64])[0])
        };
        let ok = execute_ranks(&cfg, m, sum, &workers);
        assert_eq!(ok.outputs, vec![(0, 1.0), (1, 1.0)]);
    }

    #[test]
    fn concurrent_launches_of_mixed_shapes_share_threads() {
        let workers = Workers::default();
        let launch = |ranks: usize| {
            let program = |ctx: &mut RankCtx| {
                let world = ctx.world();
                let sum = ctx.allreduce(&world, ReduceOp::Sum, &[ctx.rank() as f64])[0];
                (ctx.rank(), sum, std::thread::current().id())
            };
            let report = execute_ranks(&SimConfig::new(ranks), machine(ranks), program, &workers);
            let expect = (ranks * (ranks - 1) / 2) as f64;
            for (rank, &(r, sum, _)) in report.outputs.iter().enumerate() {
                assert_eq!((r, sum), (rank, expect), "{ranks}-rank run");
            }
            report.outputs.into_iter().map(|(_, _, id)| id).collect::<Vec<_>>()
        };
        // One thread per rank of a run, and a smaller run reuses a larger
        // run's threads.
        let large = launch(64);
        assert_eq!(large.iter().collect::<std::collections::HashSet<_>>().len(), 64);
        assert!(launch(2).iter().all(|id| large.contains(id)));
        let mut seen = std::collections::HashSet::new();
        std::thread::scope(|s| {
            let launchers: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        (0..3).flat_map(|_| [2, 16, 64].map(launch)).flatten().collect::<Vec<_>>()
                    })
                })
                .collect();
            for launcher in launchers {
                seen.extend(launcher.join().expect("launcher thread"));
            }
        });
        // Four launchers hold at most 4 × 64 threads at once; one list per
        // shape would need up to 4 × (2 + 16 + 64).
        assert!(seen.len() <= 4 * 64, "{} distinct rank threads", seen.len());
    }

    #[test]
    fn rendezvous_send_waits_for_receiver() {
        let p = 2;
        let report = run_simulation(SimConfig::new(p), machine(p), |ctx| {
            let world = ctx.world();
            if ctx.rank() == 0 {
                ctx.send(&world, 1, 0, &vec![1.0; 100_000]); // large → rendezvous
                ctx.now()
            } else {
                ctx.compute(KernelClass::Gemm, 1e9);
                ctx.recv(&world, 0, 0);
                ctx.now()
            }
        });
        // Sender completion is coupled to the receiver's arrival.
        assert!((report.outputs[0] - report.outputs[1]).abs() < 1e-12);
    }
}
