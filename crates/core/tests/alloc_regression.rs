//! Allocation-count regression tests for the simulated hot paths.
//!
//! The speed pass eliminated per-event heap allocations from the compute
//! loop (batched noise draws, cached samplers) and from the observability
//! event path (interned `Arc<str>` labels, get-mut-first metrics). These
//! tests pin that property with a counting global allocator: a warmed-up
//! compute loop must allocate nothing at all, and a warmed-up observed
//! kernel loop may allocate only for amortized buffer growth — never per
//! event.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use critter_core::{ComputeOp, CritterConfig, CritterEnv, ExecutionPolicy, KernelStore};
use critter_machine::{KernelClass, MachineModel};
use critter_sim::{run_simulation, RankCtx, SimConfig};

/// Counts allocation events per thread. The rank closures run on their own
/// threads, so a rank reads exactly its own traffic — the harness threads
/// never pollute the count.
struct CountingAlloc;

thread_local! {
    static ALLOC_EVENTS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_EVENTS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn alloc_events() -> u64 {
    ALLOC_EVENTS.with(|c| c.get())
}

#[test]
fn pure_compute_loop_allocates_nothing() {
    // The noisy machine exercises the full sampler path (node factor +
    // per-invocation jitter draw), which must be allocation-free.
    let machine = MachineModel::test_noisy(2, 42).shared();
    let report = run_simulation(SimConfig::new(2), machine, |ctx: &mut RankCtx| {
        // Warm up: first draws may fault in lazy thread state.
        for _ in 0..8 {
            ctx.compute(KernelClass::Gemm, 1.0e6);
        }
        let before = alloc_events();
        for _ in 0..10_000 {
            ctx.compute(KernelClass::Gemm, 1.0e6);
        }
        alloc_events() - before
    });
    for (rank, allocs) in report.outputs.iter().enumerate() {
        assert_eq!(*allocs, 0, "rank {rank}: compute hot path allocated {allocs} times");
    }
}

#[test]
fn observed_kernel_loop_allocates_only_for_buffer_growth() {
    // A single repeated signature through the full interception layer with
    // observability on: after warm-up, labels are interned, metric slots
    // exist, and the Welford state is in place. The only legitimate
    // allocations left are the event buffer's amortized doublings (and the
    // store's occasional rehash) — O(log n) total, not O(n).
    let iters = 4_096u64;
    let machine = MachineModel::test_noisy(1, 7).shared();
    let cfg = CritterConfig::new(ExecutionPolicy::Full, 0.1).with_obs();
    let report = run_simulation(SimConfig::new(1), machine, move |ctx: &mut RankCtx| {
        let mut env = CritterEnv::new(ctx, cfg.clone(), KernelStore::new());
        for _ in 0..16 {
            env.kernel(ComputeOp::Gemm, 32, 32, 32, 2.0 * 32f64.powi(3), || {});
        }
        let before = alloc_events();
        for _ in 0..iters {
            env.kernel(ComputeOp::Gemm, 32, 32, 32, 2.0 * 32f64.powi(3), || {});
        }
        let allocs = alloc_events() - before;
        let _ = env.finish();
        allocs
    });
    let allocs = report.outputs[0];
    // Two events per kernel → 2 * 4096 pushes. Amortized growth of a Vec
    // plus incidental rehashes stays far under one alloc per 64 events; a
    // per-event allocation regression lands at >= 4096 and fails loudly.
    let bound = iters / 16;
    assert!(
        allocs < bound,
        "observed kernel loop allocated {allocs} times over {iters} kernels (bound {bound}) — \
         a per-event allocation crept back into the hot path"
    );
}

#[test]
fn pre_sized_recorder_removes_growth_allocations() {
    // With an exact capacity hint (what the autotune driver feeds back),
    // even the buffer-growth allocations disappear from the steady state.
    let iters = 1_024u64;
    let machine = MachineModel::test_exact(1).shared();
    let mut cfg = CritterConfig::new(ExecutionPolicy::Full, 0.1).with_obs();
    cfg.obs_capacity = 3 * (iters as usize) + 64;
    let report = run_simulation(SimConfig::new(1), machine, move |ctx: &mut RankCtx| {
        let mut env = CritterEnv::new(ctx, cfg.clone(), KernelStore::new());
        for _ in 0..16 {
            env.kernel(ComputeOp::Gemm, 32, 32, 32, 2.0 * 32f64.powi(3), || {});
        }
        let before = alloc_events();
        for _ in 0..iters {
            env.kernel(ComputeOp::Gemm, 32, 32, 32, 2.0 * 32f64.powi(3), || {});
        }
        let allocs = alloc_events() - before;
        let _ = env.finish();
        allocs
    });
    assert_eq!(
        report.outputs[0], 0,
        "pre-sized observed kernel loop should be allocation-free in steady state"
    );
}
