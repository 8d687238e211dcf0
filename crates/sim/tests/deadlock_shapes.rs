//! Deadlock-shape regression oracles: the classic ways a simulated program
//! wedges — mismatched point-to-point tags, a receive from the wrong peer,
//! cyclic receives, an unmatched rendezvous send, a ring missing one link, a
//! rank exiting with a collective still pending, a zero-member communicator —
//! must fail with the *same typed error* ([`SimError`]) on every backend, and
//! must fail promptly; a live peer that is only slow on the host must not
//! fail at all. Every scenario runs inside a wall-clock harness because the
//! historical failure mode of these shapes was hanging the threads backend
//! forever.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use critter_machine::MachineModel;
use critter_sim::{
    run_simulation, sim_error_of, BackendKind, RankCtx, ReduceOp, SimConfig, SimError, StuckOp,
};

/// Run `f` on a scratch thread and require it to finish within `limit`.
fn within<T: Send + 'static>(limit: Duration, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    let out = rx.recv_timeout(limit).expect("scenario exceeded the harness wall-clock budget");
    worker.join().expect("harness worker must not die");
    out
}

/// Run `prog` on `ranks` ranks of `backend`: the rank outputs, or the panic
/// payload the run died with.
fn run_on<R: Send + 'static>(
    backend: BackendKind,
    ranks: usize,
    prog: fn(&mut RankCtx) -> R,
) -> std::thread::Result<Vec<R>> {
    within(Duration::from_secs(10), move || {
        std::panic::catch_unwind(|| {
            let machine = MachineModel::test_exact(ranks).shared();
            run_simulation(SimConfig::new(ranks).with_backend(backend), machine, prog).outputs
        })
    })
}

/// Run `prog` on `backend` and extract the typed error it dies with.
fn typed_error(backend: BackendKind, ranks: usize, prog: fn(&mut RankCtx)) -> SimError {
    let err = run_on(backend, ranks, prog).expect_err("scenario must fail");
    sim_error_of(err.as_ref())
        .cloned()
        .unwrap_or_else(|| panic!("expected a typed SimError payload on {backend}"))
}

/// Assert both backends produce the same typed error and hand it back.
fn same_error_on_all_backends(ranks: usize, prog: fn(&mut RankCtx)) -> SimError {
    let mut errors = BackendKind::ALL.iter().map(|&b| typed_error(b, ranks, prog));
    let first = errors.next().unwrap();
    for other in errors {
        assert_eq!(first, other, "backends must agree on the typed error");
    }
    first
}

/// Assert `err` is a stuck receive on the world communicator whose
/// diagnostic contains `names`.
fn assert_stuck_recv(err: &SimError, names: &str) {
    match err {
        SimError::Stuck { op, comm, detail } => {
            assert_eq!(*op, StuckOp::Recv);
            assert_eq!(*comm, critter_sim::comm::WORLD_ID);
            assert!(detail.contains(names), "diagnostic names {names:?}: {detail}");
        }
        other => panic!("expected a stuck receive, got {other:?}"),
    }
}

fn mismatched_tags(ctx: &mut RankCtx) {
    let world = ctx.world();
    if ctx.rank() == 0 {
        ctx.send(&world, 1, 1, &[1.0]); // eager: completes locally
    } else {
        ctx.recv(&world, 0, 2); // wrong tag: never matches
    }
}

fn wrong_peer(ctx: &mut RankCtx) {
    let world = ctx.world();
    match ctx.rank() {
        0 => ctx.send(&world, 1, 5, &[1.0]),
        1 => {
            ctx.recv(&world, 2, 5); // the message comes from rank 0
        }
        _ => {}
    }
}

fn cyclic_receives(ctx: &mut RankCtx) {
    // Every rank waits on its right neighbour and none exits: the last rank
    // to park finds the deadlock.
    let world = ctx.world();
    ctx.recv(&world, (ctx.rank() + 1) % ctx.size(), 0);
}

fn unmatched_rendezvous(ctx: &mut RankCtx) {
    let world = ctx.world();
    if ctx.rank() == 0 {
        ctx.send(&world, 1, 0, &[0.0; 1024]); // above the eager threshold
    }
}

fn ring_missing_one_link(ctx: &mut RankCtx) {
    // Send right, then receive from the left; rank 7 never sends to rank 8.
    let world = ctx.world();
    let (rank, p) = (ctx.rank(), ctx.size());
    if rank != 7 {
        ctx.send(&world, (rank + 1) % p, 0, &[rank as f64]);
    }
    ctx.recv(&world, (rank + p - 1) % p, 0);
}

fn busy_peer(ctx: &mut RankCtx) {
    let world = ctx.world();
    if ctx.rank() == 1 {
        // Live, but busy on the host while its partner waits.
        std::thread::sleep(Duration::from_secs(1));
        ctx.send(&world, 0, 0, &[1.0]);
    } else {
        ctx.recv(&world, 1, 0);
    }
}

fn missing_collective_peer(ctx: &mut RankCtx) {
    let world = ctx.world();
    if ctx.rank() != 2 {
        ctx.allreduce(&world, ReduceOp::Sum, &[]); // rank 2 exits without arriving
    }
}

fn zero_member_channel(ctx: &mut RankCtx) {
    if ctx.rank() == 0 {
        let _ = critter_sim::ChannelMeta::from_sorted_ranks(&[]);
    }
    let world = ctx.world();
    ctx.allreduce(&world, ReduceOp::Sum, &[]);
}

#[test]
fn mismatched_tags_raise_the_same_stuck_recv_everywhere() {
    let err = same_error_on_all_backends(2, mismatched_tags);
    assert_stuck_recv(&err, "tag 2");
    assert!(err.to_string().starts_with("simulated deadlock:"));
}

#[test]
fn a_receive_from_the_wrong_peer_raises_the_same_stuck_recv_everywhere() {
    let err = same_error_on_all_backends(3, wrong_peer);
    assert_stuck_recv(&err, "src 2 dst 1 tag 5");
}

#[test]
fn cyclic_receives_are_found_by_the_last_rank_to_park() {
    // Every rank raises its own stuck receive; the lowest rank's is reported.
    let err = same_error_on_all_backends(3, cyclic_receives);
    assert_stuck_recv(&err, "src 1 dst 0");
}

#[test]
fn an_unmatched_rendezvous_send_raises_the_same_stuck_send_everywhere() {
    let err = same_error_on_all_backends(2, unmatched_rendezvous);
    assert!(matches!(err, SimError::Stuck { op: StuckOp::SendRendezvous, .. }), "{err:?}");
}

#[test]
fn a_1024_rank_ring_missing_one_link_is_reported_at_once() {
    let mut errors = Vec::new();
    for backend in BackendKind::ALL {
        let start = Instant::now();
        errors.push(typed_error(backend, 1024, ring_missing_one_link));
        let wall = start.elapsed();
        assert!(wall < Duration::from_secs(5), "{backend} took {wall:?} to report the deadlock");
    }
    assert_eq!(errors[0], errors[1], "backends must agree on the typed error");
    assert_stuck_recv(&errors[0], "src 7 dst 8");
}

#[test]
fn a_live_peer_busy_on_the_host_is_not_a_deadlock() {
    for backend in BackendKind::ALL {
        let outputs = run_on(backend, 2, busy_peer)
            .unwrap_or_else(|_| panic!("{backend}: a busy live peer was taken for a deadlock"));
        assert_eq!(outputs.len(), 2);
    }
}

#[test]
fn pending_collective_raises_the_same_stuck_collective_everywhere() {
    let err = same_error_on_all_backends(3, missing_collective_peer);
    match &err {
        SimError::Stuck { op, detail, .. } => {
            assert_eq!(*op, StuckOp::Collective);
            assert!(detail.contains("2/3 arrivals"), "diagnostic counts arrivals: {detail}");
        }
        other => panic!("expected a stuck collective, got {other:?}"),
    }
}

#[test]
fn zero_member_communicator_raises_the_same_typed_error_everywhere() {
    let err = same_error_on_all_backends(2, zero_member_channel);
    assert_eq!(err, SimError::EmptyCommunicator);
}
