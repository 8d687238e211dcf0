//! The central matching core: point-to-point queues, collective slots,
//! virtual-time completion rules, exact deadlock detection.
//!
//! All ranks share one [`SimCore`]. State is **sharded**: point-to-point
//! queues land in a shard chosen by the channel hash of `(communicator, src,
//! dst, tag)`, collective slots in a shard chosen by the communicator id, so
//! independent channels no longer contend on one lock and wakeups only reach
//! the waiters of the affected shard. The shard count is a scheduling knob —
//! every cost draw is a pure function of operation identity (channel hash,
//! per-key sequence number), so virtual results are bit-identical across
//! shard counts, which the testkit's `backend_equivalence` oracles pin.
//!
//! Blocked operations park on a [`Lot`] (a shard or a rendezvous send slot),
//! under the `tasks` backend handing back their `TaskScheduler` worker permit
//! until they wake, which is what bounds the runnable set. Deadlock detection
//! is exact: the core counts the **live** ranks, those neither exited nor
//! parked unreleased, and a rank that releases a lot counts its parked ranks
//! back in before it can park or exit itself. No live rank with some parked
//! means none can ever be released: each raises [`crate::SimError::Stuck`] at
//! once. No clock is involved, so a slow but live run never trips it.

use std::collections::{HashMap, VecDeque};
use std::panic::panic_any;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use critter_machine::rng::stream_id;
use critter_machine::{CommOp, MachineModel};
use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::backend::TaskScheduler;
use crate::comm::Communicator;
use crate::ctx::ReduceOp;
use crate::error::{SimError, StuckOp};
use crate::runner::SimConfig;

/// Combine function for custom reductions (Critter's internal path-propagation
/// operator). A plain `fn` pointer: every participant passes the same one.
pub type CombineFn = fn(&[f64], &[f64]) -> Vec<f64>;

/// Identifies a point-to-point matching queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct P2pKey {
    pub comm: u64,
    /// World rank of the sender.
    pub src: usize,
    /// World rank of the receiver.
    pub dst: usize,
    pub tag: u64,
}

impl P2pKey {
    fn channel_hash(&self) -> u64 {
        stream_id(&[self.comm, self.src as u64, self.dst as u64, self.tag])
    }
}

/// Matching state that ranks park on: a mutex over the state, the number of
/// ranks parked on it and not yet released, and the release epoch they wait
/// for, plus the condvar they sleep on.
#[derive(Debug, Default)]
pub(crate) struct Lot<T> {
    st: Mutex<Parked<T>>,
    cv: Condvar,
}

#[derive(Debug, Default)]
struct Parked<T> {
    state: T,
    parked: usize,
    epoch: u64,
}

/// Slot a rendezvous sender parks on until the receiver matches; it holds
/// the sender's completion time once matched.
pub(crate) type SendSlot = Lot<Option<f64>>;

pub(crate) struct SendEntry {
    pub data: Vec<f64>,
    pub post_time: f64,
    /// Sampled transfer cost, fixed at post time (deterministic per key+seq).
    pub cost: f64,
    pub slot: Option<Arc<SendSlot>>,
}

#[derive(Default)]
struct P2pState {
    queues: HashMap<P2pKey, VecDeque<SendEntry>>,
    send_seq: HashMap<P2pKey, u64>,
}

/// What a rank contributes to a collective.
pub(crate) enum Contrib {
    /// Payload data (empty for non-roots of bcast and scatter).
    Data(Vec<f64>),
    /// `comm_split` participation.
    Split { color: i64, key: i64, world_rank: usize },
}

/// What a rank receives back from a collective.
pub(crate) enum Output {
    /// Payload data.
    Data(Vec<f64>),
    /// Nothing (non-root of gather).
    None,
    /// New communicator description from `comm_split` (None for undefined color).
    Split(Option<(u64, Arc<Vec<usize>>, usize)>),
}

/// The operation a collective slot performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CollKind {
    Bcast,
    Allreduce(ReduceOp),
    AllreduceCustom,
    Allgather,
    Gather,
    Scatter,
    Split,
}

impl CollKind {
    fn comm_op(self) -> CommOp {
        match self {
            CollKind::Bcast => CommOp::Bcast,
            CollKind::Allreduce(_) | CollKind::AllreduceCustom => CommOp::Allreduce,
            CollKind::Allgather | CollKind::Split => CommOp::Allgather,
            CollKind::Gather => CommOp::Gather,
            CollKind::Scatter => CommOp::Scatter,
        }
    }
}

struct CollSlot {
    kind: CollKind,
    root: usize,
    expected: usize,
    arrived: usize,
    max_post: f64,
    contribs: Vec<Option<Contrib>>,
    combine: Option<CombineFn>,
    /// Cost accounting: `None` = synchronize for free, `Some(None)` = charge
    /// the actual payload words, `Some(Some(w))` = charge `w` words.
    charge: Option<Option<usize>>,
    /// Completion time once the last participant arrives.
    done: Option<f64>,
    /// Sampled operation cost (0 when uncharged), for counters.
    cost: f64,
    outputs: Vec<Option<Output>>,
    taken: usize,
}

#[derive(Default)]
struct CollState {
    slots: HashMap<(u64, u64), CollSlot>,
}

/// Shared simulator core.
pub struct SimCore {
    pub(crate) machine: Arc<MachineModel>,
    /// Point-to-point shards: the queues whose channel hash maps to each.
    p2p: Vec<Lot<P2pState>>,
    /// Collective shards: the slots of the communicators that hash to each.
    coll: Vec<Lot<CollState>>,
    pub(crate) eager_words: usize,
    /// Schedule perturbation injected by rank contexts at interception
    /// points (testkit determinism fuzzing; `None` in normal runs).
    pub(crate) perturb: Option<crate::runner::PerturbParams>,
    /// Fault injection (seeded rank panics, message delays/drops) applied by
    /// rank contexts at the same interception points (`None` in normal runs).
    pub(crate) faults: Option<crate::runner::FaultPlan>,
    /// Set when any rank panics, so peers stop waiting immediately.
    poisoned: AtomicBool,
    /// Set when no live rank is left to release the parked ones: each then
    /// raises [`SimError::Stuck`] for its own operation.
    stuck: AtomicBool,
    /// Ranks that have neither exited nor parked unreleased.
    live: AtomicUsize,
    /// Ranks that have not exited.
    unexited: AtomicUsize,
    /// Cooperative worker-permit scheduler (`tasks` backend; `None` under
    /// thread-per-rank execution).
    sched: Option<Arc<TaskScheduler>>,
}

/// Outcome of matching a receive: payload, receiver completion time, and the
/// components (transfer cost, idle time) for counter accounting.
pub(crate) struct RecvOutcome {
    pub data: Vec<f64>,
    pub done: f64,
    pub cost: f64,
    pub idle: f64,
}

impl SimCore {
    pub(crate) fn new(
        machine: Arc<MachineModel>,
        config: &SimConfig,
        sched: Option<Arc<TaskScheduler>>,
    ) -> Self {
        // Shard count: explicit, or sized to the rank count (power of two for
        // cheap masking-friendly modulo, capped so huge runs do not allocate
        // thousands of idle mutexes).
        let shards = if config.shards > 0 {
            config.shards
        } else {
            config.ranks.clamp(1, 256).next_power_of_two()
        };
        SimCore {
            machine,
            p2p: (0..shards).map(|_| Lot::default()).collect(),
            coll: (0..shards).map(|_| Lot::default()).collect(),
            eager_words: config.eager_words,
            perturb: config.perturb,
            faults: config.faults,
            poisoned: AtomicBool::new(false),
            stuck: AtomicBool::new(false),
            live: AtomicUsize::new(config.ranks),
            unexited: AtomicUsize::new(config.ranks),
            sched,
        }
    }

    fn p2p_shard(&self, channel_hash: u64) -> &Lot<P2pState> {
        &self.p2p[(channel_hash % self.p2p.len() as u64) as usize]
    }

    fn coll_shard(&self, comm_id: u64) -> &Lot<CollState> {
        &self.coll[(stream_id(&[comm_id]) % self.coll.len() as u64) as usize]
    }

    /// Mark the simulation as failed (a rank panicked) and wake all waiters.
    pub(crate) fn poison(&self) {
        self.stop(&self.poisoned);
    }

    /// Set `flag` and wake all waiters so they observe it: shard condvars,
    /// rendezvous send slots queued anywhere, and the worker-permit
    /// scheduler. Each wake happens with the corresponding mutex held so a
    /// waiter that has checked the flags but not yet parked cannot miss it.
    fn stop(&self, flag: &AtomicBool) {
        flag.store(true, Ordering::SeqCst);
        for shard in &self.p2p {
            let st = shard.st.lock();
            for slot in st.state.queues.values().flatten().filter_map(|e| e.slot.as_ref()) {
                let _g = slot.st.lock();
                slot.cv.notify_all();
            }
            shard.cv.notify_all();
        }
        for shard in &self.coll {
            let _st = shard.st.lock();
            shard.cv.notify_all();
        }
        if let Some(s) = &self.sched {
            s.poison_wake();
        }
    }

    /// Count a rank out for good (its job returned, panicked or was dropped
    /// unrun). With no live rank left while some are parked, nobody can
    /// release them: the run is stuck. A panicking rank poisons first, so a
    /// real panic is never reported as a deadlock.
    pub(crate) fn exit(&self) {
        self.unexited.fetch_sub(1, Ordering::SeqCst);
        // Read once no rank is live: every rank not parked has exited by then.
        if self.live.fetch_sub(1, Ordering::SeqCst) == 1
            && self.unexited.load(Ordering::SeqCst) > 0
            && !self.poisoned.load(Ordering::SeqCst)
        {
            self.stop(&self.stuck);
        }
    }

    /// Acquire this rank's worker permit (no-op under the threads backend).
    pub(crate) fn sched_acquire(&self) {
        if let Some(s) = &self.sched {
            s.acquire(&self.poisoned);
        }
    }

    /// Release this rank's worker permit (no-op under the threads backend).
    pub(crate) fn sched_release(&self) {
        if let Some(s) = &self.sched {
            s.release();
        }
    }

    /// Release every rank parked on a lot: count them live again, before the
    /// caller can park or exit, and bump the epoch they wait for. Returns
    /// whether any rank was parked; if so, the caller notifies the lot's
    /// condvar after dropping the lock.
    fn release<T>(&self, g: &mut Parked<T>) -> bool {
        if g.parked == 0 {
            return false;
        }
        self.live.fetch_add(std::mem::take(&mut g.parked), Ordering::SeqCst);
        g.epoch += 1;
        true
    }

    /// Park the calling rank on `lot` until another rank releases it,
    /// handing back its scheduler permit while parked; returns the re-locked
    /// guard for the caller's re-check. If this was the last live rank,
    /// nobody is left to release it: it stops the run as stuck and raises
    /// `stuck(state)` at once. A rank woken by a stuck run raises its own
    /// `stuck(state)`; one woken by a poisoned run joins the panic cascade.
    ///
    /// Lock order: the permit is reacquired only *after* the state lock is
    /// dropped, so a rank never blocks on the scheduler while holding a
    /// shard (that inversion could wedge the whole worker budget behind one
    /// lock); the state is then re-locked for the caller's re-check.
    fn park<'a, T>(
        &self,
        lot: &'a Lot<T>,
        mut g: MutexGuard<'a, Parked<T>>,
        stuck: impl FnOnce(&T) -> SimError,
    ) -> MutexGuard<'a, Parked<T>> {
        if self.live.fetch_sub(1, Ordering::SeqCst) == 1 && !self.poisoned.load(Ordering::SeqCst) {
            self.live.fetch_add(1, Ordering::SeqCst);
            let err = stuck(&g.state);
            drop(g);
            self.stop(&self.stuck);
            panic_any(err);
        }
        g.parked += 1;
        let epoch = g.epoch;
        self.sched_release();
        while g.epoch == epoch {
            let stuck_run = self.stuck.load(Ordering::SeqCst);
            if stuck_run || self.poisoned.load(Ordering::SeqCst) {
                // Leaving unreleased: count back in, so the exit balances.
                g.parked -= 1;
                self.live.fetch_add(1, Ordering::SeqCst);
                if stuck_run {
                    panic_any(stuck(&g.state));
                }
                panic!("simulation aborted: a peer rank panicked");
            }
            lot.cv.wait(&mut g);
        }
        if self.sched.is_some() {
            drop(g);
            self.sched_acquire();
            g = lot.st.lock();
        }
        g
    }

    /// Post a send. Returns `(sampled transfer cost, slot)` — the slot is
    /// `Some` iff the message takes the rendezvous path (the caller must wait
    /// on it for its completion time).
    pub(crate) fn post_send(
        &self,
        key: P2pKey,
        data: Vec<f64>,
        post_time: f64,
        cost_words: Option<usize>,
    ) -> (f64, Option<Arc<SendSlot>>) {
        let words = data.len();
        // Cost may be overridden (Critter charges its internal piggyback
        // messages at the compact wire size of the real implementation).
        let cost_words = cost_words.unwrap_or(words);
        let rendezvous = cost_words > self.eager_words;
        let hash = key.channel_hash();
        let shard = self.p2p_shard(hash);
        // Reserve this message's per-key sequence number under the lock, then
        // sample its cost outside it: the draw is a pure function of
        // (key, seq), and all sends for one key come from the single sender
        // rank, so the queue push below still lands in seq order despite
        // the unlock window. Key→shard mapping is a pure function of the
        // key, so per-key sequencing is untouched by the shard count.
        let this_seq = {
            let mut st = shard.st.lock();
            let seq = st.state.send_seq.entry(key).or_insert(0);
            let s = *seq;
            *seq += 1;
            s
        };
        let cost = self.machine.comm_time(CommOp::PointToPoint, cost_words, 2, hash, this_seq);
        let slot = rendezvous.then(|| Arc::new(SendSlot::default()));
        let woke = {
            let mut st = shard.st.lock();
            st.state.queues.entry(key).or_default().push_back(SendEntry {
                data,
                post_time,
                cost,
                slot: slot.clone(),
            });
            self.release(&mut st)
        };
        if woke {
            shard.cv.notify_all();
        }
        (cost, slot)
    }

    /// Block until a send matching `key` is available; complete the pair.
    /// `recv_post` is when the receive was posted.
    pub(crate) fn match_recv(&self, key: P2pKey, recv_post: f64) -> RecvOutcome {
        let shard = self.p2p_shard(key.channel_hash());
        let mut st = shard.st.lock();
        let entry = loop {
            if let Some(q) = st.state.queues.get_mut(&key) {
                if let Some(entry) = q.pop_front() {
                    if q.is_empty() {
                        st.state.queues.remove(&key);
                    }
                    break entry;
                }
            }
            st = self.park(shard, st, |_| SimError::Stuck {
                op: StuckOp::Recv,
                comm: key.comm,
                detail: format!(
                    "receive never matched on comm {:#x} src {} dst {} tag {}",
                    key.comm, key.src, key.dst, key.tag
                ),
            });
        };
        drop(st);
        let start = entry.post_time.max(recv_post);
        let done = start + entry.cost;
        if let Some(slot) = &entry.slot {
            let mut g = slot.st.lock();
            g.state = Some(done);
            if self.release(&mut g) {
                drop(g);
                slot.cv.notify_all();
            }
        }
        let idle = (entry.post_time - recv_post).max(0.0);
        RecvOutcome { data: entry.data, done, cost: entry.cost, idle }
    }

    /// Wait for a rendezvous send to be matched; returns sender completion time.
    pub(crate) fn wait_send(&self, slot: &SendSlot) -> f64 {
        let mut g = slot.st.lock();
        loop {
            if let Some(t) = g.state {
                return t;
            }
            g = self.park(slot, g, |_| SimError::Stuck {
                op: StuckOp::SendRendezvous,
                comm: 0,
                detail: "rendezvous send never matched".into(),
            });
        }
    }

    /// Execute one collective participation. Blocks until all `expected`
    /// members of `comm` have arrived at sequence `seq`, then returns
    /// `(completion time, operation cost, output)`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn collective(
        &self,
        comm: &Communicator,
        seq: u64,
        kind: CollKind,
        root: usize,
        contrib: Contrib,
        combine: Option<CombineFn>,
        charge: Option<Option<usize>>,
        post: f64,
    ) -> (f64, f64, Output) {
        let my_index = comm.rank();
        let expected = comm.size();
        let slot_key = (comm.id(), seq);
        let shard = self.coll_shard(comm.id());
        let mut st = shard.st.lock();
        let completion = {
            let slot = st.state.slots.entry(slot_key).or_insert_with(|| CollSlot {
                kind,
                root,
                expected,
                arrived: 0,
                max_post: f64::NEG_INFINITY,
                contribs: (0..expected).map(|_| None).collect(),
                combine,
                charge,
                done: None,
                cost: 0.0,
                outputs: (0..expected).map(|_| None).collect(),
                taken: 0,
            });
            assert_eq!(
                slot.kind, kind,
                "collective mismatch on comm {:#x} seq {seq}: {:?} vs {:?} — ranks disagree on program order",
                comm.id(), slot.kind, kind
            );
            assert_eq!(
                slot.root,
                root,
                "collective root mismatch on comm {:#x} seq {seq}",
                comm.id()
            );
            assert!(
                slot.contribs.get(my_index).is_some_and(Option::is_none),
                "rank arrived twice at collective seq {seq}"
            );
            // Merge the charge spec across arrivals (participants may pass
            // different capped word counts for their own payloads): the
            // operation is charged at the largest requested size, regardless
            // of arrival order.
            slot.charge = match (slot.charge, charge) {
                (None, None) => None,
                (Some(None), Some(None)) => Some(None),
                (Some(Some(a)), Some(Some(b))) => Some(Some(a.max(b))),
                (a, b) => panic!("participants disagree on collective charging: {a:?} vs {b:?}"),
            };
            slot.contribs[my_index] = Some(contrib);
            slot.arrived += 1;
            slot.max_post = slot.max_post.max(post);
            (slot.arrived == slot.expected)
                .then(|| (slot.charge, slot.combine, std::mem::take(&mut slot.contribs)))
        };
        let mut woke = false;
        if let Some((charge, combine, contribs)) = completion {
            // Last arriver: sample the cost and build every rank's output
            // *outside* the lock — output construction clones payloads per
            // rank, which is the bulk of a collective's host-side work. The
            // window is race-free: every other participant is parked in the
            // wait loop below until `done` is set, the slot cannot be removed
            // while `done` is unset, and a replayed sequence number arriving
            // in the window trips the arrival assert above (its contribution
            // vector was taken) rather than corrupting the slot.
            drop(st);
            let (cost, outputs) = Self::complete_collective(
                &self.machine,
                comm,
                seq,
                kind,
                root,
                charge,
                combine,
                contribs,
            );
            st = shard.st.lock();
            let slot = st.state.slots.get_mut(&slot_key).expect("collective slot vanished");
            slot.cost = cost;
            slot.outputs = outputs;
            slot.done = Some(slot.max_post + cost);
            woke = self.release(&mut st);
        }
        // Wait for completion, then take this rank's output.
        let taken = loop {
            let slot = st.state.slots.get_mut(&slot_key).expect("collective slot vanished");
            if let Some(done) = slot.done {
                let cost = slot.cost;
                let out = slot.outputs[my_index].take().expect("output already taken");
                slot.taken += 1;
                if slot.taken == slot.expected {
                    st.state.slots.remove(&slot_key);
                }
                break (done, cost, out);
            }
            st = self.park(shard, st, |s| {
                let arrived = s.slots.get(&slot_key).map_or(0, |s| s.arrived);
                SimError::Stuck {
                    op: StuckOp::Collective,
                    comm: comm.id(),
                    detail: format!(
                        "collective {kind:?} on comm {:#x} seq {seq} has {arrived}/{expected} arrivals",
                        comm.id()
                    ),
                }
            });
        };
        drop(st);
        if woke {
            shard.cv.notify_all();
        }
        taken
    }

    /// All participants have arrived: compute the operation's sampled cost and
    /// every rank's output. Pure with respect to core state (runs outside the
    /// collective lock); the caller installs the results into the slot.
    #[allow(clippy::too_many_arguments)]
    fn complete_collective(
        machine: &MachineModel,
        comm: &Communicator,
        seq: u64,
        kind: CollKind,
        root: usize,
        charge: Option<Option<usize>>,
        combine: Option<CombineFn>,
        mut contribs: Vec<Option<Contrib>>,
    ) -> (f64, Vec<Option<Output>>) {
        let p = contribs.len();
        let take = |c: &mut Option<Contrib>| match c.take() {
            Some(Contrib::Data(d)) => d,
            Some(Contrib::Split { .. }) => panic!("split contribution in data collective"),
            None => panic!("missing contribution"),
        };
        let mut outputs: Vec<Option<Output>> = (0..p).map(|_| None).collect();

        // Words moved per the op's calling convention (per-rank for vector ops).
        let words = match kind {
            CollKind::Bcast => contribs[root].as_ref().map_or(0, contrib_len),
            CollKind::Allreduce(_)
            | CollKind::AllreduceCustom
            | CollKind::Allgather
            | CollKind::Gather => {
                contribs.iter().map(|c| c.as_ref().map_or(0, contrib_len)).max().unwrap_or(0)
            }
            CollKind::Scatter => contribs[root].as_ref().map_or(0, contrib_len) / p.max(1),
            CollKind::Split => 1,
        };
        let cost = match charge {
            Some(override_words) => {
                let w = override_words.unwrap_or(words);
                machine.comm_time(kind.comm_op(), w, p, stream_id(&[comm.id()]), seq)
            }
            None => 0.0,
        };

        match kind {
            CollKind::Bcast => {
                let data = take(&mut contribs[root]);
                for o in outputs.iter_mut() {
                    *o = Some(Output::Data(data.clone()));
                }
            }
            CollKind::Allreduce(op) => {
                let mut acc = take(&mut contribs[0]);
                for c in contribs.iter_mut().skip(1) {
                    let d = take(c);
                    op.fold_into(&mut acc, &d);
                }
                for o in outputs.iter_mut() {
                    *o = Some(Output::Data(acc.clone()));
                }
            }
            CollKind::AllreduceCustom => {
                let combine = combine.expect("custom allreduce needs combine fn");
                let mut acc = take(&mut contribs[0]);
                for c in contribs.iter_mut().skip(1) {
                    let d = take(c);
                    acc = combine(&acc, &d);
                }
                for o in outputs.iter_mut() {
                    *o = Some(Output::Data(acc.clone()));
                }
            }
            CollKind::Allgather | CollKind::Gather => {
                let mut all = Vec::new();
                for c in contribs.iter_mut() {
                    all.extend_from_slice(&take(c));
                }
                let everyone = kind == CollKind::Allgather;
                for (i, o) in outputs.iter_mut().enumerate() {
                    *o = Some(if everyone || i == root {
                        Output::Data(all.clone())
                    } else {
                        Output::None
                    });
                }
            }
            CollKind::Scatter => {
                let data = take(&mut contribs[root]);
                assert!(
                    data.len() % p == 0,
                    "scatter payload of {} words not divisible by {p} ranks",
                    data.len()
                );
                let chunk = data.len() / p;
                for (i, o) in outputs.iter_mut().enumerate() {
                    *o = Some(Output::Data(data[i * chunk..(i + 1) * chunk].to_vec()));
                }
            }
            CollKind::Split => {
                // Group members by color; order each group by (key, world rank).
                let mut entries: Vec<(i64, i64, usize, usize)> = contribs
                    .iter_mut()
                    .enumerate()
                    .map(|(i, c)| match c.take() {
                        Some(Contrib::Split { color, key, world_rank }) => {
                            (color, key, world_rank, i)
                        }
                        _ => panic!("non-split contribution in split collective"),
                    })
                    .collect();
                entries.sort_by_key(|&(color, key, wr, _)| (color, key, wr));
                let mut idx = 0;
                while idx < entries.len() {
                    let color = entries[idx].0;
                    let mut group = Vec::new();
                    while idx < entries.len() && entries[idx].0 == color {
                        group.push(entries[idx]);
                        idx += 1;
                    }
                    if color < 0 {
                        // MPI_UNDEFINED: no communicator.
                        for &(_, _, _, out_idx) in &group {
                            outputs[out_idx] = Some(Output::Split(None));
                        }
                        continue;
                    }
                    let members: Arc<Vec<usize>> =
                        Arc::new(group.iter().map(|&(_, _, wr, _)| wr).collect());
                    let mut parts = vec![comm.id(), seq, color as u64];
                    parts.extend(members.iter().map(|&m| m as u64));
                    let new_id = stream_id(&parts);
                    for (pos, &(_, _, _, out_idx)) in group.iter().enumerate() {
                        outputs[out_idx] =
                            Some(Output::Split(Some((new_id, Arc::clone(&members), pos))));
                    }
                }
            }
        }
        (cost, outputs)
    }
}

fn contrib_len(c: &Contrib) -> usize {
    match c {
        Contrib::Data(d) => d.len(),
        Contrib::Split { .. } => 1,
    }
}
