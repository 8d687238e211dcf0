//! The per-rank execution context — the "PMPI layer" a simulated program (or
//! the Critter interception layer above it) calls into.
//!
//! It offers exactly the operations `CritterEnv` calls. A test program
//! composes anything else from them: an exchange is `isend` + `recv` +
//! `wait`, a synchronization an empty `allreduce`.
//!
//! All operations follow MPI calling conventions: ranks are communicator-local,
//! vector collectives take per-rank contributions, `split` with a negative
//! color returns no communicator. Payloads are `Vec<f64>` (dense linear algebra
//! moves matrix blocks; integer metadata is encoded as f64, which is exact for
//! the magnitudes involved).

use std::sync::Arc;

use critter_machine::rng::stream_id;
use critter_machine::{ComputeSampler, CounterRng, KernelClass, MachineModel};

use crate::comm::Communicator;
use crate::core::{CollKind, CombineFn, Contrib, Output, P2pKey, SimCore};
use crate::counters::RankCounters;
use crate::request::{Request, RequestInner};

/// Elementwise reduction operators for `allreduce`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Elementwise sum.
    Sum,
    /// Elementwise maximum.
    Max,
    /// Elementwise minimum.
    Min,
}

impl ReduceOp {
    /// Fold `src` into `acc` elementwise. Panics on length mismatch, as MPI
    /// would on count mismatch.
    pub(crate) fn fold_into(self, acc: &mut [f64], src: &[f64]) {
        assert_eq!(acc.len(), src.len(), "reduction length mismatch");
        match self {
            ReduceOp::Sum => acc.iter_mut().zip(src).for_each(|(a, &b)| *a += b),
            ReduceOp::Max => acc.iter_mut().zip(src).for_each(|(a, &b)| *a = a.max(b)),
            ReduceOp::Min => acc.iter_mut().zip(src).for_each(|(a, &b)| *a = a.min(b)),
        }
    }
}

/// One simulated rank's execution context.
pub struct RankCtx {
    rank: usize,
    size: usize,
    clock: f64,
    core: Arc<SimCore>,
    world: Communicator,
    counters: RankCounters,
    compute_invocations: u64,
    /// Cached noise sampler for this rank — one stream setup per run instead
    /// of one per kernel invocation. Draws are bit-identical to going through
    /// `machine.compute_time` (see `ComputeSampler`).
    compute_noise: ComputeSampler,
    /// Cached perturbation/fault RNG streams (pure functions of `(seed, rank)`,
    /// hoisted out of the per-interception path).
    perturb_rng: Option<CounterRng>,
    fault_rng: Option<CounterRng>,
    perturb_points: u64,
    fault_points: u64,
    /// Per-communicator collective sequence counters, keyed by communicator
    /// id. Kept here — not on the [`Communicator`] handle — so cloned or
    /// re-derived handles of the same communicator draw from one sequence
    /// stream (a `Cell` on the handle was copied by `clone` and replayed
    /// sequence numbers). A small vec beats a map: programs hold a handful
    /// of live communicators.
    coll_seq: Vec<(u64, u64)>,
}

impl RankCtx {
    pub(crate) fn new(rank: usize, size: usize, core: Arc<SimCore>) -> Self {
        let world = Communicator::world(size, rank);
        let compute_noise = core.machine.compute_sampler(rank);
        let perturb_rng =
            core.perturb.map(|p| CounterRng::new(p.seed, stream_id(&[0x5045_5254, rank as u64]))); // "PERT"
        let fault_rng =
            core.faults.map(|f| CounterRng::new(f.seed, stream_id(&[0x4641_554C, rank as u64]))); // "FAUL"
        RankCtx {
            rank,
            size,
            clock: 0.0,
            core,
            world,
            counters: RankCounters::default(),
            compute_invocations: 0,
            compute_noise,
            perturb_rng,
            fault_rng,
            perturb_points: 0,
            fault_points: 0,
            coll_seq: Vec::new(),
        }
    }

    /// Allocate the next collective sequence number for communicator
    /// `comm_id` on this rank. A pure function of (communicator id, number of
    /// collectives this rank has issued on it) — independent of which handle
    /// clone the program went through.
    fn next_collective_seq(&mut self, comm_id: u64) -> u64 {
        for entry in &mut self.coll_seq {
            if entry.0 == comm_id {
                let s = entry.1;
                entry.1 += 1;
                return s;
            }
        }
        self.coll_seq.push((comm_id, 1));
        0
    }

    /// Schedule-perturbation point (no-op unless [`crate::SimConfig::perturb`]
    /// is set): randomly yield and/or sleep this OS thread to shake the real
    /// interleaving of rank threads. Draws are counter-based per `(seed,
    /// rank)`, and nothing here touches the virtual clock — the determinism
    /// fuzzer asserts that simulated results are identical anyway.
    #[inline]
    fn perturb_point(&mut self) {
        let Some(rng) = &self.perturb_rng else { return };
        let p = self.core.perturb.expect("perturb params present when perturb_rng is");
        let idx = self.perturb_points;
        self.perturb_points += 1;
        let to_unit = |bits: u64| (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        if to_unit(rng.at(3 * idx)) < p.yield_prob {
            std::thread::yield_now();
        }
        if p.max_sleep_us > 0 && to_unit(rng.at(3 * idx + 1)) < p.sleep_prob {
            let us = rng.at(3 * idx + 2) % p.max_sleep_us;
            std::thread::sleep(std::time::Duration::from_micros(us));
        }
    }

    /// Fault-injection point (no-op unless [`crate::SimConfig::faults`] is
    /// set): may panic this rank, delay its virtual clock, or charge a
    /// dropped message's retransmit timeout. Draws are counter-based per
    /// `(seed, rank)` and indexed by a fault-point counter that advances on
    /// every interception whether or not a fault fires, so a plan's fault
    /// schedule is a pure function of the program — never of thread timing.
    #[inline]
    fn fault_point(&mut self) {
        let Some(rng) = &self.fault_rng else { return };
        let f = self.core.faults.expect("fault plan present when fault_rng is");
        let idx = self.fault_points;
        self.fault_points += 1;
        let to_unit = |bits: u64| (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        if f.panic_prob > 0.0 && to_unit(rng.at(4 * idx)) < f.panic_prob {
            panic!("injected fault: rank {} killed at fault point {idx}", self.rank);
        }
        if f.delay_prob > 0.0 && to_unit(rng.at(4 * idx + 1)) < f.delay_prob {
            self.clock += to_unit(rng.at(4 * idx + 2)) * f.max_delay;
        }
        if f.drop_prob > 0.0 && to_unit(rng.at(4 * idx + 3)) < f.drop_prob {
            self.clock += f.retransmit_timeout;
        }
    }

    /// This rank's world rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total number of ranks in the simulation.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The world communicator.
    pub fn world(&self) -> Communicator {
        self.world.clone()
    }

    /// Current virtual time on this rank.
    pub fn now(&self) -> f64 {
        self.clock
    }

    /// The machine model driving all costs.
    pub fn machine(&self) -> &MachineModel {
        &self.core.machine
    }

    /// Volumetric counters accumulated so far.
    pub fn counters(&self) -> &RankCounters {
        &self.counters
    }

    /// Execute a compute kernel of `class` costing `flops`: samples its noisy
    /// duration, advances the clock, returns the sampled time.
    pub fn compute(&mut self, class: KernelClass, flops: f64) -> f64 {
        self.perturb_point();
        self.fault_point();
        let t = self.core.machine.compute_time_with(
            &self.compute_noise,
            class,
            flops,
            self.compute_invocations,
        );
        self.compute_invocations += 1;
        self.clock += t;
        self.counters.compute_calls += 1;
        self.counters.flops += flops;
        self.counters.compute_time += t;
        t
    }

    fn key(&self, comm: &Communicator, src: usize, dst: usize, tag: u64) -> P2pKey {
        P2pKey { comm: comm.id(), src: comm.world_rank_of(src), dst: comm.world_rank_of(dst), tag }
    }

    /// Blocking standard-mode send of `data` to communicator rank `dst`.
    ///
    /// Messages larger than the eager threshold synchronize with the receiver
    /// (rendezvous); smaller ones complete locally after the transfer cost.
    pub fn send(&mut self, comm: &Communicator, dst: usize, tag: u64, data: &[f64]) {
        self.perturb_point();
        self.fault_point();
        let key = self.key(comm, comm.rank(), dst, tag);
        let words = data.len();
        let (cost, slot) = self.core.post_send(key, data.to_vec(), self.clock, None);
        let done = match slot {
            Some(s) => {
                let done = self.core.wait_send(&s);
                // Rendezvous: time past our own transfer cost was spent waiting
                // for the receiver to arrive.
                self.counters.idle_time += (done - self.clock - cost).max(0.0);
                done
            }
            None => self.clock + cost,
        };
        self.counters.comm_time += cost;
        self.counters.sends += 1;
        self.counters.words_sent += words as u64;
        self.clock = done;
    }

    /// Blocking receive from communicator rank `src`.
    pub fn recv(&mut self, comm: &Communicator, src: usize, tag: u64) -> Vec<f64> {
        self.perturb_point();
        self.fault_point();
        let key = self.key(comm, src, comm.rank(), tag);
        let out = self.core.match_recv(key, self.clock);
        self.counters.recvs += 1;
        self.counters.words_received += out.data.len() as u64;
        self.counters.comm_time += out.cost;
        self.counters.idle_time += out.idle;
        self.clock = out.done.max(self.clock);
        out.data
    }

    /// Nonblocking send; completion via [`RankCtx::wait`].
    pub fn isend(&mut self, comm: &Communicator, dst: usize, tag: u64, data: Vec<f64>) -> Request {
        self.isend_with_cost(comm, dst, tag, data, None)
    }

    /// Nonblocking send whose transfer is charged as `cost_words` words
    /// instead of the payload length (`None` = actual size). Critter uses
    /// this to charge internal piggyback messages at the compact wire size of
    /// the real implementation's profile arrays.
    pub fn isend_with_cost(
        &mut self,
        comm: &Communicator,
        dst: usize,
        tag: u64,
        data: Vec<f64>,
        cost_words: Option<usize>,
    ) -> Request {
        self.perturb_point();
        self.fault_point();
        let key = self.key(comm, comm.rank(), dst, tag);
        let words = data.len() as u64;
        let post = self.clock;
        let (cost, slot) = self.core.post_send(key, data, post, cost_words);
        // Posting costs only the software overhead; transfer overlaps.
        self.clock += self.core.machine.params().per_call_overhead;
        match slot {
            Some(slot) => Request(RequestInner::SendRendezvous { slot, post, words }),
            None => Request(RequestInner::SendEager { done: post + cost, words, cost }),
        }
    }

    /// Complete a nonblocking send.
    pub fn wait(&mut self, req: Request) {
        self.perturb_point();
        self.fault_point();
        match req.0 {
            RequestInner::SendEager { done, words, cost } => {
                self.counters.sends += 1;
                self.counters.words_sent += words;
                self.counters.comm_time += cost;
                self.clock = self.clock.max(done);
            }
            RequestInner::SendRendezvous { slot, post, words } => {
                let done = self.core.wait_send(&slot);
                self.counters.sends += 1;
                self.counters.words_sent += words;
                // Attribute the span beyond our current clock to idle+transfer.
                self.counters.idle_time += (done - self.clock.max(post)).max(0.0);
                self.clock = self.clock.max(done);
            }
        }
    }

    /// Take part in one collective; returns this rank's output and the
    /// operation's sampled cost.
    fn run_collective(
        &mut self,
        comm: &Communicator,
        kind: CollKind,
        root: usize,
        contrib: Contrib,
        combine: Option<CombineFn>,
        charge: Option<Option<usize>>,
    ) -> (Output, f64) {
        self.perturb_point();
        self.fault_point();
        let seq = self.next_collective_seq(comm.id());
        let post = self.clock;
        let (done, cost, out) =
            self.core.collective(comm, seq, kind, root, contrib, combine, charge, post);
        self.counters.collectives += 1;
        self.counters.comm_time += cost;
        self.counters.idle_time += (done - post - cost).max(0.0);
        self.clock = done;
        (out, cost)
    }

    fn expect_data(out: Output) -> Vec<f64> {
        match out {
            Output::Data(d) => d,
            _ => panic!("collective returned no data where data was expected"),
        }
    }

    /// Broadcast `data` from communicator rank `root`; on other ranks the
    /// buffer is replaced with the root's payload.
    pub fn bcast(&mut self, comm: &Communicator, root: usize, data: &mut Vec<f64>) {
        let contrib = if comm.rank() == root {
            Contrib::Data(std::mem::take(data))
        } else {
            Contrib::Data(Vec::new())
        };
        let (out, _) = self.run_collective(comm, CollKind::Bcast, root, contrib, None, Some(None));
        *data = Self::expect_data(out);
    }

    /// Allreduce: every rank receives the elementwise reduction.
    pub fn allreduce(&mut self, comm: &Communicator, op: ReduceOp, data: &[f64]) -> Vec<f64> {
        let contrib = Contrib::Data(data.to_vec());
        let (out, _) =
            self.run_collective(comm, CollKind::Allreduce(op), 0, contrib, None, Some(None));
        Self::expect_data(out)
    }

    /// Allreduce with a custom associative combine function (Critter's internal
    /// path-propagation operator). With `charge = None` the operation
    /// synchronizes clocks but adds zero cost — pure piggybacking. Also
    /// returns the operation's sampled cost — identical on every participant,
    /// which lets the Critter layer fold its own profiling cost into the
    /// critical-path estimate.
    pub fn allreduce_custom(
        &mut self,
        comm: &Communicator,
        data: Vec<f64>,
        combine: CombineFn,
        charge: Option<Option<usize>>,
    ) -> (Vec<f64>, f64) {
        let (out, cost) = self.run_collective(
            comm,
            CollKind::AllreduceCustom,
            0,
            Contrib::Data(data),
            Some(combine),
            charge,
        );
        (Self::expect_data(out), cost)
    }

    /// Allgather: concatenation of every rank's `data`, in rank order.
    pub fn allgather(&mut self, comm: &Communicator, data: &[f64]) -> Vec<f64> {
        let contrib = Contrib::Data(data.to_vec());
        let (out, _) = self.run_collective(comm, CollKind::Allgather, 0, contrib, None, Some(None));
        Self::expect_data(out)
    }

    /// Gather onto `root`: `Some(concatenation)` at the root.
    pub fn gather(&mut self, comm: &Communicator, root: usize, data: &[f64]) -> Option<Vec<f64>> {
        let contrib = Contrib::Data(data.to_vec());
        let (out, _) = self.run_collective(comm, CollKind::Gather, root, contrib, None, Some(None));
        match out {
            Output::Data(d) => Some(d),
            _ => None,
        }
    }

    /// Scatter from `root`: the root supplies `size() * chunk` words, every
    /// rank receives its `chunk`-word slice. Non-roots pass an empty slice.
    pub fn scatter(&mut self, comm: &Communicator, root: usize, data: &[f64]) -> Vec<f64> {
        let contrib = if comm.rank() == root {
            Contrib::Data(data.to_vec())
        } else {
            Contrib::Data(Vec::new())
        };
        let (out, _) =
            self.run_collective(comm, CollKind::Scatter, root, contrib, None, Some(None));
        Self::expect_data(out)
    }

    /// Split `comm` by `color` (negative = undefined → `None`), ordering the
    /// new communicator by `(key, world rank)` as MPI does.
    pub fn split(&mut self, comm: &Communicator, color: i64, key: i64) -> Option<Communicator> {
        let contrib = Contrib::Split { color, key, world_rank: comm.world_rank_of(comm.rank()) };
        let (out, _) = self.run_collective(comm, CollKind::Split, 0, contrib, None, Some(None));
        match out {
            Output::Split(Some((id, members, index))) => {
                Some(Communicator::new(id, members, index))
            }
            Output::Split(None) => None,
            _ => panic!("split returned non-split output"),
        }
    }

    pub(crate) fn into_parts(self) -> (f64, RankCounters) {
        (self.clock, self.counters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduce_ops_fold() {
        let mut acc = vec![1.0, 5.0, -2.0];
        ReduceOp::Sum.fold_into(&mut acc, &[1.0, 1.0, 1.0]);
        assert_eq!(acc, vec![2.0, 6.0, -1.0]);
        ReduceOp::Max.fold_into(&mut acc, &[0.0, 10.0, 0.0]);
        assert_eq!(acc, vec![2.0, 10.0, 0.0]);
        ReduceOp::Min.fold_into(&mut acc, &[3.0, 3.0, 3.0]);
        assert_eq!(acc, vec![2.0, 3.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn reduce_length_mismatch_panics() {
        let mut acc = vec![1.0];
        ReduceOp::Sum.fold_into(&mut acc, &[1.0, 2.0]);
    }
}
