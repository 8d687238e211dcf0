//! The Critter interception environment (the paper's Fig. 2).
//!
//! [`CritterEnv`] wraps a simulated rank's [`RankCtx`] and exposes the same
//! compute/communication surface the application would use against MPI and
//! BLAS/LAPACK directly. Every call is intercepted:
//!
//! 1. the kernel's signature is generated from the call "envelope";
//! 2. an internal message with this rank's execution vote, sub-critical-path
//!    execution time, cost metrics, and `K̃` kernel frequencies is exchanged
//!    among the participating ranks (piggybacked custom reduction for
//!    collectives, an internal sendrecv for blocking point-to-point, a one-way
//!    eager message for nonblocking point-to-point);
//! 3. the longest-path combine is applied ([`crate::message`]);
//! 4. the user operation is **selectively executed** according to the merged
//!    vote, its measured time (or its modeled mean, when skipped) is folded
//!    into the pathset `P`, and the kernel's statistics are updated.
//!
//! Every communication shares one private step for the path bookkeeping of
//! 2–3 (`propagated`) and one for step 4 (`selectively`).
//!
//! Kernel bodies run only in a run that verifies ([`CritterEnv::verifying`]):
//! kernel time comes from the machine model, so no other run reads a
//! numerical result. Skipping is allowed to corrupt application numerics —
//! exactly as in the paper, where input matrices are reset between runs
//! because selective execution leaves wrong values behind. Correctness tests
//! therefore verify under [`ExecutionPolicy::Full`].

use critter_machine::CommOp;
use critter_obs::{Event, EventKind, RankRecorder};
use critter_sim::{Communicator, RankCtx, ReduceOp, Request};

use crate::channels::ChannelRegistry;
use crate::message::{combine_internal, EagerEntry, InternalMsg};
use crate::policy::{CritterConfig, ExecutionPolicy, INTERNAL_WORDS_CAP, MIN_SAMPLES};
use crate::profile::KernelStore;
use crate::report::{CritterReport, PathMetrics};
use crate::signature::{ComputeOp, KernelSig};

/// Combine for the finalization busy-time reduction: `[sum, max, count]`.
fn combine_busy(a: &[f64], b: &[f64]) -> Vec<f64> {
    vec![a[0] + b[0], a[1].max(b[1]), a[2] + b[2]]
}

/// Tag-space offset of internal sender→receiver messages.
const TAG_S2R: u64 = 1 << 40;
/// Tag-space offset of internal receiver→sender replies.
const TAG_R2S: u64 = 1 << 41;

/// Outstanding nonblocking send through the interception layer: the
/// internal message, plus the user message when the send executes.
#[must_use = "critter requests must be completed with wait()"]
pub struct CritterRequest {
    sig: KernelSig,
    internal: Request,
    user: Option<Request>,
}

/// The per-rank Critter profiling environment.
pub struct CritterEnv<'a> {
    ctx: &'a mut RankCtx,
    cfg: CritterConfig,
    store: KernelStore,
    registry: ChannelRegistry,
    /// `P.exec_time`: the predicted execution time along this rank's current
    /// sub-critical path.
    exec_time: f64,
    metrics: PathMetrics,
    report: CritterReport,
    /// Structured observability recorder (`cfg.obs`): events stamped with
    /// the virtual clock plus the rank's metrics registry. `None` keeps the
    /// recording entirely out of the hot path.
    obs: Option<RankRecorder>,
    /// Interned per-signature event labels, keyed by `KernelSig::key()`: the
    /// same signature recurs across thousands of events, so each distinct
    /// label is formatted (and heap-allocated) once and then shared.
    labels: std::collections::HashMap<u64, std::sync::Arc<str>>,
    /// Interned `propagate[<channel>]` counter names, keyed by communicator
    /// id (same motivation as `labels`).
    propagate_counters: std::collections::HashMap<u64, String>,
    /// Shared label for path-adoption events.
    path_adopt_label: std::sync::Arc<str>,
    /// Whether this run verifies its numerics ([`CritterEnv::verifying`]):
    /// only then does an executed kernel run its body.
    verify: bool,
}

impl<'a> CritterEnv<'a> {
    /// Wrap a rank context (the `MPI_Init` interception: registers the world
    /// channel) with a fresh or persisted kernel store.
    pub fn new(ctx: &'a mut RankCtx, cfg: CritterConfig, store: KernelStore) -> Self {
        let registry = ChannelRegistry::new(ctx.size());
        let obs = cfg.obs.then(|| RankRecorder::with_capacity(ctx.rank(), cfg.obs_capacity));
        CritterEnv {
            ctx,
            cfg,
            store,
            registry,
            exec_time: 0.0,
            metrics: PathMetrics::default(),
            report: CritterReport::default(),
            obs,
            labels: std::collections::HashMap::new(),
            propagate_counters: std::collections::HashMap::new(),
            path_adopt_label: "path_adopt".into(),
            verify: false,
        }
    }

    /// Mark this run as one that verifies its numerics: executed kernels run
    /// their bodies, and a workload fills its inputs and checks its result.
    /// Only correctness tests ask for this; a run that does not verify
    /// charges the same modeled time and sends the same words, because its
    /// schedule is a function of tile shapes alone.
    pub fn verifying(mut self) -> Self {
        self.verify = true;
        self
    }

    /// Whether this run verifies its numerics (see [`CritterEnv::verifying`]).
    pub fn verifies(&self) -> bool {
        self.verify
    }

    /// This rank's world rank.
    pub fn rank(&self) -> usize {
        self.ctx.rank()
    }

    /// Total ranks.
    pub fn size(&self) -> usize {
        self.ctx.size()
    }

    /// World communicator.
    pub fn world(&self) -> Communicator {
        self.ctx.world()
    }

    /// Escape hatch to the raw simulator context (un-intercepted setup work:
    /// data generation, result verification).
    pub fn ctx(&mut self) -> &mut RankCtx {
        self.ctx
    }

    /// Read access to the kernel store (tests, diagnostics).
    pub fn store(&self) -> &KernelStore {
        &self.store
    }

    /// Current predicted critical-path execution time.
    pub fn exec_time(&self) -> f64 {
        self.exec_time
    }

    // ------------------------------------------------------------------
    // Observability recording (cfg.obs)
    // ------------------------------------------------------------------

    /// Whether the structured observability recorder is active. Call sites
    /// guard on this before building event labels, keeping the obs-off hot
    /// path free of allocation.
    fn observing(&self) -> bool {
        self.obs.is_some()
    }

    fn obs_event(
        &mut self,
        kind: EventKind,
        label: std::sync::Arc<str>,
        start: f64,
        dur: f64,
        arg: f64,
    ) {
        if let Some(rec) = &mut self.obs {
            rec.record(Event { kind, label, start, dur, arg });
        }
    }

    /// The interned label for `sig`: formatted once per distinct signature,
    /// cloned (refcount bump) per event thereafter.
    fn sig_label(&mut self, sig: &KernelSig) -> std::sync::Arc<str> {
        self.labels.entry(sig.key()).or_insert_with(|| sig.label().into()).clone()
    }

    fn obs_count(&mut self, name: &str, by: u64) {
        if let Some(rec) = &mut self.obs {
            rec.metrics_mut().incr(name, by);
        }
    }

    fn obs_observe(&mut self, name: &str, x: f64) {
        if let Some(rec) = &mut self.obs {
            rec.metrics_mut().observe(name, x);
        }
    }

    // ------------------------------------------------------------------
    // Decision machinery
    // ------------------------------------------------------------------

    fn effective_count(&self, key: u64) -> u64 {
        match self.cfg.policy {
            ExecutionPolicy::Full
            | ExecutionPolicy::ConditionalExecution
            | ExecutionPolicy::EagerPropagation => 1,
            ExecutionPolicy::LocalPropagation | ExecutionPolicy::OnlinePropagation => {
                self.store.path_count(key).max(1)
            }
            ExecutionPolicy::APrioriPropagation => {
                self.store.apriori_counts.get(&key).copied().unwrap_or(1).max(1)
            }
        }
    }

    /// Whether this rank wants `sig` executed (true = not yet predictable).
    fn want_execute(&mut self, sig: &KernelSig) -> bool {
        if self.cfg.policy == ExecutionPolicy::Full {
            return true;
        }
        let k = self.effective_count(sig.key());
        let m = self.store.model_mut(sig);
        if self.cfg.policy == ExecutionPolicy::EagerPropagation && m.eager_off {
            return false;
        }
        if self.cfg.policy.executes_once_per_config() && m.executed_this_config == 0 {
            return true;
        }
        if m.stats.count() < MIN_SAMPLES {
            return true;
        }
        let ci = m.interval();
        let predictable = ci.predictable(self.cfg.epsilon, k);
        if self.observing() {
            let rel = ci.relative_scaled(k);
            let now = self.ctx.now();
            self.obs_observe("ci_rel_width", rel);
            self.obs_count(if predictable { "decisions_skip" } else { "decisions_execute" }, 1);
            let label = self.sig_label(sig);
            self.obs_event(EventKind::Decision, label, now, 0.0, rel);
        }
        !predictable
    }

    fn model_mean(&self, key: u64) -> f64 {
        self.store.model(key).map(|m| m.stats.mean()).unwrap_or(0.0)
    }

    /// Collective charge spec for an internal payload of `len` words: free
    /// when overhead charging is off, otherwise capped at the compact wire
    /// size of the real implementation's profile messages.
    fn internal_charge(&self, len: usize) -> Option<Option<usize>> {
        if self.cfg.charge_internal {
            Some(Some(len.min(INTERNAL_WORDS_CAP)))
        } else {
            None
        }
    }

    /// Point-to-point wire size charged for an internal payload (zero words,
    /// latency only, when overhead charging is off).
    fn internal_p2p_words(&self, len: usize) -> usize {
        if self.cfg.charge_internal {
            len.min(INTERNAL_WORDS_CAP)
        } else {
            0
        }
    }

    /// Deterministic estimate of an internal point-to-point message's cost,
    /// folded into the predicted path time (the noise-free model cost of the
    /// charged wire size — both endpoints compute the same value).
    fn internal_p2p_time(&self, len: usize) -> f64 {
        let words = self.internal_p2p_words(len);
        self.ctx.machine().comm_time_exact(CommOp::PointToPoint, words, 2)
    }

    // ------------------------------------------------------------------
    // Internal message plumbing
    // ------------------------------------------------------------------

    fn build_internal(
        &mut self,
        vote: bool,
        user_words: u64,
        reply_expected: bool,
        eager_meta: Option<&critter_sim::ChannelMeta>,
    ) -> InternalMsg {
        let path: Vec<(u64, u64, f64)> =
            self.store.path_counts.iter().map(|(&k, &(f, t))| (k, f, t)).collect();
        let mut eager = Vec::new();
        if self.cfg.policy == ExecutionPolicy::EagerPropagation {
            if let Some(meta) = eager_meta {
                for (key, m) in self.store.local.iter() {
                    if m.eager_off || m.stats.count() < MIN_SAMPLES {
                        continue;
                    }
                    // Only kernels whose local CI already meets ε travel; only
                    // along grid dimensions not yet covered for this kernel.
                    if self
                        .registry
                        .extend_coverage(&m.eager_strides, m.eager_coverage, meta)
                        .is_none()
                    {
                        continue;
                    }
                    if m.interval().predictable(self.cfg.epsilon, 1) {
                        eager.push(EagerEntry::from_stats(*key, &m.stats, m.eager_coverage));
                    }
                }
                eager.sort_by_key(|e| e.key);
            }
        }
        InternalMsg {
            vote,
            exec_time: self.exec_time,
            metrics: self.metrics,
            path,
            eager,
            user_words,
            reply_expected,
        }
    }

    /// Fold a merged internal message into local state: longest-path adoption,
    /// metric maxima, eager statistics aggregation.
    fn absorb(&mut self, merged: &InternalMsg, comm_meta: Option<&critter_sim::ChannelMeta>) {
        if merged.exec_time > self.exec_time {
            if self.observing() {
                let delta = merged.exec_time - self.exec_time;
                let now = self.ctx.now();
                self.obs_count("path_adoptions", 1);
                let label = self.path_adopt_label.clone();
                self.obs_event(EventKind::PathAdopt, label, now, 0.0, delta);
            }
            if self.cfg.policy.adopts_remote_path() {
                self.store.adopt_path(merged.path.iter().copied());
            }
            self.exec_time = merged.exec_time;
        }
        self.metrics = self.metrics.max(merged.metrics);
        if self.cfg.policy == ExecutionPolicy::EagerPropagation {
            if let Some(meta) = comm_meta {
                let world = self.registry.world_size() as u64;
                for e in &merged.eager {
                    let Some(m) = self.store.local.get_mut(&e.key) else {
                        // Kernel unknown locally: it will never execute here,
                        // so its statistics are irrelevant to local decisions.
                        continue;
                    };
                    if m.eager_off {
                        continue;
                    }
                    let Some((strides, cov)) =
                        self.registry.extend_coverage(&m.eager_strides, m.eager_coverage, meta)
                    else {
                        continue;
                    };
                    // Replacement semantics: every participant leaves with the
                    // identical merged statistics, keeping later aggregations
                    // along other grid dimensions free of double counting.
                    m.stats = e.to_stats();
                    m.eager_strides = strides;
                    m.eager_coverage = cov;
                    if m.eager_coverage >= world && m.interval().predictable(self.cfg.epsilon, 1) {
                        m.eager_off = true;
                    }
                }
            }
        }
    }

    /// Encode an internal message, counting its words toward the report.
    fn encode_internal(&mut self, msg: &InternalMsg) -> Vec<f64> {
        let payload = msg.encode();
        self.report.internal_words += payload.len() as u64;
        payload
    }

    /// Piggyback reduction of `msg` over `comm` with the longest-path
    /// combine; returns the merged message and the reduction's cost.
    fn reduce_internal(&mut self, comm: &Communicator, msg: &InternalMsg) -> (InternalMsg, f64) {
        let payload = self.encode_internal(msg);
        let charge = self.internal_charge(payload.len());
        let (merged, cost) = self.ctx.allreduce_custom(comm, payload, combine_internal, charge);
        (InternalMsg::decode(&merged), cost)
    }

    /// Post `msg` to `peer` on internal tag `tag`, charged at its capped
    /// wire size.
    fn post_internal(
        &mut self,
        comm: &Communicator,
        peer: usize,
        tag: u64,
        msg: &InternalMsg,
    ) -> Request {
        let payload = self.encode_internal(msg);
        let words = self.internal_p2p_words(payload.len());
        self.ctx.isend_with_cost(comm, peer, tag, payload, Some(words))
    }

    // ------------------------------------------------------------------
    // Computation kernels
    // ------------------------------------------------------------------

    /// Intercept a computational kernel of signature `(op, m, n, k)` costing
    /// `flops`. When executed, the machine model's sampled time is charged
    /// and recorded, and `body` performs the real numerical work only if the
    /// run [verifies](CritterEnv::verifying): no other run reads a kernel's
    /// result. When skipped, `body` never runs and the kernel's modeled mean
    /// is charged to the prediction. Returns the time contributed to the path
    /// (measured or predicted).
    pub fn kernel<F: FnOnce()>(
        &mut self,
        op: ComputeOp,
        m: usize,
        n: usize,
        k: usize,
        flops: f64,
        body: F,
    ) -> f64 {
        let sig = KernelSig::compute(op, m, n, k);
        self.store.schedule(&sig);
        let mut extrapolated = None;
        let execute = if self.want_execute(&sig) {
            // §VIII extension: an under-sampled signature may still be
            // skipped when its routine family's line fit predicts it well.
            if let Some(xcfg) = self.cfg.extrapolate {
                if self.cfg.policy != ExecutionPolicy::Full {
                    extrapolated = self.store.extrapolation.predict(op, flops, &xcfg);
                }
            }
            extrapolated.is_none()
        } else {
            false
        };
        self.metrics.flops += flops;
        let start = self.ctx.now();
        let charged = if execute {
            let t = self.ctx.compute(op.class(), flops);
            if self.verify {
                body();
            }
            self.store.record(&sig, t);
            self.store.extrapolation.record(op, flops, t);
            self.store.attribute_path_time(sig.key(), t);
            self.exec_time += t;
            self.metrics.comp_time += t;
            self.report.local_comp_executed += t;
            self.report.local_comp_predicted += t;
            self.report.kernels_executed += 1;
            t
        } else {
            let mean = extrapolated.unwrap_or_else(|| self.model_mean(sig.key()));
            self.store.attribute_path_time(sig.key(), mean);
            self.exec_time += mean;
            self.metrics.comp_time += mean;
            self.report.local_comp_predicted += mean;
            self.report.kernels_skipped += 1;
            mean
        };
        if self.observing() {
            let end = self.ctx.now();
            let (kind, counter) = if execute {
                (EventKind::KernelExec, "samples_taken")
            } else {
                (EventKind::KernelSkip, "samples_skipped")
            };
            self.obs_count(counter, 1);
            let label = self.sig_label(&sig);
            self.obs_event(kind, label, start, end - start, charged);
        }
        charged
    }

    /// Intercept a user-annotated code region (the paper's preprocessor-
    /// directive interception, e.g. Capital's block-to-cyclic kernels).
    pub fn custom_kernel<F: FnOnce()>(&mut self, id: u32, size: usize, flops: f64, body: F) -> f64 {
        self.kernel(ComputeOp::Custom(id), size, 0, 0, flops, body)
    }

    // ------------------------------------------------------------------
    // Interception steps shared by every communication
    // ------------------------------------------------------------------

    /// Fold one internal-message exchange into the path: its `cost` joins
    /// the predicted time, the path gains a synchronization and the user
    /// message's `words`, and a `Propagate` event spans `t0..now`. A
    /// collective passes its communicator (`propagate[<channel>]` counter),
    /// point-to-point passes `None` (`propagate[p2p]`).
    fn propagated(
        &mut self,
        sig: &KernelSig,
        channel: Option<&Communicator>,
        t0: f64,
        cost: f64,
        words: usize,
    ) {
        self.exec_time += cost;
        self.metrics.syncs += 1.0;
        self.metrics.comm_words += words as f64;
        if self.observing() {
            let now = self.ctx.now();
            if let Some(rec) = &mut self.obs {
                // Interned per-channel counter name: one `format!` per
                // distinct communicator, not one per propagation.
                let name = match channel {
                    Some(comm) => self
                        .propagate_counters
                        .entry(comm.id())
                        .or_insert_with(|| format!("propagate[{}]", comm.meta().label())),
                    None => "propagate[p2p]",
                };
                rec.metrics_mut().incr(name, 1);
            }
            let label = self.sig_label(sig);
            self.obs_event(EventKind::Propagate, label, t0, now - t0, cost);
        }
    }

    /// Selective execution of one user communication: when `execute`, run
    /// it timed and record the sample; otherwise charge the kernel's modeled
    /// mean (or the line fit's `extrapolated` prediction) and return the
    /// `skipped` placeholder.
    fn selectively<T>(
        &mut self,
        sig: &KernelSig,
        execute: bool,
        extrapolated: Option<f64>,
        run: impl FnOnce(&mut RankCtx) -> T,
        skipped: impl FnOnce() -> T,
    ) -> T {
        if execute {
            let t0 = self.ctx.now();
            let out = run(self.ctx);
            let t = self.ctx.now() - t0;
            self.post_executed_comm(sig, t);
            out
        } else {
            self.post_skipped_comm(sig, extrapolated);
            skipped()
        }
    }

    fn post_executed_comm(&mut self, sig: &KernelSig, t: f64) {
        self.store.record(sig, t);
        if let KernelSig::Comm { op, words, comm_size, stride } = sig {
            // Feed the communication-family line fit (§VIII extension). With
            // exact size granularity `words` is the true message size; log2
            // buckets would warp the size axis, so skip them.
            if self.cfg.granularity == crate::signature::SizeGranularity::Exact {
                self.store.extrapolation.record_comm(*op, *comm_size, *stride, *words as f64, t);
            }
        }
        self.store.attribute_path_time(sig.key(), t);
        self.exec_time += t;
        self.metrics.comm_time += t;
        self.report.local_comm_executed += t;
        self.report.local_comm_predicted += t;
        self.report.kernels_executed += 1;
        if self.observing() {
            let now = self.ctx.now();
            self.obs_count("samples_taken", 1);
            let label = self.sig_label(sig);
            self.obs_event(EventKind::CommExec, label, now - t, t, t);
        }
    }

    /// Charge a skipped communication: the kernel's own mean once it has
    /// one, else the line fit's `extrapolated` prediction, else nothing.
    fn post_skipped_comm(&mut self, sig: &KernelSig, extrapolated: Option<f64>) {
        let own = self.model_mean(sig.key());
        let mean = if own > 0.0 { own } else { extrapolated.unwrap_or(0.0) };
        self.store.attribute_path_time(sig.key(), mean);
        self.exec_time += mean;
        self.metrics.comm_time += mean;
        self.report.local_comm_predicted += mean;
        self.report.kernels_skipped += 1;
        if self.observing() {
            let now = self.ctx.now();
            self.obs_count("samples_skipped", 1);
            let label = self.sig_label(sig);
            self.obs_event(EventKind::CommSkip, label, now, 0.0, mean);
        }
    }

    // ------------------------------------------------------------------
    // Collectives
    // ------------------------------------------------------------------

    /// Common pre-step for collectives: schedule, vote, piggyback reduction.
    /// Returns `(signature, execute, extrapolated mean)` — the last is `Some`
    /// when this rank's vote to skip came from a communication-family line
    /// fit rather than the kernel's own statistics.
    fn pre_collective(
        &mut self,
        op: CommOp,
        comm: &Communicator,
        words: usize,
    ) -> (KernelSig, bool, Option<f64>) {
        let meta = comm.meta();
        let sig = KernelSig::collective(op, words, meta, self.cfg.granularity);
        self.store.schedule(&sig);
        let mut vote = self.want_execute(&sig);
        let mut extrapolated = None;
        if vote && self.cfg.policy != ExecutionPolicy::Full {
            if let Some(xcfg) = self.cfg.extrapolate {
                extrapolated = self.store.extrapolation.predict_comm(
                    op,
                    meta.size as u64,
                    meta.stride() as u64,
                    words as f64,
                    &xcfg,
                );
                vote = extrapolated.is_none();
            }
        }
        let msg = self.build_internal(vote, words as u64, false, Some(meta));
        let t0 = self.ctx.now();
        let (merged, cost) = self.reduce_internal(comm, &msg);
        self.absorb(&merged, Some(meta));
        // The piggyback reduction is on the critical path of every
        // participant; its (identical) cost is part of the predicted time.
        self.propagated(&sig, Some(comm), t0, cost, words);
        (sig, merged.vote, extrapolated)
    }

    /// Intercepted broadcast. As in MPI, `data` must be sized identically on
    /// every rank; non-roots receive the root's payload (or zeros on a skip).
    pub fn bcast(&mut self, comm: &Communicator, root: usize, data: &mut Vec<f64>) {
        let (sig, execute, xmean) = self.pre_collective(CommOp::Bcast, comm, data.len());
        self.selectively(&sig, execute, xmean, |ctx| ctx.bcast(comm, root, data), || ());
        if !execute && comm.rank() != root {
            data.fill(0.0);
        }
    }

    /// Intercepted allreduce.
    pub fn allreduce(&mut self, comm: &Communicator, op: ReduceOp, data: &[f64]) -> Vec<f64> {
        let (sig, execute, xmean) = self.pre_collective(CommOp::Allreduce, comm, data.len());
        let run = |ctx: &mut RankCtx| ctx.allreduce(comm, op, data);
        self.selectively(&sig, execute, xmean, run, || vec![0.0; data.len()])
    }

    /// Intercepted allgather (per-rank contribution `data`).
    pub fn allgather(&mut self, comm: &Communicator, data: &[f64]) -> Vec<f64> {
        let (sig, execute, xmean) = self.pre_collective(CommOp::Allgather, comm, data.len());
        let skipped = || vec![0.0; data.len() * comm.size()];
        self.selectively(&sig, execute, xmean, |ctx| ctx.allgather(comm, data), skipped)
    }

    /// Intercepted gather onto `root`.
    pub fn gather(&mut self, comm: &Communicator, root: usize, data: &[f64]) -> Option<Vec<f64>> {
        let (sig, execute, xmean) = self.pre_collective(CommOp::Gather, comm, data.len());
        let skipped = || (comm.rank() == root).then(|| vec![0.0; data.len() * comm.size()]);
        self.selectively(&sig, execute, xmean, |ctx| ctx.gather(comm, root, data), skipped)
    }

    /// Intercepted scatter from `root`: the root supplies `size()·chunk`
    /// words; every rank receives `chunk` words.
    pub fn scatter(
        &mut self,
        comm: &Communicator,
        root: usize,
        data: &[f64],
        chunk: usize,
    ) -> Vec<f64> {
        if comm.rank() == root {
            assert_eq!(data.len(), chunk * comm.size(), "scatter root payload size");
        }
        let (sig, execute, xmean) = self.pre_collective(CommOp::Scatter, comm, chunk);
        let run = |ctx: &mut RankCtx| ctx.scatter(comm, root, data);
        self.selectively(&sig, execute, xmean, run, || vec![0.0; chunk])
    }

    /// Intercepted communicator split (registers the new channel with the
    /// aggregate infrastructure, per Fig. 2's `MPI_Comm_split`).
    pub fn split(&mut self, comm: &Communicator, color: i64, key: i64) -> Option<Communicator> {
        let new = self.ctx.split(comm, color, key);
        if let Some(c) = &new {
            self.registry.register(c.meta());
            if self.observing() {
                let label = c.meta().label();
                let size = c.size() as f64;
                let now = self.ctx.now();
                self.obs_count("channels_registered", 1);
                self.obs_event(EventKind::Channel, label.into(), now, 0.0, size);
            }
        }
        new
    }

    // ------------------------------------------------------------------
    // Point-to-point
    // ------------------------------------------------------------------

    /// Common pre-step for point-to-point: signature (a size-2 channel at
    /// the pair's rank distance), schedule, this rank's vote.
    fn pre_p2p(
        &mut self,
        comm: &Communicator,
        peer: usize,
        tag: u64,
        words: usize,
    ) -> (KernelSig, bool) {
        assert!(tag < TAG_S2R, "user tags must stay below the internal tag space");
        let me = comm.world_rank_of(comm.rank());
        let them = comm.world_rank_of(peer);
        let sig = KernelSig::p2p(words, me.abs_diff(them), self.cfg.granularity);
        self.store.schedule(&sig);
        let vote = self.want_execute(&sig);
        (sig, vote)
    }

    /// Intercepted blocking send (Fig. 2's symmetric protocol: internal
    /// messages are exchanged both ways; the pair executes the user message
    /// iff either side votes execute).
    pub fn send(&mut self, comm: &Communicator, dst: usize, tag: u64, data: &[f64]) {
        let (sig, vote) = self.pre_p2p(comm, dst, tag, data.len());
        let msg = self.build_internal(vote, data.len() as u64, true, None);
        let t0 = self.ctx.now();
        let internal = self.post_internal(comm, dst, tag + TAG_S2R, &msg);
        let reply_raw = self.ctx.recv(comm, dst, tag + TAG_R2S);
        self.ctx.wait(internal);
        let merged = msg.combine(&InternalMsg::decode(&reply_raw));
        self.absorb(&merged, None);
        let cost = self.internal_p2p_time(reply_raw.len());
        self.propagated(&sig, None, t0, cost, data.len());
        self.selectively(&sig, merged.vote, None, |ctx| ctx.send(comm, dst, tag, data), || ());
    }

    /// Intercepted blocking receive of `words` words (the count is part of
    /// the MPI envelope, so it is known to the receiver). Handles both the
    /// blocking-sender and nonblocking-sender protocols.
    pub fn recv(&mut self, comm: &Communicator, src: usize, tag: u64, words: usize) -> Vec<f64> {
        let (sig, vote) = self.pre_p2p(comm, src, tag, words);
        let t0 = self.ctx.now();
        let their_raw = self.ctx.recv(comm, src, tag + TAG_S2R);
        let their = InternalMsg::decode(&their_raw);
        let mine = self.build_internal(vote, words as u64, false, None);
        let merged = mine.combine(&their);
        let execute = if their.reply_expected {
            // Symmetric protocol: reply with our state; execute on OR of votes.
            let reply = self.post_internal(comm, src, tag + TAG_R2S, &mine);
            self.ctx.wait(reply);
            merged.vote
        } else {
            // Nonblocking sender: its decision governs; we still merge for
            // path propagation.
            their.vote
        };
        self.absorb(&merged, None);
        let cost = self.internal_p2p_time(their_raw.len());
        self.propagated(&sig, None, t0, cost, words);
        let run = |ctx: &mut RankCtx| {
            let data = ctx.recv(comm, src, tag);
            debug_assert_eq!(data.len(), words, "received payload size mismatch");
            data
        };
        self.selectively(&sig, execute, None, run, || vec![0.0; words])
    }

    /// Intercepted nonblocking send. The sender's vote alone governs
    /// execution (the deadlock-free default protocol for nonblocking
    /// communication, §IV-A).
    pub fn isend(
        &mut self,
        comm: &Communicator,
        dst: usize,
        tag: u64,
        data: Vec<f64>,
    ) -> CritterRequest {
        let words = data.len();
        let (sig, vote) = self.pre_p2p(comm, dst, tag, words);
        let msg = self.build_internal(vote, words as u64, false, None);
        let internal = self.post_internal(comm, dst, tag + TAG_S2R, &msg);
        // The one-way internal message costs this rank only its post.
        let overhead = self.ctx.machine().params().per_call_overhead;
        let now = self.ctx.now();
        self.propagated(&sig, None, now, overhead, words);
        let user = if vote {
            Some(self.ctx.isend(comm, dst, tag, data))
        } else {
            // Charged as predicted at post time; the wait will be free.
            self.post_skipped_comm(&sig, None);
            None
        };
        CritterRequest { sig, internal, user }
    }

    /// Complete a nonblocking send; an executed send's transfer is timed
    /// and recorded here.
    pub fn wait(&mut self, req: CritterRequest) {
        self.ctx.wait(req.internal);
        if let Some(user) = req.user {
            self.selectively(&req.sig, true, None, |ctx| ctx.wait(user), || ());
        }
    }

    /// Intercepted deadlock-free exchange (nonblocking send + blocking recv).
    #[allow(clippy::too_many_arguments)] // mirrors MPI_Sendrecv's argument list
    pub fn sendrecv(
        &mut self,
        comm: &Communicator,
        dst: usize,
        send_tag: u64,
        data: &[f64],
        src: usize,
        recv_tag: u64,
        recv_words: usize,
    ) -> Vec<f64> {
        let sreq = self.isend(comm, dst, send_tag, data.to_vec());
        let out = self.recv(comm, src, recv_tag, recv_words);
        self.wait(sreq);
        out
    }

    // ------------------------------------------------------------------
    // Finalization
    // ------------------------------------------------------------------

    /// Final world-wide propagation (the `critter::stop` call): agree on the
    /// configuration's predicted critical-path execution time and metrics,
    /// then return the report and the (persistable) kernel store.
    pub fn finish(mut self) -> (CritterReport, KernelStore) {
        let world = self.ctx.world();
        let msg = self.build_internal(false, 0, false, None);
        let (merged, cost) = self.reduce_internal(&world, &msg);
        self.absorb(&merged, None);
        self.exec_time += cost;
        // Busy-time statistics across ranks (load-imbalance diagnostics):
        // one small sum+max reduction, charged like the other internals.
        let busy = self.report.local_comp_executed + self.report.local_comm_executed;
        let charge = self.internal_charge(2);
        let (sums, _) =
            self.ctx.allreduce_custom(&world, vec![busy, busy, 1.0], combine_busy, charge);
        self.report.mean_busy = sums[0] / sums[2].max(1.0);
        self.report.max_busy = sums[1];
        // The winning path's per-kernel profile, labeled where known locally.
        self.report.top_kernels = self
            .store
            .path_profile()
            .into_iter()
            .take(10)
            .map(|(key, count, time)| {
                let label = self
                    .store
                    .model(key)
                    .map(|m| m.sig.label())
                    .unwrap_or_else(|| format!("kernel#{key:x}"));
                (label, count, time)
            })
            .collect();
        self.report.predicted_time = self.exec_time;
        self.report.path = self.metrics;
        self.report.distinct_kernels = self.store.local.len() as u64;
        if self.observing() {
            let kernels_executed = self.report.kernels_executed;
            let kernels_skipped = self.report.kernels_skipped;
            let internal_words = self.report.internal_words;
            let distinct_kernels = self.report.distinct_kernels;
            let c = *self.ctx.counters();
            if let Some(rec) = &mut self.obs {
                let m = rec.metrics_mut();
                m.incr("kernels_executed", kernels_executed);
                m.incr("kernels_skipped", kernels_skipped);
                m.incr("internal_words", internal_words);
                m.incr("distinct_kernels", distinct_kernels);
                m.incr("sim_sends", c.sends);
                m.incr("sim_recvs", c.recvs);
                m.incr("sim_collectives", c.collectives);
                m.incr("sim_words_sent", c.words_sent);
                m.incr("sim_words_received", c.words_received);
                m.incr("sim_compute_calls", c.compute_calls);
                m.add_sum("sim_flops", c.flops);
                m.add_sum("sim_compute_time", c.compute_time);
                m.add_sum("sim_comm_time", c.comm_time);
                m.add_sum("sim_idle_time", c.idle_time);
            }
        }
        self.report.obs = self.obs.take().map(RankRecorder::into_trace);
        (self.report, self.store)
    }
}
