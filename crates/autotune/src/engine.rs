//! The sweep engine: runs configuration sweeps on the simulator.
//!
//! There is one engine, [`Autotuner::tune_session`]; [`Autotuner::tune`] is
//! a wrapper over it with an ephemeral [`SessionConfig`]. Checkpoint/resume,
//! the progress hook, fault retry/quarantine, warm start and store publish
//! all compose with every worker count.
//!
//! ## Sweep schedule
//!
//! A sweep walks its `(configuration, repetition)` units in order. Each
//! unit interleaves two kinds of simulated runs with very different
//! dependency structure:
//!
//! * The **reference full execution** measures ground truth. It uses fresh
//!   [`KernelStore`]s and touches no sweep state, so the reference runs of
//!   a sweep are embarrassingly parallel.
//! * The **selective run** (and the offline pass of a-priori propagation)
//!   threads the tuning stores from one run to the next — kernel models
//!   accumulated on configuration `i` decide what configuration `i+1` may
//!   skip. This chain is inherently sequential and stays on the calling
//!   thread.
//!
//! The engine asks the reference provider (`references.rs`) for unit
//! `u`'s reference; the provider is the only code that branches on
//! [`TuningOptions::workers`]. With one worker it runs the reference inline
//! before the unit's chain; with more it prefetches references on scoped
//! threads while the chain advances, and the engine collects each one as it
//! commits the unit. A unit commits — results, obs runs, `Fault`/`Retry`
//! events, checkpoint, progress hook — on the calling thread in unit order,
//! so nothing downstream can tell the schedules apart.
//!
//! ## Determinism
//!
//! Every simulated run draws its noise from a stream keyed by `run_index`.
//! Indexes are a pure function of the run's identity —
//! `allocation · 2²⁸ + (config · reps + rep) · 3 + kind` with kind
//! 0 = reference, 1 = offline, 2 = selective — never of dispatch order, so
//! the [`TuningReport`], the obs timeline and every checkpoint — the
//! `checkpoint.json` head and, for an observed sweep, the `timeline.jsonl`
//! sidecar it counts (`timeline.rs`) — are byte-identical at every worker
//! count, and a checkpoint written at one worker count resumes at another
//! (asserted by `tests/parallel_determinism.rs`).

use std::panic::AssertUnwindSafe;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use critter_algs::Workload;
use critter_core::json::Reader;
use critter_core::{snapshot, CritterConfig, CritterEnv, CritterError, KernelStore};
use critter_machine::MachineModel;
use critter_obs::{Event, EventKind, ObsReport, RankTrace, TimelineRun};
use critter_session::{durable, envelope, SessionConfig, SessionLog};
use critter_sim::{run_simulation, FaultPlan, PerturbParams, SimConfig};
use parking_lot::Mutex;
use serde_json::{TapeNode, Value};

use crate::options::TuningOptions;
use crate::records::{
    ConfigResult, ProgressHook, ProgressVerdict, RunRecord, SweepProgress, TuningReport,
};
use crate::references::{self, ObservedRun, RefOutcome, References};
use crate::timeline::Committed;

/// Label suffix of each run kind, indexed by the kind's `run_index` digit.
const RUN_KINDS: [&str; 3] = ["full", "offline", "tuned"];

/// A fault, retry or quarantine decision (session events carry no virtual
/// time).
fn session_event(kind: EventKind, label: &str, arg: f64) -> Event {
    Event { kind, label: label.into(), start: 0.0, dur: 0.0, arg }
}

/// Everything a sweep carries from one committed unit to the next — and
/// therefore exactly what a checkpoint persists: `to_json` is the
/// `checkpoint.json` payload (the *head*), the observed runs go to the
/// `timeline.jsonl` sidecar the head counts, and `restore` reads both back.
#[derive(Default)]
pub(crate) struct SweepState {
    /// Completed `(config, rep)` units, counting a quarantined
    /// configuration's abandoned repetitions as done.
    units_done: usize,
    /// Results so far; the last entry may be a configuration in progress.
    configs: Vec<ConfigResult>,
    /// The tuning stores the next unit starts from: inside a configuration
    /// the fleet it was entered with, which every repetition restarts from;
    /// at a configuration boundary what the last repetition left.
    stores: Vec<KernelStore>,
    /// Every observed run so far, in commit order.
    obs_runs: Vec<TimelineRun>,
    /// How many of `obs_runs` the sidecar already holds, in an observed and
    /// checkpointed session; the runs after them go out with the next
    /// checkpoint. `None` otherwise: the head then carries no timeline.
    timeline: Option<Committed>,
    /// Fault/retry/quarantine decisions so far, in serial order.
    session_events: Vec<Event>,
}

impl SweepState {
    /// The state of a sweep that has run nothing, seeded with `stores`.
    fn fresh(stores: Vec<KernelStore>) -> Self {
        SweepState { stores, ..Default::default() }
    }

    /// The checkpoint head: everything but the observed runs, of which it
    /// holds only the `timeline` reference to the sidecar.
    fn to_json(&self) -> Value {
        let mut head = serde_json::Map::new();
        let mut put = |key: &str, value: Value| head.insert(key.into(), value);
        put("configs", Value::Array(self.configs.iter().map(ConfigResult::to_json).collect()));
        put(
            "session_events",
            Value::Array(self.session_events.iter().map(Event::to_json).collect()),
        );
        put("stores", snapshot::stores_to_json(&self.stores));
        put("units_done", serde_json::json!(self.units_done as u64));
        if let Some(committed) = &self.timeline {
            put("timeline", committed.to_json());
        }
        Value::Object(head)
    }

    /// Inverse of a checkpoint: decode the head `head` of a sweep of
    /// `units_total` units, `reps` per configuration, and, for a sweep that
    /// observes, the runs its `timeline` reference commits in `sidecar`.
    ///
    /// A head whose progress does not fit the sweep is refused where it
    /// disagrees, never resumed to a short report. An observed head resumed
    /// unobserved drops its timeline. The converse is refused: the runs
    /// before the resume were never recorded, so the finished report would
    /// silently cover only the units after it.
    fn restore(
        head: TapeNode<'_>,
        sidecar: &Path,
        observe: bool,
        reps: usize,
        units_total: usize,
    ) -> critter_core::Result<Self> {
        let r = Reader::root("checkpoint", head);
        let units_done: usize = r.at("units_done").int()?;
        let configs = r.at("configs");
        // Older heads also hold `entry_stores`, the live fleet inside a configuration.
        let legacy = r.at("entry_stores");
        let inside = !units_done.is_multiple_of(reps);
        let live = if legacy.exists() && inside { legacy } else { r.at("stores") };
        let mut state = SweepState {
            units_done,
            configs: configs.list(ConfigResult::read)?,
            stores: snapshot::read_stores(live)?,
            obs_runs: Vec::new(),
            timeline: None,
            session_events: r.at("session_events").list(Event::read)?,
        };
        if units_done > units_total {
            let past = format!("{units_done} units done, but the sweep has {units_total}");
            return Err(r.at("units_done").error(past).into());
        }
        // One result per configuration begun, each with one pair per
        // committed repetition unless a quarantine abandoned the rest.
        let (begun, n) = (units_done.div_ceil(reps), state.configs.len());
        if n != begun {
            let detail = format!("{n} configurations for {units_done} units, expected {begun}");
            return Err(configs.error(detail).into());
        }
        for ((i, item), config) in configs.items()?.enumerate().zip(&state.configs) {
            let (committed, n) = ((units_done - i * reps).min(reps), config.pairs.len());
            if !config.quarantined && n != committed {
                let detail = format!("{n} repetitions for {committed} committed");
                return Err(item.at("pairs").error(detail).into());
            }
        }
        // Heads written before the sidecar existed kept their runs inline.
        let inline = r.at("obs_runs");
        if inline.exists() && inline.items()?.next().is_some() {
            return Err(inline
                .error(
                    "observed runs inline in the checkpoint (written before the \
                     `timeline.jsonl` sidecar): this format is no longer read",
                )
                .into());
        }
        let timeline = r.at("timeline");
        if observe && timeline.exists() {
            let (committed, runs) = Committed::restore(timeline, sidecar)?;
            (state.timeline, state.obs_runs) = (Some(committed), runs);
        } else if observe && state.units_done > 0 {
            return Err(CritterError::mismatch(format!(
                "the checkpoint was written unobserved, so the timeline of its {} completed \
                 units was never recorded and an observed resume would report only the rest; \
                 resume it unobserved or start a fresh session",
                state.units_done
            )));
        }
        Ok(state)
    }
}

/// The exhaustive-search autotuner.
pub struct Autotuner {
    opts: TuningOptions,
    /// High-water mark of per-rank observability event counts seen so far,
    /// fed back as a buffer pre-size hint to later runs. A pure allocation
    /// hint: capacity never affects recorded contents, so reports stay
    /// bit-identical across schedules.
    obs_capacity: AtomicUsize,
    /// Per-unit progress observer (`None` = silent).
    progress: Option<ProgressHook>,
}

impl Autotuner {
    /// Create a tuner with the given options.
    pub fn new(opts: TuningOptions) -> Self {
        Autotuner { opts, obs_capacity: AtomicUsize::new(0), progress: None }
    }

    /// Install a progress hook: called with a [`SweepProgress`] snapshot
    /// after every `(config, rep)` unit [`Autotuner::tune_session`] commits
    /// (and once up front with the restored count when a checkpoint is
    /// resumed). The returned [`ProgressVerdict`] controls the sweep:
    /// [`Preempt`](ProgressVerdict::Preempt) pauses it at that boundary
    /// (`tune_session` checkpoints, then returns
    /// [`critter_core::CritterError::Preempted`]) and
    /// [`Cancel`](ProgressVerdict::Cancel) stops it for good (checkpoint,
    /// then [`critter_core::CritterError::Cancelled`]); a later session
    /// resumes from that exact boundary either way. The hook runs on the
    /// calling thread, in unit order, at every worker count.
    pub fn with_progress(
        mut self,
        hook: impl Fn(SweepProgress) -> ProgressVerdict + Send + Sync + 'static,
    ) -> Self {
        self.progress = Some(Arc::new(hook));
        self
    }

    /// The options in force.
    pub fn options(&self) -> &TuningOptions {
        &self.opts
    }

    /// Attempts per run under an armed fault plan: the first plus
    /// `max_retries` retries, saturating so no budget wraps to zero.
    fn attempts(&self) -> u64 {
        (self.opts.max_retries as u64).saturating_add(1)
    }

    /// Execute one simulated run of `w` under `cfg`, threading the per-rank
    /// kernel stores through the rank threads. Returns the aggregated record
    /// plus, when `cfg.obs` is set, the per-rank observability traces.
    fn run_once(
        &self,
        w: &Arc<dyn Workload>,
        cfg: &CritterConfig,
        stores: &mut Vec<KernelStore>,
        run_index: u64,
        capture_apriori: bool,
        faults: Option<FaultPlan>,
    ) -> (RunRecord, Option<Vec<RankTrace>>) {
        let ranks = w.ranks();
        assert_eq!(stores.len(), ranks, "store count mismatch");
        let mut cfg = cfg.clone();
        cfg.obs_capacity = self.obs_capacity.load(Ordering::Relaxed);
        let machine = MachineModel::new(
            self.opts.params.clone(),
            self.opts.noise.clone(),
            ranks,
            self.opts.seed,
            self.opts.allocation,
        )
        .with_noise_seed(run_index.wrapping_add(1))
        .shared();
        let slots: Arc<Vec<Mutex<Option<KernelStore>>>> =
            Arc::new(stores.drain(..).map(|s| Mutex::new(Some(s))).collect());
        let slots_in = Arc::clone(&slots);
        let mut sim_config =
            SimConfig::new(ranks).with_backend(self.opts.backend).with_shards(self.opts.shards);
        if let Some(p) = self.opts.perturb {
            // Vary the perturbation stream per run so no two runs of a sweep
            // see the same yield/sleep pattern.
            sim_config = sim_config.with_perturb(PerturbParams { seed: p.seed ^ run_index, ..p });
        }
        if let Some(f) = faults {
            sim_config = sim_config.with_faults(f);
        }
        let (w, observed) = (Arc::clone(w), cfg.obs);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_simulation(sim_config, machine, move |ctx| {
                let store = slots_in[ctx.rank()].lock().take().expect("store present");
                let mut env = CritterEnv::new(ctx, cfg.clone(), store);
                w.run(&mut env);
                let (rep, mut store) = env.finish();
                if capture_apriori {
                    store.capture_apriori();
                }
                *slots_in[ctx.rank()].lock() = Some(store);
                rep
            })
        }));
        let report = match result {
            Ok(report) => report,
            Err(payload) => {
                // A panicked rank never returned its store, so its slot is
                // empty. Unwinding with `stores` drained would leave the
                // sweep state corrupt for callers that catch the panic —
                // and expecting on the empty slot would mask the real
                // failure behind "store returned". Recover the surviving
                // stores, backfill the dead rank's with a fresh one, and
                // propagate the original payload.
                *stores = slots
                    .iter()
                    .map(|m| m.lock().take().unwrap_or_else(KernelStore::new))
                    .collect();
                std::panic::resume_unwind(payload);
            }
        };
        *stores = slots.iter().map(|m| m.lock().take().expect("store returned")).collect();

        let mut rec = RunRecord { elapsed: report.elapsed(), ..Default::default() };
        for r in &report.outputs {
            rec.predicted = rec.predicted.max(r.predicted_time);
            rec.path = rec.path.max(r.path);
            rec.max_kernel_time =
                rec.max_kernel_time.max(r.local_comp_executed + r.local_comm_executed);
            rec.max_kernel_predicted =
                rec.max_kernel_predicted.max(r.local_comp_predicted + r.local_comm_predicted);
            rec.kernels_executed += r.kernels_executed;
            rec.kernels_skipped += r.kernels_skipped;
            rec.internal_words += r.internal_words;
        }
        let obs: Option<Vec<RankTrace>> = observed
            .then(|| report.outputs.into_iter().map(|r| r.obs.unwrap_or_default()).collect());
        if let Some(traces) = &obs {
            let peak = traces.iter().map(|t| t.events.len()).max().unwrap_or(0);
            self.obs_capacity.fetch_max(peak, Ordering::Relaxed);
        }
        (rec, obs)
    }

    /// Tune over `workloads` (one sweep): for each configuration, a reference
    /// full execution directly prior to the selective one, repeated
    /// `reps` times; a-priori propagation additionally pays an offline pass.
    ///
    /// This is [`Autotuner::tune_session`] with an ephemeral
    /// [`SessionConfig`], which can only stop early when a progress hook
    /// returns [`ProgressVerdict::Preempt`] or [`ProgressVerdict::Cancel`].
    ///
    /// # Panics
    ///
    /// Panics with the typed error's text when the sweep stops early;
    /// callers that install such a hook should call `tune_session` and
    /// handle the error.
    pub fn tune(&self, workloads: &[Arc<dyn Workload>]) -> TuningReport {
        self.tune_session(workloads, &SessionConfig::new()).unwrap_or_else(|e| {
            panic!("tune() cannot return a stopped sweep (use tune_session to handle it): {e}")
        })
    }

    /// Fingerprint binding a checkpoint or profile to the sweep that wrote
    /// it: a 52-bit FNV digest over the canonical JSON of every option that
    /// changes simulated results, plus the workload names in sweep order.
    pub fn fingerprint(&self, workloads: &[Arc<dyn Workload>]) -> u64 {
        let doc = serde_json::json!({
            "allocation": self.opts.allocation,
            "charge_internal": self.opts.charge_internal,
            "epsilon": self.opts.epsilon,
            "extrapolate": self.opts.extrapolate,
            "granularity": format!("{:?}", self.opts.granularity),
            "policy": self.opts.policy.name(),
            "reps": self.opts.reps.max(1) as u64,
            "reset_between_configs": self.opts.reset_between_configs,
            "seed": self.opts.seed,
            "workloads": self.algo_key(workloads),
        });
        critter_core::fnv::fnv_hash(&serde_json::to_string(&doc).expect("json writer is total"))
            & ((1 << 52) - 1)
    }

    /// The algorithm identity a sweep files its store entries under: the
    /// workload names in sweep order, joined with `;` — the same string
    /// [`Self::fingerprint`] folds into the options digest.
    fn algo_key(&self, workloads: &[Arc<dyn Workload>]) -> String {
        let names: Vec<String> = workloads.iter().map(|w| w.name()).collect();
        names.join(";")
    }

    /// Execute one simulated run with the fault-retry protocol: without an
    /// armed [`TuningOptions::faults`] plan this is exactly [`Self::run_once`];
    /// with one, each attempt draws a per-`(run, attempt)` reseeded plan, a
    /// killed attempt rolls the stores back to the pre-attempt snapshot, and
    /// `None` is returned once the retry budget is spent (the caller
    /// quarantines the configuration).
    #[allow(clippy::too_many_arguments)]
    fn run_with_retry(
        &self,
        w: &Arc<dyn Workload>,
        cfg: &CritterConfig,
        stores: &mut Vec<KernelStore>,
        run_index: u64,
        capture_apriori: bool,
        label: &str,
        session_events: &mut Vec<Event>,
    ) -> Option<(RunRecord, Option<Vec<RankTrace>>)> {
        let Some(base_plan) = self.opts.faults else {
            return Some(self.run_once(w, cfg, stores, run_index, capture_apriori, None));
        };
        let attempts = self.attempts();
        for attempt in 0..attempts {
            let plan = base_plan.reseeded(run_index.wrapping_mul(0x1_0000).wrapping_add(attempt));
            let snapshot = stores.clone();
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                self.run_once(w, cfg, stores, run_index, capture_apriori, Some(plan))
            }));
            match outcome {
                Ok(done) => return Some(done),
                Err(_) => {
                    // The failed attempt may have polluted (or only
                    // partially returned) the stores; the retry must see
                    // exactly the pre-attempt state.
                    *stores = snapshot;
                    session_events.push(session_event(EventKind::Fault, label, run_index as f64));
                    if attempt + 1 < attempts {
                        let next = (attempt + 1) as f64;
                        session_events.push(session_event(EventKind::Retry, label, next));
                    }
                }
            }
        }
        None
    }

    /// Tune with session semantics: checkpoint/resume, warm-start, profile
    /// persistence, fault-tolerant retry and progress reporting — the sweep
    /// engine every entry point runs on.
    ///
    /// The report is bit-identical at every [`TuningOptions::workers`]
    /// count (only where the reference runs execute changes), and whenever
    /// no fault actually fires it is the fault-free sweep's report. With
    /// checkpointing enabled, a killed sweep resumed from its checkpoint
    /// directory — at any worker count — finishes to the *byte-identical*
    /// report and obs timeline the uninterrupted sweep produces: the
    /// contract `critter-testkit`'s kill/resume oracle asserts.
    ///
    /// Checkpoint, restore, and warm-start lifecycle decisions are logged to
    /// `session.log` in the checkpoint directory (they are session facts,
    /// not sweep facts, and must not perturb the report); fault, retry, and
    /// quarantine decisions enter the report's obs timeline as a final
    /// synthetic `session` run, because they *are* part of what the sweep
    /// computed.
    pub fn tune_session(
        &self,
        workloads: &[Arc<dyn Workload>],
        session: &SessionConfig,
    ) -> critter_core::Result<TuningReport> {
        assert!(!workloads.is_empty(), "empty configuration space");
        let ranks = workloads[0].ranks();
        assert!(
            workloads.iter().all(|w| w.ranks() == ranks),
            "all configurations of a sweep must use the same rank count"
        );
        if session.store.is_some() && self.opts.reset_between_configs {
            // Both the store seed and the end-of-sweep publication assume
            // kernel models survive configuration boundaries; refuse up
            // front rather than silently seeding models the first
            // start_config(keep = false) would wipe, or publishing the
            // last configuration's stub statistics as a fleet profile.
            return Err(CritterError::mismatch(
                "a profile store requires the persist-models protocol \
                 (with_persist_models(true)); the per-config reset would \
                 discard the seeded models",
            ));
        }
        let policy = self.opts.policy;
        let interception = |mut c: CritterConfig| {
            c.charge_internal = self.opts.charge_internal;
            c.granularity = self.opts.granularity;
            c.obs = self.opts.observe;
            c
        };
        let full_cfg = interception(CritterConfig::full());
        let tuned_cfg = interception(if self.opts.extrapolate {
            CritterConfig::new(policy, self.opts.epsilon).with_extrapolation()
        } else {
            CritterConfig::new(policy, self.opts.epsilon)
        });
        let reps = self.opts.reps.max(1);
        // Noise-stream index of a run, a pure function of the run's identity:
        // `(allocation, unit, kind)` with kind 0 = reference full,
        // 1 = offline pass, 2 = selective. Dispatch order never enters, so
        // every schedule draws identical noise.
        let base = self.opts.allocation.wrapping_mul(0x1000_0000);
        let run_index = |unit: usize, kind: usize| base.wrapping_add((unit * 3 + kind) as u64);
        let label = |unit: usize, kind: usize| {
            format!("{}/rep{}/{}", workloads[unit / reps].name(), unit % reps, RUN_KINDS[kind])
        };
        let units_total = workloads.len() * reps;

        let fingerprint = self.fingerprint(workloads);
        if let Some(dir) = &session.checkpoint_dir {
            std::fs::create_dir_all(dir).map_err(|e| CritterError::io(dir.as_path(), e))?;
        }
        // The checkpoint head and the observed-timeline sidecar it counts.
        let files = session.checkpoint_path().zip(session.timeline_path());
        let log = session.log_path().map(SessionLog::open).transpose()?;
        let record = |kind: EventKind, label: &str, arg: f64| match &log {
            Some(log) => log.record(kind, label, arg),
            None => Ok(()),
        };

        let fresh = || (0..ranks).map(|_| KernelStore::new()).collect::<Vec<_>>();
        let mut state = SweepState::fresh(fresh());
        if let Some((head, sidecar)) = files.as_ref().filter(|(head, _)| head.exists()) {
            state = envelope::load(head, "checkpoint", Some(fingerprint), |payload| {
                SweepState::restore(payload, sidecar, self.opts.observe, reps, units_total)
            })?;
            if state.stores.len() != ranks {
                return Err(CritterError::mismatch(format!(
                    "checkpoint holds {} rank stores but the sweep uses {ranks} ranks",
                    state.stores.len()
                )));
            }
            record(EventKind::Restore, "checkpoint", state.units_done as f64)?;
        } else if let Some(path) = &session.warm_start {
            // Warm-start only on a fresh session: a checkpoint already has
            // the (possibly warm-started) chain state baked in.
            if self.opts.reset_between_configs {
                // start_config(keep = false) would wipe the seeded models at
                // the first configuration boundary; refuse rather than
                // silently ignore the profile.
                return Err(CritterError::mismatch(
                    "warm-start requires the persist-models protocol \
                     (with_persist_models(true)); the per-config reset would \
                     discard the seeded models",
                ));
            }
            let (seeded, models) =
                critter_session::profile::warm_start(path, ranks, &session.staleness)?;
            state = SweepState::fresh(seeded);
            record(EventKind::WarmStart, &path.display().to_string(), models as f64)?;
        } else if let Some(dir) = &session.store {
            // Store-backed warm start: routed through the same staleness
            // path as a file warm start, so a store holding exactly one
            // matching profile seeds byte-identical models.
            let store = critter_store::Store::open(dir)?;
            let machine =
                critter_store::MachineSpec::from_models(&self.opts.params, &self.opts.noise);
            if let Some((seeded, models, source)) =
                store.warm_start(&machine, &self.algo_key(workloads), ranks, &session.staleness)?
            {
                state = SweepState::fresh(seeded);
                record(EventKind::WarmStart, &source.describe(), models as f64)?;
            }
        }

        if self.opts.observe && state.timeline.is_none() {
            // No timeline restored: whatever sidecar the directory holds is stale.
            if let Some((_, sidecar)) = &files {
                state.timeline = Some(Committed::start(sidecar)?);
            }
        }

        // Persist the boundary the sweep just reached: append the runs
        // observed since the last checkpoint to the sidecar, then publish the
        // head that counts them. The cost is that of the new runs and the
        // head, not of the sweep so far; a kill in between leaves a tail no
        // head counts, which the restore cuts off.
        let checkpoint = |state: &mut SweepState, name: &str| -> critter_core::Result<()> {
            let Some((head, _)) = &files else { return Ok(()) };
            if let Some(committed) = &mut state.timeline {
                committed.append(&state.obs_runs[committed.runs()..])?;
            }
            let text = envelope::seal("checkpoint", fingerprint, &state.to_json());
            durable::write_atomic(head, text.as_bytes())?;
            record(EventKind::Checkpoint, name, state.units_done as f64)
        };
        // Ask the progress hook whether the sweep may proceed past a
        // committed unit boundary; a stop verdict becomes the typed error
        // `tune_session` surfaces.
        let ask = |units_done: usize| -> critter_core::Result<()> {
            let verdict = match &self.progress {
                Some(hook) => hook(SweepProgress { units_done, units_total }),
                None => ProgressVerdict::Continue,
            };
            match verdict {
                ProgressVerdict::Continue => Ok(()),
                ProgressVerdict::Preempt => Err(CritterError::preempted(format!(
                    "progress hook paused the sweep at unit {units_done}/{units_total}"
                ))),
                ProgressVerdict::Cancel => Err(CritterError::cancelled(format!(
                    "progress hook stopped the sweep at unit {units_done}/{units_total}"
                ))),
            }
        };
        // End a unit: checkpoint its boundary, then ask the hook. A stopped
        // session resumes exactly here.
        let boundary = |state: &mut SweepState, name: &str| -> critter_core::Result<()> {
            checkpoint(state, name)?;
            let Err(stopped) = ask(state.units_done) else { return Ok(()) };
            if stopped.is_preempted() {
                record(EventKind::Preempt, name, state.units_done as f64)?;
            }
            Err(stopped)
        };
        // The pre-sweep boundary is already durable (either the restored
        // checkpoint or no work at all), so no extra checkpoint is needed.
        ask(state.units_done)?;

        // Unit `u`'s reference full execution: fresh measurement stores, so
        // the reference is unperturbed and never pollutes the tuning model.
        let reference = |u: usize| -> RefOutcome {
            let mut events = Vec::new();
            let run = self.run_with_retry(
                &workloads[u / reps],
                &full_cfg,
                &mut fresh(),
                run_index(u, 0),
                false,
                &label(u, 0),
                &mut events,
            );
            RefOutcome { run, events }
        };
        let pending = state.units_done..units_total;
        let walk = |refs: &References<'_>| -> critter_core::Result<()> {
            let keep = !self.opts.reset_between_configs;
            for (cfg_idx, w) in workloads.iter().enumerate() {
                if state.units_done >= (cfg_idx + 1) * reps {
                    continue; // completed (or quarantined) before the checkpoint
                }
                let first_rep = state.units_done.saturating_sub(cfg_idx * reps);
                let name = w.name();
                if first_rep == 0 {
                    for s in state.stores.iter_mut() {
                        s.start_config(keep);
                    }
                    state.configs.push(ConfigResult { name: name.clone(), ..Default::default() });
                }
                for rep in first_rep..reps {
                    let u = cfg_idx * reps + rep;
                    // The chain, on its own copy of the stores: a-priori
                    // propagation's offline pass, then the selective run.
                    // `None` once either spends its retry budget.
                    let mut stores = state.stores.clone();
                    let mut chain_events = Vec::new();
                    let (reference, chain) = refs.unit(u, || {
                        let mut run = |cfg: &CritterConfig, kind: usize| {
                            self.run_with_retry(
                                w,
                                cfg,
                                &mut stores,
                                run_index(u, kind),
                                kind == 1,
                                &label(u, kind),
                                &mut chain_events,
                            )
                        };
                        let offline = if policy.needs_offline_pass() {
                            Some(run(&full_cfg, 1)?)
                        } else {
                            None
                        };
                        Some((offline, run(&tuned_cfg, 2)?))
                    });
                    // Splice the unit's events in serial order: reference
                    // attempts first, then the chain's — which a serial
                    // sweep never runs once the reference is abandoned.
                    state.session_events.extend(reference.events);
                    let runs = match (reference.run, chain) {
                        (Some(full), Some(chain)) => {
                            state.session_events.append(&mut chain_events);
                            chain.map(|(offline, tuned)| (full, offline, tuned))
                        }
                        _ => None,
                    };
                    let committed = runs.is_some();
                    let result = state.configs.last_mut().expect("config entry exists");
                    if let Some((full, offline, tuned)) = runs {
                        let mut commit = |kind: usize, (rec, traces): ObservedRun| {
                            if let Some(ranks) = traces {
                                let (id, label) = (run_index(u, kind), label(u, kind));
                                state.obs_runs.push(TimelineRun { id, label, ranks });
                            }
                            rec
                        };
                        let full = commit(0, full);
                        result.offline.extend(offline.map(|run| commit(1, run)));
                        result.pairs.push((full, commit(2, tuned)));
                        state.units_done = u + 1;
                        if rep + 1 == reps {
                            state.stores = stores; // the next configuration's entry
                        }
                    } else {
                        // Abandon the configuration: drop the partial
                        // repetition (the next configuration starts from
                        // this one's entry stores) and record the decision.
                        result.quarantined = true;
                        let attempts = self.attempts() as f64;
                        let decision = session_event(EventKind::Quarantine, &name, attempts);
                        state.session_events.push(decision);
                        state.units_done = (cfg_idx + 1) * reps;
                        refs.skip_to(state.units_done);
                    }
                    boundary(&mut state, &name)?;
                    if !committed {
                        break;
                    }
                }
            }
            Ok(())
        };
        references::provide(self.opts.workers, pending, reference, walk)?;

        if let Some(path) = &session.profile_out {
            critter_session::profile::save(path, fingerprint, &state.stores)?;
        }
        if let Some(dir) = &session.store {
            // Publish the final models to the shared store as one atomic
            // commit; concurrent sweeps sharing the directory
            // serialize through the store's generation CAS, not here.
            let store = critter_store::Store::open(dir)?;
            let machine =
                critter_store::MachineSpec::from_models(&self.opts.params, &self.opts.noise);
            store.publish(&machine, &self.algo_key(workloads), &state.stores)?;
        }
        let SweepState { configs, obs_runs, session_events, .. } = state;
        let obs = self.opts.observe.then(|| {
            // Units commit in order, so `obs_runs` ascends by run index: the
            // timeline is a pure function of the sweep's identity.
            let mut report = ObsReport::new();
            for run in obs_runs {
                report.add_run(run.id, run.label, run.ranks);
            }
            if !session_events.is_empty() {
                // Fault/retry/quarantine decisions are part of what the
                // sweep computed; they ride along as a final synthetic run
                // (u64::MAX sorts after every real run index).
                report.add_run(
                    u64::MAX,
                    "session",
                    vec![RankTrace {
                        rank: 0,
                        events: session_events,
                        metrics: Default::default(),
                    }],
                );
            }
            report
        });
        Ok(TuningReport { policy, epsilon: self.opts.epsilon, configs, obs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use critter_algs::WorkloadOutput;
    use critter_core::ExecutionPolicy;
    use critter_sim::BackendKind;

    /// A workload whose rank 0 dies mid-run: the regression fixture for
    /// store recovery in `run_once`.
    struct PanicOnRankZero;

    impl Workload for PanicOnRankZero {
        fn name(&self) -> String {
            "panic-on-rank-0".into()
        }

        fn ranks(&self) -> usize {
            2
        }

        fn run(&self, env: &mut CritterEnv) -> WorkloadOutput {
            if env.rank() == 0 {
                panic!("injected tuning failure");
            }
            WorkloadOutput::default()
        }
    }

    #[test]
    fn run_once_recovers_stores_and_original_panic_when_a_rank_dies() {
        let opts = TuningOptions::new(ExecutionPolicy::Full, 0.0).with_test_machine();
        let tuner = Autotuner::new(opts);
        let cfg = CritterConfig::full();
        let mut stores: Vec<KernelStore> = (0..2).map(|_| KernelStore::new()).collect();
        let w: Arc<dyn Workload> = Arc::new(PanicOnRankZero);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            tuner.run_once(&w, &cfg, &mut stores, 7, false, None)
        }));
        let payload = result.expect_err("rank panic must propagate out of run_once");
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        // Regression: the dead rank's store slot is empty; recovery must not
        // replace the workload's panic with "store returned".
        assert!(
            msg.contains("injected tuning failure"),
            "original payload must surface, got {msg:?}"
        );
        assert_eq!(stores.len(), 2, "sweep state must stay consistent after a failed run");
    }

    #[test]
    fn an_unbounded_retry_budget_still_runs_every_configuration() {
        // Regression: `max_retries + 1` wrapped to zero attempts in release
        // builds, quarantining every configuration without running it.
        let w = crate::TuningSpace::SlateCholesky.smoke();
        let opts = TuningOptions::new(ExecutionPolicy::LocalPropagation, 0.25)
            .with_test_machine()
            .with_faults(FaultPlan::new(1))
            .with_retries(usize::MAX);
        let report = Autotuner::new(opts).tune(&w);
        assert!(report.configs.iter().all(|c| !c.quarantined && !c.pairs.is_empty()));
    }

    #[test]
    fn progress_hook_sees_every_unit_and_can_cancel() {
        let w = crate::TuningSpace::SlateCholesky.smoke();
        let opts = TuningOptions::new(ExecutionPolicy::LocalPropagation, 0.25)
            .with_test_machine()
            .with_reps(2);
        let total = w.len() * 2;
        let seen: Arc<Mutex<Vec<SweepProgress>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let report = Autotuner::new(opts.clone())
            .with_progress(move |p| {
                sink.lock().push(p);
                ProgressVerdict::Continue
            })
            .tune_session(&w, &SessionConfig::new())
            .unwrap();
        let seen = seen.lock();
        // One up-front call plus one per committed unit, ending complete.
        assert_eq!(seen.len(), total + 1);
        assert_eq!(seen.first(), Some(&SweepProgress { units_done: 0, units_total: total }));
        assert_eq!(seen.last(), Some(&SweepProgress { units_done: total, units_total: total }));
        // The hook is observational: the report matches a silent sweep's.
        assert_eq!(report, Autotuner::new(opts.clone()).tune(&w));

        // A Cancel verdict stops the sweep with the typed Cancelled error.
        let err = Autotuner::new(opts)
            .with_progress(|p| {
                if p.units_done < 3 {
                    ProgressVerdict::Continue
                } else {
                    ProgressVerdict::Cancel
                }
            })
            .tune_session(&w, &SessionConfig::new())
            .unwrap_err();
        assert!(err.is_cancelled(), "expected Cancelled, got {err}");
    }

    #[test]
    fn preempt_checkpoints_its_boundary_and_resumes_byte_identically() {
        let w = crate::TuningSpace::SlateCholesky.smoke();
        let opts = TuningOptions::new(ExecutionPolicy::LocalPropagation, 0.25)
            .with_test_machine()
            .with_reps(2);
        let total = w.len() * 2;
        let dir = std::env::temp_dir().join(format!("critter-preempt-ckpt-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let session = SessionConfig::new().with_checkpoint_dir(&dir);
        let err = Autotuner::new(opts.clone())
            .with_progress(|p| {
                if p.units_done < 3 {
                    ProgressVerdict::Continue
                } else {
                    ProgressVerdict::Preempt
                }
            })
            .tune_session(&w, &session)
            .unwrap_err();
        assert!(err.is_preempted(), "expected Preempted, got {err}");

        // The resumed session must restart from exactly unit 3 …
        let resumed: Arc<Mutex<Vec<SweepProgress>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&resumed);
        let report = Autotuner::new(opts.clone())
            .with_progress(move |p| {
                sink.lock().push(p);
                ProgressVerdict::Continue
            })
            .tune_session(&w, &session)
            .unwrap();
        assert_eq!(
            resumed.lock().first(),
            Some(&SweepProgress { units_done: 3, units_total: total }),
            "resume must pick up at the preempted boundary"
        );
        // … and the stitched report must match an uncontended sweep's bytes.
        let clean = Autotuner::new(opts).tune(&w);
        assert_eq!(report.to_json_string(), clean.to_json_string());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tune_surfaces_a_hook_stop_as_the_typed_error_text() {
        let w = crate::TuningSpace::SlateCholesky.smoke();
        let opts = TuningOptions::new(ExecutionPolicy::LocalPropagation, 0.25).with_test_machine();
        let tuner = Autotuner::new(opts).with_progress(|p| match p.units_done {
            0 => ProgressVerdict::Continue,
            _ => ProgressVerdict::Cancel,
        });
        let payload = std::panic::catch_unwind(AssertUnwindSafe(|| tuner.tune(&w)))
            .expect_err("tune() has no way to return a stopped sweep");
        let msg = payload.downcast_ref::<String>().cloned().unwrap_or_default();
        // Regression: this used to die with "ephemeral sessions cannot fail".
        assert!(
            msg.contains("progress hook stopped the sweep at unit 1/")
                && msg.contains("tune_session"),
            "the panic must carry the typed error and name the fallible entry point, got {msg:?}"
        );
    }

    #[test]
    fn sweep_state_round_trips_through_the_checkpoint_codec() {
        // A real mid-sweep state: observed, a-priori (offline records), one
        // fault-quarantined configuration, stopped inside a configuration.
        let w = crate::TuningSpace::SlateCholesky.smoke();
        let opts = TuningOptions::new(ExecutionPolicy::APrioriPropagation, 0.25)
            .with_test_machine()
            .with_reps(2)
            .with_observe()
            .with_faults(FaultPlan::new(17).with_rank_panics(3e-4))
            .with_retries(0);
        let dir = std::env::temp_dir().join(format!("critter-state-codec-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let session = SessionConfig::new().with_checkpoint_dir(&dir);
        let tuner = Autotuner::new(opts).with_progress(|p| match p.units_done {
            0..=4 => ProgressVerdict::Continue,
            _ => ProgressVerdict::Preempt,
        });
        tuner.tune_session(&w, &session).expect_err("preempted mid-sweep");
        let head = std::fs::read_to_string(session.checkpoint_path().unwrap()).unwrap();
        let tape = serde_json::Tape::parse(&head).unwrap();
        let sealed = envelope::open(&tape, "checkpoint", Some(tuner.fingerprint(&w))).unwrap();
        let payload = &serde_json::from_str(sealed.text()).unwrap();

        let sidecar = session.timeline_path().unwrap();
        let (reps, total) = (2, 2 * w.len());
        // A head held as a tree restores by way of its text.
        let restore = |v: &Value, sidecar: &Path, observe: bool| {
            let text = serde_json::to_string(v).unwrap();
            let tape = serde_json::Tape::parse(&text).unwrap();
            SweepState::restore(tape.root(), sidecar, observe, reps, total)
        };
        let read = |v: &Value| restore(v, &sidecar, true);
        let state = read(payload).unwrap();
        // The file's own tape, which the engine restores from, decodes to
        // the same state.
        let taped = SweepState::restore(sealed, &sidecar, true, reps, total).unwrap();
        assert!(state.units_done >= 5 && !state.obs_runs.is_empty());
        assert_eq!(state.timeline.as_ref().map(Committed::runs), Some(state.obs_runs.len()));
        assert!(state.configs.iter().any(|c| !c.offline.is_empty()));
        assert!(!state.session_events.is_empty(), "the pinned fault plan must fire");
        let text = |v: &Value| serde_json::to_string(v).unwrap();
        assert_eq!(text(&state.to_json()), text(payload), "decode → encode must be the identity");
        assert_eq!(text(&taped.to_json()), text(payload));
        assert_eq!(taped.obs_runs.len(), state.obs_runs.len());
        // The sidecar is the observed runs, one compact line each, once.
        let lines: String = state.obs_runs.iter().map(|r| text(&r.to_json()) + "\n").collect();
        assert_eq!(std::fs::read_to_string(&sidecar).unwrap(), lines);

        // Every key is required; a missing or wrong-typed one is an error
        // located at it, never a panic. (Every deeper path is covered by
        // the corruption oracle in `critter-testkit`.)
        let refusal = |v: Value| read(&v).err().expect("a damaged head is refused").to_string();
        for key in ["configs", "session_events", "stores", "timeline", "units_done"] {
            let Value::Object(mut broken) = payload.clone() else { panic!("payload is an object") };
            broken.insert(key.into(), serde_json::json!("nope"));
            let wrong_type = refusal(Value::Object(broken.clone()));
            let located = format!("schema error in checkpoint: {key}: ");
            assert!(wrong_type.starts_with(&format!("{located}expected")), "got: {wrong_type}");
            broken.remove(key);
            let missing = refusal(Value::Object(broken));
            if key == "timeline" {
                // A head without a timeline is a valid unobserved one.
                assert!(missing.contains("mismatch: the checkpoint was written unobserved"));
            } else {
                assert!(missing.starts_with(&format!("{located}missing")), "got: {missing}");
            }
        }
        // An unobserved resume never opens the sidecar and drops the timeline.
        let dropped = restore(payload, Path::new("/nonexistent"), false).unwrap();
        assert!(dropped.timeline.is_none() && dropped.obs_runs.is_empty());
        // A head from before the sidecar: empty inline runs restore, others
        // are refused at `obs_runs`, never dropped.
        let Value::Object(mut old) = payload.clone() else { panic!("payload is an object") };
        old.remove("timeline");
        old.insert("obs_runs".into(), serde_json::json!([]));
        let restore = |old: &Value| restore(old, &sidecar, false);
        assert!(restore(&Value::Object(old.clone())).is_ok());
        old.insert("obs_runs".into(), Value::Array(vec![state.obs_runs[0].to_json()]));
        let inline = restore(&Value::Object(old)).err().unwrap();
        assert!(
            inline.to_string().starts_with("schema error in checkpoint: obs_runs: observed runs"),
            "got: {inline}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprint_tracks_result_changing_options_only() {
        let w = crate::TuningSpace::SlateCholesky.smoke();
        let opts = TuningOptions::new(ExecutionPolicy::LocalPropagation, 0.25).with_test_machine();
        let base = Autotuner::new(opts.clone()).fingerprint(&w);
        assert_eq!(Autotuner::new(opts.clone()).fingerprint(&w), base);
        // Worker count is a scheduling knob, not a result: same fingerprint.
        assert_eq!(Autotuner::new(opts.clone().with_workers(4)).fingerprint(&w), base);
        // So are the sim backend and shard count — a checkpoint written on
        // `threads` must resume on `tasks` and vice versa.
        assert_eq!(
            Autotuner::new(opts.clone().with_backend(BackendKind::Tasks)).fingerprint(&w),
            base
        );
        assert_eq!(Autotuner::new(opts.clone().with_shards(7)).fingerprint(&w), base);
        // Seed changes the noise streams: different fingerprint.
        assert_ne!(Autotuner::new(opts.clone().with_seed(99)).fingerprint(&w), base);
        assert_ne!(Autotuner::new(opts.with_allocation(1)).fingerprint(&w), base);
        assert_eq!(base & !((1 << 52) - 1), 0, "fingerprint must fit canonical JSON integers");
    }
}
