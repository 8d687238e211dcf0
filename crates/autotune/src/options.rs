//! The options of one tuning sweep: a `with_*` builder over every knob that
//! changes what a sweep simulates or how it is scheduled.

use critter_core::ExecutionPolicy;
use critter_machine::{MachineParams, NoiseParams};
use critter_sim::{BackendKind, FaultPlan, PerturbParams};

/// Options of one tuning sweep.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct TuningOptions {
    /// Selective-execution policy under test.
    pub policy: ExecutionPolicy,
    /// Confidence tolerance ε.
    pub epsilon: f64,
    /// Reset kernel statistics before each configuration (§VI-A: true for
    /// SLATE and CANDMC workloads, false for Capital).
    pub reset_between_configs: bool,
    /// Repetitions of each configuration's (full, tuned) pair.
    pub reps: usize,
    /// Charge Critter's internal piggyback messages (overhead ablation).
    pub charge_internal: bool,
    /// Message-size granularity of communication signatures (the signature
    /// ablation: exact sizes vs log2 buckets).
    pub granularity: critter_core::signature::SizeGranularity,
    /// Enable the §VIII input-size extrapolation extension for the selective
    /// runs (per-routine-family line fits allow skipping under-sampled
    /// signatures).
    pub extrapolate: bool,
    /// Machine parameters.
    pub params: MachineParams,
    /// Noise model parameters.
    pub noise: NoiseParams,
    /// Base seed for the machine noise streams.
    pub seed: u64,
    /// Node-allocation id (§VI-A runs every experiment on two allocations).
    pub allocation: u64,
    /// Worker threads for the reference full executions. `1` (the default)
    /// runs each reference inline on the calling thread; larger values
    /// prefetch the independent reference runs on worker threads while the
    /// calling thread walks the sequential selective-run chain. Report,
    /// obs timeline and checkpoints are bit-identical either way.
    pub workers: usize,
    /// Test-only schedule perturbation: inject wall-clock yields/sleeps into
    /// every simulated run to shake the real thread interleaving. Virtual
    /// results must not move — the testkit fuzzer asserts the report stays
    /// bit-identical to an unperturbed sweep.
    pub perturb: Option<PerturbParams>,
    /// Record a structured observability trace of the sweep
    /// ([`TuningReport::obs`](crate::TuningReport::obs)): every simulated run's per-rank events and
    /// metrics, assembled into one globally ordered timeline. Deterministic
    /// regardless of `workers` (see `docs/OBSERVABILITY.md`).
    pub observe: bool,
    /// Deterministic fault injection: every simulated run draws from this
    /// plan (reseeded per run and per retry attempt). The engine retries
    /// killed runs and quarantines configurations that exhaust
    /// [`TuningOptions::max_retries`].
    pub faults: Option<FaultPlan>,
    /// Retry budget per simulated run when faults are armed (a run is
    /// attempted `max_retries + 1` times before its configuration is
    /// quarantined).
    pub max_retries: usize,
    /// Communicator backend hosting every simulated run (`threads` default;
    /// `tasks` for rank counts beyond the thread-per-rank wall). Pure
    /// scheduling: reports are bit-identical across backends, so this is
    /// excluded from [`crate::Autotuner::fingerprint`] and a checkpoint written on
    /// one backend resumes on another.
    pub backend: BackendKind,
    /// Matching-core shard count for every simulated run (`0` = auto).
    /// Scheduling only, excluded from the fingerprint like `backend`.
    pub shards: usize,
}

impl TuningOptions {
    /// Defaults: cluster noise on the KNL machine, one repetition.
    pub fn new(policy: ExecutionPolicy, epsilon: f64) -> Self {
        TuningOptions {
            policy,
            epsilon,
            reset_between_configs: true,
            reps: 1,
            charge_internal: true,
            granularity: critter_core::signature::SizeGranularity::Exact,
            extrapolate: false,
            params: MachineParams::stampede2_knl(),
            noise: NoiseParams::cluster(),
            seed: 0xC0FFEE,
            allocation: 0,
            workers: 1,
            perturb: None,
            observe: false,
            faults: None,
            max_retries: 2,
            backend: BackendKind::default(),
            shards: 0,
        }
    }

    /// Select the communicator backend for every simulated run.
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// Override the matching-core shard count (`0` = auto).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Persist kernel models across configurations when `persist` is true
    /// (the Capital protocol; the default resets between configurations).
    pub fn with_persist_models(mut self, persist: bool) -> Self {
        self.reset_between_configs = !persist;
        self
    }

    /// Use the small test machine parameters (unit tests).
    pub fn with_test_machine(mut self) -> Self {
        self.params = MachineParams::test_machine();
        self
    }

    /// Set the repetition count of each configuration's run group.
    pub fn with_reps(mut self, reps: usize) -> Self {
        self.reps = reps.max(1);
        self
    }

    /// Set the base seed of the machine noise streams.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the node-allocation id.
    pub fn with_allocation(mut self, allocation: u64) -> Self {
        self.allocation = allocation;
        self
    }

    /// Set whether Critter's internal piggyback messages are charged.
    pub fn with_internal_charging(mut self, charge: bool) -> Self {
        self.charge_internal = charge;
        self
    }

    /// Arm deterministic fault injection for every simulated run.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Set the per-run retry budget used when faults are armed.
    pub fn with_retries(mut self, max_retries: usize) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// Set the reference-run worker count (clamped to at least 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Inject schedule perturbation into every simulated run (testing only).
    pub fn with_perturb(mut self, perturb: PerturbParams) -> Self {
        self.perturb = Some(perturb);
        self
    }

    /// Record the sweep's observability timeline ([`TuningReport::obs`](crate::TuningReport::obs)).
    pub fn with_observe(mut self) -> Self {
        self.observe = true;
        self
    }
}
