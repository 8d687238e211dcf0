//! The wire-level job specification and its strict JSON codec.
//!
//! A [`JobSpec`] is the body of `POST /v1/jobs`. It maps one-to-one onto
//! the [`TuningOptions`] builder surface that `critter-tune` exposes as
//! CLI flags, so a job submitted over HTTP runs *exactly* the sweep the
//! CLI would run with the equivalent flags — the CI smoke job `cmp`s the
//! two reports byte for byte.
//!
//! Parsing is strict: unknown fields, wrong types, unknown space/policy
//! names, and out-of-range probabilities are all typed 400s, never
//! silently ignored. The parsed spec re-serializes canonically
//! ([`JobSpec::to_json`]) so the daemon can persist `spec.json` in the
//! job directory and reload it verbatim after a restart.

use critter_autotune::{TuningOptions, TuningSpace};
use critter_core::json::{canonical_text, Reader};
use critter_core::ExecutionPolicy;
use critter_session::StalenessPolicy;
use critter_sim::{BackendKind, FaultPlan};
use serde_json::{Tape, Value};

use crate::error::ServeError;

/// Fields accepted in a job spec; anything else is a 400.
const SPEC_FIELDS: [&str; 23] = [
    "space",
    "policy",
    "epsilon",
    "smoke",
    "reps",
    "allocation",
    "seed",
    "machine",
    "extrapolate",
    "charge_internal",
    "observe",
    "backend",
    "shards",
    "persist_models",
    "retries",
    "faults",
    "warm_start",
    "staleness",
    "profile",
    "store",
    "label",
    "tenant",
    "priority",
];

/// Highest accepted `priority` value (priorities are `0..=PRIORITY_MAX`).
pub const PRIORITY_MAX: u64 = 9;

/// Fields accepted in the `faults` sub-object.
const FAULT_FIELDS: [&str; 6] =
    ["seed", "panic_prob", "delay_prob", "max_delay", "drop_prob", "retransmit_timeout"];

/// Fields accepted in the `staleness` sub-object.
const STALENESS_FIELDS: [&str; 2] = ["decay", "variance_inflation"];

/// Staleness knobs for a warm-started job, mirroring
/// [`StalenessPolicy`]'s builder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StalenessSpec {
    /// Sample-count decay factor in `(0, 1]`.
    pub decay: f64,
    /// Variance inflation factor `>= 1`.
    pub variance_inflation: f64,
}

/// A validated tuning-job specification.
///
/// Every field has the same default as the corresponding `critter-tune`
/// flag, so `{"space": "slate-cholesky", "policy": "local"}` is a complete
/// spec and runs the same sweep as
/// `critter-tune --space slate-cholesky --policy local`.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Tuning space (`"slate-cholesky"`, …). Required.
    pub space: TuningSpace,
    /// Selective-execution policy by CLI short name. Required.
    pub policy: ExecutionPolicy,
    /// Confidence tolerance ε (default `0.25`).
    pub epsilon: f64,
    /// Use the reduced smoke space instead of the full benchmark space.
    pub smoke: bool,
    /// Repetitions per configuration (default `1`).
    pub reps: usize,
    /// Node-allocation id (default `0`).
    pub allocation: u64,
    /// Base noise seed (default `0xC0FFEE`).
    pub seed: u64,
    /// `"stampede2-knl"` (default) or `"test"` machine parameters.
    pub test_machine: bool,
    /// Enable §VIII input-size extrapolation.
    pub extrapolate: bool,
    /// Charge Critter's internal piggyback messages (default `true`).
    pub charge_internal: bool,
    /// Record an observability trace; required for the `metrics` artifact.
    pub observe: bool,
    /// Communicator backend (`"threads"` default, or `"tasks"`).
    pub backend: BackendKind,
    /// Matching-core shard count (`0` = auto).
    pub shards: usize,
    /// Override the space's model-persistence protocol (default: the
    /// paper's per-space protocol).
    pub persist_models: Option<bool>,
    /// Retry budget per run when faults are armed (default `2`).
    pub retries: usize,
    /// Deterministic fault-injection plan.
    pub faults: Option<FaultPlan>,
    /// Inline warm-start profile document (the bytes a previous job's
    /// `GET …/profile` returned), seeded before the sweep.
    pub warm_start: Option<Value>,
    /// Staleness discounting for the warm-start profile.
    pub staleness: Option<StalenessSpec>,
    /// Write a kernel-model profile artifact when the job finishes.
    pub profile: bool,
    /// Run against the daemon's shared profile store: warm-start from it
    /// (unless an inline `warm_start` profile takes precedence) and
    /// publish the final models back into it.
    pub store: bool,
    /// Free-form client label echoed in status responses.
    pub label: Option<String>,
    /// Tenant the job is accounted against for quota purposes (default
    /// `"default"`; 1–64 characters of `[A-Za-z0-9._-]`).
    pub tenant: String,
    /// Scheduling priority, `0..=9` (default `0`); higher runs first, and
    /// a higher-priority submission may preempt a lower-priority running
    /// job at a committed-unit boundary.
    pub priority: u8,
}

impl JobSpec {
    /// Parse and validate a spec from a JSON document.
    pub fn from_json(text: &str) -> Result<JobSpec, ServeError> {
        let tape = Tape::parse(text)
            .map_err(|e| ServeError::BadRequest(format!("body is not valid JSON: {e}")))?;
        let map = &Reader::root("job spec", tape.root());
        check_fields(map, &SPEC_FIELDS, "job spec", "job spec must be a JSON object")?;

        // Names and their "unknown … (one of: …)" errors live next to the
        // enums (`FromStr`), shared with `critter-tune`.
        let space: TuningSpace =
            require_str(map, "space")?.parse().map_err(ServeError::BadRequest)?;
        let policy: ExecutionPolicy =
            require_str(map, "policy")?.parse().map_err(ServeError::BadRequest)?;

        let epsilon = opt_f64(map, "epsilon")?.unwrap_or(0.25);
        if !epsilon.is_finite() || epsilon <= 0.0 {
            return Err(ServeError::BadRequest(format!(
                "field `epsilon` must be a positive finite number, got {epsilon}"
            )));
        }
        let reps = opt_usize(map, "reps")?.unwrap_or(1);
        if reps == 0 {
            return Err(ServeError::BadRequest("field `reps` must be at least 1".into()));
        }

        let machine = opt_str(map, "machine")?.unwrap_or("stampede2-knl");
        let test_machine = match machine {
            "stampede2-knl" => false,
            "test" => true,
            other => {
                return Err(ServeError::BadRequest(format!(
                    "unknown machine `{other}` (one of: stampede2-knl, test)"
                )))
            }
        };
        let backend = opt_str(map, "backend")?
            .unwrap_or("threads")
            .parse()
            .map_err(ServeError::BadRequest)?;

        let faults = field(map, "faults").map(|v| parse_faults(&v)).transpose()?;
        let staleness = field(map, "staleness").map(|v| parse_staleness(&v)).transpose()?;
        let warm_start = match field(map, "warm_start") {
            None => None,
            Some(v) => {
                if v.members().is_err() {
                    return Err(ServeError::BadRequest(
                        "field `warm_start` must be a profile JSON object".into(),
                    ));
                }
                // Kept as a tree: it is written back out verbatim.
                let text = v.node().expect("a set field has a value").text();
                Some(serde_json::from_str(text).expect("a parsed value's text parses"))
            }
        };
        if staleness.is_some() && warm_start.is_none() {
            return Err(ServeError::BadRequest(
                "field `staleness` requires a `warm_start` profile to discount".into(),
            ));
        }

        let tenant = opt_str(map, "tenant")?.unwrap_or("default");
        let tenant_ok = !tenant.is_empty()
            && tenant.len() <= 64
            && tenant
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-');
        if !tenant_ok {
            return Err(ServeError::BadRequest(format!(
                "field `tenant` must be 1..=64 characters of [A-Za-z0-9._-], got `{tenant}`"
            )));
        }
        let priority = opt_u64(map, "priority")?.unwrap_or(0);
        if priority > PRIORITY_MAX {
            return Err(ServeError::BadRequest(format!(
                "field `priority` must be in 0..={PRIORITY_MAX}, got {priority}"
            )));
        }

        let spec = JobSpec {
            space,
            policy,
            epsilon,
            smoke: opt_bool(map, "smoke")?.unwrap_or(false),
            reps,
            allocation: opt_u64(map, "allocation")?.unwrap_or(0),
            seed: opt_u64(map, "seed")?.unwrap_or(0xC0FFEE),
            test_machine,
            extrapolate: opt_bool(map, "extrapolate")?.unwrap_or(false),
            charge_internal: opt_bool(map, "charge_internal")?.unwrap_or(true),
            observe: opt_bool(map, "observe")?.unwrap_or(false),
            backend,
            shards: opt_usize(map, "shards")?.unwrap_or(0),
            persist_models: opt_bool(map, "persist_models")?,
            retries: opt_usize(map, "retries")?.unwrap_or(2),
            faults,
            warm_start,
            staleness,
            profile: opt_bool(map, "profile")?.unwrap_or(false),
            store: opt_bool(map, "store")?.unwrap_or(false),
            label: opt_str(map, "label")?.map(str::to_string),
            tenant: tenant.to_string(),
            priority: priority as u8,
        };
        // The engine runs `retries + 1` attempts of a run and numbers runs
        // `(configuration × reps + rep) × 3 + kind`: both must fit a `usize`.
        if spec.retries.checked_add(1).is_none() {
            return Err(too_large("retries"));
        }
        if spec.workloads().len().checked_mul(reps).and_then(|u| u.checked_mul(3)).is_none() {
            return Err(too_large("reps"));
        }
        if spec.warm_start.is_some() && spec.resets_between_configs() {
            return Err(ServeError::BadRequest(format!(
                "warm_start requires persistent kernel models, but space `{}` resets \
                 statistics between configurations; set \"persist_models\": true",
                spec.space.name()
            )));
        }
        if spec.profile && spec.resets_between_configs() {
            return Err(ServeError::BadRequest(format!(
                "profile capture requires persistent kernel models, but space `{}` resets \
                 statistics between configurations; set \"persist_models\": true",
                spec.space.name()
            )));
        }
        if spec.store && spec.resets_between_configs() {
            return Err(ServeError::BadRequest(format!(
                "a profile store requires persistent kernel models, but space `{}` resets \
                 statistics between configurations; set \"persist_models\": true",
                spec.space.name()
            )));
        }
        Ok(spec)
    }

    /// Whether this job resets kernel statistics between configurations
    /// (the space's paper protocol unless `persist_models` overrides it).
    pub fn resets_between_configs(&self) -> bool {
        match self.persist_models {
            Some(persist) => !persist,
            None => self.space.resets_between_configs(),
        }
    }

    /// Re-serialize canonically (sorted keys, defaults made explicit,
    /// trailing newline) for persistence as the job directory's
    /// `spec.json`. `from_json(to_json())` round-trips to an identical
    /// spec.
    pub fn to_json(&self) -> String {
        let mut doc = serde_json::json!({
            "allocation": self.allocation,
            "backend": self.backend.to_string(),
            "charge_internal": self.charge_internal,
            "epsilon": self.epsilon,
            "extrapolate": self.extrapolate,
            "machine": if self.test_machine { "test" } else { "stampede2-knl" },
            "observe": self.observe,
            "policy": self.policy.short_name(),
            "priority": self.priority,
            "profile": self.profile,
            "reps": self.reps,
            "retries": self.retries,
            "seed": self.seed,
            "shards": self.shards,
            "smoke": self.smoke,
            "space": self.space.name(),
            "store": self.store,
            "tenant": self.tenant.as_str(),
        });
        let map = doc.as_object_mut().expect("doc is an object");
        if let Some(persist) = self.persist_models {
            map.insert("persist_models".into(), Value::Bool(persist));
        }
        if let Some(label) = &self.label {
            map.insert("label".into(), Value::String(label.clone()));
        }
        if let Some(f) = &self.faults {
            map.insert(
                "faults".into(),
                serde_json::json!({
                    "seed": f.seed,
                    "panic_prob": f.panic_prob,
                    "delay_prob": f.delay_prob,
                    "max_delay": f.max_delay,
                    "drop_prob": f.drop_prob,
                    "retransmit_timeout": f.retransmit_timeout,
                }),
            );
        }
        if let Some(s) = &self.staleness {
            map.insert(
                "staleness".into(),
                serde_json::json!({
                    "decay": s.decay,
                    "variance_inflation": s.variance_inflation,
                }),
            );
        }
        if let Some(w) = &self.warm_start {
            map.insert("warm_start".into(), w.clone());
        }
        canonical_text(&doc)
    }

    /// The [`TuningOptions`] this spec maps onto — the same builder chain
    /// `critter-tune` assembles from the equivalent flags.
    pub fn options(&self) -> TuningOptions {
        let mut opts = TuningOptions::new(self.policy, self.epsilon)
            .with_backend(self.backend)
            .with_shards(self.shards)
            .with_reps(self.reps)
            .with_seed(self.seed)
            .with_allocation(self.allocation)
            .with_internal_charging(self.charge_internal)
            .with_retries(self.retries);
        opts.extrapolate = self.extrapolate;
        if let Some(persist) = self.persist_models {
            opts = opts.with_persist_models(persist);
        } else {
            opts.reset_between_configs = self.space.resets_between_configs();
        }
        if self.test_machine {
            opts = opts.with_test_machine();
        }
        if self.observe {
            opts = opts.with_observe();
        }
        if let Some(f) = self.faults {
            opts = opts.with_faults(f);
        }
        opts
    }

    /// The staleness policy for the warm-start profile (fresh when the
    /// spec sets none).
    pub fn staleness_policy(&self) -> StalenessPolicy {
        match self.staleness {
            Some(s) => StalenessPolicy::fresh()
                .with_decay(s.decay)
                .with_variance_inflation(s.variance_inflation),
            None => StalenessPolicy::fresh(),
        }
    }

    /// The configuration space this job sweeps.
    pub fn workloads(&self) -> Vec<std::sync::Arc<dyn critter_algs::Workload>> {
        if self.smoke {
            self.space.smoke()
        } else {
            self.space.bench()
        }
    }

    /// Total `(configuration, repetition)` units in the sweep — the
    /// denominator of the job's progress counter.
    pub fn units_total(&self) -> usize {
        self.workloads().len() * self.reps
    }

    /// Simulated rank threads one run of this job leases from the shared
    /// pool registry (every configuration in a space targets the same rank
    /// count) — the unit per-tenant rank quotas are metered in.
    pub fn ranks(&self) -> usize {
        self.workloads().first().map(|w| w.ranks()).unwrap_or(0)
    }
}

fn parse_faults(map: &Reader<'_, '_>) -> Result<FaultPlan, ServeError> {
    check_fields(map, &FAULT_FIELDS, "faults", "field `faults` must be a JSON object")?;
    let mut plan = FaultPlan::new(opt_u64(map, "seed")?.unwrap_or(0xFA17));
    plan.panic_prob = opt_f64(map, "panic_prob")?.unwrap_or(0.0);
    plan.delay_prob = opt_f64(map, "delay_prob")?.unwrap_or(0.0);
    plan.max_delay = opt_f64(map, "max_delay")?.unwrap_or(0.0);
    plan.drop_prob = opt_f64(map, "drop_prob")?.unwrap_or(0.0);
    plan.retransmit_timeout = opt_f64(map, "retransmit_timeout")?.unwrap_or(0.0);
    for (name, p) in [
        ("panic_prob", plan.panic_prob),
        ("delay_prob", plan.delay_prob),
        ("drop_prob", plan.drop_prob),
    ] {
        if !(0.0..=1.0).contains(&p) {
            return Err(ServeError::BadRequest(format!(
                "faults field `{name}` must be a probability in [0, 1], got {p}"
            )));
        }
    }
    for (name, x) in
        [("max_delay", plan.max_delay), ("retransmit_timeout", plan.retransmit_timeout)]
    {
        if !x.is_finite() || x < 0.0 {
            return Err(ServeError::BadRequest(format!(
                "faults field `{name}` must be a non-negative finite number, got {x}"
            )));
        }
    }
    Ok(plan)
}

fn parse_staleness(map: &Reader<'_, '_>) -> Result<StalenessSpec, ServeError> {
    check_fields(map, &STALENESS_FIELDS, "staleness", "field `staleness` must be a JSON object")?;
    let spec = StalenessSpec {
        decay: opt_f64(map, "decay")?.unwrap_or(1.0),
        variance_inflation: opt_f64(map, "variance_inflation")?.unwrap_or(1.0),
    };
    if !(spec.decay > 0.0 && spec.decay <= 1.0) {
        return Err(ServeError::BadRequest(format!(
            "staleness field `decay` must be in (0, 1], got {}",
            spec.decay
        )));
    }
    if !(spec.variance_inflation >= 1.0 && spec.variance_inflation.is_finite()) {
        return Err(ServeError::BadRequest(format!(
            "staleness field `variance_inflation` must be >= 1, got {}",
            spec.variance_inflation
        )));
    }
    Ok(spec)
}

/// The object at `map` has only `allowed` fields: the first other one in
/// sorted order is the error. A non-object is the error `not_object`.
fn check_fields(
    map: &Reader<'_, '_>,
    allowed: &[&str],
    what: &str,
    not_object: &str,
) -> Result<(), ServeError> {
    let mut keys = map.members().map_err(|_| ServeError::BadRequest(not_object.into()))?;
    match keys.find(|(key, _)| !allowed.contains(key)) {
        Some((key, _)) => Err(ServeError::BadRequest(format!(
            "unknown {what} field `{key}` (allowed: {})",
            allowed.join(", ")
        ))),
        None => Ok(()),
    }
}

/// The field `key` of the object at `map`, unless it is absent or `null`.
fn field<'v, 'q>(map: &'q Reader<'v, '_>, key: &'q str) -> Option<Reader<'v, 'q>> {
    let value = map.at(key);
    value.node().is_some_and(|v| v.text() != "null").then_some(value)
}

fn mistyped(key: &str, what: &str) -> ServeError {
    ServeError::BadRequest(format!("field `{key}` must be {what}"))
}

fn require_str<'v>(map: &Reader<'v, '_>, key: &str) -> Result<&'v str, ServeError> {
    opt_str(map, key)?
        .ok_or_else(|| ServeError::BadRequest(format!("missing required field `{key}`")))
}

fn opt_str<'v>(map: &Reader<'v, '_>, key: &str) -> Result<Option<&'v str>, ServeError> {
    field(map, key).map(|v| v.str().map_err(|_| mistyped(key, "a string"))).transpose()
}

fn opt_bool(map: &Reader<'_, '_>, key: &str) -> Result<Option<bool>, ServeError> {
    field(map, key).map(|v| v.bool().map_err(|_| mistyped(key, "a boolean"))).transpose()
}

fn opt_u64(map: &Reader<'_, '_>, key: &str) -> Result<Option<u64>, ServeError> {
    let read = |v: Reader<'_, '_>| {
        v.u64().map_err(|_| {
            // A whole number past the exactly readable range is too large,
            // not mistyped.
            if v.f64().is_ok_and(|x| x >= 0.0 && x.fract() == 0.0) {
                return too_large(key);
            }
            mistyped(key, "an unsigned integer")
        })
    };
    field(map, key).map(read).transpose()
}

fn opt_usize(map: &Reader<'_, '_>, key: &str) -> Result<Option<usize>, ServeError> {
    opt_u64(map, key)?.map(|n| usize::try_from(n).map_err(|_| too_large(key))).transpose()
}

fn too_large(key: &str) -> ServeError {
    ServeError::BadRequest(format!("field `{key}` is too large"))
}

fn opt_f64(map: &Reader<'_, '_>, key: &str) -> Result<Option<f64>, ServeError> {
    field(map, key).map(|v| v.f64().map_err(|_| mistyped(key, "a number"))).transpose()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_spec_gets_cli_defaults() {
        let spec = JobSpec::from_json(r#"{"space": "slate-cholesky", "policy": "local"}"#).unwrap();
        assert_eq!(spec.space, TuningSpace::SlateCholesky);
        assert_eq!(spec.policy, ExecutionPolicy::LocalPropagation);
        assert_eq!(spec.epsilon, 0.25);
        assert_eq!(spec.reps, 1);
        assert_eq!(spec.seed, 0xC0FFEE);
        assert!(spec.charge_internal);
        assert!(!spec.smoke && !spec.observe && !spec.test_machine);
        assert_eq!(spec.tenant, "default");
        assert_eq!(spec.priority, 0);
        assert!(spec.ranks() > 0, "every space targets at least one rank");
        let opts = spec.options();
        assert_eq!(opts.seed, 0xC0FFEE);
        assert!(opts.reset_between_configs);
    }

    #[test]
    fn to_json_round_trips_every_field() {
        let text = r#"{
            "space": "capital-cholesky", "policy": "online", "epsilon": 0.5,
            "smoke": true, "reps": 3, "seed": 7, "allocation": 1,
            "machine": "test", "observe": true, "backend": "tasks",
            "shards": 2, "retries": 1, "label": "nightly",
            "faults": {"panic_prob": 0.1},
            "profile": true,
            "tenant": "team-a", "priority": 7
        }"#;
        let spec = JobSpec::from_json(text).unwrap();
        let canon = spec.to_json();
        let spec2 = JobSpec::from_json(&canon).unwrap();
        assert_eq!(canon, spec2.to_json());
        assert_eq!(spec2.label.as_deref(), Some("nightly"));
        assert_eq!(spec2.faults.unwrap().panic_prob, 0.1);
        assert_eq!(spec2.faults.unwrap().seed, 0xFA17);
        assert!(spec2.test_machine);
        assert_eq!(spec2.tenant, "team-a");
        assert_eq!(spec2.priority, 7);
    }

    #[test]
    fn unknown_and_mistyped_fields_are_400s() {
        let cases = [
            (r#"{"space": "slate-cholesky"}"#, "missing required field `policy`"),
            (r#"{"policy": "local"}"#, "missing required field `space`"),
            (r#"{"space": "nope", "policy": "local"}"#, "unknown space"),
            (r#"{"space": "slate-cholesky", "policy": "nope"}"#, "unknown policy"),
            (
                r#"{"space": "slate-cholesky", "policy": "local", "bogus": 1}"#,
                "unknown job spec field `bogus`",
            ),
            (
                r#"{"space": "slate-cholesky", "policy": "local", "reps": "three"}"#,
                "unsigned integer",
            ),
            (r#"{"space": "slate-cholesky", "policy": "local", "reps": 0}"#, "at least 1"),
            (
                r#"{"space": "slate-cholesky", "policy": "local", "reps": 9223372036854775807}"#,
                "field `reps` is too large",
            ),
            (
                r#"{"space": "slate-cholesky", "policy": "local",
                    "retries": 18446744073709551615, "faults": {"panic_prob": 0.5}}"#,
                "field `retries` is too large",
            ),
            (r#"{"space": "slate-cholesky", "policy": "local", "epsilon": -1}"#, "positive"),
            (
                r#"{"space": "slate-cholesky", "policy": "local", "machine": "cray"}"#,
                "unknown machine",
            ),
            (
                r#"{"space": "slate-cholesky", "policy": "local", "faults": {"panic_prob": 2}}"#,
                "probability",
            ),
            (
                r#"{"space": "slate-cholesky", "policy": "local", "faults": {"oops": 1}}"#,
                "unknown faults field",
            ),
            (
                r#"{"space": "slate-cholesky", "policy": "local", "staleness": {"decay": 0.5}}"#,
                "requires a `warm_start`",
            ),
            (
                r#"{"space": "slate-cholesky", "policy": "local", "warm_start": {}}"#,
                "persistent kernel models",
            ),
            (
                r#"{"space": "slate-cholesky", "policy": "local", "profile": true}"#,
                "persistent kernel models",
            ),
            (r#"{"space": "slate-cholesky", "policy": "local", "tenant": ""}"#, "field `tenant`"),
            (
                r#"{"space": "slate-cholesky", "policy": "local", "tenant": "team/a"}"#,
                "field `tenant`",
            ),
            (r#"{"space": "slate-cholesky", "policy": "local", "priority": 10}"#, "0..=9"),
            (
                r#"{"space": "slate-cholesky", "policy": "local", "priority": "high"}"#,
                "unsigned integer",
            ),
            ("[1, 2]", "must be a JSON object"),
            ("not json", "not valid JSON"),
        ];
        for (text, needle) in cases {
            let err = JobSpec::from_json(text).unwrap_err();
            assert_eq!(err.status(), 400, "case {text} should be a 400, got {err}");
            assert!(
                err.detail().contains(needle),
                "case {text}: expected `{needle}` in `{}`",
                err.detail()
            );
        }
    }

    #[test]
    fn warm_start_with_persistence_is_accepted() {
        let spec = JobSpec::from_json(
            r#"{"space": "slate-cholesky", "policy": "local",
                "persist_models": true, "warm_start": {"fingerprint": 1, "stores": []},
                "staleness": {"decay": 0.5, "variance_inflation": 2.0}}"#,
        )
        .unwrap();
        assert!(!spec.resets_between_configs());
        assert!(spec.warm_start.is_some());
        let policy = spec.staleness_policy();
        assert!(!policy.is_fresh());
        let canon = spec.to_json();
        assert_eq!(JobSpec::from_json(&canon).unwrap().to_json(), canon);
    }

    #[test]
    fn units_total_counts_configs_times_reps() {
        let spec = JobSpec::from_json(
            r#"{"space": "slate-cholesky", "policy": "local", "smoke": true, "reps": 3}"#,
        )
        .unwrap();
        assert_eq!(spec.units_total(), spec.workloads().len() * 3);
    }
}
