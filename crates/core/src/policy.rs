//! Selective-execution policies and framework configuration (§IV-B).

use std::sync::LazyLock;

use critter_stats::ConfidenceLevel;

use crate::extrapolate::ExtrapolationConfig;
use crate::signature::SizeGranularity;

/// Confidence level of the per-kernel intervals (the paper uses 95%): one
/// per process, so every rank of every run reads one table of critical
/// values.
pub(crate) static CONFIDENCE: LazyLock<ConfidenceLevel> =
    LazyLock::new(|| ConfidenceLevel::new(0.95));

/// Samples a kernel needs before it may be considered predictable.
pub(crate) const MIN_SAMPLES: u64 = 2;

/// Wire-size cap (in words) for charged internal messages. The real Critter
/// piggybacks compact fixed-size profile arrays; our serialized `K̃` payloads
/// are semantically equivalent but verbose, so their cost is charged at the
/// compact size to keep the modeled overhead faithful.
pub(crate) const INTERNAL_WORDS_CAP: usize = 32;

/// The kernel-execution policies the paper evaluates (§IV-B), plus the
/// full-execution baseline.
///
/// # Examples
///
/// ```
/// use critter_core::ExecutionPolicy;
///
/// // Only online propagation adopts the remote winner's path counts during
/// // the longest-path reduction (besides the full/offline recording pass).
/// assert!(ExecutionPolicy::OnlinePropagation.adopts_remote_path());
/// assert!(!ExecutionPolicy::LocalPropagation.adopts_remote_path());
///
/// // A-priori propagation pays an extra offline full execution up front.
/// assert!(ExecutionPolicy::APrioriPropagation.needs_offline_pass());
///
/// // The paper evaluates five selective policies against the baseline.
/// assert_eq!(ExecutionPolicy::ALL_SELECTIVE.len(), 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecutionPolicy {
    /// Execute everything; collect statistics and paths but never skip.
    /// This is the paper's red reference line and the offline pass of
    /// *a-priori propagation*.
    Full,
    /// *Conditional execution*: skip only when the kernel's own confidence
    /// interval meets ε — no execution-count scaling, no count propagation.
    ConditionalExecution,
    /// *Local propagation*: scale the criterion by the kernel's locally
    /// observed path count; never adopt remote paths' counts.
    LocalPropagation,
    /// *Online propagation*: scale by the critical-path execution count,
    /// adopted on-line from whichever execution path currently dominates.
    OnlinePropagation,
    /// *A-priori propagation*: an initial full execution captures the
    /// critical-path counts, which then apply from the first tuning step.
    APrioriPropagation,
    /// *Eager propagation*: skip a kernel everywhere once one processor deems
    /// it predictable and its statistics have been propagated across a set of
    /// channels covering the whole processor grid. Models persist across
    /// configurations; kernels stay off permanently.
    EagerPropagation,
}

impl ExecutionPolicy {
    /// All selective policies, in the paper's presentation order.
    pub const ALL_SELECTIVE: [ExecutionPolicy; 5] = [
        ExecutionPolicy::ConditionalExecution,
        ExecutionPolicy::LocalPropagation,
        ExecutionPolicy::OnlinePropagation,
        ExecutionPolicy::APrioriPropagation,
        ExecutionPolicy::EagerPropagation,
    ];

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            ExecutionPolicy::Full => "full execution",
            ExecutionPolicy::ConditionalExecution => "conditional execution",
            ExecutionPolicy::LocalPropagation => "local propagation",
            ExecutionPolicy::OnlinePropagation => "online propagation",
            ExecutionPolicy::APrioriPropagation => "a priori propagation",
            ExecutionPolicy::EagerPropagation => "eager propagation",
        }
    }

    /// Parse a [`name`](Self::name) back to the policy (reports and CLI
    /// flags round-trip through this).
    pub fn from_name(s: &str) -> Option<ExecutionPolicy> {
        Self::SHORT_NAMES.iter().map(|(_, p)| *p).find(|p| p.name() == s)
    }

    /// Short names — the values of `critter-tune --policy` and of a job
    /// spec's `policy` field — in the order usage text lists them.
    pub const SHORT_NAMES: [(&'static str, ExecutionPolicy); 6] = [
        ("conditional", ExecutionPolicy::ConditionalExecution),
        ("local", ExecutionPolicy::LocalPropagation),
        ("online", ExecutionPolicy::OnlinePropagation),
        ("apriori", ExecutionPolicy::APrioriPropagation),
        ("eager", ExecutionPolicy::EagerPropagation),
        ("full", ExecutionPolicy::Full),
    ];

    /// This policy's [short name](Self::SHORT_NAMES); parses back through
    /// [`FromStr`](std::str::FromStr).
    pub fn short_name(self) -> &'static str {
        let (name, _) = Self::SHORT_NAMES.iter().find(|(_, p)| *p == self).expect("every policy");
        name
    }

    /// Whether this policy adopts the remote winner's `K̃` during the
    /// longest-path reduction (only *online propagation* does, plus the
    /// full/offline pass that records a-priori counts).
    pub fn adopts_remote_path(self) -> bool {
        matches!(self, ExecutionPolicy::OnlinePropagation | ExecutionPolicy::Full)
    }

    /// Whether every kernel must execute at least once per tuning iteration
    /// (§VI-A: all methods except eager propagation).
    pub fn executes_once_per_config(self) -> bool {
        !matches!(self, ExecutionPolicy::EagerPropagation | ExecutionPolicy::Full)
    }

    /// Whether an extra offline full execution is required before tuning.
    pub fn needs_offline_pass(self) -> bool {
        matches!(self, ExecutionPolicy::APrioriPropagation)
    }
}

/// Parses a [short name](ExecutionPolicy::SHORT_NAMES); the error lists them.
impl std::str::FromStr for ExecutionPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        Self::SHORT_NAMES.iter().find(|(n, _)| *n == s).map(|(_, p)| *p).ok_or_else(|| {
            let known: Vec<&str> = Self::SHORT_NAMES.iter().map(|(n, _)| *n).collect();
            format!("unknown policy `{s}` (one of: {})", known.join(", "))
        })
    }
}

/// Configuration of the Critter environment.
///
/// # Examples
///
/// ```
/// use critter_core::{CritterConfig, ExecutionPolicy};
///
/// // The paper's defaults: internal messages charged at their compact wire
/// // size, exact message sizes in signatures, no extrapolation. The 95%
/// // confidence level and the two-sample minimum are fixed, not knobs.
/// let cfg = CritterConfig::new(ExecutionPolicy::OnlinePropagation, 0.25);
/// assert!(cfg.charge_internal);
/// assert!(cfg.extrapolate.is_none());
///
/// // `with_*` builders toggle the ablation switches and the observability
/// // layer — the one builder vocabulary shared with `TuningOptions` and
/// // `SessionConfig`.
/// let cfg = cfg.with_internal_charging(false).with_obs();
/// assert!(!cfg.charge_internal);
/// assert!(cfg.obs);
///
/// // The full-execution baseline never skips, so ε is irrelevant.
/// assert_eq!(CritterConfig::full().policy, ExecutionPolicy::Full);
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct CritterConfig {
    /// The selective-execution policy.
    pub policy: ExecutionPolicy,
    /// Confidence tolerance ε: a kernel becomes predictable when the relative
    /// (possibly path-count-scaled) confidence-interval size drops below it.
    pub epsilon: f64,
    /// Whether internal (profiling) messages are charged communication time.
    /// True models real piggyback traffic; false isolates pure algorithmic
    /// effects (the overhead ablation).
    pub charge_internal: bool,
    /// Message-size granularity of communication-kernel signatures.
    pub granularity: SizeGranularity,
    /// §VIII extension: extrapolate computation-kernel performance across
    /// input sizes with per-routine-family line fits, allowing under-sampled
    /// signatures (e.g. CANDMC's shrinking trailing matrix) to be skipped.
    /// `None` (the default) reproduces the paper's per-signature behavior.
    pub extrapolate: Option<ExtrapolationConfig>,
    /// Record structured observability events and metrics (`critter-obs`):
    /// every interception point emits a virtual-clock-stamped event into a
    /// per-rank buffer that surfaces as `CritterReport::obs`. Deterministic
    /// (see `docs/OBSERVABILITY.md`); adds memory proportional to the
    /// number of interceptions.
    pub obs: bool,
    /// Pre-size hint (in events) for the per-rank observability buffers.
    /// Capacity never affects recorded contents — callers (the autotune
    /// driver) feed back the event count of earlier repetitions so later
    /// ones skip the buffer's growth reallocations. `0` means no hint.
    pub obs_capacity: usize,
}

impl CritterConfig {
    /// Config for `policy` at tolerance ε with the paper's defaults.
    pub fn new(policy: ExecutionPolicy, epsilon: f64) -> Self {
        CritterConfig {
            policy,
            epsilon,
            charge_internal: true,
            granularity: SizeGranularity::Exact,
            extrapolate: None,
            obs: false,
            obs_capacity: 0,
        }
    }

    /// Enable structured observability recording (`critter-obs` events and
    /// metrics in `CritterReport::obs`).
    pub fn with_obs(mut self) -> Self {
        self.obs = true;
        self
    }

    /// Enable the §VIII input-size extrapolation extension.
    pub fn with_extrapolation(mut self) -> Self {
        self.extrapolate = Some(ExtrapolationConfig::default());
        self
    }

    /// The full-execution baseline (never skips; ε is irrelevant).
    pub fn full() -> Self {
        CritterConfig::new(ExecutionPolicy::Full, 0.0)
    }

    /// Set whether internal (profiling) messages are charged communication
    /// time. `false` is the overhead ablation.
    pub fn with_internal_charging(mut self, charge: bool) -> Self {
        self.charge_internal = charge;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_traits_match_paper() {
        use ExecutionPolicy::*;
        assert!(OnlinePropagation.adopts_remote_path());
        assert!(!LocalPropagation.adopts_remote_path());
        assert!(!ConditionalExecution.adopts_remote_path());
        assert!(ConditionalExecution.executes_once_per_config());
        assert!(!EagerPropagation.executes_once_per_config());
        assert!(APrioriPropagation.needs_offline_pass());
        assert!(!OnlinePropagation.needs_offline_pass());
    }

    #[test]
    fn config_defaults() {
        let c = CritterConfig::new(ExecutionPolicy::OnlinePropagation, 0.25);
        assert!(c.charge_internal);
        assert!(!c.with_internal_charging(false).charge_internal);
    }

    #[test]
    fn policy_names_invert() {
        let mut all = ExecutionPolicy::ALL_SELECTIVE.to_vec();
        all.push(ExecutionPolicy::Full);
        for p in all {
            assert_eq!(ExecutionPolicy::from_name(p.name()), Some(p));
        }
        assert_eq!(ExecutionPolicy::from_name("bogus"), None);
    }

    #[test]
    fn short_names_invert_and_unknown_ones_list_the_table() {
        for (name, p) in ExecutionPolicy::SHORT_NAMES {
            assert_eq!(p.short_name(), name);
            assert_eq!(name.parse(), Ok(p));
        }
        assert_eq!(
            "bogus".parse::<ExecutionPolicy>().unwrap_err(),
            "unknown policy `bogus` (one of: conditional, local, online, apriori, eager, full)"
        );
    }

    #[test]
    fn names_are_distinct() {
        let mut names: Vec<&str> =
            ExecutionPolicy::ALL_SELECTIVE.iter().map(|p| p.name()).collect();
        names.push(ExecutionPolicy::Full.name());
        let n = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
