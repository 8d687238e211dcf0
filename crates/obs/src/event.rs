//! The event taxonomy: one variant per interception point of the Critter
//! layer (`critter-core`'s `CritterEnv`, the paper's Fig. 2 PMPI shim).

use crate::json::{JsonError, Reader};

/// What kind of interception produced an event.
///
/// The taxonomy mirrors the decision structure of selective execution
/// (§IV-B of the paper): kernels either execute (a sample is taken) or are
/// skipped (the model mean is charged), every intercepted communication
/// piggybacks a path-propagation reduction, and the longest-path combine
/// may adopt a remote rank's critical path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A computation kernel executed; `arg` is the measured time charged to
    /// the path.
    KernelExec,
    /// A computation kernel skipped; `arg` is the modeled mean charged.
    KernelSkip,
    /// A communication kernel executed; `arg` is the measured time.
    CommExec,
    /// A communication kernel skipped; `arg` is the modeled mean.
    CommSkip,
    /// A path-propagation piggyback exchange (the internal `K̃`/vote
    /// message); `arg` is the internal cost charged to the predicted path.
    Propagate,
    /// The longest-path combine adopted a remote rank's path; `arg` is the
    /// execution-time gap to the adopted path.
    PathAdopt,
    /// A skip/execute policy decision consulted a confidence interval;
    /// `arg` is the path-count-scaled relative CI width compared against ε.
    Decision,
    /// A communicator split registered a new aggregate channel; `arg` is
    /// the channel size.
    Channel,
    /// A fault fired during the run (an injected rank panic observed by the
    /// driver); `arg` is the run index the fault hit.
    Fault,
    /// The driver retried a faulted run with a reseeded fault plan; `arg`
    /// is the attempt number.
    Retry,
    /// The driver quarantined a configuration after exhausting its retry
    /// budget; `arg` is the number of attempts spent.
    Quarantine,
    /// A session checkpoint was written; `arg` is the number of completed
    /// run units it covers.
    Checkpoint,
    /// The sweep was preempted at a committed-unit boundary (the progress
    /// hook returned a preempt verdict); `arg` is the number of units
    /// committed — and checkpointed — at the preemption point.
    Preempt,
    /// A session resumed from a checkpoint; `arg` is the number of run
    /// units restored from disk.
    Restore,
    /// Kernel models were warm-started from a persisted profile; `arg` is
    /// the number of models seeded.
    WarmStart,
}

impl EventKind {
    /// Stable snake-case name (the Chrome trace `cat` field).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::KernelExec => "kernel_exec",
            EventKind::KernelSkip => "kernel_skip",
            EventKind::CommExec => "comm_exec",
            EventKind::CommSkip => "comm_skip",
            EventKind::Propagate => "propagate",
            EventKind::PathAdopt => "path_adopt",
            EventKind::Decision => "decision",
            EventKind::Channel => "channel",
            EventKind::Fault => "fault",
            EventKind::Retry => "retry",
            EventKind::Quarantine => "quarantine",
            EventKind::Checkpoint => "checkpoint",
            EventKind::Preempt => "preempt",
            EventKind::Restore => "restore",
            EventKind::WarmStart => "warm_start",
        }
    }

    /// Inverse of [`EventKind::name`]: `None` for unknown names.
    pub fn from_name(name: &str) -> Option<EventKind> {
        Some(match name {
            "kernel_exec" => EventKind::KernelExec,
            "kernel_skip" => EventKind::KernelSkip,
            "comm_exec" => EventKind::CommExec,
            "comm_skip" => EventKind::CommSkip,
            "propagate" => EventKind::Propagate,
            "path_adopt" => EventKind::PathAdopt,
            "decision" => EventKind::Decision,
            "channel" => EventKind::Channel,
            "fault" => EventKind::Fault,
            "retry" => EventKind::Retry,
            "quarantine" => EventKind::Quarantine,
            "checkpoint" => EventKind::Checkpoint,
            "preempt" => EventKind::Preempt,
            "restore" => EventKind::Restore,
            "warm_start" => EventKind::WarmStart,
            _ => return None,
        })
    }

    /// Whether `arg` is a time charged to the critical-path prediction
    /// (these kinds carry weight in the folded-stack export).
    pub fn charges_path(self) -> bool {
        matches!(
            self,
            EventKind::KernelExec
                | EventKind::KernelSkip
                | EventKind::CommExec
                | EventKind::CommSkip
                | EventKind::Propagate
        )
    }
}

/// One interception event on one rank.
///
/// All fields are *virtual* quantities: `start` and `dur` come from the
/// rank's virtual clock, `arg` is a kind-specific scalar (see
/// [`EventKind`]). No wall-clock value ever enters an event, which is what
/// makes exported traces bit-reproducible.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Which interception point fired.
    pub kind: EventKind,
    /// Kernel-signature or channel label (e.g. `gemm[64x64x64]`,
    /// `bcast[w=512,p=4,s=1]`). Shared (`Arc<str>`) because the same label
    /// recurs across thousands of events: producers intern one allocation
    /// per distinct signature and clone the handle per event.
    pub label: std::sync::Arc<str>,
    /// Virtual time at which the interception began (seconds).
    pub start: f64,
    /// Virtual duration of the interception (seconds; 0 for instantaneous
    /// events such as decisions and skips).
    pub dur: f64,
    /// Kind-specific scalar (charged time, CI width, channel size, …).
    pub arg: f64,
}

impl Event {
    /// Canonical JSON form: `{"arg", "dur", "kind", "label", "start"}`.
    ///
    /// Floats survive a write/parse round trip bit-exactly, so a trace
    /// restored from a checkpoint compares equal to the original.
    pub fn to_json(&self) -> serde_json::Value {
        serde_json::json!({
            "arg": self.arg,
            "dur": self.dur,
            "kind": self.kind.name(),
            "label": &*self.label,
            "start": self.start,
        })
    }

    /// Decode the event at `r`.
    pub fn read(r: Reader<'_, '_>) -> Result<Event, JsonError> {
        Ok(Event {
            kind: r.at("kind").named("event kind", EventKind::from_name)?,
            label: r.at("label").str()?.into(),
            start: r.at("start").f64()?,
            dur: r.at("dur").f64()?,
            arg: r.at("arg").f64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::read_value;

    #[test]
    fn names_are_distinct_and_stable() {
        let kinds = [
            EventKind::KernelExec,
            EventKind::KernelSkip,
            EventKind::CommExec,
            EventKind::CommSkip,
            EventKind::Propagate,
            EventKind::PathAdopt,
            EventKind::Decision,
            EventKind::Channel,
            EventKind::Fault,
            EventKind::Retry,
            EventKind::Quarantine,
            EventKind::Checkpoint,
            EventKind::Preempt,
            EventKind::Restore,
            EventKind::WarmStart,
        ];
        let mut names: Vec<&str> = kinds.iter().map(|k| k.name()).collect();
        let n = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n);
        assert_eq!(EventKind::KernelExec.name(), "kernel_exec");
        for k in kinds {
            assert_eq!(EventKind::from_name(k.name()), Some(k));
        }
        assert_eq!(EventKind::from_name("no_such_kind"), None);
    }

    #[test]
    fn session_kinds_never_charge_the_path() {
        for k in [
            EventKind::Fault,
            EventKind::Retry,
            EventKind::Quarantine,
            EventKind::Checkpoint,
            EventKind::Preempt,
            EventKind::Restore,
            EventKind::WarmStart,
        ] {
            assert!(!k.charges_path());
        }
    }

    #[test]
    fn event_json_round_trips_bit_exactly() {
        let e = Event {
            kind: EventKind::Fault,
            label: "pr4pc4nb16/rep0/full".into(),
            start: 0.1 + 0.2,
            dur: 1.0 / 3.0,
            arg: 7.0,
        };
        let text = serde_json::to_string(&e.to_json()).unwrap();
        let tape = serde_json::Tape::parse(&text).unwrap();
        let back = Event::read(Reader::root("event", tape.root())).unwrap();
        assert_eq!(back, e);
        assert_eq!(back.start.to_bits(), e.start.to_bits());
        assert!(read_value("event", &serde_json::json!({"kind": "bogus"}), Event::read).is_err());
    }

    #[test]
    fn path_charging_kinds() {
        assert!(EventKind::KernelSkip.charges_path());
        assert!(EventKind::Propagate.charges_path());
        assert!(!EventKind::Decision.charges_path());
        assert!(!EventKind::Channel.charges_path());
        assert!(!EventKind::PathAdopt.charges_path());
    }
}
