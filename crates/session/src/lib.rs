//! # critter-session
//!
//! Fault-tolerant tuning *sessions* on top of the critter stack: the
//! persistence layer that lets a long exhaustive-search sweep survive a
//! mid-flight kill and resume to a byte-identical [`TuningReport`], and
//! lets one session's kernel models *warm-start* the next.
//!
//! The crate is deliberately below `critter-autotune` in the dependency
//! graph: it owns the on-disk formats and policies (what a checkpoint *is*),
//! while the driver owns the resume state machine (when one is taken).
//! Four pieces:
//!
//! * [`SessionConfig`] — the `with_*` builder describing where checkpoints
//!   and profiles live and how often the driver writes them;
//! * [`envelope`] — the versioned, content-hashed JSON envelope every
//!   session artifact is sealed in ([`envelope::seal`]/[`envelope::open`]);
//! * [`durable`] — the durable-write primitives every on-disk artifact of the
//!   workspace goes through (unique temp file + atomic rename for whole
//!   documents, one [`durable::Log`] for the append-only files);
//! * [`profile`] — persistent kernel-model profiles: save a sweep's
//!   [`critter_core::KernelStore`]s, reload them later, and apply a
//!   [`StalenessPolicy`] before seeding a new sweep.
//!
//! It also hosts [`cli`], the flag-table mechanism every binary of the
//! workspace declares its command line with (this is the one crate they all
//! link).
//!
//! Everything rides on the canonical JSON writer/parser pair (sorted keys,
//! shortest-round-trip floats, correctly rounded parse), so a value that
//! goes to disk and back is *bit-identical* — the property the kill/resume
//! oracle in `critter-testkit` asserts end to end.
//!
//! [`TuningReport`]: https://docs.rs/critter-autotune

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod cli;
pub mod config;
pub mod durable;
pub mod envelope;
pub mod log;
pub mod profile;

pub use config::{SessionConfig, StalenessPolicy};
pub use log::SessionLog;
