//! Typed errors for the fallible public surface (persistence, sessions,
//! export).
//!
//! The interception layer itself is infallible by design — it runs inside
//! the simulated ranks where an error has nowhere to go — but everything
//! that touches the filesystem or decodes persisted state returns
//! [`Result`]. The enum is deliberately small and hand-rolled (no derive
//! crate): each variant answers one question a caller can act on — was it
//! the OS ([`Io`](CritterError::Io)), the bytes
//! ([`Parse`](CritterError::Parse)), the document shape
//! ([`Schema`](CritterError::Schema)), or a valid document for the wrong
//! sweep ([`Mismatch`](CritterError::Mismatch))?

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// Result alias for critter's fallible entry points.
pub type Result<T> = std::result::Result<T, CritterError>;

/// Error from a persistence, session, or export entry point.
///
/// # Examples
///
/// ```
/// use critter_core::{CritterError, Result};
///
/// fn load(text: &str) -> Result<f64> {
///     let tape = serde_json::Tape::parse(text)
///         .map_err(|e| CritterError::parse("profile", e.to_string()))?;
///     // A decode failure (`critter_core::json::JsonError`) converts to `Schema`.
///     Ok(critter_core::json::Reader::root("profile", tape.root()).f64()?)
/// }
///
/// assert_eq!(load("2.5").unwrap(), 2.5);
/// assert!(matches!(load("[oops").unwrap_err(), CritterError::Parse { .. }));
/// assert!(matches!(load("[]").unwrap_err(), CritterError::Schema { .. }));
/// ```
#[derive(Debug)]
#[non_exhaustive]
pub enum CritterError {
    /// A filesystem operation failed.
    Io {
        /// The file or directory involved.
        path: PathBuf,
        /// The underlying OS error.
        source: io::Error,
    },
    /// A persisted document is not valid JSON.
    Parse {
        /// What was being decoded (a path or a logical name).
        context: String,
        /// Parser diagnostic.
        detail: String,
    },
    /// A persisted document is valid JSON but has the wrong shape, schema
    /// version, or content hash.
    Schema {
        /// What was being decoded (a path or a logical name).
        context: String,
        /// What was wrong.
        detail: String,
    },
    /// A well-formed checkpoint or profile belongs to a different sweep
    /// (its fingerprint disagrees with the running options).
    Mismatch {
        /// Human-readable description of the disagreement.
        detail: String,
    },
    /// The sweep was stopped on purpose by its progress hook (see
    /// `Autotuner::with_progress`): not a failure — completed units are
    /// checkpointed and the sweep resumes from where it stopped.
    Cancelled {
        /// What asked for the stop.
        detail: String,
    },
    /// The sweep was paused by its progress hook to yield to other work
    /// (see `Autotuner::with_progress`): like
    /// [`Cancelled`](Self::Cancelled), a deliberate checkpoint-consistent
    /// stop — but the caller intends to resume, so schedulers re-queue the
    /// work instead of finalizing it.
    Preempted {
        /// What asked for the pause.
        detail: String,
    },
}

impl CritterError {
    /// An [`Io`](Self::Io) error at `path`.
    pub fn io(path: impl AsRef<Path>, source: io::Error) -> Self {
        CritterError::Io { path: path.as_ref().to_path_buf(), source }
    }

    /// A [`Parse`](Self::Parse) error while decoding `context`.
    pub fn parse(context: impl Into<String>, detail: impl Into<String>) -> Self {
        CritterError::Parse { context: context.into(), detail: detail.into() }
    }

    /// A [`Schema`](Self::Schema) error while decoding `context`.
    pub fn schema(context: impl Into<String>, detail: impl Into<String>) -> Self {
        CritterError::Schema { context: context.into(), detail: detail.into() }
    }

    /// A [`Mismatch`](Self::Mismatch) between a document and the live sweep.
    pub fn mismatch(detail: impl Into<String>) -> Self {
        CritterError::Mismatch { detail: detail.into() }
    }

    /// A deliberate [`Cancelled`](Self::Cancelled) stop.
    pub fn cancelled(detail: impl Into<String>) -> Self {
        CritterError::Cancelled { detail: detail.into() }
    }

    /// True for a deliberate [`Cancelled`](Self::Cancelled) stop, so callers
    /// can distinguish "asked to stop" from real failures without matching
    /// on the (non-exhaustive) enum.
    pub fn is_cancelled(&self) -> bool {
        matches!(self, CritterError::Cancelled { .. })
    }

    /// A deliberate [`Preempted`](Self::Preempted) pause.
    pub fn preempted(detail: impl Into<String>) -> Self {
        CritterError::Preempted { detail: detail.into() }
    }

    /// True for a deliberate [`Preempted`](Self::Preempted) pause — "stop
    /// now, resume later" — as opposed to cancellation or a real failure.
    pub fn is_preempted(&self) -> bool {
        matches!(self, CritterError::Preempted { .. })
    }
}

/// A located decode failure is a [`Schema`](CritterError::Schema) error of
/// the document it names; the detail keeps the path and expected/found text.
impl From<critter_obs::json::JsonError> for CritterError {
    fn from(e: critter_obs::json::JsonError) -> Self {
        let detail = e.to_string();
        CritterError::Schema { context: e.document, detail }
    }
}

impl fmt::Display for CritterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CritterError::Io { path, source } => {
                write!(f, "io error at {}: {source}", path.display())
            }
            CritterError::Parse { context, detail } => {
                write!(f, "invalid JSON in {context}: {detail}")
            }
            CritterError::Schema { context, detail } => {
                write!(f, "schema error in {context}: {detail}")
            }
            CritterError::Mismatch { detail } => {
                write!(f, "checkpoint/profile mismatch: {detail}")
            }
            CritterError::Cancelled { detail } => {
                write!(f, "sweep cancelled: {detail}")
            }
            CritterError::Preempted { detail } => {
                write!(f, "sweep preempted: {detail}")
            }
        }
    }
}

impl std::error::Error for CritterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CritterError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_contextual() {
        let e = CritterError::io("/tmp/x.json", io::Error::new(io::ErrorKind::NotFound, "gone"));
        assert!(e.to_string().contains("/tmp/x.json"));
        let e = CritterError::parse("profile.json", "bad byte");
        assert!(e.to_string().contains("profile.json"));
        let e = CritterError::schema("ckpt", "missing key `stores`");
        assert!(e.to_string().contains("missing key"));
        let e = CritterError::mismatch("epsilon 0.25 vs 0.5");
        assert!(e.to_string().contains("epsilon"));
        let e = CritterError::cancelled("DELETE /v1/jobs/job-000001");
        assert!(e.is_cancelled());
        assert!(!e.is_preempted());
        assert!(!CritterError::mismatch("d").is_cancelled());
        assert!(e.to_string().contains("cancelled"));
        let e = CritterError::preempted("higher-priority job");
        assert!(e.is_preempted());
        assert!(!e.is_cancelled());
        assert!(e.to_string().contains("preempted"));
    }

    #[test]
    fn io_error_exposes_source() {
        use std::error::Error as _;
        let e = CritterError::io("p", io::Error::other("x"));
        assert!(e.source().is_some());
        assert!(CritterError::mismatch("d").source().is_none());
    }
}
