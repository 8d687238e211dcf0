//! The session event log: an append-only JSON-lines file recording every
//! lifecycle decision a persistent session makes.
//!
//! Checkpoint writes, restores, and warm-starts are *session* facts, not
//! sweep facts — an uninterrupted sweep and a killed-and-resumed sweep
//! must produce byte-identical [`TuningReport`]s, so these events cannot
//! enter the report's obs timeline. They land here instead, one
//! [`critter_obs::Event`] per line, so the operator can reconstruct what
//! the session did without perturbing what it computed.
//!
//! [`TuningReport`]: https://docs.rs/critter-autotune

use std::path::{Path, PathBuf};

use critter_core::json::Reader;
use critter_core::{CritterError, Result};
use critter_obs::{Event, EventKind};

/// An append-only session event log at a fixed path.
#[derive(Debug, Clone)]
pub struct SessionLog {
    path: PathBuf,
}

impl SessionLog {
    /// A log writing to `path` (created on first record).
    pub fn at(path: impl Into<PathBuf>) -> Self {
        SessionLog { path: path.into() }
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one lifecycle event (`start`/`dur` are 0: lifecycle events
    /// carry no virtual time).
    pub fn record(&self, kind: EventKind, label: &str, arg: f64) -> Result<()> {
        let event = Event { kind, label: label.into(), start: 0.0, dur: 0.0, arg };
        let mut line = serde_json::to_string(&event.to_json()).expect("json writer is total");
        line.push('\n');
        crate::durable::append(&self.path, line.as_bytes())
    }

    /// Read the log back as events (for tests and tooling).
    pub fn read(&self) -> Result<Vec<Event>> {
        let text =
            std::fs::read_to_string(&self.path).map_err(|e| CritterError::io(&self.path, e))?;
        let document = self.path.display().to_string();
        text.lines()
            .enumerate()
            .map(|(i, line)| {
                let v = serde_json::from_str(line)
                    .map_err(|e| CritterError::parse(&document, e.to_string()))?;
                Ok(Event::read(Reader::line(&document, i, &v))?)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_appends_and_reads_back() {
        let dir = std::env::temp_dir().join("critter-session-log-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("session.log");
        let _ = std::fs::remove_file(&path);
        let log = SessionLog::at(&path);
        log.record(EventKind::Checkpoint, "unit 3", 3.0).unwrap();
        log.record(EventKind::Restore, "resume", 3.0).unwrap();
        let events = log.read().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, EventKind::Checkpoint);
        assert_eq!(events[1].kind, EventKind::Restore);
        assert_eq!(events[1].arg, 3.0);
        std::fs::remove_file(&path).unwrap();
    }
}
