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

use std::path::PathBuf;
use std::sync::{Mutex, PoisonError};

use critter_core::json::Reader;
use critter_core::{CritterError, Result};
use critter_obs::{Event, EventKind};
use serde_json::Tape;

use crate::durable::Log;

/// An append-only session event log at a fixed path.
#[derive(Debug)]
pub struct SessionLog {
    /// Locked so that [`SessionLog::record`] takes `&self`: the sweep engine
    /// records from several of its closures.
    log: Mutex<Log>,
}

impl SessionLog {
    /// Open the log at `path` (created on first record) for appending. It
    /// keeps every committed line; a torn tail left by a killed writer is
    /// cut, so the next record starts a line of its own.
    pub fn open(path: impl Into<PathBuf>) -> Result<Self> {
        let log = Log::open(path, |found| Ok(found.lines().count()))?;
        Ok(SessionLog { log: Mutex::new(log) })
    }

    /// Append one lifecycle event (`start`/`dur` are 0: lifecycle events
    /// carry no virtual time).
    pub fn record(&self, kind: EventKind, label: &str, arg: f64) -> Result<()> {
        let event = Event { kind, label: label.into(), start: 0.0, dur: 0.0, arg };
        let mut line = serde_json::to_string(&event.to_json()).expect("json writer is total");
        line.push('\n');
        self.log.lock().unwrap_or_else(PoisonError::into_inner).append(line.as_bytes())
    }

    /// Read the log's committed lines back as events (for tests and
    /// tooling). A damaged whole line is an error naming the file.
    pub fn read(&self) -> Result<Vec<Event>> {
        let log = self.log.lock().unwrap_or_else(PoisonError::into_inner);
        let document = log.path().display().to_string();
        let parse = |e: String| CritterError::parse(&document, e);
        Log::read(log.path(), |found| {
            let lines = found.lines().enumerate();
            lines
                .map(|(i, line)| {
                    let line = line.map_err(|e| parse(e.to_string()))?;
                    let tape = Tape::parse(line).map_err(|e| parse(e.to_string()))?;
                    Ok(Event::read(Reader::line(&document, i, tape.root()))?)
                })
                .collect()
        })
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
        let log = SessionLog::open(&path).unwrap();
        log.record(EventKind::Checkpoint, "unit 3", 3.0).unwrap();
        log.record(EventKind::Restore, "resume", 3.0).unwrap();
        let events = log.read().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, EventKind::Checkpoint);
        assert_eq!(events[1].kind, EventKind::Restore);
        assert_eq!(events[1].arg, 3.0);
        std::fs::remove_file(&path).unwrap();
    }

    /// Regression: a resumed session used to append onto the torn tail a
    /// killed writer left, and every later read failed with `Parse`.
    #[test]
    fn a_reopened_log_cuts_a_torn_tail() {
        let dir = std::env::temp_dir().join("critter-session-log-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn-session.log");
        let _ = std::fs::remove_file(&path);
        SessionLog::open(&path).unwrap().record(EventKind::Checkpoint, "unit 1", 1.0).unwrap();
        let mut torn = std::fs::read(&path).unwrap();
        torn.extend_from_slice(b"{\"kind\": \"chec");
        std::fs::write(&path, torn).unwrap();
        let log = SessionLog::open(&path).unwrap();
        log.record(EventKind::Restore, "resume", 1.0).unwrap();
        let kinds: Vec<EventKind> = log.read().unwrap().iter().map(|e| e.kind).collect();
        assert_eq!(kinds, [EventKind::Checkpoint, EventKind::Restore]);
        std::fs::remove_file(&path).unwrap();
    }
}
