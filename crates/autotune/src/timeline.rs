//! The observed-timeline sidecar of a checkpoint directory, `timeline.jsonl`:
//! one compact canonical-JSON line per [`TimelineRun`], rendered straight to
//! text ([`TimelineRun::write_line`]; [`TimelineRun::to_json`] is the
//! reference it is tested against) and appended once, when its unit is
//! checkpointed. The sealed head counts the committed prefix as
//! `{bytes, hash, runs}` — [`Committed`] — and a checkpoint appends before it
//! publishes that head. DESIGN.md §6.2 ("Checkpoint layout") states the
//! protocol and its crash windows; the running FNV state rides along, so a
//! checkpoint hashes only the bytes it appends.

use std::hash::Hasher;
use std::path::Path;

use critter_core::fnv::FnvHasher;
use critter_core::json::{JsonError, Reader};
use critter_core::{CritterError, Result};
use critter_obs::TimelineRun;
use critter_session::durable::Log;
use critter_session::envelope::HASH_MASK;
use serde_json::{Tape, Value};

/// The committed prefix of `timeline.jsonl`: what the head's `timeline`
/// reference states, plus the hasher state to extend it from.
#[derive(Debug)]
pub(crate) struct Committed {
    /// The sidecar; its committed length is the prefix's length in bytes.
    log: Log,
    /// Observed runs in it, one line each.
    runs: usize,
    /// FNV-1a over exactly those bytes.
    hasher: FnvHasher,
}

impl Committed {
    /// An empty sidecar at `path`, discarding whatever a previous session
    /// left there (no head vouches for it).
    pub(crate) fn start(path: &Path) -> Result<Self> {
        Ok(Committed { log: Log::create(path)?, runs: 0, hasher: FnvHasher::default() })
    }

    /// Observed runs the sidecar holds.
    pub(crate) fn runs(&self) -> usize {
        self.runs
    }

    /// The head's `timeline` reference.
    pub(crate) fn to_json(&self) -> Value {
        serde_json::json!({
            "bytes": self.log.committed(),
            "hash": self.hasher.finish() & HASH_MASK,
            "runs": self.runs as u64,
        })
    }

    /// Render `runs` one line each, append them to the sidecar in one write,
    /// and count them as committed. The caller publishes the head that says
    /// so next.
    pub(crate) fn append(&mut self, runs: &[TimelineRun]) -> Result<()> {
        if runs.is_empty() {
            return Ok(());
        }
        let mut lines = String::new();
        for run in runs {
            run.write_line(&mut lines);
            lines.push('\n');
        }
        self.log.append(lines.as_bytes())?;
        self.hasher.write(lines.as_bytes());
        self.runs += runs.len();
        Ok(())
    }

    /// Read the sidecar at `path` back against the head's `timeline`
    /// reference at `head`: verify the committed prefix, decode its runs, and
    /// cut off any uncommitted tail. The file is read once.
    pub(crate) fn restore(head: Reader<'_, '_>, path: &Path) -> Result<(Self, Vec<TimelineRun>)> {
        let (bytes, runs) = (head.at("bytes").u64()?, head.at("runs").int::<usize>()?);
        let hash = head.at("hash").u64()?;
        let document = path.display().to_string();
        let damaged = |detail: String| CritterError::schema(document.as_str(), detail);
        let mut hasher = FnvHasher::default();
        let mut decoded = Vec::new();
        let log = Log::open(path, |file| {
            let Some(prefix) = usize::try_from(bytes).ok().and_then(|n| file.bytes().get(..n))
            else {
                return Err(damaged(format!(
                    "holds {} bytes but the checkpoint committed {bytes} (truncated)",
                    file.bytes().len()
                )));
            };
            hasher.write(prefix);
            if hasher.finish() & HASH_MASK != hash {
                return Err(damaged(format!(
                    "the first {bytes} bytes do not hash to the checkpoint's `timeline.hash` \
                     (corrupt file)"
                )));
            }
            if !prefix.is_empty() && !prefix.ends_with(b"\n") {
                return Err(damaged("the committed prefix ends inside a line".into()));
            }
            let held = prefix.iter().filter(|&&b| b == b'\n').count();
            if held != runs {
                return Err(damaged(format!(
                    "the committed prefix holds {held} lines but the checkpoint committed \
                     {runs} runs"
                )));
            }
            for (i, line) in file.lines().take(runs).enumerate() {
                let parsed = line
                    .map_err(|e| e.to_string())
                    .and_then(|text| Tape::parse(text).map_err(|e| e.to_string()));
                let run = match parsed {
                    Ok(tape) => TimelineRun::read(Reader::line(&document, i, tape.root())),
                    Err(e) => Err(JsonError::line(&document, i, format!("malformed line: {e}"))),
                };
                decoded.push(run?);
            }
            // Bytes past the prefix were appended by a checkpoint that died
            // before publishing its head: the log cuts them.
            Ok(runs)
        })?;
        Ok((Committed { log, runs, hasher }, decoded))
    }
}
