//! The observed-timeline sidecar of a checkpoint directory.
//!
//! An observed sweep's runs are by far the largest part of its state, and
//! they only ever grow at the end. They therefore live outside the
//! rewritten-whole `checkpoint.json`, in `timeline.jsonl`: one compact
//! canonical-JSON line per [`TimelineRun`], appended once when the run's
//! unit is checkpointed and never rewritten. The sealed head carries a
//! `timeline` reference `{bytes, hash, runs}` — [`Committed`] — saying how
//! much of the file it vouches for:
//!
//! * a checkpoint **appends** the new runs' lines and only then **publishes**
//!   the head that counts them (atomic rename);
//! * a kill between the two leaves bytes past `bytes` that no head ever
//!   vouched for — a whole line or a torn one. [`Committed::restore`] cuts
//!   them off, and the resumed sweep re-runs and re-appends those units;
//! * the bytes up to `bytes` must hash to `hash`. The head's own envelope
//!   hash covers the reference, so every byte a resume trusts is still
//!   covered by a content hash.
//!
//! The running FNV state rides along in [`Committed`], so a checkpoint
//! touches only the bytes it appends: the prefix is hashed once per session
//! (while it is written, or once on restore).

use std::hash::Hasher;
use std::path::Path;

use critter_core::fnv::FnvHasher;
use critter_core::json::Reader;
use critter_core::{CritterError, Result};
use critter_obs::TimelineRun;
use critter_session::durable;
use critter_session::envelope::HASH_MASK;
use serde_json::Value;

/// The committed prefix of `timeline.jsonl`: what the head's `timeline`
/// reference states, plus the hasher state to extend it from.
#[derive(Debug, Default)]
pub(crate) struct Committed {
    /// Length of the prefix in bytes.
    bytes: u64,
    /// Observed runs in it, one line each.
    runs: usize,
    /// FNV-1a over exactly those bytes.
    hasher: FnvHasher,
}

impl Committed {
    /// An empty sidecar at `path`, discarding whatever a previous session
    /// left there (no head vouches for it).
    pub(crate) fn start(path: &Path) -> Result<Self> {
        std::fs::write(path, b"").map_err(|e| CritterError::io(path, e))?;
        Ok(Committed::default())
    }

    /// Observed runs the sidecar holds.
    pub(crate) fn runs(&self) -> usize {
        self.runs
    }

    /// The head's `timeline` reference.
    pub(crate) fn to_json(&self) -> Value {
        serde_json::json!({
            "bytes": self.bytes,
            "hash": self.hasher.finish() & HASH_MASK,
            "runs": self.runs as u64,
        })
    }

    /// Render `runs` one line each, append them to the sidecar at `path` in
    /// one write, and count them as committed. The caller publishes the head
    /// that says so next.
    pub(crate) fn append(&mut self, path: &Path, runs: &[TimelineRun]) -> Result<()> {
        if runs.is_empty() {
            return Ok(());
        }
        let mut lines = Vec::new();
        for run in runs {
            serde_json::to_writer(&mut lines, &run.to_json()).expect("a Vec accepts every byte");
            lines.push(b'\n');
        }
        durable::append(path, &lines)?;
        self.hasher.write(&lines);
        self.bytes += lines.len() as u64;
        self.runs += runs.len();
        Ok(())
    }

    /// Read the sidecar at `path` back against the head's `timeline`
    /// reference at `head`: verify the committed prefix, decode its runs, and
    /// cut off any uncommitted tail. The file is read once.
    pub(crate) fn restore(head: Reader<'_, '_>, path: &Path) -> Result<(Self, Vec<TimelineRun>)> {
        let (bytes, runs) = (head.at("bytes").u64()?, head.at("runs").int::<usize>()?);
        let hash = head.at("hash").u64()?;
        let file = match std::fs::read(path) {
            Ok(file) => file,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(CritterError::io(path, e)),
        };
        let document = path.display().to_string();
        let damaged = |detail: String| CritterError::schema(document.as_str(), detail);
        let Some(prefix) = usize::try_from(bytes).ok().and_then(|n| file.get(..n)) else {
            return Err(damaged(format!(
                "holds {} bytes but the checkpoint committed {bytes} (truncated)",
                file.len()
            )));
        };
        let mut hasher = FnvHasher::default();
        hasher.write(prefix);
        if hasher.finish() & HASH_MASK != hash {
            return Err(damaged(format!(
                "the first {bytes} bytes do not hash to the checkpoint's `timeline.hash` \
                 (corrupt file)"
            )));
        }
        let lines: Vec<&[u8]> = prefix.split_inclusive(|&b| b == b'\n').collect();
        if lines.len() != runs {
            return Err(damaged(format!(
                "the committed prefix holds {} lines but the checkpoint committed {runs} runs",
                lines.len()
            )));
        }
        let decoded = lines
            .iter()
            .enumerate()
            .map(|(i, line)| {
                let parsed = std::str::from_utf8(line)
                    .map_err(|e| e.to_string())
                    .and_then(|text| serde_json::from_str(text).map_err(|e| e.to_string()));
                match parsed {
                    Ok(value) => TimelineRun::read(Reader::line(&document, i, &value)),
                    Err(e) => Err(Reader::line(&document, i, &Value::Null)
                        .error(format!("malformed line: {e}"))),
                }
            })
            .collect::<std::result::Result<Vec<_>, _>>()?;
        // Bytes past the prefix were appended by a checkpoint that died
        // before publishing its head.
        durable::cut(path, bytes)?;
        Ok((Committed { bytes, runs, hasher }, decoded))
    }
}
