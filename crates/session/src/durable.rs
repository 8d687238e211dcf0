//! The durable-write primitives: atomic on-disk persistence of documents,
//! and the append of the append-only files.
//!
//! Checkpoints are overwritten in place many times per sweep; a kill in
//! the middle of a write must never leave a half-written file where the
//! resume path expects a valid one. Every write therefore goes to a
//! sibling temp file first and is published with an atomic `rename`. The
//! temp name is unique per write (pid + process-wide counter), so two
//! writers of one path never share — and truncate — each other's temp file.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use critter_core::{CritterError, Result};

/// Distinguishes the temp files of concurrent writers within one process;
/// the pid distinguishes processes.
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A sibling of `path` no other write (in this or any live process) uses.
fn unique_sibling(path: &Path) -> PathBuf {
    let n = TMP_COUNTER.fetch_add(1, Ordering::Relaxed);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".{}-{n}.tmp", std::process::id()));
    PathBuf::from(tmp)
}

/// Write `bytes` to a staging path the caller already made unique and will
/// publish itself (`rename`/`hard_link`): one plain write, no second temp
/// file. The staging file is removed when the write fails.
pub fn stage(staging: &Path, bytes: &[u8]) -> Result<()> {
    fs::write(staging, bytes).map_err(|e| {
        let _ = fs::remove_file(staging);
        CritterError::io(staging, e)
    })
}

/// Write `bytes` to `path` atomically (unique sibling temp file + rename).
/// Concurrent writers of one path each publish a complete file; the last
/// rename wins.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<()> {
    let tmp = unique_sibling(path);
    stage(&tmp, bytes)?;
    fs::rename(&tmp, path).map_err(|e| {
        let _ = fs::remove_file(&tmp);
        CritterError::io(path, e)
    })
}

/// Append `bytes` to the end of `path` (created when missing) — the
/// primitive of the append-only files `session.log`, `timeline.jsonl` and
/// `events.jsonl`. An append is not atomic: a kill may leave a torn tail.
/// The tail rule of all three: a line is committed once its newline is
/// written ([`read_lines`]), and a writer that reopens a file [`cut`]s what
/// it does not keep before it appends again.
pub fn append(path: &Path, bytes: &[u8]) -> Result<()> {
    let mut file = fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| CritterError::io(path, e))?;
    file.write_all(bytes).map_err(|e| CritterError::io(path, e))
}

/// The committed lines of the append-only file at `path`, without their
/// newlines. Bytes after the last newline are a torn tail and are left
/// out; a missing file has no lines.
pub fn read_lines(path: &Path) -> Result<Vec<String>> {
    let bytes = match fs::read(path) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        read => read.map_err(|e| CritterError::io(path, e))?,
    };
    let whole = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |end| end + 1);
    let text = std::str::from_utf8(&bytes[..whole])
        .map_err(|e| CritterError::parse(path.display().to_string(), e.to_string()))?;
    Ok(text.split_terminator('\n').map(str::to_string).collect())
}

/// Cut the file at `path` to its first `len` bytes when it is longer: how a
/// writer that reopens an append-only file drops a torn or uncommitted tail
/// before it appends. A missing file stays missing.
pub fn cut(path: &Path, len: u64) -> Result<()> {
    let shrink = || match fs::metadata(path) {
        Ok(meta) if meta.len() > len => fs::OpenOptions::new().write(true).open(path)?.set_len(len),
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    };
    shrink().map_err(|e| CritterError::io(path, e))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("critter-session-durable-tests");
        fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn write_read_round_trip() {
        let path = scratch("roundtrip.json");
        write_atomic(&path, b"{\"a\": 0.1}\n").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"{\"a\": 0.1}\n");
        // Overwrite goes through the same atomic path.
        write_atomic(&path, b"{}\n").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"{}\n");
        fs::remove_file(&path).unwrap();
    }

    /// Regression: the temp file used to be the fixed sibling `<path>.tmp`,
    /// so a second writer of the same path truncated the file the first was
    /// about to rename — publishing a torn document and failing the loser's
    /// rename with `NotFound`.
    #[test]
    fn concurrent_writers_of_one_path_never_publish_a_torn_file() {
        let path = scratch("contended.json");
        let docs: Vec<Vec<u8>> =
            (0..4u8).map(|w| [vec![b'{'], vec![b'0' + w; 100_000], vec![b'}']].concat()).collect();
        write_atomic(&path, &docs[0]).unwrap();
        let start = std::sync::Barrier::new(docs.len() + 1);
        std::thread::scope(|s| {
            for doc in &docs {
                s.spawn(|| {
                    start.wait();
                    for _ in 0..50 {
                        write_atomic(&path, doc).expect("every writer publishes");
                    }
                });
            }
            start.wait();
            for _ in 0..200 {
                let seen = fs::read(&path).expect("the path always holds a file");
                assert!(docs.contains(&seen), "published file matches no writer's document");
            }
        });
        // No temp file outlives its write.
        let strays: Vec<_> = fs::read_dir(path.parent().unwrap())
            .unwrap()
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .filter(|n| n.starts_with("contended.json."))
            .collect();
        assert!(strays.is_empty(), "stray temp files: {strays:?}");
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_failed_write_leaves_no_temp_file_behind() {
        let dir = scratch("no-such-dir");
        let _ = fs::remove_dir_all(&dir);
        let err = write_atomic(&dir.join("doc.json"), b"{}").unwrap_err();
        assert!(matches!(err, CritterError::Io { .. }), "got: {err}");
        assert!(!dir.exists());
        // The staging form cleans up after itself too.
        assert!(stage(&dir.join("stage.json"), b"{}").is_err());
    }

    #[test]
    fn append_creates_then_extends() {
        let path = scratch("appended.jsonl");
        let _ = fs::remove_file(&path);
        append(&path, b"one\n").unwrap();
        append(&path, b"two\n").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "one\ntwo\n");
        fs::remove_file(&path).unwrap();
        let err = append(&scratch("no-such-dir").join("x"), b"x").unwrap_err();
        assert!(matches!(err, CritterError::Io { .. }), "got: {err}");
    }

    #[test]
    fn lines_are_committed_by_their_newline_and_cut_drops_the_rest() {
        let path = scratch("torn.jsonl");
        let _ = fs::remove_file(&path);
        assert!(read_lines(&path).unwrap().is_empty(), "a missing file has no lines");
        cut(&path, 0).unwrap();
        assert!(!path.exists(), "cutting a missing file creates nothing");
        fs::write(&path, "one\r\ntwo\nthr").unwrap();
        // A line keeps every byte but its newline, so lengths add up to
        // the committed prefix.
        let lines = read_lines(&path).unwrap();
        assert_eq!(lines, ["one\r", "two"]);
        cut(&path, lines.iter().map(|l| l.len() as u64 + 1).sum()).unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "one\r\ntwo\n");
        cut(&path, 100).unwrap();
        assert_eq!(fs::metadata(&path).unwrap().len(), 9, "cut never extends a file");
        fs::remove_file(&path).unwrap();
    }
}
