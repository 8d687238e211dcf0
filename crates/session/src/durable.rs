//! The durable-write primitives: atomic on-disk persistence of documents,
//! and the append-only [`Log`].
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
use std::str::Utf8Error;
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

/// An append-only JSON-lines file — `session.log`, `timeline.jsonl`,
/// `events.jsonl` — and the one owner of their rule (DESIGN.md §6.2): a line
/// is committed once its newline is written and is UTF-8-checked on its
/// own; the owner keeps a prefix of the committed lines, and the rest is cut
/// before the next append. It holds a path and a length, not an open file.
#[derive(Debug)]
pub struct Log {
    path: PathBuf,
    len: u64,
}

/// What a log's file holds, as [`Log::open`] and [`Log::read`] show it.
#[derive(Debug, Clone, Copy)]
pub struct Found<'a> {
    bytes: &'a [u8],
    /// Up to and including the last newline.
    committed: usize,
}

impl<'a> Found<'a> {
    /// Every byte of the file, a torn tail included; none for a missing file.
    pub fn bytes(&self) -> &'a [u8] {
        self.bytes
    }

    /// The committed lines without their newlines; one that is not UTF-8
    /// is an `Err` of its own.
    pub fn lines(&self) -> impl Iterator<Item = std::result::Result<&'a str, Utf8Error>> + 'a {
        self.with_newlines().map(|line| std::str::from_utf8(&line[..line.len() - 1]))
    }

    fn with_newlines(&self) -> impl Iterator<Item = &'a [u8]> + 'a {
        self.bytes[..self.committed].split_inclusive(|&b| b == b'\n')
    }
}

impl Log {
    /// An empty log at `path`: the file is created, or emptied.
    pub fn create(path: impl Into<PathBuf>) -> Result<Log> {
        let path = path.into();
        fs::write(&path, b"").map_err(|e| CritterError::io(&path, e))?;
        Ok(Log { path, len: 0 })
    }

    /// Reopen the log at `path` (a missing file is empty until the first
    /// append), keeping the first `keep(found)` committed lines: the file is
    /// cut after them. An error from `keep` or the read cuts nothing.
    pub fn open(
        path: impl Into<PathBuf>,
        keep: impl FnOnce(Found<'_>) -> Result<usize>,
    ) -> Result<Log> {
        let path = path.into();
        let (len, found) = Log::read(&path, |found| {
            let kept = found.with_newlines().take(keep(found)?);
            Ok((kept.map(|line| line.len() as u64).sum(), found.bytes.len() as u64))
        })?;
        if found > len {
            let cut = fs::OpenOptions::new().write(true).open(&path).and_then(|f| f.set_len(len));
            cut.map_err(|e| CritterError::io(&path, e))?;
        }
        Ok(Log { path, len })
    }

    /// Show what the file at `path` holds to `read`, changing nothing.
    pub fn read<T>(path: &Path, read: impl FnOnce(Found<'_>) -> Result<T>) -> Result<T> {
        let bytes = match fs::read(path) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            read => read.map_err(|e| CritterError::io(path, e))?,
        };
        let committed = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |end| end + 1);
        read(Found { bytes: &bytes, committed })
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The committed length in bytes.
    pub fn committed(&self) -> u64 {
        self.len
    }

    /// Append `lines`, each ending in its newline, in one write and count
    /// them as committed; a failed append counts nothing.
    pub fn append(&mut self, lines: &[u8]) -> Result<()> {
        debug_assert!(lines.ends_with(b"\n"), "a log appends whole lines");
        let append =
            || fs::OpenOptions::new().create(true).append(true).open(&self.path)?.write_all(lines);
        append().map_err(|e| CritterError::io(&self.path, e))?;
        self.len += lines.len() as u64;
        Ok(())
    }
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
    fn a_log_creates_appends_and_reopens() {
        let path = scratch("appended.jsonl");
        let _ = fs::remove_file(&path);
        let mut log = Log::open(&path, |found| Ok(found.lines().count())).unwrap();
        assert!(!path.exists(), "opening a missing log creates nothing");
        log.append(b"one\n").unwrap();
        log.append(b"two\nthree\n").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "one\ntwo\nthree\n");
        assert_eq!(log.committed(), 14);
        let log = Log::create(&path).unwrap();
        assert_eq!((log.committed(), fs::read(&path).unwrap().len()), (0, 0));
        fs::remove_file(&path).unwrap();
        let err = Log::create(scratch("no-such-dir").join("x")).unwrap_err();
        assert!(matches!(err, CritterError::Io { .. }), "got: {err}");
    }

    #[test]
    fn lines_are_committed_by_their_newline_and_checked_one_by_one() {
        let path = scratch("torn.jsonl");
        fs::write(&path, b"one\r\n\xfftwo\nthree\nfou").unwrap();
        // A line keeps every byte but its newline; the torn tail is no line.
        let lines = Log::read(&path, |found| {
            assert_eq!(found.bytes().len(), 19);
            Ok(found.lines().map(|l| l.map(str::to_string).map_err(drop)).collect::<Vec<_>>())
        })
        .unwrap();
        assert_eq!(lines, [Ok("one\r".into()), Err(()), Ok("three".into())]);
        assert_eq!(fs::read(&path).unwrap().len(), 19, "a read changes nothing");
        // An owner that refuses the file leaves it as it was.
        let refused = Log::open(&path, |_| Err(CritterError::mismatch("no")));
        assert!(refused.is_err());
        assert_eq!(fs::read(&path).unwrap().len(), 19);
        // Keeping more lines than the file commits keeps them all.
        let log = Log::open(&path, |_| Ok(usize::MAX)).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"one\r\n\xfftwo\nthree\n");
        assert_eq!(log.committed(), 16);
        fs::remove_file(&path).unwrap();
    }

    /// Every way one byte can tear or damage a log of `K` lines: cut it at
    /// each offset, or flip each byte (into invalid UTF-8, or into a nearby
    /// character: a newline, a digit). Under two keep rules — every committed
    /// line, and the longest prefix numbered `1, 2, …` — open keeps exactly
    /// the expected prefix and cuts the file to it, the next append starts a
    /// line of its own, and a reopen reads the prefix plus that line.
    #[test]
    fn open_keeps_the_accepted_prefix_of_every_torn_or_damaged_log() {
        const K: usize = 5;
        let path = scratch("property.jsonl");
        let original: String = (1..=K).map(|i| format!("line {i}\n")).collect();
        let numbered = |found: Found<'_>| -> Result<usize> {
            let expected = (1..).map(|i| format!("line {i}"));
            Ok(found.lines().zip(expected).take_while(|(line, want)| *line == Ok(want)).count())
        };
        let everything = |found: Found<'_>| -> Result<usize> { Ok(found.lines().count()) };
        let mut damaged: Vec<Vec<u8>> =
            (0..=original.len()).map(|cut| original.as_bytes()[..cut].to_vec()).collect();
        for at in 0..original.len() {
            for mask in [0x80, 0x01] {
                let mut bytes = original.clone().into_bytes();
                bytes[at] ^= mask;
                damaged.push(bytes);
            }
        }
        for bytes in &damaged {
            // The reference: committed lines end at the last newline; the
            // numbered rule stops at the first line that differs from the
            // original.
            let committed = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |end| end + 1);
            let same = original.as_bytes().iter().zip(bytes).take_while(|(a, b)| a == b).count();
            let whole = original.as_bytes()[..same.min(committed)].iter();
            let numbered_len = whole.clone().rposition(|&b| b == b'\n').map_or(0, |end| end + 1);
            for (rule, kept) in [
                (&numbered as &dyn Fn(Found<'_>) -> Result<usize>, numbered_len),
                (&everything, committed),
            ] {
                fs::write(&path, bytes).unwrap();
                let mut log = Log::open(&path, rule).unwrap();
                let prefix = &bytes[..kept];
                assert_eq!(fs::read(&path).unwrap(), prefix, "damaged {bytes:?}");
                assert_eq!(log.committed(), kept as u64);
                log.append(b"line new\n").unwrap();
                let reopened = Log::read(&path, |found| {
                    assert_eq!(found.bytes(), [prefix, b"line new\n"].concat());
                    Ok(found.lines().last().and_then(|line| line.ok()).map(str::to_string))
                });
                assert_eq!(reopened.unwrap().as_deref(), Some("line new"), "damaged {bytes:?}");
            }
        }
        fs::remove_file(&path).unwrap();
    }
}
