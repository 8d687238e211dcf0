//! The store itself: content-addressed blobs, generation-numbered index
//! files, and the lock-free atomic commit protocol.
//!
//! # On-disk layout
//!
//! ```text
//! <root>/
//!   blobs/<13-hex-digit content hash>.json   immutable sealed profile blobs
//!   index/gen-<20-digit generation>.json     immutable sealed index generations
//!   tmp/                                     staging area (strays are garbage)
//! ```
//!
//! # Commit protocol
//!
//! 1. **Stage** the blob: write it fully under `tmp/`, then `rename`
//!    it to its content-addressed name under `blobs/`. Blobs are
//!    immutable and named by their hash, so two writers staging the same
//!    content race harmlessly.
//! 2. **Commit** the index under optimistic concurrency control: re-list
//!    `index/`, take the highest *valid* generation `N` as the base,
//!    append the staged entry with the next sequence number, write the
//!    new index fully under `tmp/`, and publish it with
//!    `hard_link(tmp, index/gen-(N+1))`. `hard_link` fails atomically
//!    with `AlreadyExists` when another writer claimed the number first —
//!    the loser re-lists and retries on top of the winner. No lock is
//!    ever held across I/O.
//!
//! A `kill -9` at any point leaves only stray `tmp/` files and staged
//! blobs no index references; every published generation is complete by
//! construction, so recovery is pure re-listing (take the highest valid
//! generation) — the same crash-only discipline as the serve job
//! registry.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use critter_core::{snapshot, CritterError, KernelStore, Result};
use critter_session::{durable, envelope};

use crate::index::{Index, StoreEntry, INDEX_KIND};
use crate::machine::MachineSpec;

/// Envelope kind of a profile blob. The payload is exactly the
/// `snapshot::stores_to_json` document a profile file carries, so a blob
/// and a profile file holding the same stores have byte-identical
/// payloads — the basis of the store-vs-file warm-start byte-identity
/// guarantee.
pub const BLOB_KIND: &str = "store-blob";

/// Hard cap on commit retries; optimistic retry loses a race only to a
/// writer that made progress, so hitting this means the filesystem is
/// misbehaving (e.g. `hard_link` reporting `AlreadyExists` spuriously).
const MAX_COMMIT_RETRIES: u64 = 10_000;

/// A directory listing split into files whose names parse to a number
/// (generation or content hash, with their paths) and foreign strays.
type Listing = (Vec<(u64, PathBuf)>, Vec<PathBuf>);

/// Process-global staging counter; combined with the pid it makes every
/// temp file name unique across the threads and processes sharing a store.
static STAGE_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Store census: the numbers `/v1/healthz` and `critter-store ls` report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Census {
    /// Latest complete generation (0 when the store is empty).
    pub generation: u64,
    /// Entries in that generation.
    pub entries: u64,
    /// Blob files on disk (referenced or staged).
    pub blobs: u64,
}

/// What `verify` (fsck) found.
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// Index generations checked.
    pub generations: u64,
    /// Index entries whose blob reference was resolved.
    pub entries: u64,
    /// Blob files whose content hash was re-checked.
    pub blobs: u64,
    /// Blob files no surviving generation references (staged-but-never-
    /// committed work; legal, reclaimed by `gc`).
    pub unreferenced: u64,
    /// Stray files in `tmp/` (garbage from killed writers; legal).
    pub tmp_strays: u64,
    /// Everything that is actually wrong: unreadable or corrupt index
    /// generations, dangling blob references, blobs whose content does not
    /// match their name, foreign files.
    pub problems: Vec<String>,
}

impl VerifyReport {
    /// True when the store is fsck-clean.
    pub fn ok(&self) -> bool {
        self.problems.is_empty()
    }
}

/// What `gc` removed.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GcReport {
    /// Generations kept (the newest ones).
    pub kept_generations: u64,
    /// Index files removed (older generations plus corrupt strays).
    pub removed_generations: u64,
    /// Unreferenced blob files removed.
    pub removed_blobs: u64,
    /// Staging strays removed from `tmp/`.
    pub removed_tmp: u64,
}

/// An open store directory. Cheap to clone-by-reopen; all state lives on
/// disk, so any number of `Store` handles (across threads, processes, or
/// machines sharing a filesystem) cooperate through the commit protocol.
#[derive(Debug, Clone)]
pub struct Store {
    root: PathBuf,
}

impl Store {
    /// Open (creating if needed) the store rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Store> {
        let root = dir.into();
        for sub in ["blobs", "index", "tmp"] {
            let p = root.join(sub);
            fs::create_dir_all(&p).map_err(|e| CritterError::io(&p, e))?;
        }
        Ok(Store { root })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn blobs_dir(&self) -> PathBuf {
        self.root.join("blobs")
    }

    fn index_dir(&self) -> PathBuf {
        self.root.join("index")
    }

    fn tmp_path(&self) -> PathBuf {
        let n = STAGE_COUNTER.fetch_add(1, Ordering::Relaxed);
        self.root.join("tmp").join(format!("stage-{}-{n}.json", std::process::id()))
    }

    fn blob_path(&self, hash: u64) -> PathBuf {
        self.blobs_dir().join(format!("{hash:013x}.json"))
    }

    /// Stage a profile blob: write the sealed envelope under `tmp/`, then
    /// `rename` it to its content-addressed name. Idempotent — staging
    /// content that is already present is a no-op returning the same hash.
    /// The blob's name is the 52-bit [`envelope::text_hash`] of its payload.
    pub fn stage(&self, stores: &[KernelStore]) -> Result<u64> {
        let payload = envelope::payload_text(&snapshot::stores_to_json(stores));
        let hash = envelope::text_hash([payload.as_str()]);
        let dst = self.blob_path(hash);
        if dst.is_file() {
            return Ok(hash); // content-addressed: same name ⇒ same bytes
        }
        let tmp = self.tmp_path();
        durable::stage(&tmp, envelope::seal_text(BLOB_KIND, hash, &payload).as_bytes())?;
        fs::rename(&tmp, &dst).map_err(|e| CritterError::io(&dst, e))?;
        Ok(hash)
    }

    /// Load a blob's kernel stores back by content hash, verifying the
    /// envelope and the name binding on the way.
    pub fn load_blob(&self, hash: u64) -> Result<Vec<KernelStore>> {
        envelope::load(&self.blob_path(hash), BLOB_KIND, Some(hash), snapshot::stores_from_json)
    }

    /// List `(generation, path)` for every parseable index file name,
    /// sorted descending by generation. Unparseable names are returned
    /// separately for `verify`/`gc`.
    fn list_index(&self) -> Result<Listing> {
        let dir = self.index_dir();
        let mut gens = Vec::new();
        let mut foreign = Vec::new();
        let rd = fs::read_dir(&dir).map_err(|e| CritterError::io(&dir, e))?;
        for entry in rd {
            let entry = entry.map_err(|e| CritterError::io(&dir, e))?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let parsed = name
                .strip_prefix("gen-")
                .and_then(|s| s.strip_suffix(".json"))
                .and_then(|s| s.parse::<u64>().ok());
            match parsed {
                Some(g) => gens.push((g, path)),
                None => foreign.push(path),
            }
        }
        gens.sort_by_key(|g| std::cmp::Reverse(g.0));
        Ok((gens, foreign))
    }

    /// Read one index generation, validating the envelope against the
    /// generation number its file name claims.
    fn read_index(&self, generation: u64, path: &Path) -> Result<Index> {
        envelope::load(path, INDEX_KIND, Some(generation), |payload| {
            Index::from_json(payload, generation)
        })
    }

    /// The latest complete generation, or `None` for an empty store.
    /// Invalid or torn index files (which the commit protocol never
    /// produces, but a hostile editor might) are skipped, not fatal.
    pub fn latest(&self) -> Result<Option<Index>> {
        let (gens, _) = self.list_index()?;
        for (g, path) in &gens {
            if let Ok(idx) = self.read_index(*g, path) {
                return Ok(Some(idx));
            }
        }
        Ok(None)
    }

    /// Stage one profile and commit it: the whole publication path a
    /// session runs at sweep end. Returns the generation published.
    pub fn publish(
        &self,
        machine: &MachineSpec,
        algo: &str,
        stores: &[KernelStore],
    ) -> Result<u64> {
        let blob = self.stage(stores)?;
        let (machine_fp, ranks) = (machine.fingerprint(), stores.len() as u64);
        for _ in 0..MAX_COMMIT_RETRIES {
            let (gens, _) = self.list_index()?;
            // Base = highest valid generation; next number = one past the
            // highest *listed* number, so a corrupt file squatting on
            // gen-N+1 cannot wedge the CAS loop.
            let max_listed = gens.first().map(|&(g, _)| g).unwrap_or(0);
            let base = gens.iter().find_map(|(g, p)| self.read_index(*g, p).ok());
            let (base_gen, mut entries) = match base {
                Some(idx) => (idx.generation, idx.entries),
                None => (0, Vec::new()),
            };
            let seq = entries.iter().map(|e| e.seq).max().unwrap_or(0) + 1;
            let (machine, algo) = (machine.clone(), algo.to_string());
            entries.push(StoreEntry { machine, machine_fp, algo, ranks, blob, seq });
            let next = max_listed.max(base_gen) + 1;
            let text =
                envelope::seal(INDEX_KIND, next, &Index { generation: next, entries }.to_json());
            let tmp = self.tmp_path();
            durable::stage(&tmp, text.as_bytes())?;
            let dst = self.index_dir().join(format!("gen-{next:020}.json"));
            let linked = fs::hard_link(&tmp, &dst);
            let _ = fs::remove_file(&tmp);
            match linked {
                Ok(()) => return Ok(next),
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
                Err(e) => return Err(CritterError::io(&dst, e)),
            }
        }
        Err(CritterError::mismatch(format!(
            "store commit at {} lost {MAX_COMMIT_RETRIES} races in a row; \
             the filesystem is not honoring atomic hard_link semantics",
            self.root.display()
        )))
    }

    /// List `(hash, path)` for every parseable blob file name; foreign
    /// names separately.
    fn list_blobs(&self) -> Result<Listing> {
        let dir = self.blobs_dir();
        let mut blobs = Vec::new();
        let mut foreign = Vec::new();
        let rd = fs::read_dir(&dir).map_err(|e| CritterError::io(&dir, e))?;
        for entry in rd {
            let entry = entry.map_err(|e| CritterError::io(&dir, e))?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let parsed = name.strip_suffix(".json").and_then(|s| u64::from_str_radix(s, 16).ok());
            match parsed {
                Some(h) => blobs.push((h, path)),
                None => foreign.push(path),
            }
        }
        blobs.sort_by_key(|&(h, _)| h);
        Ok((blobs, foreign))
    }

    /// Quick census for health endpoints: latest generation, its entry
    /// count, and the number of blob files on disk.
    pub fn census(&self) -> Result<Census> {
        let latest = self.latest()?;
        let (blobs, _) = self.list_blobs()?;
        Ok(Census {
            generation: latest.as_ref().map(|i| i.generation).unwrap_or(0),
            entries: latest.map(|i| i.entries.len() as u64).unwrap_or(0),
            blobs: blobs.len() as u64,
        })
    }

    /// Full fsck: every index generation must open cleanly, every entry's
    /// blob reference must resolve, and every blob's content must re-hash
    /// to its file name. Unreferenced blobs and `tmp/` strays are counted
    /// but legal (they are exactly what killed writers leave behind).
    pub fn verify(&self) -> Result<VerifyReport> {
        let mut report = VerifyReport::default();
        let (gens, foreign_idx) = self.list_index()?;
        for path in &foreign_idx {
            report.problems.push(format!("foreign file in index dir: {}", path.display()));
        }
        let (blobs, foreign_blobs) = self.list_blobs()?;
        for path in &foreign_blobs {
            report.problems.push(format!("foreign file in blobs dir: {}", path.display()));
        }
        let present: std::collections::BTreeSet<u64> = blobs.iter().map(|&(h, _)| h).collect();
        let mut referenced = std::collections::BTreeSet::new();
        for (g, path) in &gens {
            match self.read_index(*g, path) {
                Ok(idx) => {
                    report.generations += 1;
                    for e in &idx.entries {
                        if present.contains(&e.blob) {
                            report.entries += 1;
                        } else {
                            report.problems.push(format!(
                                "generation {g} entry seq {} references missing blob {:013x}",
                                e.seq, e.blob
                            ));
                        }
                        referenced.insert(e.blob);
                    }
                }
                Err(e) => report.problems.push(format!("generation {g}: {e}")),
            }
        }
        for (hash, path) in &blobs {
            let rehashed = envelope::load(path, BLOB_KIND, Some(*hash), |payload| {
                Ok(envelope::text_hash([payload.text()]))
            });
            match rehashed {
                Ok(rehashed) => {
                    report.blobs += 1;
                    if rehashed != *hash {
                        report.problems.push(format!(
                            "blob {hash:013x}: payload re-hashes to {rehashed:013x}"
                        ));
                    }
                }
                Err(e) => report.problems.push(format!("blob {hash:013x}: {e}")),
            }
            if !referenced.contains(hash) {
                report.unreferenced += 1;
            }
        }
        let tmp = self.root.join("tmp");
        let rd = fs::read_dir(&tmp).map_err(|e| CritterError::io(&tmp, e))?;
        report.tmp_strays = rd.count() as u64;
        Ok(report)
    }

    /// Garbage-collect: keep the newest `keep` valid generations (at
    /// least one), drop older and corrupt index files, drop blobs no kept
    /// generation references, and clear `tmp/`.
    ///
    /// `gc` assumes quiescence — a writer staging a blob concurrently
    /// could see it reclaimed before its commit lands. Run it from the
    /// CLI during maintenance, not alongside live publishers.
    pub fn gc(&self, keep: u64) -> Result<GcReport> {
        let keep = keep.max(1);
        let mut report = GcReport::default();
        let (gens, foreign_idx) = self.list_index()?;
        let mut kept: Vec<Index> = Vec::new();
        for (g, path) in &gens {
            let idx =
                if (kept.len() as u64) < keep { self.read_index(*g, path).ok() } else { None };
            match idx {
                Some(idx) => {
                    kept.push(idx);
                    report.kept_generations += 1;
                }
                None => {
                    fs::remove_file(path).map_err(|e| CritterError::io(path, e))?;
                    report.removed_generations += 1;
                }
            }
        }
        for path in &foreign_idx {
            fs::remove_file(path).map_err(|e| CritterError::io(path, e))?;
            report.removed_generations += 1;
        }
        let referenced: std::collections::BTreeSet<u64> =
            kept.iter().flat_map(|i| i.entries.iter().map(|e| e.blob)).collect();
        let (blobs, foreign_blobs) = self.list_blobs()?;
        for (hash, path) in &blobs {
            if !referenced.contains(hash) {
                fs::remove_file(path).map_err(|e| CritterError::io(path, e))?;
                report.removed_blobs += 1;
            }
        }
        for path in &foreign_blobs {
            fs::remove_file(path).map_err(|e| CritterError::io(path, e))?;
            report.removed_blobs += 1;
        }
        let tmp = self.root.join("tmp");
        let rd = fs::read_dir(&tmp).map_err(|e| CritterError::io(&tmp, e))?;
        for entry in rd {
            let entry = entry.map_err(|e| CritterError::io(&tmp, e))?;
            fs::remove_file(entry.path()).map_err(|e| CritterError::io(entry.path(), e))?;
            report.removed_tmp += 1;
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use critter_core::signature::{ComputeOp, KernelSig};
    use critter_machine::{MachineParams, NoiseParams};

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("critter-store-tests")
            .join(format!("{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn machine() -> MachineSpec {
        MachineSpec::from_models(&MachineParams::test_machine(), &NoiseParams::cluster())
    }

    fn stores(ranks: usize, base: f64) -> Vec<KernelStore> {
        (0..ranks)
            .map(|r| {
                let mut s = KernelStore::new();
                let sig = KernelSig::compute(ComputeOp::Gemm, 8, 8, 8);
                for i in 0..4 {
                    s.record(&sig, base * (r + 1) as f64 + i as f64 * 1e-3);
                }
                s
            })
            .collect()
    }

    #[test]
    fn publish_and_read_back() {
        let dir = scratch("publish");
        let store = Store::open(&dir).unwrap();
        assert!(store.latest().unwrap().is_none());
        let g1 = store.publish(&machine(), "a;b", &stores(2, 0.1)).unwrap();
        assert_eq!(g1, 1);
        let g2 = store.publish(&machine(), "a;b", &stores(2, 0.2)).unwrap();
        assert_eq!(g2, 2);
        let idx = store.latest().unwrap().unwrap();
        assert_eq!(idx.generation, 2);
        assert_eq!(idx.entries.len(), 2);
        assert_eq!(idx.entries[0].seq, 1);
        assert_eq!(idx.entries[1].seq, 2);
        let back = store.load_blob(idx.entries[0].blob).unwrap();
        assert_eq!(
            serde_json::to_string(&snapshot::stores_to_json(&back)).unwrap(),
            serde_json::to_string(&snapshot::stores_to_json(&stores(2, 0.1))).unwrap()
        );
        assert!(store.verify().unwrap().ok());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn staging_is_idempotent_and_census_counts() {
        let dir = scratch("idempotent");
        let store = Store::open(&dir).unwrap();
        let h1 = store.stage(&stores(2, 0.1)).unwrap();
        let h2 = store.stage(&stores(2, 0.1)).unwrap();
        assert_eq!(h1, h2);
        let census = store.census().unwrap();
        assert_eq!(census, Census { generation: 0, entries: 0, blobs: 1 });
        // Staged-but-uncommitted work is fsck-legal, just unreferenced.
        let report = store.verify().unwrap();
        assert!(report.ok(), "problems: {:?}", report.problems);
        assert_eq!(report.unreferenced, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn commit_survives_a_squatting_corrupt_generation() {
        let dir = scratch("squatter");
        let store = Store::open(&dir).unwrap();
        store.publish(&machine(), "a", &stores(1, 0.1)).unwrap();
        // A hand-corrupted file on the next generation number must not
        // wedge the CAS loop: the commit skips past it.
        fs::write(dir.join("index").join(format!("gen-{:020}.json", 2)), "{torn").unwrap();
        let g = store.publish(&machine(), "a", &stores(1, 0.2)).unwrap();
        assert_eq!(g, 3);
        let idx = store.latest().unwrap().unwrap();
        assert_eq!(idx.generation, 3);
        assert_eq!(idx.entries.len(), 2, "no lost update");
        let report = store.verify().unwrap();
        assert!(!report.ok(), "the corrupt squatter is a finding");
        // gc reclaims the corrupt file and old generations.
        let gc = store.gc(1).unwrap();
        assert_eq!(gc.kept_generations, 1);
        assert!(gc.removed_generations >= 2);
        assert!(store.verify().unwrap().ok());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gc_drops_unreferenced_blobs_and_tmp_strays() {
        let dir = scratch("gc");
        let store = Store::open(&dir).unwrap();
        store.publish(&machine(), "a", &stores(1, 0.1)).unwrap();
        store.stage(&stores(1, 0.9)).unwrap(); // never committed
        fs::write(dir.join("tmp").join("stale-123.json"), "junk").unwrap();
        let gc = store.gc(8).unwrap();
        assert_eq!(gc.kept_generations, 1);
        assert_eq!(gc.removed_blobs, 1);
        assert_eq!(gc.removed_tmp, 1);
        let report = store.verify().unwrap();
        assert!(report.ok());
        assert_eq!(report.unreferenced, 0);
        assert_eq!(report.tmp_strays, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verify_flags_dangling_refs_and_content_tampering() {
        let dir = scratch("fsck");
        let store = Store::open(&dir).unwrap();
        store.publish(&machine(), "a", &stores(1, 0.1)).unwrap();
        let blob = store.latest().unwrap().unwrap().entries[0].blob;
        fs::remove_file(store.blob_path(blob)).unwrap();
        let report = store.verify().unwrap();
        assert!(!report.ok());
        assert!(
            report.problems.iter().any(|p| p.contains("missing blob")),
            "{:?}",
            report.problems
        );
        fs::remove_dir_all(&dir).unwrap();
    }
}
