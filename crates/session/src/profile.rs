//! Persistent kernel-model profiles: one session's `K̄` statistics saved
//! for the next session to warm-start from.
//!
//! A profile is the per-rank [`KernelStore`] vector of a finished sweep,
//! snapshotted through `critter_core::snapshot` and sealed in a
//! [`crate::envelope`]. Because the snapshot codec and the JSON
//! writer/parser pair are bit-exact, `load(save(stores))` reproduces the
//! stores' canonical form byte for byte.

use std::path::Path;

use critter_core::{snapshot, CritterError, KernelStore, Result};

use crate::config::StalenessPolicy;
use crate::{durable, envelope};

/// Persist `stores` as a profile at `path` (atomic write).
pub fn save(path: &Path, fingerprint: u64, stores: &[KernelStore]) -> Result<()> {
    let text = envelope::seal("profile", fingerprint, &snapshot::stores_to_json(stores));
    durable::write_atomic(path, text.as_bytes())
}

/// Load a profile. `fingerprint` is optional: profiles are deliberately
/// reusable across sweeps with different options (that is the entire point
/// of warm-starting), so most callers pass `None` and rely on the content
/// hash plus the rank-count check in [`warm_start`].
pub fn load(path: &Path, fingerprint: Option<u64>) -> Result<Vec<KernelStore>> {
    envelope::load(path, "profile", fingerprint, snapshot::stores_from_json)
}

/// Load a profile, verify it matches the sweep's rank count, and apply the
/// staleness policy. Returns the seeded stores and the number of kernel
/// models they carry (the `arg` of the driver's `warm_start` obs event).
pub fn warm_start(
    path: &Path,
    ranks: usize,
    staleness: &StalenessPolicy,
) -> Result<(Vec<KernelStore>, u64)> {
    let mut stores = load(path, None)?;
    if stores.len() != ranks {
        return Err(CritterError::mismatch(format!(
            "profile at {} holds {} rank stores but the sweep uses {} ranks",
            path.display(),
            stores.len(),
            ranks
        )));
    }
    let models = staleness.apply(&mut stores);
    Ok((stores, models))
}

#[cfg(test)]
mod tests {
    use super::*;
    use critter_core::signature::{ComputeOp, KernelSig};

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("critter-session-profile-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn busy_stores() -> Vec<KernelStore> {
        (0..2)
            .map(|rank| {
                let mut s = KernelStore::new();
                let sig = KernelSig::compute(ComputeOp::Gemm, 8, 8, 8);
                for i in 0..6 {
                    s.record(&sig, 0.1 * (rank + 1) as f64 + i as f64 * 1e-3);
                }
                s.schedule(&sig);
                s
            })
            .collect()
    }

    #[test]
    fn save_load_round_trips_canonically() {
        let path = scratch("profile.json");
        let stores = busy_stores();
        save(&path, 99, &stores).unwrap();
        let back = load(&path, Some(99)).unwrap();
        assert_eq!(
            serde_json::to_string(&snapshot::stores_to_json(&back)).unwrap(),
            serde_json::to_string(&snapshot::stores_to_json(&stores)).unwrap()
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn warm_start_checks_rank_count_and_applies_staleness() {
        let path = scratch("warm.json");
        save(&path, 0, &busy_stores()).unwrap();
        let err = warm_start(&path, 4, &StalenessPolicy::fresh()).unwrap_err();
        assert!(matches!(err, CritterError::Mismatch { .. }), "got: {err}");
        let policy = StalenessPolicy::fresh().with_decay(0.5);
        let (stores, models) = warm_start(&path, 2, &policy).unwrap();
        assert_eq!(models, 2);
        let key = KernelSig::compute(ComputeOp::Gemm, 8, 8, 8).key();
        assert_eq!(stores[0].model(key).unwrap().stats.count(), 3);
        std::fs::remove_file(&path).unwrap();
    }
}
