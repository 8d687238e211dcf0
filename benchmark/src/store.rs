//! `store-churn`: writes beside reads on a growing profile-store history.
//! One operation is a `Store::publish` followed by a `Store::warm_start`.

use std::path::Path;
use std::time::Instant;

use critter_autotune::StalenessPolicy;
use critter_core::signature::{ComputeOp, KernelSig};
use critter_core::KernelStore;
use critter_machine::{MachineParams, NoiseParams};
use critter_store::{MachineSpec, Store, WarmStartSource};

use crate::harness::{dir_bytes, proc_cpu_s, Rng, Run};
use crate::stats::median;

/// History a round starts from, and the algorithm keys it is spread over.
pub const PREPOPULATED: usize = 256;
pub const ALGO_KEYS: usize = 8;
/// Publish/warm-start pairs timed per round.
pub const PAIRS_PER_ROUND: usize = 64;
/// Shape of one published profile.
pub const RANKS: usize = 4;
pub const SIGNATURES: usize = 32;

pub fn machine() -> MachineSpec {
    MachineSpec::from_models(&MachineParams::stampede2_knl(), &NoiseParams::cluster())
}

pub fn algo(key: usize) -> String {
    format!("churn-{}", key % ALGO_KEYS)
}

/// A synthetic profile: `RANKS` stores of `SIGNATURES` kernel models with
/// three seeded samples each, so every publish stages a distinct blob.
pub fn synthetic_profile(rng: &mut Rng) -> Vec<KernelStore> {
    (0..RANKS)
        .map(|_| {
            let mut store = KernelStore::new();
            for s in 0..SIGNATURES {
                let sig =
                    KernelSig::compute(ComputeOp::Gemm, 8 << (s % 4), 8 << (s / 4 % 4), 8 + s / 16);
                for _ in 0..3 {
                    store.record(&sig, 1.0e-3 * (1.0 + rng.unit()));
                }
            }
            store
        })
        .collect()
}

/// Size of the newest index generation file.
fn last_index_bytes(root: &Path) -> u64 {
    let Ok(rd) = std::fs::read_dir(root.join("index")) else { return 0 };
    rd.flatten()
        .filter_map(|e| Some((e.file_name(), e.metadata().ok()?.len())))
        .max()
        .map_or(0, |(_, len)| len)
}

pub fn run(run: &mut Run) -> Result<(), String> {
    let machine = machine();
    let staleness = StalenessPolicy::fresh();
    let err = |e: critter_core::CritterError| format!("store: {e}");
    let (mut publish_ms, mut warm_ms, mut first_commits_ms) = (Vec::new(), Vec::new(), Vec::new());
    while let Some(traced) = run.next_round() {
        let tracer = run.tracer_for(traced);
        // Inputs first, outside every clock: the store sees only these. Every
        // round replays the same inputs, so its end state is exact for a seed
        // however many rounds the machine fits into the window.
        let mut rng = Rng::new(run.cfg.seed);
        let history: Vec<_> = (0..PREPOPULATED).map(|_| synthetic_profile(&mut rng)).collect();
        let churn: Vec<_> = (0..PAIRS_PER_ROUND).map(|_| synthetic_profile(&mut rng)).collect();
        let reads: Vec<usize> =
            (0..PAIRS_PER_ROUND).map(|_| rng.below(ALGO_KEYS as u64) as usize).collect();
        let dir = run.cfg.tmp.join(format!("store-{}", run.round));

        let setup_started = Instant::now();
        let store = Store::open(&dir).map_err(err)?;
        for (i, profile) in history.iter().enumerate() {
            let t = Instant::now();
            store.publish(&machine, &algo(i), profile).map_err(err)?;
            if i < 32 {
                first_commits_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
        }
        run.record_setup(setup_started);

        let (segment, cpu0) = (Instant::now(), proc_cpu_s("self"));
        let mut merges = Vec::new();
        for (i, profile) in churn.iter().enumerate() {
            let op = tracer.begin("store.pair", None);
            let t = Instant::now();
            tracer
                .span("store.publish", op, |_| store.publish(&machine, &algo(i), profile))
                .map_err(err)?;
            let published = t.elapsed();
            let seeded = tracer
                .span("store.warm_start", op, |_| {
                    store.warm_start(&machine, &algo(reads[i]), RANKS, &staleness)
                })
                .map_err(err)?;
            let pair = t.elapsed();
            tracer.end(op);
            publish_ms.push(published.as_secs_f64() * 1e3);
            warm_ms.push((pair - published).as_secs_f64() * 1e3);
            run.record_op(traced, pair.as_secs_f64() * 1e3);
            // Keep the verdict, not the merge: holding 64 merged profiles
            // would show up in this process's peak RSS.
            merges.push(match &seeded {
                Some((stores, models, WarmStartSource::Native { entries }))
                    if *entries > 0
                        && stores.len() == RANKS
                        && stores.iter().all(|s| !s.local.is_empty()) =>
                {
                    *models
                }
                _ => 0,
            });
        }
        run.record_segment(traced, segment, proc_cpu_s("self") - cpu0, churn.len() as u64);

        for &models in &merges {
            run.check(models > 0, || "warm_start returned no native merge".into());
        }
        let models = merges.last().copied().unwrap_or(0);
        let verify = tracer.span("store.verify", None, |_| store.verify()).map_err(err)?;
        run.check(verify.ok(), || format!("store verify: {:?}", verify.problems));
        let census = store.census().map_err(err)?;
        run.set("store.generations", census.generation as f64);
        run.set("store.blobs", census.blobs as f64);
        run.set("store.warm_start_models", models as f64);
        run.set("store.index_bytes_last", last_index_bytes(&dir) as f64);
        run.set("store.disk_kib", dir_bytes(&dir) as f64 / 1024.0);
        let _ = std::fs::remove_dir_all(&dir);
    }
    let pair = median(&publish_ms) + median(&warm_ms);
    run.set("store.publish_share", median(&publish_ms) / pair);
    // How much the full-history index has slowed a commit by the churn phase.
    run.set("store.publish_growth_ratio", median(&publish_ms) / median(&first_commits_ms));
    Ok(())
}
