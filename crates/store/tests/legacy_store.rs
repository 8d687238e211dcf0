//! A store written before sealed documents were read from a token tape,
//! committed under `fixtures/legacy-store` (four generations, three keys,
//! one entry from a second machine), with the warm starts that code
//! computed from it under `fixtures/legacy-warm`.
//!
//! Today's code must verify that store clean, warm-start from it to the very
//! bytes the older code produced — native and cross-machine prior, under two
//! staleness policies — and, publishing the same profiles into an empty
//! store, write every blob and index generation byte for byte again.

use std::fs;
use std::path::{Path, PathBuf};

use critter_core::json::canonical_text;
use critter_core::signature::{ComputeOp, KernelSig, SizeGranularity};
use critter_core::{snapshot, KernelStore};
use critter_machine::{MachineParams, NoiseParams};
use critter_session::StalenessPolicy;
use critter_store::{MachineSpec, Store};

const FIXTURES: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures");

/// The profiles the fixture store holds: `ranks` stores of three kernels
/// (two compute, one point-to-point) with path and a-priori counts.
fn stores(ranks: usize, seed: u64) -> Vec<KernelStore> {
    (0..ranks)
        .map(|r| {
            let mut s = KernelStore::new();
            let sigs = [
                KernelSig::compute(ComputeOp::Gemm, 8, 8, 8),
                KernelSig::compute(ComputeOp::Trsm, 16, 8, 0),
                KernelSig::p2p(100 + r, 1, SizeGranularity::Exact),
            ];
            for (j, sig) in sigs.iter().enumerate() {
                for i in 0..(3 + (seed as usize + j) % 3) {
                    let x = 1e-3 * (1.0 + 0.1 * seed as f64 + 0.01 * j as f64)
                        + 1e-5 * (i as f64 + r as f64) / 3.0;
                    s.record(sig, x);
                    s.schedule(sig);
                }
            }
            s.attribute_path_time(sigs[0].key(), 0.125 * seed as f64);
            s.capture_apriori();
            s
        })
        .collect()
}

fn machines() -> (MachineSpec, MachineSpec) {
    let noise = NoiseParams::cluster();
    (
        MachineSpec::from_models(&MachineParams::test_machine(), &noise),
        MachineSpec::from_models(&MachineParams::stampede2_knl(), &noise),
    )
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("critter-store-legacy")
        .join(format!("{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// The files of `dir`'s `blobs/` and `index/`, by relative path.
fn files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    for sub in ["blobs", "index"] {
        for entry in fs::read_dir(dir.join(sub)).unwrap() {
            let path = entry.unwrap().path();
            let name = format!("{sub}/{}", path.file_name().unwrap().to_string_lossy());
            out.push((name, fs::read(&path).unwrap()));
        }
    }
    out.sort();
    out
}

/// A writable copy of the committed store (opening a store creates `tmp/`).
fn legacy_copy(name: &str) -> Store {
    let dir = scratch(name);
    for (file, bytes) in files(&Path::new(FIXTURES).join("legacy-store")) {
        let path = dir.join(file);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(path, bytes).unwrap();
    }
    Store::open(dir).unwrap()
}

#[test]
fn the_legacy_store_verifies_clean() {
    let store = legacy_copy("verify");
    let report = store.verify().unwrap();
    assert!(report.ok(), "problems: {:?}", report.problems);
    assert_eq!((report.generations, report.entries, report.blobs), (4, 10, 4));
    assert_eq!((report.unreferenced, report.tmp_strays), (0, 0));
    let latest = store.latest().unwrap().unwrap();
    assert_eq!(latest.entries.len(), 4);
    let (a, b) = machines();
    assert_eq!(latest.entries.iter().filter(|e| e.machine == b).count(), 1);
    assert!(latest.entries.iter().all(|e| e.machine == a || e.machine == b));
    fs::remove_dir_all(store.root()).unwrap();
}

#[test]
fn the_legacy_store_warm_starts_to_the_bytes_it_did() {
    let store = legacy_copy("warm");
    let (a, b) = machines();
    let scenarios = [
        ("native-alpha", &a, "alpha", 2),
        ("native-beta", &a, "beta", 3),
        ("prior-gamma", &a, "gamma", 2),
        ("prior-alpha", &b, "alpha", 2),
    ];
    let policies = [
        ("fresh", StalenessPolicy::fresh()),
        ("decayed", StalenessPolicy::fresh().with_decay(0.5).with_variance_inflation(2.0)),
    ];
    for (name, machine, algo, ranks) in scenarios {
        for (policy_name, policy) in &policies {
            let (stores, models, source) =
                store.warm_start(machine, algo, ranks, policy).unwrap().unwrap();
            let doc = serde_json::json!({
                "models": models,
                "source": source.describe(),
                "stores": snapshot::stores_to_json(&stores),
            });
            let expected =
                Path::new(FIXTURES).join(format!("legacy-warm/{name}-{policy_name}.json"));
            assert_eq!(
                canonical_text(&doc),
                fs::read_to_string(&expected).unwrap(),
                "{name} under {policy_name}"
            );
        }
    }
    fs::remove_dir_all(store.root()).unwrap();
}

#[test]
fn publishing_the_same_profiles_writes_the_same_bytes() {
    let dir = scratch("republish");
    let store = Store::open(&dir).unwrap();
    let (a, b) = machines();
    store.publish(&a, "alpha", &stores(2, 1)).unwrap();
    store.publish(&a, "beta", &stores(3, 2)).unwrap();
    store.publish(&b, "gamma", &stores(2, 3)).unwrap();
    store.publish(&a, "alpha", &stores(2, 4)).unwrap();
    assert_eq!(files(&dir), files(&Path::new(FIXTURES).join("legacy-store")));
    fs::remove_dir_all(&dir).unwrap();
}
