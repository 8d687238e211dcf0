//! Maintenance CLI for a profile-store directory.
//!
//! ```text
//! critter-store ls     --dir STORE [--json]
//! critter-store show   --dir STORE HASH [--json]
//! critter-store verify --dir STORE [--json]
//! critter-store gc     --dir STORE [--keep N] [--json]
//! critter-store stress --dir STORE [--writers N] [--commits N] [--seed S]
//! ```
//!
//! `verify` is the fsck: exit 0 only when every index generation opens
//! cleanly, every entry's blob resolves, and every blob re-hashes to its
//! name. `gc` keeps the newest `--keep` generations and drops everything
//! they don't reference. `stress` fans `--writers` threads each
//! publishing `--commits` synthetic profiles — the concurrent-writer
//! smoke workload, and the process the kill -9 crash drill shoots down
//! mid-commit.

use critter_core::json::canonical_text;
use critter_core::signature::{ComputeOp, KernelSig};
use critter_core::KernelStore;
use critter_machine::{MachineParams, NoiseParams};
use critter_session::cli::{Cli, Error, Flag, Parsed};
use critter_store::{MachineSpec, Store};

const FLAGS: &[Flag] = &[
    Flag("--dir STORE", "store directory (required)"),
    Flag("--json", "machine-readable output (`ls`, `show`, `verify`, `gc`)"),
    Flag("--keep N", "`gc`: newest generations to keep (default 4)"),
    Flag("--writers N", "`stress`: concurrent writer threads (default 4)"),
    Flag("--commits N", "`stress`: commits per writer (default 8)"),
    Flag("--seed S", "`stress`: synthetic-sample seed (default 1)"),
];

const CLI: Cli = Cli {
    positionals: "COMMAND [HASH]",
    about: "commands:\n\
            \x20 ls      list the latest generation's entries\n\
            \x20 show    print one blob by its 13-hex-digit content HASH\n\
            \x20 verify  fsck the store (exit 1 on any corruption)\n\
            \x20 gc      keep the newest generations, drop the rest\n\
            \x20 stress  hammer the store with concurrent batch commits",
    ..Cli::new("critter-store", &[FLAGS])
};

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("critter-store: {msg}");
    std::process::exit(1)
}

/// A subcommand; a rejected flag value is a usage error (see [`Cli::parse_env`]).
type Command = fn(&Parsed) -> Result<(), Error>;

const COMMANDS: [(&str, Command); 5] =
    [("ls", ls), ("show", show), ("verify", verify), ("gc", gc), ("stress", stress)];

/// Open `--dir`; commands read every other flag first, so a rejected command
/// line never touches the store.
fn open(p: &Parsed) -> Result<Store, Error> {
    let dir: String = p.get("--dir")?.ok_or("flag `--dir STORE` is required")?;
    Ok(Store::open(dir).unwrap_or_else(|e| fail(e)))
}

fn ls(p: &Parsed) -> Result<(), Error> {
    let store = open(p)?;
    let census = store.census().unwrap_or_else(|e| fail(e));
    let index = store.latest().unwrap_or_else(|e| fail(e));
    if p.switch("--json") {
        let entries: Vec<serde_json::Value> =
            index.iter().flat_map(|i| i.entries.iter().map(|e| e.to_json())).collect();
        let doc = serde_json::json!({
            "blobs": census.blobs,
            "entries": entries,
            "generation": census.generation,
        });
        print!("{}", canonical_text(&doc));
        return Ok(());
    }
    println!(
        "generation {} ({} entries, {} blobs)",
        census.generation, census.entries, census.blobs
    );
    if let Some(index) = index {
        for e in &index.entries {
            println!(
                "  seq {:>4}  machine {:013x}  ranks {:>5}  blob {:013x}  {}",
                e.seq, e.machine_fp, e.ranks, e.blob, e.algo
            );
        }
    }
    Ok(())
}

fn show(p: &Parsed) -> Result<(), Error> {
    let hex = p.positionals().get(1).ok_or("`show` needs a blob HASH")?;
    let store = open(p)?;
    let hash = u64::from_str_radix(hex, 16)
        .unwrap_or_else(|_| fail(format!("`{hex}` is not a hex content hash")));
    let stores = store.load_blob(hash).unwrap_or_else(|e| fail(e));
    if p.switch("--json") {
        let doc = critter_core::snapshot::stores_to_json(&stores);
        print!("{}", canonical_text(&doc));
        return Ok(());
    }
    println!("blob {hash:013x}: {} rank stores", stores.len());
    for (rank, s) in stores.iter().enumerate() {
        let samples: u64 = s.local.values().map(|m| m.stats.count()).sum();
        println!(
            "  rank {rank}: {} kernel models, {samples} samples, {:.3e}s sampled",
            s.local.len(),
            s.total_sampled_time()
        );
    }
    Ok(())
}

fn verify(p: &Parsed) -> Result<(), Error> {
    let store = open(p)?;
    let report = store.verify().unwrap_or_else(|e| fail(e));
    if p.switch("--json") {
        let problems: Vec<serde_json::Value> =
            report.problems.iter().map(|p| serde_json::Value::String(p.clone())).collect();
        let doc = serde_json::json!({
            "blobs": report.blobs,
            "entries": report.entries,
            "generations": report.generations,
            "ok": report.ok(),
            "problems": problems,
            "tmp_strays": report.tmp_strays,
            "unreferenced": report.unreferenced,
        });
        print!("{}", canonical_text(&doc));
    } else {
        println!(
            "{} generations, {} entries, {} blobs ({} unreferenced, {} tmp strays)",
            report.generations,
            report.entries,
            report.blobs,
            report.unreferenced,
            report.tmp_strays
        );
        for p in &report.problems {
            eprintln!("problem: {p}");
        }
        println!("{}", if report.ok() { "clean" } else { "CORRUPT" });
    }
    if !report.ok() {
        std::process::exit(1);
    }
    Ok(())
}

fn gc(p: &Parsed) -> Result<(), Error> {
    let keep = p.get("--keep")?.unwrap_or(4);
    let store = open(p)?;
    let report = store.gc(keep).unwrap_or_else(|e| fail(e));
    if p.switch("--json") {
        let doc = serde_json::json!({
            "kept_generations": report.kept_generations,
            "removed_blobs": report.removed_blobs,
            "removed_generations": report.removed_generations,
            "removed_tmp": report.removed_tmp,
        });
        print!("{}", canonical_text(&doc));
    } else {
        println!(
            "kept {} generations; removed {} generations, {} blobs, {} tmp strays",
            report.kept_generations,
            report.removed_generations,
            report.removed_blobs,
            report.removed_tmp
        );
    }
    Ok(())
}

/// Deterministic synthetic profile for writer `w`, commit `c`: distinct
/// content per (seed, writer, commit) so every publish stages a fresh blob.
fn synthetic_stores(seed: u64, writer: u64, commit: u64) -> Vec<KernelStore> {
    let mut s = KernelStore::new();
    let sig = KernelSig::compute(ComputeOp::Gemm, 8, 8, 8);
    for i in 0..4u64 {
        let jitter = (seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(writer * 1_000_003 + commit * 101 + i))
            % 1000;
        s.record(&sig, 1.0e-3 + jitter as f64 * 1.0e-9);
    }
    vec![s]
}

fn stress(p: &Parsed) -> Result<(), Error> {
    let writers: u64 = p.get("--writers")?.unwrap_or(4);
    let (commits, seed): (u64, u64) =
        (p.get("--commits")?.unwrap_or(8), p.get("--seed")?.unwrap_or(1));
    let store = open(p)?;
    let machine = MachineSpec::from_models(&MachineParams::test_machine(), &NoiseParams::cluster());
    let handles: Vec<_> = (0..writers.max(1))
        .map(|w| {
            let store = store.clone();
            let machine = machine.clone();
            std::thread::spawn(move || {
                for c in 0..commits {
                    let stores = synthetic_stores(seed, w, c);
                    store
                        .publish(&machine, &format!("stress-{w}"), &stores)
                        .unwrap_or_else(|e| fail(e));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap_or_else(|_| fail("stress writer panicked"));
    }
    let census = store.census().unwrap_or_else(|e| fail(e));
    println!("stress done: generation {}, {} entries", census.generation, census.entries);
    Ok(())
}

fn main() {
    CLI.parse_env(|p| {
        let name = p.positionals().first().ok_or("a COMMAND is required")?;
        let (_, run) =
            COMMANDS.iter().find(|(n, _)| n == name).ok_or(format!("unknown command `{name}`"))?;
        run(p)
    })
}
