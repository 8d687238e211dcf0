//! Diff two perf-trajectory files (`BENCH_<n>.json`) with a noise tolerance.
//!
//! ```text
//! bench-compare [--tolerance F] [--report-only] OLD.json NEW.json
//! bench-compare --validate FILE.json
//! bench-compare --min-speedup R --min-cases N OLD.json NEW.json
//! ```
//!
//! * Default mode prints a per-case table (old min, new min, speedup,
//!   verdict) and exits non-zero if any case regressed beyond the tolerance.
//! * `--report-only` always exits 0 — CI uses it to surface the diff against
//!   the committed baseline without blocking unrelated changes.
//! * `--validate` parses one file against the trajectory schema and exits
//!   non-zero on any violation (missing key, wrong type, unknown version).
//! * `--min-speedup R --min-cases N` additionally requires at least `N`
//!   cases at `R`× or better — the acceptance gate a speed-pass PR runs
//!   against its own pre-optimization baseline.

use std::path::PathBuf;
use std::process::ExitCode;

use critter_bench::trajectory::{compare, render_comparison, Trajectory, Verdict};
use critter_session::cli::{Cli, Error, Flag, Parsed};

const FLAGS: &[Flag] = &[
    Flag("--tolerance F", "relative slowdown tolerated per case (default 0.05)"),
    Flag("--report-only", "print the comparison but always exit 0"),
    Flag("--validate FILE", "check one file against the trajectory schema and exit"),
    Flag("--min-speedup R", "additionally require `--min-cases` cases at R× or better"),
    Flag("--min-cases N", "cases the `--min-speedup` gate needs (default 2)"),
];

const CLI: Cli = Cli {
    positionals: "[OLD.json NEW.json]",
    about: "Diffs two perf-trajectory files (`BENCH_<n>.json`) case by case and exits non-zero\n\
            if any case regressed beyond the tolerance; `--validate FILE` takes no positionals.",
    ..Cli::new("bench-compare", &[FLAGS])
};

/// The program; a rejected flag value is a usage error (see [`Cli::parse_env`]).
fn run(p: &Parsed) -> Result<ExitCode, Error> {
    let tolerance = p.get("--tolerance")?.unwrap_or(0.05);
    let min_speedup: Option<f64> = p.get("--min-speedup")?;
    let min_cases: usize = p.get("--min-cases")?.unwrap_or(2);

    if let Some(path) = p.get::<PathBuf>("--validate")? {
        return Ok(match Trajectory::read(&path) {
            Ok(t) => {
                println!(
                    "{} is a valid schema-v{} trajectory: {} cases, rev {}, {} ({}/{}, {} cpus)",
                    path.display(),
                    t.schema_version,
                    t.cases.len(),
                    t.git_rev,
                    t.date,
                    t.fingerprint.os,
                    t.fingerprint.arch,
                    t.fingerprint.cpus
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("invalid trajectory: {e}");
                ExitCode::from(2)
            }
        });
    }

    let [old, new] = p.positionals() else {
        return Err("expected two trajectory files, OLD.json NEW.json".into());
    };
    let (old, new) = match (Trajectory::read(old.as_ref()), Trajectory::read(new.as_ref())) {
        (Ok(old), Ok(new)) => (old, new),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return Ok(ExitCode::from(2));
        }
    };
    if old.fingerprint != new.fingerprint {
        eprintln!(
            "warning: trajectories were recorded on different machines \
             ({}/{}/{} cpus vs {}/{}/{} cpus) — wall-clock deltas are not commensurable",
            old.fingerprint.os,
            old.fingerprint.arch,
            old.fingerprint.cpus,
            new.fingerprint.os,
            new.fingerprint.arch,
            new.fingerprint.cpus
        );
    }
    println!("old: rev {} ({})   new: rev {} ({})", old.git_rev, old.date, new.git_rev, new.date);
    let deltas = compare(&old, &new, tolerance);
    print!("{}", render_comparison(&deltas, tolerance));

    let mut failed = false;
    if let Some(r) = min_speedup {
        let hits = deltas.iter().filter(|d| d.speedup.is_some_and(|s| s >= r)).count();
        if hits >= min_cases {
            println!("speedup gate: {hits} case(s) at ≥ {r:.2}x (needed {})", min_cases);
        } else {
            eprintln!("speedup gate FAILED: {hits} case(s) at ≥ {r:.2}x, needed {}", min_cases);
            failed = true;
        }
    }
    let regressions = deltas.iter().filter(|d| d.verdict == Verdict::Slower).count();
    if regressions > 0 {
        eprintln!("{regressions} case(s) regressed beyond tolerance");
        failed = true;
    }
    Ok(if failed && !p.switch("--report-only") { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

fn main() -> ExitCode {
    CLI.parse_env(run)
}
