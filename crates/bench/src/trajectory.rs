//! Perf-trajectory recording: schema-versioned `BENCH_<n>.json` files.
//!
//! A *trajectory file* snapshots the harness results of one bench run —
//! per-case min/median/iteration-count — together with enough provenance to
//! interpret the numbers later: a machine fingerprint, the git revision, the
//! date, and the harness version. PRs commit one trajectory per speed pass
//! (`BENCH_6.json`, `BENCH_7.json`, …), so the repository accumulates a
//! reviewable perf history, and `bench-compare` diffs any two files with a
//! noise tolerance.
//!
//! Schema guarantees (see DESIGN.md):
//!
//! * `schema_version` gates parsing — readers reject files from a different
//!   major schema rather than misinterpreting them;
//! * case identity is the `(group, case)` pair and is stable across PRs;
//! * all durations are integer nanoseconds (no float round-tripping);
//! * serialization is canonical JSON (sorted keys, fixed layout), so equal
//!   trajectories are byte-identical and diffs are reviewable.

use std::path::Path;
use std::time::{SystemTime, UNIX_EPOCH};

use critter_core::json::{canonical_text, JsonError, Reader};
use serde_json::{json, Value};

use crate::harness::Timing;

/// Version of the trajectory schema this harness writes.
pub const TRAJECTORY_SCHEMA_VERSION: u64 = 1;

/// Identity of the machine a trajectory was recorded on. Comparisons across
/// different fingerprints are still printed, but flagged: wall-clock numbers
/// from different machines are not commensurable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// Operating system (`std::env::consts::OS`).
    pub os: String,
    /// CPU architecture (`std::env::consts::ARCH`).
    pub arch: String,
    /// Logical CPUs available to the process.
    pub cpus: u64,
}

impl Fingerprint {
    /// Fingerprint of the current machine. Deterministic within a process.
    pub fn detect() -> Self {
        Fingerprint {
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            cpus: std::thread::available_parallelism().map(|n| n.get() as u64).unwrap_or(1),
        }
    }

    fn to_json(&self) -> Value {
        json!({ "os": self.os, "arch": self.arch, "cpus": self.cpus })
    }

    fn read(r: Reader<'_, '_>) -> Result<Self, JsonError> {
        Ok(Fingerprint {
            os: r.at("os").str()?.to_string(),
            arch: r.at("arch").str()?.to_string(),
            cpus: r.at("cpus").u64()?,
        })
    }
}

/// One benchmark case's summarized timings, in integer nanoseconds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseResult {
    /// Bench group (e.g. `sim`).
    pub group: String,
    /// Case name within the group (e.g. `compute_loop`).
    pub case: String,
    /// Fastest observed iteration.
    pub min_ns: u64,
    /// Median iteration (midpoint-interpolated for even sample counts).
    pub median_ns: u64,
    /// Number of timed iterations.
    pub iters: u64,
}

impl CaseResult {
    fn to_json(&self) -> Value {
        json!({
            "group": self.group,
            "case": self.case,
            "min_ns": self.min_ns,
            "median_ns": self.median_ns,
            "iters": self.iters,
        })
    }

    fn read(r: Reader<'_, '_>) -> Result<Self, JsonError> {
        Ok(CaseResult {
            group: r.at("group").str()?.to_string(),
            case: r.at("case").str()?.to_string(),
            min_ns: r.at("min_ns").u64()?,
            median_ns: r.at("median_ns").u64()?,
            iters: r.at("iters").u64()?,
        })
    }
}

/// A full perf-trajectory file: provenance plus per-case results.
#[derive(Debug, Clone, PartialEq)]
pub struct Trajectory {
    /// Schema version the file was written with.
    pub schema_version: u64,
    /// Version of `critter-bench` that recorded the file.
    pub harness_version: String,
    /// Git revision (short hash) at record time, or `"unknown"`.
    pub git_rev: String,
    /// UTC date at record time, `YYYY-MM-DD`.
    pub date: String,
    /// Machine the numbers were recorded on.
    pub fingerprint: Fingerprint,
    /// Per-case results, in recording order.
    pub cases: Vec<CaseResult>,
}

impl Trajectory {
    /// Empty trajectory stamped with the current machine, git revision, and
    /// date.
    pub fn capture() -> Self {
        Trajectory {
            schema_version: TRAJECTORY_SCHEMA_VERSION,
            harness_version: env!("CARGO_PKG_VERSION").to_string(),
            git_rev: git_short_rev(),
            date: utc_date_today(),
            fingerprint: Fingerprint::detect(),
            cases: Vec::new(),
        }
    }

    /// Record one case's [`Timing`] under `(group, case)`.
    pub fn record(&mut self, group: &str, case: &str, t: Timing) {
        self.cases.push(CaseResult {
            group: group.to_string(),
            case: case.to_string(),
            min_ns: t.min.as_nanos() as u64,
            median_ns: t.median.as_nanos() as u64,
            iters: t.iters as u64,
        });
    }

    /// Look up a case by `(group, case)`.
    pub fn case(&self, group: &str, case: &str) -> Option<&CaseResult> {
        self.cases.iter().find(|c| c.group == group && c.case == case)
    }

    /// Canonical JSON form.
    pub fn to_json(&self) -> Value {
        json!({
            "schema_version": self.schema_version,
            "harness_version": self.harness_version,
            "git_rev": self.git_rev,
            "date": self.date,
            "fingerprint": self.fingerprint.to_json(),
            "cases": self.cases.iter().map(CaseResult::to_json).collect::<Vec<_>>(),
        })
    }

    /// Pretty canonical JSON with a trailing newline (the committed form).
    pub fn to_json_string(&self) -> String {
        canonical_text(&self.to_json())
    }

    /// Parse a trajectory document, rejecting unknown schema versions.
    pub fn from_json(v: &Value) -> Result<Self, JsonError> {
        Self::decode(Reader::root("trajectory", v))
    }

    fn decode(r: Reader<'_, '_>) -> Result<Self, JsonError> {
        let schema_version = r.at("schema_version").u64()?;
        if schema_version != TRAJECTORY_SCHEMA_VERSION {
            return Err(r.at("schema_version").error(format!(
                "schema version {schema_version} unsupported (this harness reads {TRAJECTORY_SCHEMA_VERSION})"
            )));
        }
        Ok(Trajectory {
            schema_version,
            harness_version: r.at("harness_version").str()?.to_string(),
            git_rev: r.at("git_rev").str()?.to_string(),
            date: r.at("date").str()?.to_string(),
            fingerprint: Fingerprint::read(r.at("fingerprint"))?,
            cases: r.at("cases").list(CaseResult::read)?,
        })
    }

    /// Write the canonical form to `path`, creating parent directories.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        std::fs::write(path, self.to_json_string())
    }

    /// Read and parse a trajectory file; errors name the file.
    pub fn read(path: &Path) -> critter_core::Result<Self> {
        let doc = critter_session::durable::read_value(path)?;
        Ok(Self::decode(Reader::root(&path.display().to_string(), &doc))?)
    }
}

/// Comparison verdict for one case between two trajectories.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// New min beats old min by more than the tolerance.
    Faster,
    /// New min loses to old min by more than the tolerance.
    Slower,
    /// Within tolerance either way.
    Unchanged,
    /// Case exists only in the new trajectory.
    Added,
    /// Case exists only in the old trajectory.
    Removed,
}

impl Verdict {
    /// Short display label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Faster => "faster",
            Verdict::Slower => "SLOWER",
            Verdict::Unchanged => "~",
            Verdict::Added => "added",
            Verdict::Removed => "removed",
        }
    }
}

/// One case's delta between an old and a new trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseDelta {
    /// Bench group.
    pub group: String,
    /// Case name.
    pub case: String,
    /// Old min, if the case exists in the old trajectory.
    pub old_min_ns: Option<u64>,
    /// New min, if the case exists in the new trajectory.
    pub new_min_ns: Option<u64>,
    /// `old_min / new_min` (>1 means the new trajectory is faster).
    pub speedup: Option<f64>,
    /// Tolerance-aware verdict.
    pub verdict: Verdict,
}

/// Diff two trajectories with a relative noise `tolerance` (e.g. `0.05`):
/// a case is `Faster`/`Slower` only when its min moved by more than the
/// tolerance. Cases are reported in the new trajectory's order, with removed
/// cases appended in the old trajectory's order.
pub fn compare(old: &Trajectory, new: &Trajectory, tolerance: f64) -> Vec<CaseDelta> {
    assert!(tolerance >= 0.0, "tolerance must be non-negative");
    let mut deltas = Vec::new();
    for c in &new.cases {
        let delta = match old.case(&c.group, &c.case) {
            Some(o) => {
                let speedup = o.min_ns as f64 / (c.min_ns as f64).max(1.0);
                let verdict = if speedup >= 1.0 + tolerance {
                    Verdict::Faster
                } else if speedup <= 1.0 / (1.0 + tolerance) {
                    Verdict::Slower
                } else {
                    Verdict::Unchanged
                };
                CaseDelta {
                    group: c.group.clone(),
                    case: c.case.clone(),
                    old_min_ns: Some(o.min_ns),
                    new_min_ns: Some(c.min_ns),
                    speedup: Some(speedup),
                    verdict,
                }
            }
            None => CaseDelta {
                group: c.group.clone(),
                case: c.case.clone(),
                old_min_ns: None,
                new_min_ns: Some(c.min_ns),
                speedup: None,
                verdict: Verdict::Added,
            },
        };
        deltas.push(delta);
    }
    for o in &old.cases {
        if new.case(&o.group, &o.case).is_none() {
            deltas.push(CaseDelta {
                group: o.group.clone(),
                case: o.case.clone(),
                old_min_ns: Some(o.min_ns),
                new_min_ns: None,
                speedup: None,
                verdict: Verdict::Removed,
            });
        }
    }
    deltas
}

/// Render a comparison as an aligned table plus a one-line summary.
pub fn render_comparison(deltas: &[CaseDelta], tolerance: f64) -> String {
    use std::fmt::Write as _;
    let ns = |v: Option<u64>| v.map_or("-".to_string(), |n| format!("{n}"));
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<40} {:>14} {:>14} {:>9}  verdict",
        "case", "old min (ns)", "new min (ns)", "speedup"
    );
    let (mut faster, mut slower) = (0usize, 0usize);
    for d in deltas {
        match d.verdict {
            Verdict::Faster => faster += 1,
            Verdict::Slower => slower += 1,
            _ => {}
        }
        let _ = writeln!(
            out,
            "{:<40} {:>14} {:>14} {:>9}  {}",
            format!("{}/{}", d.group, d.case),
            ns(d.old_min_ns),
            ns(d.new_min_ns),
            d.speedup.map_or("-".to_string(), |s| format!("{s:.2}x")),
            d.verdict.label()
        );
    }
    let _ = writeln!(
        out,
        "{} cases: {faster} faster, {slower} slower, tolerance ±{:.0}%",
        deltas.len(),
        tolerance * 100.0
    );
    out
}

/// Short git revision of the working tree, or `"unknown"` outside a checkout.
fn git_short_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Today's UTC date as `YYYY-MM-DD` (civil-from-days, no external crates).
fn utc_date_today() -> String {
    let secs = SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_secs()).unwrap_or(0);
    let days = (secs / 86_400) as i64;
    let (y, m, d) = civil_from_days(days);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Howard Hinnant's `civil_from_days`: days since 1970-01-01 → (y, m, d).
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = (z - era * 146_097) as u64; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe as i64 + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    (if m <= 2 { y + 1 } else { y }, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_from_days_known_dates() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(19_723), (2024, 1, 1)); // 2024-01-01
        assert_eq!(civil_from_days(11_016), (2000, 2, 29)); // leap day
    }

    #[test]
    fn date_is_iso_shaped() {
        let d = utc_date_today();
        assert_eq!(d.len(), 10);
        assert_eq!(d.as_bytes()[4], b'-');
        assert_eq!(d.as_bytes()[7], b'-');
    }
}
