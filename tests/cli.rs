//! `critter-tune`'s command line at the process boundary: the generated
//! `--help`, the one failure behaviour for invalid input, the
//! `--checkpoint-dir` fresh-run contract, and the `--profile` re-run.

#[path = "support/cli.rs"]
mod support;
use support::{assert_usage_error, help_flags, run};

const TUNE: &str = env!("CARGO_BIN_EXE_critter-tune");

#[test]
fn help_lists_exactly_the_flag_table() {
    assert_eq!(
        help_flags(TUNE),
        [
            "--space",
            "--policy",
            "--epsilon",
            "--smoke",
            "--allocation",
            "--seed",
            "--extrapolate",
            "--no-overhead",
            "--profile",
            "--json",
            "--observe",
            "--report-out",
            "--metrics-out",
            "--reps",
            "--checkpoint-dir",
            "--resume",
            "--warm-start",
            "--profile-out",
            "--store",
            "--faults",
            "--retries",
            "--backend",
        ]
    );
}

#[test]
fn invalid_input_is_a_usage_error_naming_the_flag() {
    assert_usage_error(TUNE, "critter-tune", &["--bogus"], "`--bogus`");
    assert_usage_error(TUNE, "critter-tune", &["--smoke", "--reps"], "`--reps`");
    assert_usage_error(TUNE, "critter-tune", &["--epsilon", "tight"], "`--epsilon`");
    assert_usage_error(TUNE, "critter-tune", &["--space", "lu"], "one of: capital-cholesky");
    assert_usage_error(TUNE, "critter-tune", &["--policy", "greedy"], "one of: conditional");
    assert_usage_error(TUNE, "critter-tune", &["--backend", "fibers"], "`--backend`");
    assert_usage_error(TUNE, "critter-tune", &["--json", "--json"], "more than once");
    assert_usage_error(TUNE, "critter-tune", &["stray"], "`stray`");
}

#[test]
fn fresh_checkpointed_run_spares_foreign_files_and_ignores_a_stale_checkpoint() {
    let dir = std::env::temp_dir().join(format!("critter-tune-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("thesis.tex"), "precious").unwrap();
    // Not a checkpoint at all: resuming it would fail the session — and
    // appending to the stale timeline would break the next resume.
    std::fs::write(dir.join("checkpoint.json"), "stale").unwrap();
    std::fs::write(dir.join("timeline.jsonl"), "stale").unwrap();
    let sweep =
        ["--space", "slate-cholesky", "--policy", "local", "--smoke", "--json", "--observe"];
    let ck = ["--checkpoint-dir", dir.to_str().unwrap()];

    let (code, plain, _) = run(TUNE, &sweep);
    assert_eq!(code, 0);
    let (code, fresh, stderr) = run(TUNE, &[&sweep[..], &ck[..]].concat());
    assert_eq!(code, 0, "a fresh run must not pick up the stale checkpoint: {stderr}");
    assert_eq!(fresh, plain, "checkpointing never changes the report");
    assert_eq!(std::fs::read_to_string(dir.join("thesis.tex")).unwrap(), "precious");
    assert!(dir.join("session.log").is_file());
    let timeline = std::fs::read_to_string(dir.join("timeline.jsonl")).unwrap();
    assert!(timeline.starts_with("{\"id\":"), "the stale timeline was replaced, not extended");

    let (code, resumed, _) = run(TUNE, &[&sweep[..], &ck[..], &["--resume"]].concat());
    assert_eq!((code, resumed), (0, plain), "the finished checkpoint resumes byte-identically");
    let kept = std::fs::read_to_string(dir.join("timeline.jsonl")).unwrap();
    assert_eq!(kept, timeline, "a resume of a finished session appends nothing");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn profile_reruns_the_winner_on_the_sweeps_machine() {
    // The profile re-run must see the sweep's noise seed, not a fixed one.
    let profile = |seed: &str| {
        let args = ["--space", "slate-cholesky", "--smoke", "--profile", "--seed", seed];
        let (code, stdout, stderr) = run(TUNE, &args);
        assert_eq!(code, 0, "{stderr}");
        let at = stdout.find("critical-path kernel profile").expect("profile section printed");
        stdout[at..].to_string()
    };
    assert_ne!(profile("1"), profile("2"), "two seeds must profile two different machines");
}
