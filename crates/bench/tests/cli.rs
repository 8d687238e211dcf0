//! The figure drivers' command lines at the process boundary: each binary
//! accepts exactly the flags it reads, `--help` is the generated table, and
//! invalid input is a usage error — never a panic.

#[path = "../../../tests/support/cli.rs"]
mod support;
use support::{assert_usage_error, help_flags};

const FIG3: &str = env!("CARGO_BIN_EXE_fig3");
const FIG4: &str = env!("CARGO_BIN_EXE_fig4");
const FIG5: &str = env!("CARGO_BIN_EXE_fig5");
const ABLATE: &str = env!("CARGO_BIN_EXE_ablate");

const OUTPUT_OBS: [&str; 5] = ["--out", "--jobs", "--trace-out", "--folded-out", "--metrics-out"];
const SESSION: [&str; 9] = [
    "--reps",
    "--checkpoint-dir",
    "--resume",
    "--warm-start",
    "--profile-out",
    "--store",
    "--faults",
    "--retries",
    "--fault-seed",
];

#[test]
fn help_lists_exactly_the_groups_each_driver_reads() {
    let fig3 = [&OUTPUT_OBS[..], &SESSION[..], &["--backend"]].concat();
    let fig4 = [&["--quick", "--allocations"], &fig3[..]].concat();
    assert_eq!(help_flags(FIG3), fig3);
    assert_eq!(help_flags(FIG4), fig4);
    assert_eq!(help_flags(FIG5), fig4);
    assert_eq!(help_flags(ABLATE), [&OUTPUT_OBS[..], &["--backend"]].concat());
}

#[test]
fn invalid_input_is_a_usage_error_naming_the_flag() {
    // Both panicked at the parent commit (index out of bounds, `unknown flag`).
    assert_usage_error(FIG4, "fig4", &["--reps"], "`--reps`");
    assert_usage_error(FIG4, "fig4", &["--bogus"], "`--bogus`");
    assert_usage_error(FIG5, "fig5", &["--jobs", "many"], "`--jobs`");
    assert_usage_error(FIG5, "fig5", &["--backend", "fibers"], "`--backend`");
}

#[test]
fn flags_a_driver_would_ignore_are_usage_errors() {
    assert_usage_error(FIG3, "fig3", &["--quick"], "`--quick`");
    assert_usage_error(FIG3, "fig3", &["--allocations", "2"], "`--allocations`");
    for flag in ["--quick", "--reps", "--checkpoint-dir", "--faults", "--fault-seed", "--store"] {
        assert_usage_error(ABLATE, "ablate", &[flag, "1"], flag);
    }
}
