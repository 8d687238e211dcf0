//! `critter-serve`'s command line at the process boundary (the daemon
//! itself is driven by `kill_restart.rs` and `live_server.rs`).

#[path = "../../../tests/support/cli.rs"]
mod support;
use support::{assert_usage_error, help_flags};

const SERVE: &str = env!("CARGO_BIN_EXE_critter-serve");

#[test]
fn help_lists_exactly_the_flag_table() {
    assert_eq!(
        help_flags(SERVE),
        [
            "--addr",
            "--data-dir",
            "--job-workers",
            "--http-workers",
            "--queue-capacity",
            "--tenant-max-queued",
            "--tenant-max-running",
            "--tenant-max-ranks",
            "--store",
        ]
    );
}

#[test]
fn invalid_input_is_a_usage_error_naming_the_flag() {
    assert_usage_error(SERVE, "critter-serve", &["--port", "80"], "`--port`");
    assert_usage_error(SERVE, "critter-serve", &["--data-dir"], "`--data-dir`");
    assert_usage_error(SERVE, "critter-serve", &["--job-workers", "two"], "`--job-workers`");
    assert_usage_error(SERVE, "critter-serve", &["stray"], "`stray`");
}
