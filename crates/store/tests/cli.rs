//! `critter-store`'s command line at the process boundary: subcommand and
//! positional handling, the generated `--help`, usage errors.

#[path = "../../../tests/support/cli.rs"]
mod support;
use support::{assert_usage_error, help_flags, run};

const STORE: &str = env!("CARGO_BIN_EXE_critter-store");

#[test]
fn help_lists_exactly_the_flag_table_and_the_commands() {
    assert_eq!(
        help_flags(STORE),
        ["--dir", "--json", "--keep", "--writers", "--commits", "--seed"]
    );
    let (_, help, _) = run(STORE, &["gc", "-h"]);
    assert!(help.starts_with("usage: critter-store [FLAGS] COMMAND [HASH]\n"));
    for command in ["ls", "show", "verify", "gc", "stress"] {
        assert!(help.contains(&format!("\n  {command} ")), "{command} is described");
    }
}

#[test]
fn invalid_input_is_a_usage_error_naming_the_flag() {
    assert_usage_error(STORE, "critter-store", &[], "COMMAND is required");
    assert_usage_error(STORE, "critter-store", &["fsck", "--dir", "s"], "`fsck`");
    assert_usage_error(STORE, "critter-store", &["ls"], "`--dir STORE` is required");
    assert_usage_error(STORE, "critter-store", &["ls", "--dir"], "`--dir`");
    assert_usage_error(STORE, "critter-store", &["ls", "--dir", "s", "--bogus"], "`--bogus`");
    assert_usage_error(STORE, "critter-store", &["gc", "--dir", "s", "--keep", "few"], "`--keep`");
    assert_usage_error(STORE, "critter-store", &["show", "--dir", "s"], "HASH");
    assert_usage_error(STORE, "critter-store", &["show", "0a", "0b", "--dir", "s"], "`0b`");
}

#[test]
fn a_rejected_command_line_touches_nothing() {
    let dir = std::env::temp_dir().join(format!("critter-store-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    assert_usage_error(
        STORE,
        "critter-store",
        &["gc", "--dir", dir.to_str().unwrap(), "--keep", "x"],
        "`--keep`",
    );
    assert!(!dir.exists(), "the store is opened only after the whole command line is valid");
}
