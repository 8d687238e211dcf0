//! Shared by every package's `tests/cli.rs` (included with `#[path]`): run a
//! binary and check the one command-line contract all of them follow.

use std::process::Command;

/// Run `bin` with `args`; returns (exit code, stdout, stderr).
pub fn run(bin: &str, args: &[&str]) -> (i32, String, String) {
    let out = Command::new(bin).args(args).output().expect("binary runs");
    let text = |bytes: &[u8]| String::from_utf8_lossy(bytes).into_owned();
    (out.status.code().expect("exited, not signalled"), text(&out.stdout), text(&out.stderr))
}

/// The flag names `--help` lists, in order (the implicit `-h, --help` row is
/// not part of a binary's table).
pub fn help_flags(bin: &str) -> Vec<String> {
    let (code, stdout, stderr) = run(bin, &["--help"]);
    assert_eq!((code, stderr.as_str()), (0, ""), "--help prints to stdout and exits 0");
    stdout
        .lines()
        .filter_map(|l| l.strip_prefix("  --"))
        .map(|l| format!("--{}", l.split_whitespace().next().unwrap()))
        .collect()
}

/// `args` must be rejected as a usage error: exit 2, nothing on stdout, and
/// a first stderr line naming `bin_name` and `needle`, followed by the usage.
pub fn assert_usage_error(bin: &str, bin_name: &str, args: &[&str], needle: &str) {
    let (code, stdout, stderr) = run(bin, args);
    assert_eq!(code, 2, "{bin_name} {args:?} must exit 2, stderr: {stderr}");
    assert_eq!(stdout, "");
    let first = stderr.lines().next().unwrap_or_default();
    assert!(first.starts_with(&format!("{bin_name}: ")) && first.contains(needle), "{first}");
    assert!(stderr.contains(&format!("usage: {bin_name} ")), "usage follows the error");
}
