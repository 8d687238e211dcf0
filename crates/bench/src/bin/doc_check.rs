//! Doc-drift gate: the CLI flag tables in `README.md` must be exactly what
//! the binaries' flag tables render to, and `docs/SERVICE.md` must match the
//! service's compiled wire contract.
//!
//! Every binary's `--help` is generated from its `critter_session::cli` flag
//! table. For every README block
//!
//! ```text
//! <!-- begin doc-check critter-tune -->
//! | Flag | Meaning |
//! | --- | --- |
//! | `--space NAME` | … |
//! <!-- end doc-check -->
//! ```
//!
//! this tool runs the named sibling binary with `--help`, reads the
//! `(flag, value name, meaning)` rows back out of it, renders them as the
//! markdown table and compares that with the block, row by row. Any
//! difference — a flag added or removed, a renamed value, a reworded
//! meaning — fails (exit 1) and prints the block README should contain.
//!
//! For `docs/SERVICE.md` it additionally checks, against the linked
//! `critter-serve` crate itself:
//!
//! * the error-code table rows (`| <status> | <code> | … |`) are exactly
//!   [`ErrorCode::ALL`] — every code the service can emit is documented
//!   with its real status, and no documented code has been removed from the
//!   enum;
//! * the document states the current [`API_VERSION`] (the
//!   `**API version N**` marker), so a version bump cannot ship without its
//!   docs.
//!
//! CI runs it after `cargo build --release --workspace --bins`, so neither
//! document can drift from the shipped interfaces.
//!
//! ```text
//! cargo build --release --workspace --bins && cargo run --release -p critter-bench --bin doc_check
//! ```

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

use critter_serve::{ErrorCode, API_VERSION};
use critter_session::cli::markdown_table;

/// The `(flag synopsis, meaning)` rows of a generated `--help` text: the
/// lines of its `flags:` section, minus the implicit `-h, --help` row.
fn help_rows(help: &str) -> Vec<(String, String)> {
    help.lines()
        .skip_while(|l| *l != "flags:")
        .skip(1)
        .take_while(|l| !l.is_empty())
        .filter_map(|l| l.trim_start().split_once("  "))
        .filter(|(synopsis, _)| synopsis.starts_with("--"))
        .map(|(synopsis, meaning)| (synopsis.to_string(), meaning.trim_start().to_string()))
        .collect()
}

/// The markdown table `name --help` renders to.
fn rendered_table(bin_dir: &Path, name: &str) -> Result<String, String> {
    let path = bin_dir.join(name);
    let output = Command::new(&path).arg("--help").output().map_err(|e| {
        format!(
            "running {} --help: {e} (build it first: cargo build --release --workspace --bins)",
            path.display()
        )
    })?;
    let rows = help_rows(&String::from_utf8_lossy(&output.stdout));
    if !output.status.success() || rows.is_empty() {
        return Err(format!("`{name} --help` did not print a flag table"));
    }
    Ok(markdown_table(rows.into_iter()))
}

/// Extract `(binary name, block text)` for every doc-check block.
fn readme_blocks(readme: &str) -> Result<Vec<(&str, &str)>, String> {
    let blocks: Option<Vec<(&str, &str)>> = readme
        .split("<!-- begin doc-check ")
        .skip(1)
        .map(|chunk| {
            let (name, rest) = chunk.split_once(" -->\n")?;
            Some((name, rest.split_once("<!-- end doc-check -->")?.0))
        })
        .collect();
    match blocks {
        Some(blocks) if !blocks.is_empty() => Ok(blocks),
        Some(_) => Err("README.md contains no doc-check blocks".into()),
        None => Err("README.md has a malformed or unterminated doc-check block".into()),
    }
}

/// Extract `(status, code)` pairs from markdown table rows of the shape
/// `| 429 | `quota_exceeded` | … |`.
fn error_table_rows(text: &str) -> BTreeSet<(u16, String)> {
    let mut rows = BTreeSet::new();
    for line in text.lines() {
        let mut cells = line.trim().split('|').map(str::trim);
        let Some("") = cells.next() else { continue };
        let Some(status) = cells.next().and_then(|c| c.parse::<u16>().ok()) else { continue };
        let Some(code) = cells
            .next()
            .and_then(|c| c.strip_prefix('`'))
            .and_then(|c| c.split_once('`'))
            .map(|(code, _)| code)
        else {
            continue;
        };
        rows.insert((status, code.to_string()));
    }
    rows
}

/// `docs/SERVICE.md` must document exactly the compiled error-code enum
/// and state the compiled API version. Returns whether it drifted.
fn service_doc_drift(service_md: &str) -> bool {
    let mut drifted = false;
    let documented = error_table_rows(service_md);
    let actual: BTreeSet<(u16, String)> =
        ErrorCode::ALL.iter().map(|c| (c.status(), c.as_str().to_string())).collect();
    for (status, code) in actual.difference(&documented) {
        drifted = true;
        eprintln!(
            "doc_check: docs/SERVICE.md error table is missing `{code}` (status {status}) — \
             the service can emit it"
        );
    }
    for (status, code) in documented.difference(&actual) {
        drifted = true;
        eprintln!(
            "doc_check: docs/SERVICE.md documents error code `{code}` (status {status}) \
             but ErrorCode has no such variant"
        );
    }
    let marker = format!("**API version {API_VERSION}**");
    if !service_md.contains(&marker) {
        drifted = true;
        eprintln!(
            "doc_check: docs/SERVICE.md does not state the current API version \
             (expected the marker `{marker}`)"
        );
    }
    if !drifted {
        println!(
            "doc_check: docs/SERVICE.md: {} error codes and API version {API_VERSION} in sync",
            ErrorCode::ALL.len()
        );
    }
    drifted
}

fn main() {
    let bin_dir = std::env::current_exe().expect("current_exe");
    let bin_dir = bin_dir.parent().expect("binary has a parent dir");
    // CARGO_MANIFEST_DIR is crates/bench; the documents live two levels up.
    let read = |file: &str| {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..").join(file);
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
    };
    let readme = read("README.md");
    let blocks = readme_blocks(&readme).unwrap_or_else(|e| {
        eprintln!("doc_check: {e}");
        std::process::exit(1)
    });

    let mut drifted = service_doc_drift(&read("docs/SERVICE.md"));
    for (name, body) in blocks {
        let expected = rendered_table(bin_dir, name).unwrap_or_else(|e| format!("({e})\n"));
        if body == expected {
            println!("doc_check: {name}: {} rows in sync", expected.lines().count() - 2);
            continue;
        }
        drifted = true;
        if let Some((documented, rendered)) =
            body.lines().zip(expected.lines()).find(|(d, r)| d != r)
        {
            eprintln!(
                "doc_check: {name}: README.md has\n  {documented}\nbut --help renders\n  {rendered}"
            );
        }
        eprintln!(
            "doc_check: {name}: README.md block drifted; it should read\n\
             <!-- begin doc-check {name} -->\n{expected}<!-- end doc-check -->"
        );
    }
    if drifted {
        eprintln!(
            "doc_check: documentation drifted; paste the blocks printed above into README.md \
             and update docs/SERVICE.md to match the compiled service contract"
        );
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HELP: &str = "usage: demo [FLAGS]\n\nflags:\n  --reps N    repetitions (default 1)\n  \
                        --quick     reduced  grid\n  -h, --help  print this help and exit\n\n\
                        About --not-a-flag  text.\n";

    #[test]
    fn help_rows_reads_flag_value_name_and_meaning() {
        assert_eq!(
            help_rows(HELP),
            [
                ("--reps N".to_string(), "repetitions (default 1)".to_string()),
                ("--quick".to_string(), "reduced  grid".to_string()),
            ]
        );
        assert!(help_rows("usage: old-style [--reps N]\n").is_empty());
    }

    #[test]
    fn readme_block_matches_only_the_exact_rendering() {
        let table = markdown_table(help_rows(HELP).into_iter());
        let readme =
            format!("intro\n<!-- begin doc-check demo -->\n{table}<!-- end doc-check -->\noutro\n");
        assert_eq!(readme_blocks(&readme).unwrap(), [("demo", table.as_str())]);
        // A reworded meaning is drift, not only a renamed flag.
        let reworded = readme.replace("repetitions (default 1)", "repetitions (default 2)");
        assert_ne!(readme_blocks(&reworded).unwrap()[0].1, table);
        assert!(readme_blocks("no blocks").is_err());
        assert!(readme_blocks("<!-- begin doc-check demo -->\n| x |\n").is_err());
    }

    #[test]
    fn error_table_rows_reads_status_and_code() {
        let rows = error_table_rows("| 429 | `quota_exceeded` | over a cap |\n| --- | --- |\n");
        assert_eq!(rows.into_iter().collect::<Vec<_>>(), [(429, "quota_exceeded".to_string())]);
    }
}
