#!/usr/bin/env bash
# The repository's grep gates, each defined once: CI's lint job runs this
# script, and so does anyone checking a change by hand. Every gate prints its
# name when it fails; the script exits non-zero if any gate failed.
#
#   bash scripts/gates.sh
set -uo pipefail
cd "$(dirname "$0")/.."

# Run one gate: a function whose status is its checks joined by `&&` (under
# `set -e` a `!`-negated check that is not the last would never fail).
failed=0
gate() {
    local name="$1"
    shift
    if ! "$@"; then
        echo "gate failed: $name" >&2
        failed=1
    fi
}

# Persisted documents and request bodies are decoded only through
# `critter_obs::json` (DESIGN.md §6.2), so typed accessors of a JSON value
# (`Value`'s or a tape node's) may appear in that module and nowhere else
# under `crates/*/src`. `as_str` is left out of the pattern because it is
# `String`'s method too.
one_json_reader() {
    ! grep -rnE '\.as_(u64|i64|f64|bool|array|object)\(\)|Value::as_[a-z0-9]+' crates/*/src \
        | grep -v '^crates/obs/src/json\.rs:'
}
gate "one JSON reader (no hand-rolled decoder outside critter_obs::json)" one_json_reader

# The reader has one backing, a node of a `serde_json::Tape` (DESIGN.md
# §6.2): no second kind of node it dispatches over, and no way to build a
# reader over a `Value` tree, which is decoded by way of its text instead.
one_reader_backing() {
    ! grep -rnE 'enum Node\b|Node::Tree|impl<.v> From<&.v Value>' crates/*/src
}
gate "one reader backing (the JSON reader reads a tape node, never a Value tree)" \
    one_reader_backing

# `session.log`, `timeline.jsonl` and `events.jsonl` open, cut and append
# through `critter_session::durable::Log` (DESIGN.md §6.2), the one owner of
# their tail rule: no file under `crates/*/src` but `durable.rs` opens a file
# for appending, cuts one, or sums line lengths into a committed length.
one_append_only_log() {
    ! grep -rnE 'append\(true\)|set_len\(|len\(\)[^;]*\+ 1\)[[:space:]]*\.sum' crates/*/src \
        | grep -v '^crates/session/src/durable\.rs:'
}
gate "one append-only log (durable::Log owns open, cut and append)" one_append_only_log

# A sweep carries one kernel-store fleet, the one its next unit starts from
# (DESIGN.md §6.2): no second copy of it under `crates/*/src`, and the key of
# the copy older checkpoint heads held is read in one place, the restore's
# compatibility rule in `engine.rs`.
one_chain_state() {
    ! grep -rn 'entry_state' crates/*/src &&
        ! grep -rn 'entry_stores' crates/*/src | grep -v '^crates/autotune/src/engine\.rs:'
}
gate "one chain state (one store fleet; entry_stores only in the compatibility read)" \
    one_chain_state

# Every skip decision reads one table of Student-t critical values per
# process, `critter_core`'s `CONFIDENCE`: the table takes no lock, no
# library code outside critter-stats builds a second level, and a rank's
# `CritterEnv` holds none of its own (each rank-run used to redo the
# bisection for every dof it met).
one_critical_value_table() {
    ! grep -nE 'Mutex|HashMap' crates/stats/src/confidence.rs &&
        ! grep -rn 'ConfidenceLevel::new' crates/*/src src examples \
            | grep -vE '^crates/(stats/src/|core/src/policy\.rs:)' &&
        ! grep -nE '^[[:space:]]+[a-z_]+: &?[^ ]*ConfidenceLevel' crates/core/src/env.rs
}
gate "one critical-value table (one process-wide level, no lock, none per rank)" \
    one_critical_value_table

# `CritterEnv::selectively` is the only place a user communication is timed
# and its sample recorded; a second caller of `post_executed_comm` is a copy
# of that step.
one_interception_step() {
    test "$(grep -c 'self.post_executed_comm(' crates/core/src/env.rs)" -eq 1
}
gate "one interception step (every user communication timed and recorded in one place)" \
    one_interception_step

# Kernel time comes from the machine model, so no sweep reads a kernel's
# result (DESIGN.md §2.1): `CritterEnv::kernel` calls `body` only under its
# verify check, and no sweep engine, daemon, figure driver, CLI or example
# builds a verifying env. Only correctness tests verify.
numerics_only_where_a_run_verifies() {
    test "$(grep -c 'body()' crates/core/src/env.rs)" -eq 1 &&
        grep -B1 'body()' crates/core/src/env.rs | head -1 | grep -q 'if self\.verify {$' &&
        ! grep -rn 'verifying(' crates/autotune/src crates/serve/src crates/bench/src src/bin \
            examples
}
gate "numerics only where a run verifies (kernel bodies run under the verify check)" \
    numerics_only_where_a_run_verifies

# No library needs `unsafe`: every library root forbids it, so the compiler
# refuses an `unsafe` block in any of the workspace's libraries.
no_unsafe_code() {
    test -z "$(grep -L 'forbid(unsafe_code)' crates/*/src/lib.rs src/lib.rs)"
}
gate "no unsafe code (every library root forbids unsafe code)" no_unsafe_code

# critter-sim finds a deadlock by counting live ranks, not by timing a wait;
# a timed wait or a timeout knob here would bring the guess back.
no_wall_clock_in_matching_core() {
    ! grep -nE '\.wait_for\(|Duration|Instant|deadlock_timeout' \
        crates/sim/src/core.rs crates/sim/src/runner.rs
}
gate "no wall clock in the matching core (deadlock detection is exact)" \
    no_wall_clock_in_matching_core

# Host performance is measured by one stack, `benchmark/` (the contract in
# BENCHMARK.json, compared with `benchmark/run.sh --compare`): no crate
# outside it declares a `[[bench]]` target and no perf ledger is committed
# under `results/`.
one_benchmark_stack() {
    test -z "$(git ls-files -co --exclude-standard '*Cargo.toml' ':!:benchmark/**' | xargs -r grep -l '^\[\[bench\]\]')" &&
        test -z "$(git ls-files 'results/BENCH_*')"
}
gate "one benchmark stack (no [[bench]] outside benchmark/, no committed results/BENCH_*)" \
    one_benchmark_stack

exit "$failed"
