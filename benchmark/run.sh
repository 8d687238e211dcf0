#!/usr/bin/env bash
# The repo benchmark's one command: build, run, check, print. See README.md.
#
#   benchmark/run.sh [--seed S] [--trace] [--runs N] [--out FILE]   all workloads
#   benchmark/run.sh --workload W --seed S --seconds N --trace 0|1  one workload
#   benchmark/run.sh --compare A.json B.json                        A/A or A/B check
#
# Builds two things from source into $CARGO_TARGET_DIR (default
# benchmark/target): this package, and the critter-serve binary of the repo's
# own workspace, which serve-small-jobs runs as a child.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
build_started=$(date +%s.%N)
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
cargo build --release --offline --quiet --manifest-path Cargo.toml -p critter-serve --bin critter-serve
echo "build_s $(awk "BEGIN { print $(date +%s.%N) - $build_started }") (not gated)" >&2

out=benchmark/out
tmp="$out/tmp/run-$$"
mkdir -p "$tmp"
child=
cleanup() {
    if [[ -n "$child" ]]; then kill "$child" 2>/dev/null || true; fi
    # A daemon outlives the benchmark only if the benchmark was killed
    # outright; its pid file says whom to stop.
    while IFS= read -r pid_file; do
        kill -9 "$(cat "$pid_file")" 2>/dev/null || true
    done < <(find "$tmp" -name 'daemon-*.pid' 2>/dev/null)
    rm -rf "$tmp"
    rmdir "$out/tmp" 2>/dev/null || true
}
trap cleanup EXIT
trap 'exit 143' TERM INT

# In the background, so that a signal reaches the traps at once.
"$CARGO_TARGET_DIR/release/critter-benchmark" "$@" \
    --out-dir "$out" --tmp-dir "$tmp" \
    --serve-bin "$CARGO_TARGET_DIR/release/critter-serve" &
child=$!
status=0
wait "$child" || status=$?
child=
exit "$status"
