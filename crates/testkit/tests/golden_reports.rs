//! Golden-report regression tests: the canonical JSON of one small, fully
//! pinned tuning sweep per workload space (each under a different policy,
//! see `golden_tunes`) is compared byte-for-byte against committed fixtures.
//!
//! Because every float in the report is a deterministic function of the
//! codebase (counter-based noise, sorted JSON keys, shortest-round-trip
//! float formatting), *any* behavioral change to the simulator, noise
//! model, statistics, or sweep schedule shows up as a fixture diff — which
//! is exactly the point: intentional changes re-bless
//! (`cargo run -p critter-testkit --bin bless`), unintentional ones fail CI.

use critter_testkit::{golden, golden_tunes};

#[test]
fn golden_reports_match_committed_fixtures() {
    for tune in golden_tunes() {
        let text = tune.run().to_json_string();
        golden::check_or_bless(tune.name, &text);
    }
}

#[test]
fn blessing_is_idempotent() {
    // The acceptance criterion for `--bless`: regenerating on a clean tree
    // produces byte-identical fixtures (no timestamps, no map-order drift,
    // no float noise).
    for tune in golden_tunes() {
        assert_eq!(
            tune.run().to_json_string(),
            tune.run().to_json_string(),
            "{} must serialize identically across runs",
            tune.name
        );
    }
}
