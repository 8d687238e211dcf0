//! Shape determinism: no value a kernel body computes reaches a report.
//!
//! A sweep's schedule, and so every report field and observability metric,
//! is a function of tile shapes alone. The committed table
//! (`fixtures/shape-digests.json`, see `shape_digests`) holds one digest per
//! smoke space × policy cell plus online extrapolation per space. It was
//! written while every executed kernel still ran its body; sweeps now run
//! none, and every backend must reproduce the table byte for byte.
//! Regenerate with `cargo run -p critter-testkit --bin bless` only after a
//! change that is meant to move a schedule.

use critter_sim::BackendKind;
use critter_testkit::{golden, shape_digests, SHAPE_DIGESTS_NAME};

#[test]
fn every_cell_matches_its_committed_digest_on_every_backend() {
    for backend in BackendKind::ALL {
        golden::check_or_bless(SHAPE_DIGESTS_NAME, &shape_digests(backend));
    }
}
