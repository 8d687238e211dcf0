//! Regenerate the golden-report fixtures under `crates/testkit/fixtures/`.
//!
//! Run after an *intentional* behavioral change, then commit the diff:
//!
//! ```text
//! cargo run -p critter-testkit --bin bless
//! ```
//!
//! Equivalent: `CRITTER_BLESS=1 cargo test -p critter-testkit --test
//! golden_reports`.

fn main() {
    for tune in critter_testkit::golden_tunes() {
        let text = tune.run().to_json_string();
        let path = critter_testkit::golden::bless(tune.name, &text);
        println!("blessed {}", path.display());
    }
    let digests = critter_testkit::shape_digests(critter_sim::BackendKind::Threads);
    let path = critter_testkit::golden::bless(critter_testkit::SHAPE_DIGESTS_NAME, &digests);
    println!("blessed {}", path.display());
    let trace = critter_testkit::golden_trace();
    let path = critter_testkit::golden::bless(critter_testkit::GOLDEN_TRACE_NAME, &trace);
    println!("blessed {}", path.display());
    let scenario = critter_testkit::serve_oracle::run("bless");
    for (name, text) in &scenario.docs {
        let path = critter_testkit::golden::bless(name, text);
        println!("blessed {}", path.display());
    }
}
