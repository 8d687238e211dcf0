//! Trajectory-file contract tests: the `BENCH_<n>.json` schema round-trips,
//! the machine fingerprint is stable within a process, and the
//! tolerance-aware comparison produces the documented verdicts.

use std::time::Duration;

use critter_bench::harness::Timing;
use critter_bench::trajectory::{
    compare, render_comparison, Fingerprint, Trajectory, Verdict, TRAJECTORY_SCHEMA_VERSION,
};

fn timing(min_ns: u64, median_ns: u64, iters: usize) -> Timing {
    Timing { min: Duration::from_nanos(min_ns), median: Duration::from_nanos(median_ns), iters }
}

fn sample() -> Trajectory {
    let mut t = Trajectory::capture();
    t.record("sim", "compute_loop", timing(4_700_000, 4_950_000, 20));
    t.record("sim", "allreduce", timing(3_000_000, 3_100_000, 20));
    t.record("json", "report_canonical", timing(78_000, 80_000, 50));
    t
}

#[test]
fn schema_round_trips_bit_exactly() {
    let t = sample();
    let back = Trajectory::from_json(&t.to_json()).unwrap();
    assert_eq!(back, t);
    assert_eq!(back.to_json_string(), t.to_json_string());

    // The committed form is canonical: serializing twice is byte-identical,
    // carries the schema version, and ends with a newline.
    let s = t.to_json_string();
    assert_eq!(s, back.to_json_string());
    assert!(s.contains("\"schema_version\": 1"));
    assert!(s.ends_with('\n'));
}

#[test]
fn unknown_schema_versions_are_rejected() {
    let mut v = sample().to_json();
    if let Some(m) = v.as_object_mut() {
        m.insert("schema_version".into(), serde_json::json!(TRAJECTORY_SCHEMA_VERSION + 1));
    }
    let err = Trajectory::from_json(&v).unwrap_err();
    assert_eq!(err.path, "schema_version");
    assert!(err.detail.contains("unsupported"), "unhelpful error: {err}");
}

#[test]
fn truncated_file_errors_name_the_key() {
    let mut v = sample().to_json();
    v.as_object_mut().unwrap().remove("fingerprint");
    let err = Trajectory::from_json(&v).unwrap_err();
    assert_eq!(err.to_string(), "fingerprint: missing (expected an object)");

    let mut v = sample().to_json();
    let case0 = &mut v.get_mut("cases").unwrap().as_array_mut().unwrap()[0];
    case0.as_object_mut().unwrap().remove("min_ns");
    let err = Trajectory::from_json(&v).unwrap_err();
    assert_eq!(err.to_string(), "cases[0].min_ns: missing (expected an integer (u64))");
}

#[test]
fn fingerprint_is_stable_within_a_process() {
    let a = Fingerprint::detect();
    let b = Fingerprint::detect();
    assert_eq!(a, b);
    assert!(!a.os.is_empty());
    assert!(!a.arch.is_empty());
    assert!(a.cpus >= 1);
}

#[test]
fn write_read_round_trip() {
    let dir = std::env::temp_dir().join("critter-bench-trajectory-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("BENCH_test.json");
    let t = sample();
    t.write(&path).unwrap();
    let back = Trajectory::read(&path).unwrap();
    assert_eq!(back, t);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn compare_verdicts_respect_tolerance() {
    let mut old = Trajectory::capture();
    old.record("g", "two_x_faster", timing(1_000, 1_100, 10));
    old.record("g", "within_noise", timing(1_000, 1_100, 10));
    old.record("g", "regressed", timing(1_000, 1_100, 10));
    old.record("g", "dropped", timing(1_000, 1_100, 10));

    let mut new = Trajectory::capture();
    new.record("g", "two_x_faster", timing(500, 520, 10));
    new.record("g", "within_noise", timing(1_030, 1_090, 10)); // 3% drift < 5% tolerance
    new.record("g", "regressed", timing(1_500, 1_600, 10));
    new.record("g", "brand_new", timing(42, 42, 10));

    let deltas = compare(&old, &new, 0.05);
    let verdict = |case: &str| deltas.iter().find(|d| d.case == case).unwrap().verdict;
    assert_eq!(verdict("two_x_faster"), Verdict::Faster);
    assert_eq!(verdict("within_noise"), Verdict::Unchanged);
    assert_eq!(verdict("regressed"), Verdict::Slower);
    assert_eq!(verdict("brand_new"), Verdict::Added);
    assert_eq!(verdict("dropped"), Verdict::Removed);

    let speedup = deltas.iter().find(|d| d.case == "two_x_faster").unwrap().speedup.unwrap();
    assert!((speedup - 2.0).abs() < 1e-9);

    // A wider tolerance absorbs the regression.
    let loose = compare(&old, &new, 0.60);
    let verdict = |case: &str| loose.iter().find(|d| d.case == case).unwrap().verdict;
    assert_eq!(verdict("regressed"), Verdict::Unchanged);
    assert_eq!(verdict("two_x_faster"), Verdict::Faster); // 2x clears even 60%

    let table = render_comparison(&deltas, 0.05);
    assert!(table.contains("g/two_x_faster"));
    assert!(table.contains("1 faster, 1 slower"));
}
