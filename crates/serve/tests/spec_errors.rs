//! The job-spec codec's 400 texts, pinned byte for byte: each request body
//! maps to the exact `detail` a client is served. `serve-errors.json` pins
//! the common mistakes through the live daemon; this table covers the rest
//! of the codec's rules — a wrong type for each kind of field, `null` for a
//! required field, integers out of range, every `faults` and `staleness`
//! rule, `warm_start`'s shape, which of several bad fields is reported, and
//! duplicate keys (the last one counts).

use critter_serve::JobSpec;

/// A spec with the two required fields and `rest` appended.
fn spec(rest: &str) -> String {
    format!(r#"{{"space": "slate-cholesky", "policy": "local"{rest}}}"#)
}

const FAULT_FIELDS: &str = "seed, panic_prob, delay_prob, max_delay, drop_prob, retransmit_timeout";

#[test]
fn every_refusal_is_the_pinned_detail() {
    let cases: Vec<(String, String)> = [
        // Not a spec at all.
        (
            r#"{"space": "#.to_string(),
            "body is not valid JSON: invalid JSON at byte 10: expected a value",
        ),
        ("\"spec\"".to_string(), "job spec must be a JSON object"),
        // A wrong type for each kind of field.
        (r#"{"space": 3, "policy": "local"}"#.to_string(), "field `space` must be a string"),
        (spec(r#", "machine": 1"#), "field `machine` must be a string"),
        (spec(r#", "label": true"#), "field `label` must be a string"),
        (spec(r#", "backend": []"#), "field `backend` must be a string"),
        (spec(r#", "smoke": "yes""#), "field `smoke` must be a boolean"),
        (spec(r#", "persist_models": 1"#), "field `persist_models` must be a boolean"),
        (spec(r#", "epsilon": "big""#), "field `epsilon` must be a number"),
        (spec(r#", "seed": {}"#), "field `seed` must be an unsigned integer"),
        (spec(r#", "shards": true"#), "field `shards` must be an unsigned integer"),
        // `null` is absent, so a required field set to it is missing.
        (r#"{"space": null, "policy": "local"}"#.to_string(), "missing required field `space`"),
        (
            r#"{"space": "slate-cholesky", "policy": null}"#.to_string(),
            "missing required field `policy`",
        ),
        // Integers: negative, fractional, past the exactly readable range.
        (spec(r#", "allocation": -1"#), "field `allocation` must be an unsigned integer"),
        (spec(r#", "reps": 2.5"#), "field `reps` must be an unsigned integer"),
        (spec(r#", "seed": 9000000000000001"#), "field `seed` is too large"),
        (spec(r#", "shards": 1e300"#), "field `shards` is too large"),
        (spec(r#", "priority": -0.5"#), "field `priority` must be an unsigned integer"),
        (spec(r#", "epsilon": 0"#), "field `epsilon` must be a positive finite number, got 0"),
        // `faults`: its shape, each field's type and range, an unknown field.
        (spec(r#", "faults": [1]"#), "field `faults` must be a JSON object"),
        (spec(r#", "faults": {"seed": -1}"#), "field `seed` must be an unsigned integer"),
        (spec(r#", "faults": {"seed": 1e16}"#), "field `seed` is too large"),
        (spec(r#", "faults": {"panic_prob": "x"}"#), "field `panic_prob` must be a number"),
        (
            spec(r#", "faults": {"panic_prob": -0.1}"#),
            "faults field `panic_prob` must be a probability in [0, 1], got -0.1",
        ),
        (
            spec(r#", "faults": {"delay_prob": 1.5}"#),
            "faults field `delay_prob` must be a probability in [0, 1], got 1.5",
        ),
        (
            spec(r#", "faults": {"drop_prob": 2}"#),
            "faults field `drop_prob` must be a probability in [0, 1], got 2",
        ),
        (
            spec(r#", "faults": {"max_delay": -1}"#),
            "faults field `max_delay` must be a non-negative finite number, got -1",
        ),
        (
            spec(r#", "faults": {"retransmit_timeout": -0.25}"#),
            "faults field `retransmit_timeout` must be a non-negative finite number, got -0.25",
        ),
        (
            spec(r#", "faults": {"oops": 1, "drop_prob": 0.5}"#),
            &format!("unknown faults field `oops` (allowed: {FAULT_FIELDS})"),
        ),
        // `staleness`: its shape, each field's type and range, an unknown
        // field, and a `warm_start` to discount.
        (spec(r#", "staleness": 0.5"#), "field `staleness` must be a JSON object"),
        (spec(r#", "staleness": {"decay": "x"}"#), "field `decay` must be a number"),
        (
            spec(r#", "staleness": {"decay": 0}"#),
            "staleness field `decay` must be in (0, 1], got 0",
        ),
        (
            spec(r#", "staleness": {"decay": 1.5}"#),
            "staleness field `decay` must be in (0, 1], got 1.5",
        ),
        (
            spec(r#", "staleness": {"variance_inflation": 0.5}"#),
            "staleness field `variance_inflation` must be >= 1, got 0.5",
        ),
        (
            spec(r#", "staleness": {"bogus": 1}"#),
            "unknown staleness field `bogus` (allowed: decay, variance_inflation)",
        ),
        (
            spec(r#", "staleness": {"decay": 0.5}"#),
            "field `staleness` requires a `warm_start` profile to discount",
        ),
        (spec(r#", "warm_start": [1]"#), "field `warm_start` must be a profile JSON object"),
        (
            spec(r#", "staleness": {"decay": 0.5}, "warm_start": "profile""#),
            "field `warm_start` must be a profile JSON object",
        ),
        // Of several bad fields, the first in the codec's order is reported:
        // unknown fields (in sorted order) first, …
        (
            spec(r#", "zz": 1, "aa": 2, "reps": 0"#),
            "unknown job spec field `aa` (allowed: space, policy, epsilon, smoke, reps, \
             allocation, seed, machine, extrapolate, charge_internal, observe, backend, \
             shards, persist_models, retries, faults, warm_start, staleness, profile, store, \
             label, tenant, priority)",
        ),
        // … then `space`, `policy` and the fields with a rule of their own
        // (`faults` among them), then the plain ones in spec order.
        (spec(r#", "seed": "x", "faults": 1"#), "field `faults` must be a JSON object"),
        (spec(r#", "seed": "x", "smoke": 1"#), "field `smoke` must be a boolean"),
        // Of duplicate keys, the last one counts.
        (spec(r#", "reps": 0, "reps": "x""#), "field `reps` must be an unsigned integer"),
        (spec(r#", "reps": "x", "reps": 0"#), "field `reps` must be at least 1"),
        (
            r#"{"space": "slate-cholesky", "space": "hypercube", "policy": "local"}"#.to_string(),
            "unknown space `hypercube` (one of: capital-cholesky, slate-cholesky, candmc-qr, \
             slate-qr, summa25d)",
        ),
    ]
    .into_iter()
    .map(|(body, detail)| (body, detail.to_string()))
    .collect();
    for (body, detail) in &cases {
        let err = JobSpec::from_json(body).expect_err(body);
        assert_eq!(err.status(), 400, "{body}");
        assert_eq!(&err.detail(), detail, "{body}");
    }
}

/// `null` reads as absent, a duplicate key's last value counts, and an
/// integer at the edge of the exact range is accepted.
#[test]
fn null_is_absent_and_the_last_duplicate_counts() {
    let nulls = spec(
        r#", "epsilon": null, "reps": null, "seed": null, "label": null, "faults": null,
            "staleness": null, "warm_start": null, "persist_models": null"#,
    );
    let plain = JobSpec::from_json(&spec("")).unwrap().to_json();
    assert_eq!(JobSpec::from_json(&nulls).unwrap().to_json(), plain);
    let twice = JobSpec::from_json(&spec(r#", "reps": "x", "reps": 3"#)).unwrap();
    assert_eq!(twice.reps, 3);
    let edge = JobSpec::from_json(&spec(r#", "seed": 9000000000000000"#)).unwrap();
    assert_eq!(edge.seed, 9_000_000_000_000_000);
}
