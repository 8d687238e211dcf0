//! Property test for the job-spec codec: `JobSpec::from_json` on arbitrary
//! spec-shaped objects — every accepted field and an unknown one, holding
//! every JSON type and the integers at each boundary the codec checks —
//! returns a spec or a typed 400, never panics, and every accepted spec
//! round-trips through `to_json`.

use critter_serve::JobSpec;
use proptest::prelude::*;
use serde_json::{Map, Value};

/// Field names a generated spec draws from: every accepted one and `bogus`.
const FIELDS: [&str; 24] = [
    "space",
    "policy",
    "epsilon",
    "smoke",
    "reps",
    "allocation",
    "seed",
    "machine",
    "extrapolate",
    "charge_internal",
    "observe",
    "backend",
    "shards",
    "persist_models",
    "retries",
    "faults",
    "warm_start",
    "staleness",
    "profile",
    "store",
    "label",
    "tenant",
    "priority",
    "bogus",
];

/// Keys of generated sub-objects (`faults`, `staleness`, `warm_start`).
const SUB_FIELDS: [&str; 9] = [
    "seed",
    "panic_prob",
    "delay_prob",
    "max_delay",
    "drop_prob",
    "retransmit_timeout",
    "decay",
    "variance_inflation",
    "oops",
];

/// Strings valid for some field, and ones valid for none.
const STRINGS: [&str; 10] = [
    "slate-cholesky",
    "capital-cholesky",
    "local",
    "online",
    "test",
    "stampede2-knl",
    "tasks",
    "team-a",
    "",
    "no/such",
];

/// Numbers on both sides of every range the codec checks, up to integers
/// that overflow a `usize` once multiplied or incremented.
const NUMBERS: [f64; 12] = [
    0.0,
    1.0,
    2.0,
    9.0,
    10.0,
    0.25,
    0.5,
    -1.0,
    1e300,
    9.0e15,
    9_223_372_036_854_775_807.0,
    18_446_744_073_709_551_615.0,
];

fn value(kind: usize, a: usize, b: usize) -> Value {
    let number = |i: usize| Value::Number(NUMBERS[i % NUMBERS.len()]);
    match kind {
        0 => Value::Null,
        1 => Value::Bool(a.is_multiple_of(2)),
        2 => number(a),
        3 => Value::String(STRINGS[a % STRINGS.len()].into()),
        4 => Value::Array(vec![number(a)]),
        _ => {
            let mut sub = Map::new();
            sub.insert(SUB_FIELDS[a % SUB_FIELDS.len()].into(), number(b));
            Value::Object(sub)
        }
    }
}

proptest! {
    #[test]
    fn from_json_returns_a_spec_or_a_typed_400(
        fields in collection::vec((0usize..24, 0usize..6, 0usize..16, 0usize..16), 0..8),
    ) {
        // Start from a valid smoke spec so that accepted specs are common.
        let mut doc = Map::new();
        doc.insert("space".into(), Value::String("slate-cholesky".into()));
        doc.insert("policy".into(), Value::String("local".into()));
        doc.insert("smoke".into(), Value::Bool(true));
        for (field, kind, a, b) in fields {
            doc.insert(FIELDS[field].into(), value(kind, a, b));
        }
        let text = serde_json::to_string(&Value::Object(doc)).expect("a JSON value serializes");
        match std::panic::catch_unwind(|| JobSpec::from_json(&text)) {
            Err(_) => prop_assert!(false, "from_json panicked on {text}"),
            Ok(Err(err)) => prop_assert!(err.status() == 400, "{text} gave {err}"),
            Ok(Ok(spec)) => {
                let canon = spec.to_json();
                match JobSpec::from_json(&canon) {
                    Ok(again) => prop_assert_eq!(again.to_json(), canon),
                    Err(err) => prop_assert!(false, "{canon} did not parse back: {err}"),
                }
            }
        }
    }
}
