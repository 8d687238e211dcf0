//! The envelope digest defined over text is the tree digest it replaced.
//!
//! On arbitrary payloads `envelope::seal` writes the bytes the tree writer
//! wrote around the digest older code computed by walking the tree, and
//! `envelope::text_hash` of a rendered payload is the `fnv_hash` of its
//! compact text that names a store blob.

use std::hash::Hasher;

use critter_core::fnv::{fnv_hash, FnvHasher};
use critter_core::json::canonical_text;
use critter_session::envelope;
use proptest::prelude::*;
use serde_json::{Tape, Value};

const HASH_MASK: u64 = (1 << 52) - 1;

/// A splitmix64 stream.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A positive float: an arbitrary mantissa at a scale from 1e-9 to 1e6.
    fn float(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64 * 10f64.powi(self.below(16) as i32 - 9)
    }
}

/// A payload drawn from `seed`: nested arrays and objects of every leaf,
/// strings with quotes, escapes, spaces and non-ASCII.
fn payload(draw: &mut Draw, depth: usize) -> Value {
    match draw.below(if depth > 3 { 4 } else { 6 }) {
        0 => Value::Null,
        1 => Value::Bool(draw.below(2) == 0),
        2 => {
            let x = f64::from_bits(draw.next());
            Value::Number(if x.is_finite() { x } else { draw.float() })
        }
        3 => Value::String(
            ["", "a b", "q\"\\\n\t", "\u{1}é😀", " {\"x\": [1, 2]} "][draw.below(5) as usize]
                .to_string(),
        ),
        4 => Value::Array((0..draw.below(4)).map(|_| payload(draw, depth + 1)).collect()),
        _ => {
            let mut map = serde_json::Map::new();
            for _ in 0..draw.below(4) {
                let key = ["a", "b b", "\"k\"", "z"][draw.below(4) as usize];
                map.insert(key.to_string(), payload(draw, depth + 1));
            }
            Value::Object(map)
        }
    }
}

/// The envelope digest as it was computed before it was defined over text:
/// the compact members but `hash`, streamed from the tree into FNV.
fn tree_digest(kind: &str, fingerprint: u64, payload: &Value) -> u64 {
    let mut hasher = FnvHasher::default();
    let mut member = |key: &str, value: &Value| {
        hasher.write(key.as_bytes());
        serde_json::to_writer(&mut hasher, value).unwrap();
    };
    member("{\"fingerprint\":", &serde_json::json!(fingerprint));
    member(",\"kind\":", &serde_json::json!(kind));
    member(",\"payload\":", payload);
    member(",\"schema\":", &serde_json::json!(envelope::SCHEMA));
    hasher.write(b"}");
    hasher.write_u8(0xff);
    hasher.finish() & HASH_MASK
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn text_digest_is_the_tree_digest(seed in 0u64..u64::MAX, fingerprint in 0u64..HASH_MASK) {
        let value = payload(&mut Draw(seed), 0);
        let sealed = envelope::seal("kind \"k\"", fingerprint, &value);
        let tree = serde_json::json!({
            "fingerprint": fingerprint,
            "hash": tree_digest("kind \"k\"", fingerprint, &value),
            "kind": "kind \"k\"",
            "payload": value.clone(),
            "schema": envelope::SCHEMA,
        });
        prop_assert_eq!(&sealed, &canonical_text(&tree));
        let tape = Tape::parse(&sealed).unwrap();
        prop_assert!(envelope::open(&tape, "kind \"k\"", Some(fingerprint)).is_ok());
        let compact = serde_json::to_string(&value).unwrap();
        let rendered = envelope::payload_text(&value);
        prop_assert_eq!(envelope::text_hash([rendered.as_str()]), fnv_hash(&compact) & HASH_MASK);
    }
}
