//! The versioned, content-hashed envelope every session artifact is sealed
//! in before touching disk.
//!
//! An envelope is a canonical JSON object
//! `{"fingerprint", "hash", "kind", "payload", "schema"}`:
//!
//! * `schema` is the format version tag ([`SCHEMA`]); a reader refuses
//!   envelopes from a different schema generation outright;
//! * `kind` distinguishes artifact types (`"profile"`, `"checkpoint"`);
//! * `fingerprint` binds the artifact to the tuning options that produced
//!   it, so a checkpoint can never resume a sweep it does not describe;
//! * `hash` is an FNV digest of the canonical text of everything else,
//!   which catches truncated or hand-edited files before any state is
//!   restored from them.

use std::hash::Hasher;

use critter_core::fnv::FnvHasher;
use critter_core::json::Reader;
use critter_core::{CritterError, Result};
use serde_json::Value;

/// Format version tag checked by [`open`].
pub const SCHEMA: &str = "critter-session/v1";

/// Mask keeping hashes inside the integers canonical JSON round-trips
/// exactly (the same 52-bit guarantee `KernelSig::key` relies on).
pub const HASH_MASK: u64 = (1 << 52) - 1;

/// The content hash: FNV over the compact canonical text of the envelope
/// without its `hash` member. The text is streamed into the hasher member by
/// member — the payload is borrowed, never copied or rendered to a string.
fn digest(kind: &str, fingerprint: u64, payload: &Value) -> u64 {
    let mut hasher = FnvHasher::default();
    let mut member = |key: &str, value: &Value| {
        hasher.write(key.as_bytes());
        serde_json::to_writer(&mut hasher, value).expect("a hasher accepts every byte");
    };
    member("{\"fingerprint\":", &serde_json::json!(fingerprint));
    member(",\"kind\":", &serde_json::json!(kind));
    member(",\"payload\":", payload);
    member(",\"schema\":", &serde_json::json!(SCHEMA));
    hasher.write(b"}");
    // `str::hash` ends a string with 0xff; kept so stored hashes stay valid.
    hasher.write_u8(0xff);
    hasher.finish() & HASH_MASK
}

/// Seal `payload` into a versioned envelope of the given `kind`.
///
/// # Examples
///
/// ```
/// use critter_session::envelope;
///
/// let doc = envelope::seal("profile", 7, serde_json::json!({"v": 1.5}));
/// let payload = envelope::open(&doc, "profile", Some(7)).unwrap();
/// assert_eq!(payload, &serde_json::json!({"v": 1.5}));
/// assert!(envelope::open(&doc, "checkpoint", Some(7)).is_err());
/// assert!(envelope::open(&doc, "profile", Some(8)).is_err());
/// ```
pub fn seal(kind: &str, fingerprint: u64, payload: Value) -> Value {
    let hash = digest(kind, fingerprint, &payload);
    let mut doc = serde_json::json!({
        "fingerprint": fingerprint,
        "hash": hash,
        "kind": kind,
        "schema": SCHEMA,
    });
    // Moved in, not interpolated: `json!` would copy the tree.
    doc.as_object_mut().expect("built as an object").insert("payload".into(), payload);
    doc
}

/// Verify an envelope and return its payload.
///
/// Checks, in order: the schema tag, the artifact `kind`, the content
/// hash, and — when `fingerprint` is given — the options fingerprint.
/// Schema/kind/hash failures are [`CritterError::Schema`]; a fingerprint
/// disagreement is [`CritterError::Mismatch`] (the file is valid, it just
/// belongs to a different sweep).
pub fn open<'a>(doc: &'a Value, kind: &str, fingerprint: Option<u64>) -> Result<&'a Value> {
    let r = Reader::root("envelope", doc);
    let (schema, found_kind) = (r.at("schema"), r.at("kind"));
    if schema.str()? != SCHEMA {
        let detail = format!("unsupported schema `{}` (expected `{SCHEMA}`)", schema.str()?);
        return Err(schema.error(detail).into());
    }
    if found_kind.str()? != kind {
        let detail = format!("artifact kind `{}` (expected `{kind}`)", found_kind.str()?);
        return Err(found_kind.error(detail).into());
    }
    let found_fp = r.at("fingerprint").u64()?;
    let payload = r.at("payload").value()?;
    let hash = r.at("hash");
    if hash.u64()? != digest(kind, found_fp, payload) {
        return Err(hash.error("content hash mismatch (corrupt file)").into());
    }
    if let Some(expect) = fingerprint {
        if found_fp != expect {
            return Err(CritterError::mismatch(format!(
                "envelope fingerprint {found_fp} does not match the active options ({expect})"
            )));
        }
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_open_round_trip() {
        let doc = seal("checkpoint", 42, serde_json::json!({"units": 3}));
        let payload = open(&doc, "checkpoint", Some(42)).unwrap();
        assert_eq!(payload, &serde_json::json!({"units": 3}));
        // Fingerprint check is optional.
        assert!(open(&doc, "checkpoint", None).is_ok());
    }

    /// The digest is streamed; the hashes it produces are the ones the
    /// render-then-hash digest of the parent commit produced.
    #[test]
    fn hashes_are_the_ones_older_commits_wrote() {
        let inner = serde_json::json!({
            "label": "tile \"64\"\n\u{1}é",
            "t": [0.1, 1e-7, 3.0, -2.5e300],
        });
        let list = vec![inner.clone(), Value::Null, serde_json::json!(true)];
        let payload = serde_json::json!({"k": inner, "list": list, "n": 9007199254740993u64});
        let doc = seal("check\"point", (1 << 52) - 1, payload);
        // Literal computed by `seal` at the commit before the change.
        assert_eq!(doc.get("hash"), Some(&serde_json::json!(2761839762894542u64)));
        open(&doc, "check\"point", Some((1 << 52) - 1)).unwrap();

        // A checkpoint sealed by PR 11 still opens.
        let fixture =
            concat!(env!("CARGO_MANIFEST_DIR"), "/../autotune/tests/fixtures/checkpoint-pr11.json");
        let doc = crate::durable::read_value(std::path::Path::new(fixture)).unwrap();
        open(&doc, "checkpoint", None).expect("the committed fixture's hash still verifies");
    }

    #[test]
    fn tampering_is_detected() {
        let mut doc = seal("profile", 1, serde_json::json!({"n": 1}));
        if let Value::Object(m) = &mut doc {
            m.insert("payload".into(), serde_json::json!({"n": 2}));
        }
        let err = open(&doc, "profile", None).unwrap_err();
        assert!(err.to_string().contains("hash mismatch"), "got: {err}");
    }

    #[test]
    fn wrong_schema_and_kind_are_rejected() {
        let mut doc = seal("profile", 1, Value::Null);
        assert!(open(&doc, "checkpoint", None).is_err());
        if let Value::Object(m) = &mut doc {
            m.insert("schema".into(), serde_json::json!("critter-session/v0"));
        }
        let err = open(&doc, "profile", None).unwrap_err();
        assert!(err.to_string().contains("unsupported schema"), "got: {err}");
        assert!(open(&Value::Null, "profile", None).is_err());
    }

    #[test]
    fn fingerprint_mismatch_is_a_mismatch_error() {
        let doc = seal("checkpoint", 5, Value::Null);
        let err = open(&doc, "checkpoint", Some(6)).unwrap_err();
        assert!(matches!(err, CritterError::Mismatch { .. }), "got: {err}");
    }
}
