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

use critter_core::fnv::fnv_hash;
use critter_core::json::Reader;
use critter_core::{CritterError, Result};
use serde_json::Value;

/// Format version tag checked by [`open`].
pub const SCHEMA: &str = "critter-session/v1";

/// Mask keeping hashes inside the integers canonical JSON round-trips
/// exactly (the same 52-bit guarantee `KernelSig::key` relies on).
const HASH_MASK: u64 = (1 << 52) - 1;

fn digest(kind: &str, fingerprint: u64, payload: &Value) -> u64 {
    let body = serde_json::json!({
        "fingerprint": fingerprint,
        "kind": kind,
        "payload": payload.clone(),
        "schema": SCHEMA,
    });
    fnv_hash(&serde_json::to_string(&body).expect("json writer is total")) & HASH_MASK
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
    serde_json::json!({
        "fingerprint": fingerprint,
        "hash": hash,
        "kind": kind,
        "payload": payload,
        "schema": SCHEMA,
    })
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
