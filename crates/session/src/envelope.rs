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
//!
//! The digest is defined over text: the envelope's members but `hash`, in
//! the order the file holds them, with the whitespace between tokens left
//! out — the compact canonical text. [`seal`] renders the document once and
//! hashes those bytes; [`open`] hashes the same bytes of the file it reads,
//! so neither side renders the payload a second time. A file as the
//! canonical writer wrote it therefore verifies however it is indented, and
//! a payload edited into a different spelling (`1.5` → `1.50`, reordered
//! keys) is refused even where it would decode to the same value.

use std::hash::Hasher;
use std::path::Path;

use critter_core::fnv::FnvHasher;
use critter_core::json::Reader;
use critter_core::{CritterError, Result};
use serde_json::{Tape, TapeNode, Value};

/// Format version tag checked by [`open`].
pub const SCHEMA: &str = "critter-session/v1";

/// Mask keeping hashes inside the integers canonical JSON round-trips
/// exactly (the same 52-bit guarantee `KernelSig::key` relies on).
pub const HASH_MASK: u64 = (1 << 52) - 1;

/// The one content digest: FNV-1a over the concatenated `parts` with the
/// whitespace between JSON tokens left out, ended by the `0xff` that
/// `str::hash` writes, masked to 52 bits. Of one canonical document it is
/// `fnv_hash` of its compact text — the name of a store blob, and, over an
/// envelope's members but `hash`, the envelope's `hash`. A part must not
/// split a string literal.
pub fn text_hash<'a>(parts: impl IntoIterator<Item = &'a str>) -> u64 {
    let is_space = |b: u8| matches!(b, b' ' | b'\n' | b'\t' | b'\r');
    let mut hasher = FnvHasher::default();
    for part in parts {
        let (bytes, mut i) = (part.as_bytes(), 0);
        while i < bytes.len() {
            let start = i;
            if bytes[i] == b'"' {
                // A string literal, through its closing quote.
                i += 1;
                while i < bytes.len() && bytes[i] != b'"' {
                    i += if bytes[i] == b'\\' { 2 } else { 1 };
                }
                i = (i + 1).min(bytes.len());
            } else if is_space(bytes[i]) {
                i += 1;
                continue;
            } else {
                while i < bytes.len() && !is_space(bytes[i]) && bytes[i] != b'"' {
                    i += 1;
                }
            }
            hasher.write(&bytes[start..i]);
        }
    }
    hasher.write_u8(0xff);
    hasher.finish() & HASH_MASK
}

/// `payload` rendered as it stands in an envelope: canonical pretty text,
/// one level deep.
pub fn payload_text(payload: &Value) -> String {
    let mut text = String::new();
    serde_json::write_pretty(&mut text, payload, 1).expect("a String sink never fails");
    text
}

/// Seal `payload` into a versioned envelope of the given `kind`: the
/// envelope's canonical text, trailing newline included.
///
/// # Examples
///
/// ```
/// use critter_core::json::Reader;
/// use critter_session::envelope;
/// use serde_json::Tape;
///
/// let text = envelope::seal("profile", 7, &serde_json::json!({"v": 1.5}));
/// let tape = Tape::parse(&text).unwrap();
/// let payload = envelope::open(&tape, "profile", Some(7)).unwrap();
/// assert_eq!(Reader::root("payload", payload).at("v").f64(), Ok(1.5));
/// assert!(envelope::open(&tape, "checkpoint", Some(7)).is_err());
/// assert!(envelope::open(&tape, "profile", Some(8)).is_err());
/// ```
pub fn seal(kind: &str, fingerprint: u64, payload: &Value) -> String {
    render(kind, fingerprint, |text| serde_json::write_pretty(text, payload, 1))
}

/// [`seal`] for a payload already rendered by [`payload_text`].
pub fn seal_text(kind: &str, fingerprint: u64, payload: &str) -> String {
    render(kind, fingerprint, |text| {
        text.push_str(payload);
        Ok(())
    })
}

/// The envelope's text with the payload `write` renders: rendered once
/// without its `hash` member, hashed, and the member inserted.
fn render(
    kind: &str,
    fingerprint: u64,
    write: impl FnOnce(&mut String) -> std::fmt::Result,
) -> String {
    let written = |r: std::fmt::Result| r.expect("a String sink never fails");
    let mut text = String::from("{\n  \"fingerprint\": ");
    written(serde_json::write_number(&mut text, fingerprint as f64));
    let hash_at = text.len();
    text.push_str(",\n  \"kind\": ");
    written(serde_json::escape_into(&mut text, kind));
    text.push_str(",\n  \"payload\": ");
    written(write(&mut text));
    text.push_str(",\n  \"schema\": ");
    written(serde_json::escape_into(&mut text, SCHEMA));
    text.push_str("\n}\n");
    let mut hash = ",\n  \"hash\": ".to_string();
    written(serde_json::write_number(&mut hash, text_hash([text.as_str()]) as f64));
    text.insert_str(hash_at, &hash);
    text
}

/// Verify an envelope and return its payload.
///
/// Checks, in order: the schema tag, the artifact `kind`, the content
/// hash, and — when `fingerprint` is given — the options fingerprint.
/// Schema/kind/hash failures are [`CritterError::Schema`]; a fingerprint
/// disagreement is [`CritterError::Mismatch`] (the file is valid, it just
/// belongs to a different sweep).
pub fn open<'t>(tape: &'t Tape<'t>, kind: &str, fingerprint: Option<u64>) -> Result<TapeNode<'t>> {
    let root = tape.root();
    let r = Reader::root("envelope", root);
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
    let payload =
        root.get("payload").ok_or_else(|| r.at("payload").error("missing (expected a value)"))?;
    let hash = r.at("hash");
    if hash.u64()? != digest(root) {
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

/// [`text_hash`] of an envelope object's members but `hash`, as the text
/// holds them: `{member,member,…}`.
fn digest(envelope: TapeNode<'_>) -> u64 {
    let (text, offset) = (envelope.text(), envelope.span().start);
    let members = envelope.entries().into_iter().flatten();
    let mut parts = vec!["{"];
    for (key, value) in members.filter(|(key, _)| key.as_str() != Some("hash")) {
        if parts.len() > 1 {
            parts.push(",");
        }
        parts.push(&text[key.span().start - offset..value.span().end - offset]);
    }
    parts.push("}");
    text_hash(parts)
}

/// Read the sealed document at `path`, [`open`] it, and decode its payload
/// with `decode`. The file is parsed once, onto a tape.
pub fn load<T>(
    path: &Path,
    kind: &str,
    fingerprint: Option<u64>,
    decode: impl FnOnce(TapeNode<'_>) -> Result<T>,
) -> Result<T> {
    let text = std::fs::read_to_string(path).map_err(|e| CritterError::io(path, e))?;
    let tape = Tape::parse(&text)
        .map_err(|e| CritterError::parse(path.display().to_string(), e.to_string()))?;
    decode(open(&tape, kind, fingerprint)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Open `text` and parse the payload's text back into a tree.
    fn opened(text: &str, kind: &str, fingerprint: Option<u64>) -> Result<Value> {
        let tape = Tape::parse(text).unwrap();
        let payload = open(&tape, kind, fingerprint)?;
        Ok(serde_json::from_str(payload.text()).unwrap())
    }

    /// The envelope as a tree, the way it was built before the digest was
    /// defined over text: the reference `seal` must render byte for byte.
    fn tree_envelope(kind: &str, fingerprint: u64, payload: &Value) -> Value {
        let mut hasher = FnvHasher::default();
        let mut member = |key: &str, value: &Value| {
            hasher.write(key.as_bytes());
            serde_json::to_writer(&mut hasher, value).unwrap();
        };
        member("{\"fingerprint\":", &serde_json::json!(fingerprint));
        member(",\"kind\":", &serde_json::json!(kind));
        member(",\"payload\":", payload);
        member(",\"schema\":", &serde_json::json!(SCHEMA));
        hasher.write(b"}");
        hasher.write_u8(0xff);
        let hash = hasher.finish() & HASH_MASK;
        serde_json::json!({
            "fingerprint": fingerprint,
            "hash": hash,
            "kind": kind,
            "payload": payload.clone(),
            "schema": SCHEMA,
        })
    }

    #[test]
    fn seal_open_round_trip() {
        let text = seal("checkpoint", 42, &serde_json::json!({"units": 3}));
        assert_eq!(opened(&text, "checkpoint", Some(42)).unwrap(), serde_json::json!({"units": 3}));
        // Fingerprint check is optional.
        assert!(opened(&text, "checkpoint", None).is_ok());
    }

    /// The text digest is the one the tree digest of older commits wrote,
    /// and `seal` writes the bytes the tree writer did.
    #[test]
    fn hashes_are_the_ones_older_commits_wrote() {
        let inner = serde_json::json!({
            "label": "tile \"64\"\n\u{1}é",
            "t": [0.1, 1e-7, 3.0, -2.5e300],
        });
        let list = vec![inner.clone(), Value::Null, serde_json::json!(true)];
        let payload = serde_json::json!({"k": inner, "list": list, "n": 9007199254740993u64});
        let text = seal("check\"point", (1 << 52) - 1, &payload);
        // Literal computed by `seal` at the commit before the digest moved
        // onto the text.
        assert!(text.contains("\n  \"hash\": 2761839762894542,\n"), "{text}");
        let tree = tree_envelope("check\"point", (1 << 52) - 1, &payload);
        assert_eq!(text, critter_core::json::canonical_text(&tree));
        opened(&text, "check\"point", Some((1 << 52) - 1)).unwrap();
        let empty = vec![serde_json::json!([]), serde_json::json!({})];
        for payload in [Value::Null, Value::Array(empty), serde_json::json!("s p a c e")] {
            let tree = tree_envelope("k", 3, &payload);
            assert_eq!(seal("k", 3, &payload), critter_core::json::canonical_text(&tree));
        }

        // A checkpoint sealed by PR 11 still opens.
        let fixture =
            concat!(env!("CARGO_MANIFEST_DIR"), "/../autotune/tests/fixtures/checkpoint-pr11.json");
        load(Path::new(fixture), "checkpoint", None, |_| Ok(()))
            .expect("the committed fixture's hash still verifies");
    }

    /// Whitespace between tokens is not hashed, so a re-indented envelope
    /// opens; the spelling of every token is, so a respelled number in the
    /// payload — the same value — is refused. Hand-edited non-canonical text
    /// is rejected.
    #[test]
    fn indentation_is_free_but_spelling_is_hashed() {
        let v = serde_json::json!([1.5, "a b"]);
        let text = seal("profile", 9, &serde_json::json!({ "v": v }));
        let flat: String = text.lines().map(str::trim_start).collect::<Vec<_>>().join("\r\n\t");
        assert_ne!(flat, text);
        assert_eq!(opened(&flat, "profile", Some(9)).unwrap().get("v"), Some(&v));
        // Inside a string, a space is content.
        let err = opened(&text.replace("a b", "a  b"), "profile", None).unwrap_err();
        assert!(err.to_string().contains("content hash mismatch"), "got: {err}");
        let err = opened(&text.replace("1.5", "1.50"), "profile", None).unwrap_err();
        assert_eq!(
            err.to_string(),
            "schema error in envelope: hash: content hash mismatch (corrupt file)"
        );
    }

    #[test]
    fn tampering_is_detected() {
        let text = seal("profile", 1, &serde_json::json!({"n": 1}));
        let err = opened(&text.replace("\"n\": 1", "\"n\": 2"), "profile", None).unwrap_err();
        assert!(err.to_string().contains("hash mismatch"), "got: {err}");
    }

    #[test]
    fn wrong_schema_and_kind_are_rejected() {
        let text = seal("profile", 1, &Value::Null);
        assert!(opened(&text, "checkpoint", None).is_err());
        let err = opened(&text.replace(SCHEMA, "critter-session/v0"), "profile", None).unwrap_err();
        assert!(err.to_string().contains("unsupported schema"), "got: {err}");
        assert!(opened("null", "profile", None).is_err());
        let err = opened(&text.replace("\"payload\"", "\"pay\""), "profile", None).unwrap_err();
        assert_eq!(
            err.to_string(),
            "schema error in envelope: payload: missing (expected a value)"
        );
    }

    #[test]
    fn fingerprint_mismatch_is_a_mismatch_error() {
        let text = seal("checkpoint", 5, &Value::Null);
        let err = opened(&text, "checkpoint", Some(6)).unwrap_err();
        assert!(matches!(err, CritterError::Mismatch { .. }), "got: {err}");
    }

    #[test]
    fn load_refuses_a_missing_file_as_io_and_a_malformed_one_as_parse() {
        let err = load(Path::new("/definitely/not/here.json"), "profile", None, |_| Ok(()));
        assert!(matches!(err, Err(CritterError::Io { .. })), "got: {err:?}");
        let path = std::env::temp_dir().join(format!("malformed-{}.json", std::process::id()));
        std::fs::write(&path, "{not json").unwrap();
        let err = load(&path, "profile", None, |_| Ok(())).unwrap_err();
        assert!(matches!(err, CritterError::Parse { .. }), "got: {err}");
        assert!(err.to_string().contains("invalid JSON at byte 1: expected `\"`"), "got: {err}");
        std::fs::remove_file(&path).unwrap();
    }
}
