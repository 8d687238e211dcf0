//! The sealed documents decode alike from both backings of the one reader,
//! and the text digest is the tree digest it replaced.
//!
//! * Kernel-store fleets (`read_stores`), store index generations
//!   (`Index`), tuning reports (`TuningReport`) and checkpoint heads decode
//!   from a `serde_json::Value` tree and from a `serde_json::Tape` to the
//!   same value — compared by its canonical re-encoding — or fail with the
//!   same error text: on arbitrary fleets and indexes, and on every
//!   truncation and single-byte mutation of a real canonical document of
//!   each kind (the committed legacy store, a golden report, the oldest
//!   committed checkpoint head).
//! * On arbitrary payloads `envelope::seal` writes the bytes the tree writer
//!   wrote around the digest older code computed by walking the tree, and
//!   `envelope::text_hash` of a rendered payload is the `fnv_hash` of its
//!   compact text that names a store blob.

use std::hash::Hasher;

use critter_autotune::{ConfigResult, TuningReport};
use critter_core::fnv::{fnv_hash, FnvHasher};
use critter_core::json::{canonical_text, JsonError, Node, Reader};
use critter_core::signature::{ComputeOp, KernelSig, SizeGranularity};
use critter_core::{snapshot, KernelStore};
use critter_machine::CommOp;
use critter_obs::Event;
use critter_session::envelope;
use critter_store::{Index, MachineSpec, StoreEntry};
use proptest::prelude::*;
use serde_json::{Tape, Value};

const HASH_MASK: u64 = (1 << 52) - 1;

/// A decoder under test: the canonical text of what it decoded, or its
/// error's text.
type Decode = fn(Node<'_>) -> Result<String, String>;

fn stores(node: Node<'_>) -> Result<String, String> {
    let stores = snapshot::stores_from_json(node).map_err(|e| e.to_string())?;
    Ok(canonical_text(&snapshot::stores_to_json(&stores)))
}

fn index(node: Node<'_>) -> Result<String, String> {
    let index = Index::from_json(node, 4).map_err(|e| e.to_string())?;
    Ok(canonical_text(&index.to_json()))
}

fn report(node: Node<'_>) -> Result<String, String> {
    let report = TuningReport::read(Reader::root("tuning report", node));
    Ok(report.map_err(|e| e.to_string())?.to_json_string())
}

/// The checkpoint head's decoders, in the order the restore runs them, for a
/// sweep of two repetitions per configuration (the committed head's). A head
/// that still holds `entry_stores` reads that fleet inside a configuration.
fn head(node: Node<'_>) -> Result<String, String> {
    let read = |r: Reader<'_, '_>| -> Result<String, JsonError> {
        let units_done: usize = r.at("units_done").int()?;
        let configs = r.at("configs").list(ConfigResult::read)?;
        let legacy = r.at("entry_stores");
        let live =
            if legacy.exists() && !units_done.is_multiple_of(2) { legacy } else { r.at("stores") };
        let stores = snapshot::read_stores(live)?;
        let events = r.at("session_events").list(Event::read)?;
        let doc = serde_json::json!({
            "configs": Value::Array(configs.iter().map(ConfigResult::to_json).collect()),
            "session_events": Value::Array(events.iter().map(Event::to_json).collect()),
            "stores": snapshot::stores_to_json(&stores),
            "units_done": units_done,
        });
        Ok(canonical_text(&doc))
    };
    read(Reader::root("checkpoint", node)).map_err(|e| e.to_string())
}

/// Parse `text` both ways and decode it both ways: the outcomes must agree.
fn check(text: &str, decode: Decode) -> Result<(), TestCaseError> {
    let tree = serde_json::from_str(text).map_err(|e| e.to_string());
    let tape = Tape::parse(text).map_err(|e| e.to_string());
    let tree = tree.and_then(|value| decode((&value).into()));
    let tape = tape.and_then(|tape| decode(tape.root().into()));
    prop_assert!(tree == tape, "{text:?}: {tree:?} vs {tape:?}");
    Ok(())
}

/// [`check`] on `text`, every truncation of it, and each position of it
/// replaced by `byte`.
fn check_damaged(text: &str, byte: u8, decode: Decode) -> Result<(), TestCaseError> {
    let tree = serde_json::from_str(text).map_err(|e| e.to_string());
    prop_assert!(tree.and_then(|value| decode((&value).into())).is_ok(), "undamaged");
    check(text, decode)?;
    let bytes = text.as_bytes();
    for cut in 0..bytes.len() {
        if let Ok(prefix) = std::str::from_utf8(&bytes[..cut]) {
            check(prefix, decode)?;
        }
    }
    let mut damaged = bytes.to_vec();
    for at in 0..bytes.len() {
        let original = std::mem::replace(&mut damaged[at], byte);
        check(&String::from_utf8_lossy(&damaged), decode)?;
        damaged[at] = original;
    }
    Ok(())
}

/// The payload of a committed sealed document, [`trimmed`], as canonical
/// text.
fn committed_payload(path: &str, kind: &str) -> String {
    let text = std::fs::read_to_string(format!("{}/../{path}", env!("CARGO_MANIFEST_DIR")))
        .unwrap_or_else(|e| panic!("{path}: {e}"));
    let tape = Tape::parse(&text).unwrap();
    let payload = envelope::open(&tape, kind, None).unwrap();
    canonical_text(&trimmed(&serde_json::from_str(payload.text()).unwrap()))
}

/// `doc` with every array longer than 3 cut to its first element (rows of 2
/// and 3 keep their arity): a real document small enough to damage at every
/// byte.
fn trimmed(doc: &Value) -> Value {
    match doc {
        Value::Array(items) => {
            let keep = if items.len() > 3 { 1 } else { items.len() };
            Value::Array(items[..keep].iter().map(trimmed).collect())
        }
        Value::Object(map) => {
            let mut out = serde_json::Map::new();
            for (k, v) in map.iter() {
                out.insert(k.clone(), trimmed(v));
            }
            Value::Object(out)
        }
        leaf => leaf.clone(),
    }
}

fn byte() -> impl Strategy<Value = u8> {
    (0u32..256).prop_map(|b| b as u8)
}

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

/// A fleet of `ranks` kernel stores drawn from `seed`: compute and
/// communication models, path and a-priori counts, both kinds of fits.
fn fleet(seed: u64, ranks: usize) -> Vec<KernelStore> {
    let mut draw = Draw(seed);
    (0..ranks)
        .map(|_| {
            let mut s = KernelStore::new();
            for _ in 0..draw.below(4) {
                let sig = match draw.below(3) {
                    0 => KernelSig::compute(ComputeOp::Gemm, 8, 1 + draw.below(64) as usize, 8),
                    1 => KernelSig::compute(ComputeOp::Custom(draw.below(9) as u32), 4, 4, 0),
                    _ => KernelSig::p2p(1 + draw.below(500) as usize, 1, SizeGranularity::Exact),
                };
                for _ in 0..1 + draw.below(4) {
                    s.record(&sig, draw.float());
                    s.schedule(&sig);
                }
                if draw.below(2) == 0 {
                    s.attribute_path_time(sig.key(), draw.float());
                }
            }
            s.capture_apriori();
            if draw.below(2) == 0 {
                s.extrapolation.record(ComputeOp::Potrf, draw.float() * 1e6, draw.float());
                s.extrapolation.record(ComputeOp::Potrf, draw.float() * 1e7, draw.float());
                s.extrapolation.record_comm(CommOp::Bcast, 4, 1, draw.float(), draw.float());
            }
            s
        })
        .collect()
}

/// An index generation 4 of up to five entries drawn from `seed`; runs of
/// entries share a machine, as a real store's do.
fn index_document(seed: u64) -> Value {
    let mut draw = Draw(seed);
    let mut machine = None;
    let entries: Vec<Value> = (0..draw.below(6))
        .map(|seq| {
            if machine.is_none() || draw.below(3) == 0 {
                machine = Some(MachineSpec {
                    alpha: draw.float(),
                    beta: draw.float(),
                    peak_flops: draw.float() * 1e12,
                    ranks_per_node: 1 + draw.below(64),
                    per_call_overhead: draw.float(),
                    node_sigma: draw.float(),
                    compute_sigma: draw.float(),
                    comm_sigma: draw.float(),
                });
            }
            let machine = machine.clone().unwrap();
            let algo = ["a;b", "q\"uote", "é", ""][draw.below(4) as usize].to_string();
            let (ranks, blob) = (1 + draw.below(64), draw.below(HASH_MASK));
            let machine_fp = machine.fingerprint();
            StoreEntry { machine, machine_fp, algo, ranks, blob, seq: seq + 1 }.to_json()
        })
        .collect();
    serde_json::json!({"entries": entries, "generation": 4u64})
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
    fn arbitrary_fleets_and_indexes_decode_alike(seed in 0u64..u64::MAX, ranks in 0usize..4) {
        check(&canonical_text(&snapshot::stores_to_json(&fleet(seed, ranks))), stores)?;
        check(&canonical_text(&index_document(seed)), index)?;
        // Each decoder also meets the other's document and refuses it alike.
        check(&canonical_text(&index_document(seed)), stores)?;
        check(&canonical_text(&snapshot::stores_to_json(&fleet(seed, ranks))), head)?;
    }

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

proptest! {
    // Each case decodes every truncation and single-byte mutation of four
    // real documents both ways: quadratic work, so one case.
    #![proptest_config(ProptestConfig::with_cases(1))]

    #[test]
    fn damaged_real_documents_decode_alike(byte in byte()) {
        let store = "store/tests/fixtures/legacy-store";
        let blob = committed_payload(&format!("{store}/blobs/09ea5e486d20e.json"), "store-blob");
        check_damaged(&blob, byte, stores)?;
        let generation = format!("{store}/index/gen-00000000000000000004.json");
        check_damaged(&committed_payload(&generation, "store-index"), byte, index)?;
        let golden = format!("{}/fixtures/capital-eager-eps25.json", env!("CARGO_MANIFEST_DIR"));
        let golden = trimmed(&serde_json::from_str(&std::fs::read_to_string(golden).unwrap()).unwrap());
        check_damaged(&canonical_text(&golden), byte, report)?;
        let head = committed_payload("autotune/tests/fixtures/checkpoint-pr11.json", "checkpoint");
        check_damaged(&head, byte, self::head)?;
    }
}
