//! The versioned index: one immutable, envelope-sealed JSON document per
//! generation, listing every live entry of the store.
//!
//! A generation is complete or absent — index files are only ever
//! published by `hard_link`ing a fully written temp file into place, so a
//! reader that re-lists the index directory and takes the highest
//! generation whose envelope validates always sees a consistent store,
//! no matter how many writers died mid-commit.

use critter_core::json::{JsonError, Reader};
use serde_json::{TapeNode, Value};

use crate::machine::MachineSpec;

/// Envelope kind of an index generation document.
pub const INDEX_KIND: &str = "store-index";

/// One published profile: the key it is filed under plus the
/// content hash of the blob holding its kernel stores.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreEntry {
    /// The machine the profile was measured on.
    pub machine: MachineSpec,
    /// Cached [`MachineSpec::fingerprint`] (validated on load).
    pub machine_fp: u64,
    /// Algorithm identity: the sweep's workload names joined with `;` —
    /// the same string the autotuner folds into its options fingerprint.
    pub algo: String,
    /// Rank count of the profile's per-rank store vector.
    pub ranks: u64,
    /// 52-bit content hash of the profile blob (its filename in `blobs/`).
    pub blob: u64,
    /// Store-wide monotone publication sequence number; higher = more
    /// recent. Recency drives the staleness ordering of warm-start merges.
    pub seq: u64,
}

impl StoreEntry {
    /// Canonical JSON form of one entry.
    pub fn to_json(&self) -> Value {
        serde_json::json!({
            "algo": self.algo,
            "blob": self.blob,
            "machine": self.machine.to_json(),
            "machine_fp": self.machine_fp,
            "ranks": self.ranks,
            "seq": self.seq,
        })
    }

    /// Parse and validate one entry; the cached fingerprint must match the
    /// machine spec it claims to summarize. `prev` is the entry before it,
    /// already validated: when the two specs are equal, `prev`'s fingerprint
    /// is the spec's, and the spec is not rendered again to check it.
    fn read(r: Reader<'_, '_>, prev: Option<&StoreEntry>) -> Result<StoreEntry, JsonError> {
        let machine = MachineSpec::read(r.at("machine"))?;
        let machine_fp = r.at("machine_fp").u64()?;
        let expected = match prev {
            Some(prev) if prev.machine == machine => prev.machine_fp,
            _ => machine.fingerprint(),
        };
        if machine_fp != expected {
            return Err(r.at("machine_fp").error(format!(
                "cached machine fingerprint {machine_fp} does not match the spec ({expected})"
            )));
        }
        Ok(StoreEntry {
            machine,
            machine_fp,
            algo: r.at("algo").str()?.to_string(),
            ranks: r.at("ranks").u64()?,
            blob: r.at("blob").u64()?,
            seq: r.at("seq").u64()?,
        })
    }
}

/// One complete index generation.
#[derive(Debug, Clone, PartialEq)]
pub struct Index {
    /// The generation number (also the envelope fingerprint of its file).
    pub generation: u64,
    /// Every live entry, in ascending `seq` order.
    pub entries: Vec<StoreEntry>,
}

impl Index {
    /// Canonical JSON payload of this generation (the envelope's body).
    pub fn to_json(&self) -> Value {
        let entries: Vec<Value> = self.entries.iter().map(StoreEntry::to_json).collect();
        serde_json::json!({
            "entries": entries,
            "generation": self.generation,
        })
    }

    /// Parse a generation payload; `generation` must match the number the
    /// file name (and envelope fingerprint) claims. A run of entries from
    /// one machine renders its spec once.
    pub fn from_json(v: TapeNode<'_>, generation: u64) -> critter_core::Result<Index> {
        let r = Reader::root("store index", v);
        let found = r.at("generation").u64()?;
        if found != generation {
            let detail =
                format!("payload generation {found} does not match file generation {generation}");
            return Err(r.at("generation").error(detail).into());
        }
        let mut entries: Vec<StoreEntry> = Vec::new();
        for entry in r.at("entries").items()? {
            entries.push(StoreEntry::read(entry, entries.last())?);
        }
        Ok(Index { generation, entries })
    }

    /// The highest publication sequence number in this generation.
    pub fn max_seq(&self) -> u64 {
        self.entries.iter().map(|e| e.seq).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use critter_core::json::read_value;
    use critter_machine::{MachineParams, NoiseParams};
    use serde_json::Tape;

    /// [`Index::from_json`] of an in-memory payload, by way of its text.
    fn decode(doc: &Value, generation: u64) -> critter_core::Result<Index> {
        let text = serde_json::to_string(doc).unwrap();
        Index::from_json(Tape::parse(&text).unwrap().root(), generation)
    }

    fn entry(seq: u64) -> StoreEntry {
        let machine =
            MachineSpec::from_models(&MachineParams::test_machine(), &NoiseParams::cluster());
        let machine_fp = machine.fingerprint();
        StoreEntry { machine, machine_fp, algo: "a;b".into(), ranks: 4, blob: 0xabc, seq }
    }

    #[test]
    fn index_round_trips() {
        let idx = Index { generation: 3, entries: vec![entry(1), entry(2)] };
        let back = decode(&idx.to_json(), 3).unwrap();
        assert_eq!(idx, back);
        assert_eq!(back.max_seq(), 2);
        assert!(decode(&idx.to_json(), 4).is_err(), "generation binding");
    }

    /// The fingerprint an entry reuses from the one before is still
    /// checked: a tampered one fails at its path, whatever precedes it.
    #[test]
    fn every_entry_fingerprint_is_checked() {
        for tampered in 0..3 {
            let mut entries: Vec<Value> = (1..4).map(|seq| entry(seq).to_json()).collect();
            *entries[tampered].get_mut("machine_fp").unwrap() = serde_json::json!(7u64);
            let doc = serde_json::json!({"entries": entries, "generation": 1u64});
            let err = decode(&doc, 1).unwrap_err().to_string();
            let at = format!("entries[{tampered}].machine_fp: cached machine fingerprint 7");
            assert!(err.contains(&at), "got: {err}");
        }
    }

    #[test]
    fn tampered_machine_fingerprint_is_rejected() {
        let mut doc = entry(1).to_json();
        if let Value::Object(m) = &mut doc {
            m.insert("machine_fp".into(), serde_json::json!(1u64));
        }
        let err = read_value("entry", &doc, |r| StoreEntry::read(r, None)).unwrap_err();
        assert_eq!(err.path, "machine_fp");
        assert!(err.detail.contains("does not match the spec"), "got: {err}");
    }
}
