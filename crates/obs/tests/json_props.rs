//! Properties of the JSON text layer on hostile inputs.
//!
//! * The streamed timeline line ([`TimelineRun::write_line`]) is the exact
//!   bytes of the tree writer over [`TimelineRun::to_json`] for any run:
//!   labels with quotes, backslashes, control characters and non-ASCII, and
//!   floats from arbitrary bit patterns (NaN, ±∞, −0, subnormals, integers
//!   past 2⁵³).
//! * The parser is total: arbitrary bytes, and every truncation and
//!   single-byte mutation of a canonical document, give `Ok` or `Err` and
//!   never a panic; every `Ok` value re-renders to text that parses back
//!   equal.

use std::sync::Arc;

use critter_obs::{Event, EventKind, MetricsRegistry, RankTrace, Timeline, TimelineRun};
use proptest::prelude::*;
use serde_json::Value;

const KINDS: [EventKind; 15] = [
    EventKind::KernelExec,
    EventKind::KernelSkip,
    EventKind::CommExec,
    EventKind::CommSkip,
    EventKind::Propagate,
    EventKind::PathAdopt,
    EventKind::Decision,
    EventKind::Channel,
    EventKind::Fault,
    EventKind::Retry,
    EventKind::Quarantine,
    EventKind::Checkpoint,
    EventKind::Preempt,
    EventKind::Restore,
    EventKind::WarmStart,
];

const SPECIAL: [f64; 10] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    -0.0,
    0.0,
    f64::MIN_POSITIVE,
    f64::MAX,
    9.0e15,
    -9.0e15,
    1e-7,
];

/// A float drawn from one of: raw bits, the special values above, an
/// integer (up to and past 2⁵³), or a signed subnormal.
fn float() -> impl Strategy<Value = f64> {
    (0u32..4, 0u64..u64::MAX).prop_map(|(class, bits)| match class {
        0 => f64::from_bits(bits),
        1 => SPECIAL[(bits % SPECIAL.len() as u64) as usize],
        2 => (bits >> (bits % 12)) as f64,
        _ => f64::from_bits(bits & 0x800F_FFFF_FFFF_FFFF),
    })
}

fn byte() -> impl Strategy<Value = u8> {
    (0u32..256).prop_map(|b| b as u8)
}

/// A label mixing plain ASCII, `"` and `\`, control characters and any
/// Unicode scalar value.
fn label() -> impl Strategy<Value = String> {
    let ch = (0u32..4, 0u32..0x11_0000).prop_map(|(class, x)| match class {
        0 => char::from((x % 0x80) as u8),
        1 => ['"', '\\', '/', '\u{7f}'][(x % 4) as usize],
        2 => char::from((x % 0x20) as u8),
        _ => char::from_u32(x).unwrap_or('\u{fffd}'),
    });
    collection::vec(ch, 0..12).prop_map(|cs| cs.into_iter().collect())
}

fn event() -> impl Strategy<Value = Event> {
    (0usize..KINDS.len(), label(), float(), float(), float()).prop_map(
        |(kind, label, start, dur, arg)| Event {
            kind: KINDS[kind],
            label: Arc::from(label),
            start,
            dur,
            arg,
        },
    )
}

fn rank_trace(events: std::ops::Range<usize>) -> impl Strategy<Value = RankTrace> {
    let metrics = (label(), 0u64..u64::MAX, float(), float()).prop_map(|(name, n, sum, x)| {
        let mut m = MetricsRegistry::new();
        m.incr(&name, n >> 12);
        m.add_sum(&name, sum);
        m.observe(&name, x);
        m
    });
    (0usize..1 << 20, collection::vec(event(), events), metrics)
        .prop_map(|(rank, events, metrics)| RankTrace { rank, events, metrics })
}

/// A run of up to `ranks - 1` ranks of up to `events - 1` events each.
fn run(ranks: usize, events: usize) -> impl Strategy<Value = TimelineRun> {
    (0u64..u64::MAX, label(), collection::vec(rank_trace(0..events), 0..ranks))
        .prop_map(|(id, label, ranks)| TimelineRun { id, label, ranks })
}

/// The grammar's own alphabet: bytes drawn from it reach far deeper into
/// the parser than uniform noise does.
const ALPHABET: &[u8] = b"[]{}\",: \\-+.019eEtrulnu";

/// The parser's contract on any input: no panic, and an accepted document
/// survives a render/parse round trip unchanged.
fn check_parse(text: &str) -> Result<(), TestCaseError> {
    if let Ok(value) = serde_json::from_str(text) {
        for rendered in
            [serde_json::to_string(&value).unwrap(), serde_json::to_string_pretty(&value).unwrap()]
        {
            let back = serde_json::from_str(&rendered);
            prop_assert!(back.is_ok(), "{text:?} re-rendered as unparsable {rendered:?}");
            prop_assert_eq!(back.unwrap(), value.clone());
        }
    }
    Ok(())
}

/// A canonical document holding every kind of value the grammar has.
fn canonical_document(run: &TimelineRun) -> String {
    let flags = Value::Array(vec![Value::Bool(true), Value::Bool(false), Value::Null]);
    let doc = serde_json::json!({
        "flags": flags,
        "run": run.to_json(),
        "text": "é\u{1}\"\\/😀",
    });
    serde_json::to_string_pretty(&doc).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn write_line_is_the_bytes_of_the_tree_writer(run in run(4, 6)) {
        let mut line = String::new();
        run.write_line(&mut line);
        prop_assert_eq!(line, serde_json::to_string(&run.to_json()).unwrap());
    }

    #[test]
    fn chrome_export_is_canonical_text(runs in collection::vec(run(3, 4), 0..3)) {
        let mut timeline = Timeline::new();
        for run in runs {
            timeline.add_run(run.id, run.label, run.ranks);
        }
        let text = timeline.to_chrome_string();
        let doc = serde_json::from_str(&text);
        prop_assert!(doc.is_ok(), "unparsable export {text:?}");
        prop_assert_eq!(critter_obs::json::canonical_text(&doc.unwrap()), text);
    }

    #[test]
    fn parser_is_total_on_arbitrary_bytes(bytes in collection::vec(byte(), 0..64)) {
        check_parse(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn parser_is_total_on_json_shaped_bytes(picks in collection::vec(0..ALPHABET.len(), 0..64)) {
        let bytes: Vec<u8> = picks.iter().map(|&i| ALPHABET[i]).collect();
        check_parse(std::str::from_utf8(&bytes).unwrap())?;
    }
}

proptest! {
    // Each case parses every truncation and every single-byte mutation of its
    // document: quadratic work, so a smaller document and fewer cases.
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn parser_is_total_on_damaged_canonical_documents(run in run(2, 3), byte in byte()) {
        let text = canonical_document(&run);
        check_parse(&text)?;
        let bytes = text.as_bytes();
        for cut in 0..bytes.len() {
            if let Ok(prefix) = std::str::from_utf8(&bytes[..cut]) {
                check_parse(prefix)?;
            }
        }
        let mut damaged = bytes.to_vec();
        for at in 0..bytes.len() {
            let original = std::mem::replace(&mut damaged[at], byte);
            check_parse(&String::from_utf8_lossy(&damaged))?;
            damaged[at] = original;
        }
    }
}
