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
//! * Its two sinks agree: on all of those inputs, and on arbitrary documents
//!   (unsorted and duplicate keys, escapes, every number spelling, nesting
//!   around the 128-level limit), the tape and the `Value` tree accept the
//!   same texts and refuse the rest with the same error text.
//! * The reader says what `Value`'s own accessors say: everything a
//!   [`Reader`] over the tape says about an accepted document — every
//!   accessor's value or exact error, `at` on duplicate keys, the order of
//!   `members` — is what the same walk over the tree, done with `Value`'s
//!   accessors and the reader's error rules restated, says.

use std::fmt::Write;
use std::sync::Arc;

use critter_obs::json::{JsonError, Reader};
use critter_obs::{Event, EventKind, MetricsRegistry, RankTrace, Timeline, TimelineRun};
use proptest::prelude::*;
use serde_json::{Tape, Value};

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

/// The parser's contract on any input: no panic, the tape sink accepts and
/// refuses what the tree sink does (with the same error), and an accepted
/// document survives a render/parse round trip unchanged.
fn check_parse(text: &str) -> Result<(), TestCaseError> {
    let (tree, tape) = (serde_json::from_str(text), Tape::parse(text));
    match (&tree, &tape) {
        (Ok(_), Ok(_)) => {}
        (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
        _ => prop_assert!(false, "the sinks disagree on {text:?}: {tree:?} vs {tape:?}"),
    }
    if let Ok(value) = tree {
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

/// [`check_parse`], and when `text` is accepted, the reader over its tape
/// says what the reference walk over its tree says, at a document root and
/// at a line root.
fn check_reader(text: &str) -> Result<(), TestCaseError> {
    check_parse(text)?;
    if let (Ok(value), Ok(tape)) = (serde_json::from_str(text), Tape::parse(text)) {
        let root = Ref { value: Some(&value), document: "doc", path: String::new(), parent: None };
        prop_assert_eq!(transcript(Reader::root("doc", tape.root())), reference(&root));
        let line = Ref { document: "log", path: "[4]".into(), ..root };
        prop_assert_eq!(transcript(Reader::line("log", 4, tape.root())), reference(&line));
    }
    Ok(())
}

fn show<T: std::fmt::Debug>(out: &mut String, what: &str, result: Result<T, JsonError>) {
    let _ = match result {
        Ok(v) => writeln!(out, "{what} = {v:?}"),
        Err(e) => writeln!(out, "{what} ! {} @ {} : {}", e.document, e.path, e.detail),
    };
}

/// Everything the reader says about the value at `r`, recursively: each
/// accessor's value or its error (document, path and detail).
fn transcript(r: Reader<'_, '_>) -> String {
    let mut out = String::new();
    describe(r, &mut out);
    out
}

fn describe(r: Reader<'_, '_>, out: &mut String) {
    show(out, "f64", r.f64().map(f64::to_bits));
    show(out, "u64", r.u64());
    show(out, "i32", r.int::<i32>());
    show(out, "bool", r.bool());
    show(out, "str", r.str());
    show(out, "fixed", r.fixed::<2>().map(drop));
    let _ = writeln!(out, "exists {}", r.exists());
    for key in ["a", "b", "missing"] {
        show(out, key, r.at(key).at("deeper").u64());
        show(out, key, r.at(key).str());
    }
    match r.items() {
        Ok(items) => items.for_each(|item| describe(item, out)),
        Err(e) => show(out, "items", Err::<(), _>(e)),
    }
    match r.members() {
        Ok(members) => members.for_each(|(key, value)| {
            let _ = writeln!(out, "member {key:?}");
            describe(value, out);
        }),
        Err(e) => show(out, "members", Err::<(), _>(e)),
    }
}

/// A position in a `Value` tree for the reference walk: the value there (if
/// any), the rendered path to it, and its parent.
struct Ref<'a> {
    value: Option<&'a Value>,
    document: &'a str,
    path: String,
    parent: Option<&'a Ref<'a>>,
}

impl<'a> Ref<'a> {
    fn child<'b>(&'b self, value: Option<&'b Value>, path: String) -> Ref<'b> {
        Ref { value, document: self.document, path, parent: Some(self) }
    }

    /// The member `key` of the value here, if any.
    fn key<'b>(&'b self, key: &str, value: Option<&'b Value>) -> Ref<'b> {
        match self.path.is_empty() {
            true => self.child(value, key.to_string()),
            false => self.child(value, format!("{}.{key}", self.path)),
        }
    }

    fn at<'b>(&'b self, key: &str) -> Ref<'b> {
        self.key(key, self.value.and_then(|v| v.get(key)))
    }

    fn error(&self, detail: String) -> JsonError {
        JsonError { document: self.document.into(), path: self.path.clone(), detail }
    }

    /// The reader's rule: a missing value under a non-object blames the
    /// parent; otherwise "missing", or "expected …, got …".
    fn expected(&self, what: &str) -> JsonError {
        match (self.value, self.parent) {
            (None, Some(p)) if p.value.is_none_or(|v| v.as_object().is_none()) => {
                p.expected("an object")
            }
            (None, _) => self.error(format!("missing (expected {what})")),
            (Some(v), _) => {
                let found = match v {
                    Value::Number(x) => format!("the number {x}"),
                    Value::Bool(_) => "a bool".into(),
                    Value::String(_) => "a string".into(),
                    Value::Array(_) => "an array".into(),
                    Value::Object(_) => "an object".into(),
                    Value::Null => "null".into(),
                };
                self.error(format!("expected {what}, got {found}"))
            }
        }
    }

    fn get<T>(&self, what: &str, read: impl Fn(&'a Value) -> Option<T>) -> Result<T, JsonError> {
        self.value.and_then(read).ok_or_else(|| self.expected(what))
    }

    fn array(&self) -> Result<&'a Vec<Value>, JsonError> {
        self.get("an array", Value::as_array)
    }
}

/// What [`transcript`] says, derived from the tree with `Value`'s accessors.
fn reference(r: &Ref<'_>) -> String {
    let mut out = String::new();
    walk(r, &mut out);
    out
}

fn walk(r: &Ref<'_>, out: &mut String) {
    show(out, "f64", r.get("a number", Value::as_f64).map(f64::to_bits));
    show(out, "u64", r.get("an integer (u64)", Value::as_u64));
    let i32 = |v: &Value| v.as_i64().and_then(|i| i32::try_from(i).ok());
    show(out, "i32", r.get("an integer (i32)", i32));
    show(out, "bool", r.get("a bool", Value::as_bool));
    show(out, "str", r.get("a string", Value::as_str));
    let fixed = r.array().and_then(|items| match items.len() {
        2 => Ok(()),
        n => Err(r.error(format!("expected 2 elements, got {n}"))),
    });
    show(out, "fixed", fixed);
    let _ = writeln!(out, "exists {}", r.value.is_some());
    for key in ["a", "b", "missing"] {
        let child = r.at(key);
        show(out, key, child.at("deeper").get("an integer (u64)", Value::as_u64));
        show(out, key, child.get("a string", Value::as_str));
    }
    match r.array() {
        Ok(items) => {
            for (i, item) in items.iter().enumerate() {
                walk(&r.child(Some(item), format!("{}[{i}]", r.path)), out);
            }
        }
        Err(e) => show(out, "items", Err::<(), _>(e)),
    }
    match r.get("an object", Value::as_object) {
        Ok(members) => {
            for (key, value) in members.iter() {
                let _ = writeln!(out, "member {key:?}");
                walk(&r.key(key, Some(value)), out);
            }
        }
        Err(e) => show(out, "members", Err::<(), _>(e)),
    }
}

/// A document's text drawn from `seed`: objects with unsorted and duplicate
/// keys, escaped strings, numbers in every spelling, whitespace anywhere,
/// and, one time in eight, arrays and objects nested around the parser's
/// 128-level limit.
fn random_document(seed: u64) -> String {
    let mut draw = Draw(seed);
    let mut out = String::new();
    if draw.below(8) == 0 {
        let depth = 125 + draw.below(6) as usize;
        let open: Vec<bool> = (0..depth).map(|_| draw.below(2) == 0).collect();
        for &object in &open {
            out.push_str(if object { "{\"k\": " } else { "[" });
        }
        draw.value(&mut out, 6);
        for &object in open.iter().rev() {
            out.push(if object { '}' } else { ']' });
        }
    } else {
        draw.value(&mut out, 0);
    }
    out
}

/// A splitmix64 stream.
struct Draw(u64);

impl Draw {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }

    fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
        from[self.below(from.len() as u64) as usize]
    }

    fn space(&mut self, out: &mut String) {
        for _ in 0..self.below(3) {
            out.push_str(self.pick(&[" ", "\n", "\t", "\r", "  "]));
        }
    }

    fn value(&mut self, out: &mut String, depth: usize) {
        self.space(out);
        let leaf = depth >= 6 || self.below(3) > 0;
        match if leaf { self.below(3) } else { 3 + self.below(2) } {
            0 => out.push_str(self.pick(&["null", "true", "false"])),
            1 => out.push_str(self.pick(&[
                "0",
                "-0",
                "7",
                "-3",
                "1.5",
                "1.50",
                "0.1",
                "1e3",
                "1E-7",
                "-2.5e+300",
                "9007199254740993",
                "1099511627776",
                "3.0",
                "2147483648",
                "-2147483649",
                "1e999",
            ])),
            2 => out.push_str(self.pick(&[
                "\"\"",
                "\"a\"",
                "\"a b\"",
                "\"q\\\"b\\\\\"",
                "\"\\u00e9\\ud83d\\ude00\"",
                "\"é😀\"",
                "\"tab\\t\\n\"",
                "\"\\u0000\"",
            ])),
            3 => {
                out.push('[');
                for i in 0..self.below(4) {
                    if i > 0 {
                        out.push(',');
                    }
                    self.value(out, depth + 1);
                }
                self.space(out);
                out.push(']');
            }
            _ => {
                out.push('{');
                for i in 0..self.below(5) {
                    if i > 0 {
                        out.push(',');
                    }
                    self.space(out);
                    out.push_str(self.pick(&[
                        "\"a\"",
                        "\"b\"",
                        "\"k\"",
                        "\"\\u0061\"",
                        "\"é\"",
                        "\"\"",
                    ]));
                    self.space(out);
                    out.push(':');
                    self.value(out, depth + 1);
                }
                self.space(out);
                out.push('}');
            }
        }
        self.space(out);
    }
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
    fn tape_and_tree_agree_on_arbitrary_documents(seed in 0u64..u64::MAX) {
        let text = random_document(seed);
        check_reader(&text)?;
        // Damaged: cut short, or one byte replaced.
        let cut = (seed as usize >> 8) % (text.len() + 1);
        if let Some(prefix) = text.get(..cut) {
            check_reader(prefix)?;
        }
        let mut damaged = text.clone().into_bytes();
        let at = (seed as usize >> 16) % damaged.len().max(1);
        if let Some(b) = damaged.get_mut(at) {
            *b = ALPHABET[(seed >> 40) as usize % ALPHABET.len()];
        }
        check_reader(&String::from_utf8_lossy(&damaged))?;
    }

    #[test]
    fn parser_is_total_on_arbitrary_bytes(bytes in collection::vec(byte(), 0..64)) {
        check_reader(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn parser_is_total_on_json_shaped_bytes(picks in collection::vec(0..ALPHABET.len(), 0..64)) {
        let bytes: Vec<u8> = picks.iter().map(|&i| ALPHABET[i]).collect();
        check_reader(std::str::from_utf8(&bytes).unwrap())?;
    }
}

proptest! {
    // Each case parses every truncation and every single-byte mutation of its
    // document: quadratic work, so a smaller document and fewer cases.
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn parser_is_total_on_damaged_canonical_documents(run in run(2, 3), byte in byte()) {
        let text = canonical_document(&run);
        check_reader(&text)?;
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

/// The nesting limit is one constant of the one grammar: both sinks accept
/// 128 levels of arrays and objects mixed, and refuse 129 with the same
/// error at the same byte.
#[test]
fn both_sinks_stop_at_the_same_nesting_depth() {
    for (depth, ok) in [(127, true), (128, true), (129, false)] {
        let open: String = (0..depth).map(|i| if i % 3 == 0 { "{\"k\":" } else { "[" }).collect();
        let close: String = (0..depth).rev().map(|i| if i % 3 == 0 { "}" } else { "]" }).collect();
        let text = format!("{open}1{close}");
        let (tree, tape) = (serde_json::from_str(&text), Tape::parse(&text));
        assert_eq!((tree.is_ok(), tape.is_ok()), (ok, ok), "depth {depth}");
        if let (Err(a), Err(b)) = (tree, tape) {
            assert_eq!(a.to_string(), b.to_string());
            assert!(a.to_string().ends_with("nesting deeper than 128"), "{a}");
        }
    }
}
