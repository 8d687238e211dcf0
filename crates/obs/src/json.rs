//! The one JSON reader and the one canonical-text writer.
//!
//! Everything the system persists — checkpoints, profiles, store blobs and
//! index generations, reports, the line logs — and every request body is
//! JSON text, and every decoder of it is a function on a [`Reader`]: a node
//! of the text's `serde_json::Tape` (the document parsed once into a flat
//! token vector) plus the path that led to it. A decoder that calls a
//! nested decoder hands it a child reader, so the path continues across type
//! and crate boundaries, and any failure is one [`JsonError`] naming the
//! document, the exact path, what was expected there and what was found.
//! An in-memory `serde_json::Value` is decoded the same way, by way of its
//! text ([`read_value`]).
//!
//! The path is a chain of parents borrowed on the stack and is rendered only
//! when an error is built: a successful decode allocates nothing for it.
//!
//! ```
//! use critter_obs::json::{JsonError, Reader};
//! use serde_json::Tape;
//!
//! fn point(r: Reader<'_, '_>) -> Result<(f64, u64), JsonError> {
//!     Ok((r.at("x").f64()?, r.at("n").u64()?))
//! }
//!
//! let tape = Tape::parse(r#"{"points": [{"n": 1, "x": 0.5}, {"n": "two", "x": 1.5}]}"#)?;
//! let err = Reader::root("demo", tape.root()).at("points").list(point).unwrap_err();
//! assert_eq!(err.to_string(), "points[1].n: expected an integer (u64), got a string");
//! assert_eq!(err.document, "demo");
//! # Ok::<(), serde_json::Error>(())
//! ```

use std::fmt;

use serde_json::{Children, Tape, TapeNode, Value};

/// Canonical pretty-printed text of `doc` (sorted keys, two-space indent,
/// shortest-round-trip floats) with the trailing newline every persisted
/// document and HTTP body ends in.
pub fn canonical_text(doc: &Value) -> String {
    let mut text = serde_json::to_string_pretty(doc).expect("json writer is total");
    text.push('\n');
    text
}

/// A decode failure: which document, where in it, and what was wrong.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// What was being decoded (a logical name or a file path).
    pub document: String,
    /// Path of the offending value (`configs[2].pairs[0].full.elapsed`);
    /// empty for the document root.
    pub path: String,
    /// What was expected and what was found.
    pub detail: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.path.is_empty() {
            f.write_str(&self.detail)
        } else {
            write!(f, "{}: {}", self.path, self.detail)
        }
    }
}

impl std::error::Error for JsonError {}

impl JsonError {
    /// An error about line `index` (from 0) of the JSON-lines document
    /// `document` as a whole, such as a line that does not parse: located
    /// at `[index]`, where a [`Reader::line`] would be.
    pub fn line(document: &str, index: usize, detail: impl Into<String>) -> JsonError {
        JsonError { document: document.into(), path: format!("[{index}]"), detail: detail.into() }
    }
}

/// Decode the in-memory value `doc` with `read`, the way every document is
/// decoded: its text is parsed onto a tape and read from the root, which
/// `document` names in errors.
pub fn read_value<T>(
    document: &str,
    doc: &Value,
    read: impl FnOnce(Reader<'_, '_>) -> Result<T, JsonError>,
) -> Result<T, JsonError> {
    let text = serde_json::to_string(doc).expect("json writer is total");
    let tape = Tape::parse(&text).expect("rendered JSON parses");
    read(Reader::root(document, tape.root()))
}

/// What the value `node` is, as an error reports it.
fn describe(node: TapeNode<'_>) -> String {
    if let Some(x) = node.as_f64() {
        return format!("the number {x}");
    }
    let what = if node.as_bool().is_some() {
        "a bool"
    } else if node.as_str().is_some() {
        "a string"
    } else if node.elements().is_some() {
        "an array"
    } else if node.is_object() {
        "an object"
    } else {
        "null"
    };
    what.to_string()
}

/// How a reader was reached from its parent.
#[derive(Debug, Clone, Copy)]
enum Step<'p> {
    /// The document root, carrying the document's name.
    Root(&'p str),
    /// The root of one line of a JSON-lines document: name and line index.
    Line(&'p str, usize),
    Key(&'p str),
    Index(usize),
}

/// A position in a document: the value there (if any) and the path to it.
/// `'v` is the document's lifetime, `'p` that of the path chain.
#[derive(Debug, Clone, Copy)]
pub struct Reader<'v, 'p> {
    value: Option<TapeNode<'v>>,
    parent: Option<&'p Reader<'v, 'p>>,
    step: Step<'p>,
}

impl<'v, 'p> Reader<'v, 'p> {
    /// A reader at the root of `value`; `document` names it in errors.
    pub fn root(document: &'p str, value: TapeNode<'v>) -> Self {
        Reader { value: Some(value), parent: None, step: Step::Root(document) }
    }

    /// A reader at the root of line `index` (from 0) of the JSON-lines
    /// document `document`: paths below it start with `[index]`.
    pub fn line(document: &'p str, index: usize, value: TapeNode<'v>) -> Self {
        Reader { value: Some(value), parent: None, step: Step::Line(document, index) }
    }

    /// The member `key` of this object. Never fails: a missing key (or a
    /// non-object parent) is reported by whichever accessor reads the child.
    pub fn at<'q>(&'q self, key: &'q str) -> Reader<'v, 'q> {
        self.child(self.value.and_then(|v| v.get(key)), Step::Key(key))
    }

    fn child<'q>(&'q self, value: Option<TapeNode<'v>>, step: Step<'q>) -> Reader<'v, 'q> {
        Reader { value, parent: Some(self), step }
    }

    /// Whether a value is present here (for legitimately optional keys).
    pub fn exists(&self) -> bool {
        self.value.is_some()
    }

    /// The value here, if any: its text is [`TapeNode::text`].
    pub fn node(&self) -> Option<TapeNode<'v>> {
        self.value
    }

    /// An error located at this reader's path.
    pub fn error(&self, detail: impl Into<String>) -> JsonError {
        let mut path = String::new();
        let document = self.trace(&mut path).to_string();
        JsonError { document, path, detail: detail.into() }
    }

    /// Append the path from the root to here; returns the document's name.
    fn trace(&self, path: &mut String) -> &'p str {
        let document = self.parent.map_or("", |p| p.trace(path));
        match self.step {
            Step::Root(name) => return name,
            Step::Line(name, i) => {
                path.push_str(&format!("[{i}]"));
                return name;
            }
            Step::Key(k) if path.is_empty() => path.push_str(k),
            Step::Key(k) => path.extend([".", k]),
            Step::Index(i) => path.push_str(&format!("[{i}]")),
        }
        document
    }

    /// "expected `what`, got …" here — or "missing" for an absent value,
    /// unless the parent is itself absent or not an object: then the parent
    /// is what is wrong, and the error is located there.
    fn expected(&self, what: &str) -> JsonError {
        match (self.value, self.parent) {
            (None, Some(p)) if !p.value.is_some_and(TapeNode::is_object) => p.expected("an object"),
            (None, _) => self.error(format!("missing (expected {what})")),
            (Some(v), _) => self.error(format!("expected {what}, got {}", describe(v))),
        }
    }

    /// The number here.
    pub fn f64(&self) -> Result<f64, JsonError> {
        self.value.and_then(TapeNode::as_f64).ok_or_else(|| self.expected("a number"))
    }

    /// The integer here, range-checked into `T` — never a wrapping cast.
    pub fn int<T: TryFrom<i64>>(&self) -> Result<T, JsonError> {
        let fits = self.value.and_then(TapeNode::as_i64).and_then(|i| T::try_from(i).ok());
        fits.ok_or_else(|| self.expected(&format!("an integer ({})", std::any::type_name::<T>())))
    }

    /// The non-negative integer here.
    pub fn u64(&self) -> Result<u64, JsonError> {
        self.int()
    }

    /// The bool here.
    pub fn bool(&self) -> Result<bool, JsonError> {
        self.value.and_then(TapeNode::as_bool).ok_or_else(|| self.expected("a bool"))
    }

    /// The string here.
    pub fn str(&self) -> Result<&'v str, JsonError> {
        self.value.and_then(TapeNode::as_str).ok_or_else(|| self.expected("a string"))
    }

    /// The string here, resolved through `lookup` (a `from_name`); a name
    /// it does not know is an error at this path.
    pub fn named<T>(
        &self,
        what: &str,
        lookup: impl FnOnce(&str) -> Option<T>,
    ) -> Result<T, JsonError> {
        let name = self.str()?;
        lookup(name).ok_or_else(|| self.error(format!("unknown {what} `{name}`")))
    }

    fn elements(&self) -> Result<Children<'v>, JsonError> {
        self.value.and_then(TapeNode::elements).ok_or_else(|| self.expected("an array"))
    }

    /// The elements of the array here, each with its index on the path.
    pub fn items<'q>(&'q self) -> Result<impl Iterator<Item = Reader<'v, 'q>>, JsonError> {
        let items = self.elements()?.enumerate();
        Ok(items.map(move |(i, v)| self.child(Some(v), Step::Index(i))))
    }

    /// Decode every element of the array here with `read`.
    pub fn list<T>(
        &self,
        read: impl FnMut(Reader<'v, '_>) -> Result<T, JsonError>,
    ) -> Result<Vec<T>, JsonError> {
        self.items()?.map(read).collect()
    }

    /// The elements of the array here, which must number exactly `N`.
    pub fn fixed<'q, const N: usize>(&'q self) -> Result<[Reader<'v, 'q>; N], JsonError> {
        let mut items = self.elements()?;
        if items.len() != N {
            return Err(self.error(format!("expected {N} elements, got {}", items.len())));
        }
        Ok(std::array::from_fn(|i| self.child(items.next(), Step::Index(i))))
    }

    /// The members of the object here in sorted key order (the last of
    /// duplicate keys wins), each with its key on the path.
    pub fn members<'q>(
        &'q self,
    ) -> Result<impl Iterator<Item = (&'v str, Reader<'v, 'q>)>, JsonError> {
        let members =
            self.value.and_then(TapeNode::members).ok_or_else(|| self.expected("an object"))?;
        Ok(members.into_iter().map(move |(k, v)| (k, self.child(Some(v), Step::Key(k)))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_name_document_path_expected_and_found() {
        let tape = Tape::parse(r#"{"a": {"b": [1.0, "x"]}, "n": -3, "big": 1099511627776}"#);
        errors_of(tape.unwrap().root());
    }

    fn errors_of(doc: TapeNode<'_>) {
        let r = Reader::root("doc", doc);
        let e = r.at("a").at("b").list(|x| x.f64()).unwrap_err();
        assert_eq!((e.document.as_str(), e.path.as_str()), ("doc", "a.b[1]"));
        assert_eq!(e.to_string(), "a.b[1]: expected a number, got a string");
        assert_eq!(
            r.at("gone").str().unwrap_err().to_string(),
            "gone: missing (expected a string)"
        );
        assert_eq!(
            r.at("n").u64().unwrap_err().to_string(),
            "n: expected an integer (u64), got the number -3"
        );
        // Range-checked narrowing: what `as i32` would have wrapped to 0.
        let e = r.at("big").int::<i32>().unwrap_err();
        assert_eq!(e.to_string(), "big: expected an integer (i32), got the number 1099511627776");
        assert_eq!(r.at("n").int::<i32>().unwrap(), -3);
        // A key read through a non-object blames the non-object.
        let e = r.at("n").at("deep").bool().unwrap_err();
        assert_eq!(e.to_string(), "n: expected an object, got the number -3");
        // Root errors carry no path.
        assert_eq!(r.items().err().unwrap().to_string(), "expected an array, got an object");
        assert!(r.at("a").exists() && !r.at("z").exists());
        // A line of a JSON-lines document carries its index.
        let e = Reader::line("log", 3, doc).at("n").u64().unwrap_err();
        assert_eq!((e.document.as_str(), e.path.as_str()), ("log", "[3].n"));
        assert_eq!(Reader::line("log", 0, doc).items().err().unwrap().path, "[0]");
        // So does a line that does not parse.
        assert_eq!(JsonError::line("log", 3, "malformed line").to_string(), "[3]: malformed line");
    }

    #[test]
    fn fixed_and_members_extend_the_path() {
        let tape = Tape::parse(r#"{"row": [1, 2], "m": {"k": true, "j": null, "k": false}}"#);
        let tape = tape.unwrap();
        let r = Reader::root("doc", tape.root());
        let row = r.at("row");
        let [a, b] = row.fixed().unwrap();
        assert_eq!((a.u64().unwrap(), b.u64().unwrap()), (1, 2));
        let e = row.fixed::<3>().unwrap_err();
        assert_eq!(e.to_string(), "row: expected 3 elements, got 2");
        // Members come sorted, and of duplicates the last one counts.
        let m = r.at("m");
        let members: Vec<_> = m.members().unwrap().collect();
        assert_eq!(members.iter().map(|(k, _)| *k).collect::<Vec<_>>(), ["j", "k"]);
        assert_eq!(members[1].1.bool(), Ok(false));
        assert_eq!(m.at("k").bool(), Ok(false));
        assert_eq!(
            members[1].1.f64().unwrap_err().to_string(),
            "m.k: expected a number, got a bool"
        );
        assert_eq!(members[0].1.str().unwrap_err().to_string(), "m.j: expected a string, got null");
    }

    #[test]
    fn canonical_text_ends_in_one_newline() {
        let doc = serde_json::json!({"b": 1, "a": []});
        assert_eq!(canonical_text(&doc), "{\n  \"a\": [],\n  \"b\": 1\n}\n");
        // An in-memory value decodes by way of that text.
        assert_eq!(read_value("doc", &doc, |r| r.at("b").u64()), Ok(1));
        let e = read_value("doc", &doc, |r| r.at("a").str().map(drop)).unwrap_err();
        assert_eq!(e.to_string(), "a: expected a string, got an array");
    }
}
