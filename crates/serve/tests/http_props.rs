//! Property test for the request parser, `http::read_request`, over a
//! reader that hands its bytes out in arbitrary chunks, the way a socket
//! may:
//!
//! * on arbitrary bytes it returns a request or a typed 4xx, never panics;
//! * a valid request split at every offset across two reads, or cut into
//!   arbitrary chunks, parses to the request the unsplit bytes give;
//! * a head longer than `MAX_HEAD_BYTES` is a 413 however it arrives, and a
//!   head of exactly the cap is accepted.

use std::io::Read;

use critter_serve::http::{read_request, Request, MAX_HEAD_BYTES};
use critter_serve::ServeError;
use proptest::prelude::*;

/// A reader yielding `data` in reads of at most `sizes[i]` bytes, cycling
/// through `sizes` (a read may also be cut short by the caller's buffer).
struct Chunks {
    data: Vec<u8>,
    at: usize,
    sizes: Vec<usize>,
    read: usize,
}

impl Chunks {
    fn new(data: Vec<u8>, sizes: Vec<usize>) -> Self {
        Chunks { data, at: 0, sizes, read: 0 }
    }
}

impl Read for Chunks {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let size = self.sizes[self.read % self.sizes.len()];
        self.read += 1;
        let n = size.max(1).min(buf.len()).min(self.data.len() - self.at);
        buf[..n].copy_from_slice(&self.data[self.at..self.at + n]);
        self.at += n;
        Ok(n)
    }
}

/// The parse of `data` arriving in reads of `sizes`, as comparable text: the
/// request, or the error's status and detail.
fn parse(data: &[u8], sizes: Vec<usize>) -> Result<String, (u16, String)> {
    let result = read_request(&mut Chunks::new(data.to_vec(), sizes));
    let error = |e: ServeError| (e.status(), e.detail().to_string());
    result.map(|r: Request| format!("{r:?}")).map_err(error)
}

/// `data` split in two at `cut`: the first read ends there.
fn split(data: &[u8], cut: usize) -> Result<String, (u16, String)> {
    parse(data, vec![cut.max(1), usize::MAX])
}

const METHODS: [&str; 3] = ["GET", "POST", "DELETE"];
const PATHS: [&str; 4] =
    ["/v1/healthz", "/v1/jobs", "/v1/jobs/job-000001/events?since=3&wait_ms=0", "/v1/jobs/j?"];
const HEADERS: [&str; 4] = ["Host: x", "Accept: */*", "X-Empty:", "A:b:c"];
const LENGTHS: [&str; 3] = ["Content-Length", "content-length", "CONTENT-LENGTH"];
/// Bytes that end an arbitrary input, so that some of it parses far.
const TAILS: [&str; 3] = ["", "\r\n\r\n", " / HTTP/1.1\r\n\r\n"];

fn byte() -> impl Strategy<Value = u8> {
    (0u32..256).prop_map(|b| b as u8)
}

/// A valid request: method, path with or without a query, a few headers
/// (one of them, in any case, `Content-Length`) and a body.
fn request() -> impl Strategy<Value = Vec<u8>> {
    let headers = collection::vec(0..HEADERS.len(), 0..4);
    let body = collection::vec(byte(), 0..64);
    (0..METHODS.len(), 0..PATHS.len(), headers, 0..LENGTHS.len(), body).prop_map(
        |(method, path, headers, length, body)| {
            let (method, path, length) = (METHODS[method], PATHS[path], LENGTHS[length]);
            let mut head = format!("{method} {path} HTTP/1.1\r\n");
            for h in headers {
                head.push_str(HEADERS[h]);
                head.push_str("\r\n");
            }
            head.push_str(&format!("{length}: {}\r\n\r\n", body.len()));
            let mut bytes = head.into_bytes();
            bytes.extend_from_slice(&body);
            bytes
        },
    )
}

/// A request whose head is exactly `len` bytes, terminator excluded.
fn head_of(len: usize) -> Vec<u8> {
    let start = "GET /v1/healthz HTTP/1.1\r\nX-Pad: ";
    let mut head = start.to_string();
    head.push_str(&"p".repeat(len - start.len()));
    head.push_str("\r\n\r\n");
    head.into_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_are_a_request_or_a_typed_4xx(
        bytes in collection::vec(byte(), 0..512),
        sizes in collection::vec(1usize..64, 1..6),
        tail in 0..TAILS.len(),
    ) {
        let mut data = bytes;
        data.extend_from_slice(TAILS[tail].as_bytes());
        if let Err((status, detail)) = parse(&data, sizes) {
            prop_assert!((400..500).contains(&status), "{status}: {detail}");
        }
    }

    #[test]
    fn a_split_request_parses_as_the_whole(
        data in request(),
        sizes in collection::vec(1usize..32, 1..6),
    ) {
        let whole = parse(&data, vec![usize::MAX]);
        prop_assert!(whole.is_ok(), "a valid request is refused: {whole:?}");
        for cut in 0..=data.len() {
            let parsed = split(&data, cut);
            prop_assert!(parsed == whole, "cut at {cut}: {parsed:?} vs {whole:?}");
        }
        prop_assert_eq!(&parse(&data, sizes), &whole);
    }

    #[test]
    fn a_head_over_the_cap_is_a_413_however_it_arrives(
        over in 1usize..8192,
        cut in 0usize..32_768,
    ) {
        let data = head_of(MAX_HEAD_BYTES + over);
        for sizes in [vec![usize::MAX], vec![cut % data.len() + 1, usize::MAX]] {
            let refused = parse(&data, sizes);
            prop_assert!(refused.as_ref().is_err_and(|e| e.0 == 413), "{refused:?}");
        }
    }
}

/// The bug this pins: a head whose terminator arrived in the read that
/// crossed the cap was accepted (17,921 bytes against 16,384).
#[test]
fn a_head_ending_in_the_read_that_crosses_the_cap_is_refused() {
    let data = head_of(17_917);
    assert_eq!(data.len(), 17_921);
    let refused = parse(&data, vec![usize::MAX]).unwrap_err();
    assert_eq!(refused, (413, format!("request head exceeds {MAX_HEAD_BYTES} bytes")));
}

/// A head of exactly the cap is accepted, wherever its terminator is split.
#[test]
fn a_head_of_exactly_the_cap_is_accepted() {
    let data = head_of(MAX_HEAD_BYTES);
    let whole = parse(&data, vec![usize::MAX]);
    assert!(whole.is_ok(), "{whole:?}");
    for cut in MAX_HEAD_BYTES - 4..=data.len() {
        assert_eq!(split(&data, cut), whole, "cut at {cut}");
    }
}
