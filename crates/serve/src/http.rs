//! A minimal HTTP/1.1 layer over [`std::net::TcpStream`].
//!
//! The build environment vendors its few dependencies, so the daemon
//! hand-rolls exactly the slice of HTTP it needs: one request per
//! connection (`Connection: close`), JSON bodies, no chunked encoding, no
//! TLS. The parser is defensive — header and body size caps, read
//! timeouts, and typed 4xx errors for anything malformed — because it
//! fronts a long-running multi-tenant daemon.
//!
//! The [`client`] module is the counterpart used by the oracle suites and
//! the CI smoke scripts; `curl` speaks to the server just as well (see
//! `docs/SERVICE.md` for a walkthrough).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use crate::error::ServeError;

/// Cap on the request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Cap on a request body (job specs and inline warm-start profiles).
pub const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;
/// Per-connection read timeout.
pub const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, `DELETE`, …).
    pub method: String,
    /// Decoded path with any query string stripped (`/v1/jobs/job-000001`).
    pub path: String,
    /// Raw query string without the leading `?` (empty when absent).
    pub query: String,
    /// Raw body bytes (empty when the request has no body).
    pub body: Vec<u8>,
}

impl Request {
    /// The body as UTF-8, or a typed 400.
    pub fn body_utf8(&self) -> Result<&str, ServeError> {
        std::str::from_utf8(&self.body)
            .map_err(|_| ServeError::BadRequest("request body is not valid UTF-8".into()))
    }

    /// The value of query parameter `name`, if present. No percent
    /// decoding: the parameters this API defines are plain integers.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            (k == name).then_some(v)
        })
    }

    /// Parse query parameter `name` as an unsigned integer, defaulting to
    /// `default` when absent. A non-numeric value is a typed 400.
    pub fn query_u64(&self, name: &str, default: u64) -> Result<u64, ServeError> {
        match self.query_param(name) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| {
                ServeError::BadRequest(format!(
                    "query parameter `{name}` must be an unsigned integer, got `{raw}`"
                ))
            }),
        }
    }
}

/// An HTTP response: status plus a body.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Body text.
    pub body: String,
    /// `Content-Type` header value (JSON everywhere except the plain-text
    /// metrics artifact).
    pub content_type: &'static str,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Response { status, body: body.into(), content_type: "application/json" }
    }

    /// A plain-text response with the given status.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Response { status, body: body.into(), content_type: "text/plain" }
    }

    /// Render a [`ServeError`] as its canonical JSON body.
    pub fn from_error(e: &ServeError) -> Self {
        Response::json(e.status(), e.to_body())
    }
}

/// The reason phrase for the status codes this daemon emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

/// Read and parse one request from `stream` (a socket, with its read
/// timeout set by the caller). Malformed input maps to typed 4xx errors; the
/// caller renders them and closes the connection.
pub fn read_request(stream: &mut impl Read) -> Result<Request, ServeError> {
    let too_large =
        || ServeError::PayloadTooLarge(format!("request head exceeds {MAX_HEAD_BYTES} bytes"));
    // Read until the blank line ending the head, keeping any body bytes
    // that arrived in the same read.
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        // Without its terminator the head runs at least to the last 3 bytes.
        if buf.len() > MAX_HEAD_BYTES + 3 {
            return Err(too_large());
        }
        let mut chunk = [0u8; 4096];
        let n = stream
            .read(&mut chunk)
            .map_err(|e| ServeError::BadRequest(format!("read failed: {e}")))?;
        if n == 0 {
            return Err(ServeError::BadRequest("connection closed mid-request".into()));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    // The terminator may arrive in the read that crosses the cap.
    if head_end > MAX_HEAD_BYTES {
        return Err(too_large());
    }
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| ServeError::BadRequest("request head is not valid UTF-8".into()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split(' ');
    let (method, target, version) =
        (parts.next().unwrap_or(""), parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    if method.is_empty() || target.is_empty() || !version.starts_with("HTTP/1") {
        return Err(ServeError::BadRequest(format!("malformed request line `{request_line}`")));
    }
    let mut content_length = 0usize;
    for line in lines {
        if let Some((k, v)) = line.split_once(':') {
            if k.trim().eq_ignore_ascii_case("content-length") {
                content_length = v
                    .trim()
                    .parse()
                    .map_err(|_| ServeError::BadRequest("bad Content-Length header".into()))?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(ServeError::PayloadTooLarge(format!(
            "request body exceeds {MAX_BODY_BYTES} bytes"
        )));
    }
    let mut body = buf[head_end + 4..].to_vec();
    while body.len() < content_length {
        let mut chunk = vec![0u8; (content_length - body.len()).min(64 * 1024)];
        let n = stream
            .read(&mut chunk)
            .map_err(|e| ServeError::BadRequest(format!("body read failed: {e}")))?;
        if n == 0 {
            return Err(ServeError::BadRequest("connection closed mid-body".into()));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };
    Ok(Request { method: method.to_string(), path, query, body })
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Write `response` to `stream` and flush. Errors are ignored — the peer
/// may have hung up, and the daemon has nothing useful to do about it.
pub fn write_response(stream: &mut TcpStream, response: &Response) {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        response.status,
        reason(response.status),
        response.content_type,
        response.body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(response.body.as_bytes());
    let _ = stream.flush();
}

/// A tiny blocking HTTP client: one request per connection, mirroring the
/// server's `Connection: close` contract. Used by the oracle suites; its
/// behavior matches a plain `curl` invocation.
pub mod client {
    use std::io::{Read, Write};
    use std::net::{SocketAddr, TcpStream};

    /// Send `method path` with an optional JSON `body` to `addr`; returns
    /// `(status, body)`.
    pub fn request(
        addr: SocketAddr,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> std::io::Result<(u16, String)> {
        let mut stream = TcpStream::connect(addr)?;
        let body = body.unwrap_or("");
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        );
        stream.write_all(head.as_bytes())?;
        stream.write_all(body.as_bytes())?;
        stream.flush()?;
        let mut raw = String::new();
        stream.read_to_string(&mut raw)?;
        let status = raw
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| std::io::Error::other(format!("malformed response: {raw:.60}")))?;
        let body = raw.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
        Ok((status, body))
    }

    /// [`request`] returning the parsed JSON body alongside the status.
    pub fn request_json(
        addr: SocketAddr,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> std::io::Result<(u16, serde_json::Value)> {
        let (status, text) = request(addr, method, path, body)?;
        let v = serde_json::from_str(&text)
            .map_err(|e| std::io::Error::other(format!("non-JSON response body: {e}")))?;
        Ok((status, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reasons_cover_the_emitted_statuses() {
        for s in [200, 202, 400, 404, 405, 409, 413, 429, 500] {
            assert_ne!(reason(s), "Unknown", "status {s} needs a reason phrase");
        }
    }

    #[test]
    fn query_params_parse_and_reject_garbage() {
        let req = Request {
            method: "GET".into(),
            path: "/v1/jobs/job-000001/events".into(),
            query: "since=3&wait_ms=250&flag".into(),
            body: Vec::new(),
        };
        assert_eq!(req.query_param("since"), Some("3"));
        assert_eq!(req.query_param("flag"), Some(""));
        assert_eq!(req.query_param("missing"), None);
        assert_eq!(req.query_u64("since", 0).unwrap(), 3);
        assert_eq!(req.query_u64("missing", 7).unwrap(), 7);
        let err = Request { query: "since=lots".into(), ..req }.query_u64("since", 0).unwrap_err();
        assert_eq!(err.status(), 400);
    }

    #[test]
    fn head_end_is_found_across_chunks() {
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\nrest"), Some(14));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n"), None);
    }
}
