//! Typed service errors and their HTTP mapping.
//!
//! Every handler returns `Result<Response, ServeError>`; the router turns a
//! [`ServeError`] into a JSON error body with a stable machine-readable
//! `code` plus a human-readable `detail`. The codes come from one
//! exhaustive enum, [`ErrorCode`]: every variant the service can emit is in
//! [`ErrorCode::ALL`], the table in `docs/SERVICE.md` is drift-checked
//! against that array by the `doc_check` bin, and clients can match on the
//! code without parsing prose. Client mistakes (bad JSON, unknown fields,
//! unknown jobs, wrong state, exceeded quotas) are always 4xx — a malformed
//! request can never produce a 5xx or a panic (asserted by the testkit's
//! malformed-request table test).

use std::fmt;

use critter_core::json::canonical_text;

/// Every machine-readable error code the service can put in an error body.
///
/// The wire contract: `error.code` in a response body is always the
/// [`ErrorCode::as_str`] of exactly one of these variants, and the HTTP
/// status is always the matching [`ErrorCode::status`]. `docs/SERVICE.md`
/// renders this table; `doc_check` fails CI if they diverge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request body is not valid JSON, has the wrong shape, or names
    /// an unknown space/policy/field.
    BadRequest,
    /// No such job, endpoint, or artifact.
    NotFound,
    /// The path exists but not under this method.
    MethodNotAllowed,
    /// The job exists but is in the wrong state for the request.
    Conflict,
    /// The request body exceeds the service's size cap.
    PayloadTooLarge,
    /// The shared job queue is full (bounded backpressure); retry later.
    Backpressure,
    /// The submitting tenant is at one of its per-tenant quotas (queued
    /// jobs, running jobs, or leased rank threads); retry after one of the
    /// tenant's jobs finishes.
    QuotaExceeded,
    /// The daemon itself failed (disk errors, handler panics).
    Internal,
}

impl ErrorCode {
    /// Every code, in HTTP-status order (the order the docs table renders).
    pub const ALL: [ErrorCode; 8] = [
        ErrorCode::BadRequest,
        ErrorCode::NotFound,
        ErrorCode::MethodNotAllowed,
        ErrorCode::Conflict,
        ErrorCode::PayloadTooLarge,
        ErrorCode::Backpressure,
        ErrorCode::QuotaExceeded,
        ErrorCode::Internal,
    ];

    /// The HTTP status this code is always served with.
    pub fn status(self) -> u16 {
        match self {
            ErrorCode::BadRequest => 400,
            ErrorCode::NotFound => 404,
            ErrorCode::MethodNotAllowed => 405,
            ErrorCode::Conflict => 409,
            ErrorCode::PayloadTooLarge => 413,
            ErrorCode::Backpressure => 429,
            ErrorCode::QuotaExceeded => 429,
            ErrorCode::Internal => 500,
        }
    }

    /// The stable wire string (the `error.code` body field).
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::NotFound => "not_found",
            ErrorCode::MethodNotAllowed => "method_not_allowed",
            ErrorCode::Conflict => "conflict",
            ErrorCode::PayloadTooLarge => "payload_too_large",
            ErrorCode::Backpressure => "backpressure",
            ErrorCode::QuotaExceeded => "quota_exceeded",
            ErrorCode::Internal => "internal",
        }
    }

    /// One-line meaning, as rendered in the docs table.
    pub fn summary(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "malformed body, unknown field, or invalid value",
            ErrorCode::NotFound => "no such job, endpoint, or artifact",
            ErrorCode::MethodNotAllowed => "path exists, method does not",
            ErrorCode::Conflict => "job is in the wrong state for the request",
            ErrorCode::PayloadTooLarge => "request body exceeds the size cap",
            ErrorCode::Backpressure => "shared job queue is full; retry later",
            ErrorCode::QuotaExceeded => "per-tenant quota hit; retry after a job finishes",
            ErrorCode::Internal => "daemon-side failure",
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A service-level error: an [`ErrorCode`] plus a human-readable detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// 400 — see [`ErrorCode::BadRequest`].
    BadRequest(String),
    /// 404 — see [`ErrorCode::NotFound`].
    NotFound(String),
    /// 405 — see [`ErrorCode::MethodNotAllowed`].
    MethodNotAllowed(String),
    /// 409 — see [`ErrorCode::Conflict`].
    Conflict(String),
    /// 413 — see [`ErrorCode::PayloadTooLarge`].
    PayloadTooLarge(String),
    /// 429 — see [`ErrorCode::Backpressure`].
    Backpressure(String),
    /// 429 — see [`ErrorCode::QuotaExceeded`].
    QuotaExceeded(String),
    /// 500 — see [`ErrorCode::Internal`].
    Internal(String),
}

impl ServeError {
    /// The machine-readable code this error is served with.
    pub fn code(&self) -> ErrorCode {
        match self {
            ServeError::BadRequest(_) => ErrorCode::BadRequest,
            ServeError::NotFound(_) => ErrorCode::NotFound,
            ServeError::MethodNotAllowed(_) => ErrorCode::MethodNotAllowed,
            ServeError::Conflict(_) => ErrorCode::Conflict,
            ServeError::PayloadTooLarge(_) => ErrorCode::PayloadTooLarge,
            ServeError::Backpressure(_) => ErrorCode::Backpressure,
            ServeError::QuotaExceeded(_) => ErrorCode::QuotaExceeded,
            ServeError::Internal(_) => ErrorCode::Internal,
        }
    }

    /// The HTTP status code this error maps to.
    pub fn status(&self) -> u16 {
        self.code().status()
    }

    /// The human-readable detail text.
    pub fn detail(&self) -> &str {
        match self {
            ServeError::BadRequest(d)
            | ServeError::NotFound(d)
            | ServeError::MethodNotAllowed(d)
            | ServeError::Conflict(d)
            | ServeError::PayloadTooLarge(d)
            | ServeError::Backpressure(d)
            | ServeError::QuotaExceeded(d)
            | ServeError::Internal(d) => d,
        }
    }

    /// The canonical JSON error body (sorted keys, trailing newline):
    /// `{"error": {"code": ..., "detail": ...}}`.
    pub fn to_body(&self) -> String {
        let inner = serde_json::json!({ "code": self.code().as_str(), "detail": self.detail() });
        let v = serde_json::json!({ "error": inner });
        canonical_text(&v)
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({}): {}", self.status(), self.code(), self.detail())
    }
}

impl std::error::Error for ServeError {}

impl From<critter_core::CritterError> for ServeError {
    fn from(e: critter_core::CritterError) -> Self {
        ServeError::Internal(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_variant_maps_to_its_class() {
        let cases = [
            (ServeError::BadRequest("x".into()), 400, "bad_request"),
            (ServeError::NotFound("x".into()), 404, "not_found"),
            (ServeError::MethodNotAllowed("x".into()), 405, "method_not_allowed"),
            (ServeError::Conflict("x".into()), 409, "conflict"),
            (ServeError::PayloadTooLarge("x".into()), 413, "payload_too_large"),
            (ServeError::Backpressure("x".into()), 429, "backpressure"),
            (ServeError::QuotaExceeded("x".into()), 429, "quota_exceeded"),
            (ServeError::Internal("x".into()), 500, "internal"),
        ];
        assert_eq!(cases.len(), ErrorCode::ALL.len(), "one case per code");
        for (e, status, code) in cases {
            assert_eq!(e.status(), status);
            assert_eq!(e.code().as_str(), code);
            assert!(e.to_body().contains(code));
            assert!(e.to_body().ends_with('\n'));
            assert!(e.to_string().contains(code));
        }
    }

    #[test]
    fn code_table_is_exhaustive_and_distinct() {
        let mut names: Vec<&str> = ErrorCode::ALL.iter().map(|c| c.as_str()).collect();
        let n = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n, "codes must be distinct");
        for code in ErrorCode::ALL {
            assert!((400..=599).contains(&code.status()));
            assert!(!code.summary().is_empty());
        }
        // Quota rejections are client-class, never server errors.
        assert_eq!(ErrorCode::QuotaExceeded.status(), 429);
    }

    #[test]
    fn critter_errors_become_internal() {
        let e: ServeError = critter_core::CritterError::mismatch("fingerprint").into();
        assert_eq!(e.status(), 500);
        assert!(e.detail().contains("fingerprint"));
    }
}
