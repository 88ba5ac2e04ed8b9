//! Structured wire errors with stable machine-readable codes.
//!
//! Every non-2xx answer from the service is an [`ApiError`]: a stable
//! [`ErrorCode`] (what went wrong, for programs) plus a free-form message
//! (why, for humans). The JSON shape keeps the PR-1 `"error"` key so
//! legacy clients that only look for a message keep working, and adds
//! `"code"` for typed clients.

use crate::dto::{wire_enum, wire_struct, Wire};
use crate::json::Json;

/// Stable error codes of the `/v1` contract. The string forms are part
/// of the wire contract — never renumber or rename, only append.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Malformed request (bad HTTP, bad JSON body, bad percent-encoding).
    BadRequest,
    /// A query or body parameter has an invalid value.
    InvalidParam,
    /// A pagination cursor failed to decode or verify.
    InvalidCursor,
    /// An `.hg` document in the request body failed to parse.
    ParseError,
    /// The addressed resource does not exist.
    NotFound,
    /// The path exists under a different method.
    MethodNotAllowed,
    /// The request body exceeds the service limit.
    PayloadTooLarge,
    /// The client did not deliver its request within the read deadline
    /// (slowloris guard).
    RequestTimeout,
    /// The write conflicts with existing state (e.g. a replace raced a
    /// delete).
    Conflict,
    /// The request body parsed as JSON but does not describe a valid
    /// hypergraph.
    InvalidHypergraph,
    /// An HBQL query failed to lex, parse, or type-check; the payload
    /// carries a byte-offset `span` pointing at the offending text.
    InvalidQuery,
    /// The server is running read-only; writes need `--writable`.
    ReadOnly,
    /// The bounded analysis queue is at capacity; retry later.
    QueueFull,
    /// The service is shutting down.
    ShuttingDown,
    /// Unexpected server-side failure.
    Internal,
    /// Admission control shed the request before queuing it: the
    /// predicted queue wait exceeds the service's bound. Answers 429
    /// with a `Retry-After` derived from observed service time.
    Overloaded,
    /// The store degraded to read-only after a WAL failure; reads keep
    /// working, writes answer 503 with `Retry-After` until the
    /// supervisor rebuilds the log.
    Degraded,
    /// The router could not reach any live upstream for a shard: every
    /// replica is dead or breaker-open. The message names the shard.
    /// Answers 502; retryable — a probe may revive a replica.
    BadUpstream,
}

wire_enum!(ErrorCode {
    BadRequest = "bad_request",
    InvalidParam = "invalid_param",
    InvalidCursor = "invalid_cursor",
    ParseError = "parse_error",
    NotFound = "not_found",
    MethodNotAllowed = "method_not_allowed",
    PayloadTooLarge = "payload_too_large",
    RequestTimeout = "request_timeout",
    Conflict = "conflict",
    InvalidHypergraph = "invalid_hypergraph",
    InvalidQuery = "invalid_query",
    ReadOnly = "read_only",
    QueueFull = "queue_full",
    ShuttingDown = "shutting_down",
    Internal = "internal",
    Overloaded = "overloaded",
    Degraded = "degraded",
    BadUpstream = "bad_upstream",
});

impl ErrorCode {
    /// The HTTP status this code maps to.
    pub fn http_status(&self) -> u16 {
        match self {
            ErrorCode::BadRequest
            | ErrorCode::InvalidParam
            | ErrorCode::InvalidCursor
            | ErrorCode::ParseError => 400,
            ErrorCode::ReadOnly => 403,
            ErrorCode::NotFound => 404,
            ErrorCode::MethodNotAllowed => 405,
            ErrorCode::Conflict => 409,
            ErrorCode::PayloadTooLarge => 413,
            ErrorCode::RequestTimeout => 408,
            ErrorCode::InvalidHypergraph | ErrorCode::InvalidQuery => 422,
            ErrorCode::Overloaded => 429,
            ErrorCode::QueueFull | ErrorCode::ShuttingDown | ErrorCode::Degraded => 503,
            ErrorCode::Internal => 500,
            ErrorCode::BadUpstream => 502,
        }
    }

    /// Whether a request refused with this code is worth retrying after
    /// a backoff: the failure is a capacity/availability condition that
    /// clears on its own, not a defect in the request.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            ErrorCode::Overloaded
                | ErrorCode::QueueFull
                | ErrorCode::Degraded
                | ErrorCode::ShuttingDown
                | ErrorCode::BadUpstream
        )
    }
}

/// A structured error payload: `{"code":"…","error":"…"}`, plus
/// `"request_id"` when the request was traced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    /// The stable machine-readable code.
    pub code: ErrorCode,
    /// The human-readable message.
    pub message: String,
    /// The trace id of the request that failed, when the server traced
    /// it: grep-able across router and shard logs.
    pub request_id: Option<u64>,
}

// A missing code degrades to `internal` and a missing message to a
// placeholder, so payloads from older servers still surface as errors.
wire_struct!(@record ApiError {
    default code: CODE = ErrorCode::Internal,
    default message: ERROR = "unknown error".to_string(),
    omit request_id: REQUEST_ID,
});

impl ApiError {
    /// Builds an error from a code and message.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> ApiError {
        ApiError {
            code,
            message: message.into(),
            request_id: None,
        }
    }

    /// Shorthand for [`ErrorCode::BadRequest`].
    pub fn bad_request(message: impl Into<String>) -> ApiError {
        ApiError::new(ErrorCode::BadRequest, message)
    }

    /// Shorthand for [`ErrorCode::InvalidParam`].
    pub fn invalid_param(message: impl Into<String>) -> ApiError {
        ApiError::new(ErrorCode::InvalidParam, message)
    }

    /// Shorthand for [`ErrorCode::NotFound`].
    pub fn not_found(message: impl Into<String>) -> ApiError {
        ApiError::new(ErrorCode::NotFound, message)
    }

    /// The HTTP status of this error.
    pub fn http_status(&self) -> u16 {
        self.code.http_status()
    }

    /// Encodes to the wire JSON shape.
    pub fn to_json(&self) -> Json {
        Wire::encode(self)
    }

    /// Decodes a wire payload. A payload that does not decode (an
    /// unknown code from a newer server, a mistyped field) degrades to
    /// [`ErrorCode::Internal`] carrying the raw payload as its message,
    /// so the caller still sees what the server said.
    pub fn from_json(j: &Json) -> ApiError {
        Wire::decode(j).unwrap_or_else(|e| {
            ApiError::new(
                ErrorCode::Internal,
                format!("undecodable error payload ({e}): {j}"),
            )
        })
    }
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code.as_str(), self.message)?;
        match self.request_id {
            Some(id) => write!(f, " (request {id})"),
            None => Ok(()),
        }
    }
}

impl std::error::Error for ApiError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_roundtrip_and_map_to_statuses() {
        for code in [
            ErrorCode::BadRequest,
            ErrorCode::InvalidParam,
            ErrorCode::InvalidCursor,
            ErrorCode::ParseError,
            ErrorCode::NotFound,
            ErrorCode::MethodNotAllowed,
            ErrorCode::PayloadTooLarge,
            ErrorCode::RequestTimeout,
            ErrorCode::Conflict,
            ErrorCode::InvalidHypergraph,
            ErrorCode::InvalidQuery,
            ErrorCode::ReadOnly,
            ErrorCode::QueueFull,
            ErrorCode::ShuttingDown,
            ErrorCode::Internal,
            ErrorCode::Overloaded,
            ErrorCode::Degraded,
            ErrorCode::BadUpstream,
        ] {
            assert_eq!(ErrorCode::parse(code.as_str()), Some(code));
            assert!(matches!(
                code.http_status(),
                400 | 403 | 404 | 405 | 408 | 409 | 413 | 422 | 429 | 500 | 502 | 503
            ));
        }
        assert_eq!(ErrorCode::parse("nope"), None);
    }

    #[test]
    fn json_roundtrip_keeps_legacy_error_key() {
        let e = ApiError::invalid_param("bad value \"x\" for limit");
        let j = e.to_json();
        assert_eq!(
            j.get("error").and_then(Json::as_str),
            e.message.as_str().into()
        );
        assert_eq!(j.get("code").and_then(Json::as_str), Some("invalid_param"));
        assert_eq!(ApiError::from_json(&j), e);
    }

    #[test]
    fn request_id_roundtrips_and_is_displayed() {
        let mut e = ApiError::not_found("no hypergraph with id 9");
        assert_eq!(e.to_string(), "not_found: no hypergraph with id 9");
        e.request_id = Some(41);
        let j = e.to_json();
        assert_eq!(
            j.to_string(),
            r#"{"code":"not_found","error":"no hypergraph with id 9","request_id":41}"#
        );
        assert_eq!(ApiError::from_json(&j), e);
        assert_eq!(
            e.to_string(),
            "not_found: no hypergraph with id 9 (request 41)"
        );
    }

    #[test]
    fn unknown_code_degrades_to_internal() {
        let j = Json::obj([("error", Json::str("boom"))]);
        let e = ApiError::from_json(&j);
        assert_eq!(e.code, ErrorCode::Internal);
        assert_eq!(e.message, "boom");
        // An unknown code keeps the payload visible in the message.
        let j = Json::obj([
            ("code", Json::str("from_the_future")),
            ("error", Json::str("boom")),
        ]);
        let e = ApiError::from_json(&j);
        assert_eq!(e.code, ErrorCode::Internal);
        assert!(
            e.message.contains("from_the_future") && e.message.contains("boom"),
            "{e}"
        );
    }
}
