//! A native Rust client for the `/v1` API, on `std::net` only.
//!
//! [`Client`] speaks the same DTOs the server encodes ([`crate::dto`]),
//! so a schema change is a compile error on both sides instead of a
//! runtime surprise. One request per connection (`Connection: close`),
//! mirroring the server's HTTP/1.1 subset.
//!
//! # Resilience
//!
//! Connect and read timeouts are independent ([`Client::with_connect_timeout`],
//! [`Client::with_read_timeout`]). Opting in with [`Client::with_retries`]
//! adds capped exponential backoff with decorrelated jitter around
//! transport failures and 429/502/503 refusals, honoring any
//! `Retry-After` the server sent. Retries are gated to requests that
//! are safe to replay: idempotent verbs (`GET`/`PUT`/`DELETE`) plus
//! two read-safe POSTs — `POST /v1/hypergraphs`, which the server
//! dedups by content hash (a replayed create lands on the same id
//! instead of a duplicate), and `POST /v1/query`, which only reads.
//! Retry activity is metered (`hyperbench_client_retries_total`,
//! `hyperbench_client_retry_giveups_total`).

use std::hash::{BuildHasher, Hasher};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use hyperbench_telemetry::metrics::{global, Counter};

use crate::dto::{
    AnalysisResource, AnalyzeRequest, EntryDetail, PageDto, QueryRequest, QueryResponse,
    WriteReceipt, WriteRequest,
};
use crate::error::ApiError;
use crate::http::{encode_request, ResponseReader};
use crate::json::Json;

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Connect/read/write failure.
    Io(std::io::Error),
    /// The server answered with a structured error.
    Api {
        /// The HTTP status.
        status: u16,
        /// The decoded error payload.
        error: ApiError,
    },
    /// The response could not be parsed or decoded.
    Decode(String),
    /// Polling exceeded the caller's deadline.
    TimedOut,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "I/O error: {e}"),
            ClientError::Api { status, error } => write!(f, "HTTP {status}: {error}"),
            ClientError::Decode(m) => write!(f, "bad response: {m}"),
            ClientError::TimedOut => write!(f, "timed out waiting for the analysis"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

fn decode_err(e: impl std::fmt::Display) -> ClientError {
    ClientError::Decode(e.to_string())
}

/// Percent-encodes a query value (RFC 3986 unreserved characters pass
/// through; the server's decoder also maps `+` to space, so spaces are
/// encoded as `%20` here to stay unambiguous).
pub fn percent_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

/// Query options for [`Client::list`].
#[derive(Debug, Clone, Default)]
pub struct ListQuery {
    /// Page size (server default when `None`).
    pub limit: Option<usize>,
    /// Continuation cursor from the previous page.
    pub cursor: Option<String>,
    /// Filter parameters, passed through verbatim (`class`, `hw_le`, …).
    pub filters: Vec<(String, String)>,
}

impl ListQuery {
    /// An unfiltered first-page query.
    pub fn new() -> ListQuery {
        ListQuery::default()
    }

    /// Sets the page size.
    pub fn limit(mut self, n: usize) -> ListQuery {
        self.limit = Some(n);
        self
    }

    /// Adds one filter parameter.
    pub fn filter(mut self, key: impl Into<String>, value: impl Into<String>) -> ListQuery {
        self.filters.push((key.into(), value.into()));
        self
    }

    fn query_string(&self) -> String {
        let mut parts = Vec::new();
        if let Some(n) = self.limit {
            parts.push(format!("limit={n}"));
        }
        if let Some(c) = &self.cursor {
            parts.push(format!("cursor={}", percent_encode(c)));
        }
        for (k, v) in &self.filters {
            parts.push(format!("{}={}", percent_encode(k), percent_encode(v)));
        }
        if parts.is_empty() {
            String::new()
        } else {
            format!("?{}", parts.join("&"))
        }
    }
}

/// Backoff parameters for [`Client::with_retries`].
///
/// The sleep before retry *n* is drawn uniformly from
/// `[base, 3 × previous_sleep]` (decorrelated jitter), clamped to
/// `cap` — and never shorter than a `Retry-After` the server sent.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Additional attempts after the first (0 disables retries).
    pub max_retries: u32,
    /// Floor of every backoff sleep.
    pub base: Duration,
    /// Ceiling of the jittered backoff (a larger server `Retry-After`
    /// still wins, bounded by [`RetryPolicy::MAX_RETRY_AFTER`]).
    pub cap: Duration,
}

impl RetryPolicy {
    /// Upper bound honored for a server-sent `Retry-After`, so a
    /// misbehaving server cannot park the client for minutes.
    pub const MAX_RETRY_AFTER: Duration = Duration::from_secs(10);
}

impl Default for RetryPolicy {
    /// Three retries, 25 ms floor, 1 s ceiling.
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 3,
            base: Duration::from_millis(25),
            cap: Duration::from_secs(1),
        }
    }
}

/// Client-side retry counters, registered once in the process-global
/// registry (shared with any in-process server, which is exactly what
/// the bench harness wants: one scrape sees both sides).
struct ClientMetrics {
    retries: Arc<Counter>,
    giveups: Arc<Counter>,
}

fn client_metrics() -> &'static ClientMetrics {
    static METRICS: OnceLock<ClientMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = global();
        ClientMetrics {
            retries: r.counter(
                "hyperbench_client_retries_total",
                "Requests replayed by the client after a transport failure or 429/503",
            ),
            giveups: r.counter(
                "hyperbench_client_retry_giveups_total",
                "Requests that exhausted the retry budget and surfaced the last error",
            ),
        }
    })
}

/// Xorshift64* — enough randomness to decorrelate backoff across
/// concurrent clients without pulling in an RNG dependency. Seeded from
/// the std hasher's per-process random keys.
struct Jitter(u64);

impl Jitter {
    fn new() -> Jitter {
        let seed = std::collections::hash_map::RandomState::new()
            .build_hasher()
            .finish();
        Jitter(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform draw from `[lo, hi]` (saturating when `lo >= hi`).
    fn between(&mut self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            return lo;
        }
        lo + self.next() % (hi - lo + 1)
    }
}

/// Whether a request is safe to replay: the verb is idempotent, or it
/// is a POST that cannot double-apply — the content-hash-idempotent
/// create endpoint (re-posting an identical document answers with the
/// existing id) and `POST /v1/query`, which only reads (POST carries
/// the query text, but the execution is side-effect-free).
fn replay_safe(method: &str, path: &str) -> bool {
    matches!(method, "GET" | "PUT" | "DELETE")
        || (method == "POST" && matches!(path, "/v1/hypergraphs" | "/v1/query"))
}

/// One decoded HTTP exchange, before JSON interpretation.
struct RawResponse {
    status: u16,
    body: String,
    /// Parsed `Retry-After` header (seconds), when the server sent one.
    retry_after: Option<u64>,
}

/// A `/v1` API client bound to one server address.
#[derive(Debug, Clone)]
pub struct Client {
    addr: SocketAddr,
    connect_timeout: Duration,
    read_timeout: Duration,
    retry: Option<RetryPolicy>,
}

impl Client {
    /// A client for the given address with a 30 s connect and read
    /// timeout and no retries.
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            connect_timeout: Duration::from_secs(30),
            read_timeout: Duration::from_secs(30),
            retry: None,
        }
    }

    /// Overrides both the connect and the read/write timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> Client {
        self.connect_timeout = timeout;
        self.read_timeout = timeout;
        self
    }

    /// Overrides the TCP connect timeout alone (a down server fails
    /// fast while slow responses still get the full read timeout).
    pub fn with_connect_timeout(mut self, timeout: Duration) -> Client {
        self.connect_timeout = timeout;
        self
    }

    /// Overrides the socket read/write timeout alone.
    pub fn with_read_timeout(mut self, timeout: Duration) -> Client {
        self.read_timeout = timeout;
        self
    }

    /// Enables retries with backoff for replay-safe requests (see the
    /// module docs for the gating and backoff rules).
    pub fn with_retries(mut self, policy: RetryPolicy) -> Client {
        self.retry = Some(policy);
        self
    }

    /// One wire exchange, no retries.
    fn request_once(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<RawResponse, ClientError> {
        let mut stream = TcpStream::connect_timeout(&self.addr, self.connect_timeout)?;
        stream.set_read_timeout(Some(self.read_timeout))?;
        stream.set_write_timeout(Some(self.read_timeout))?;
        let headers: &[(&str, &str)] = match body {
            Some(_) => &[
                ("connection", "close"),
                ("content-type", "application/json"),
            ],
            None => &[("connection", "close")],
        };
        let body = body.unwrap_or_default().as_bytes();
        stream.write_all(&encode_request(method, path, "hyperbench", headers, body))?;
        // A peer that closes before or inside its answer surfaces as
        // `Io(UnexpectedEof)` — a transport failure, and thus retryable;
        // an answer that arrives but breaks the protocol or the caps
        // does not get better by asking again.
        let response = ResponseReader::new(&mut stream)
            .read_response()
            .map_err(|e| match e.kind() {
                std::io::ErrorKind::InvalidData => decode_err(e),
                _ => ClientError::Io(e),
            })?;
        Ok(RawResponse {
            status: response.status,
            retry_after: response.retry_after().map(u64::from),
            body: String::from_utf8(response.body)
                .map_err(|_| decode_err("response body is not UTF-8"))?,
        })
    }

    /// The retrying transport: replays replay-safe requests around
    /// transport failures and retryable refusals, then surfaces the
    /// last outcome.
    fn request(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<(u16, String), ClientError> {
        let policy = match &self.retry {
            Some(p) if p.max_retries > 0 && replay_safe(method, path) => p,
            _ => {
                let r = self.request_once(method, path, body)?;
                return Ok((r.status, r.body));
            }
        };
        let mut jitter = Jitter::new();
        let mut prev_sleep = policy.base;
        let mut attempt = 0u32;
        loop {
            let outcome = self.request_once(method, path, body);
            let retry_after = match &outcome {
                // 429 (shed), 502 (router lost every upstream for a
                // shard; a probe may revive one) and 503 (queue full /
                // degraded / draining) are the transient refusals;
                // everything else — success or a request defect —
                // returns immediately.
                Ok(r) if matches!(r.status, 429 | 502 | 503) => r.retry_after,
                Ok(r) => return Ok((r.status, r.body.clone())),
                Err(ClientError::Io(_)) => None,
                Err(_) => return outcome.map(|r| (r.status, r.body)),
            };
            if attempt >= policy.max_retries {
                client_metrics().giveups.inc();
                return outcome.map(|r| (r.status, r.body));
            }
            attempt += 1;
            client_metrics().retries.inc();
            // Decorrelated jitter: uniform in [base, 3 × previous],
            // clamped to the cap...
            let lo = policy.base.as_millis() as u64;
            let hi = (prev_sleep.as_millis() as u64).saturating_mul(3).max(lo);
            let mut sleep = Duration::from_millis(jitter.between(lo, hi)).min(policy.cap);
            // ...unless the server asked for longer.
            if let Some(secs) = retry_after {
                sleep = sleep.max(Duration::from_secs(secs).min(RetryPolicy::MAX_RETRY_AFTER));
            }
            std::thread::sleep(sleep);
            prev_sleep = sleep.max(policy.base);
        }
    }

    /// Runs a request and decodes the body as JSON, mapping non-2xx
    /// answers to [`ClientError::Api`].
    fn json(&self, method: &str, path: &str, body: Option<&str>) -> Result<Json, ClientError> {
        let (status, body) = self.request(method, path, body)?;
        let j = Json::parse(&body)
            .map_err(|e| decode_err(format!("{method} {path}: bad JSON ({e}): {body}")))?;
        if status >= 400 {
            return Err(ClientError::Api {
                status,
                error: ApiError::from_json(&j),
            });
        }
        Ok(j)
    }

    /// `GET /v1/healthz` — returns the entry count.
    pub fn healthz(&self) -> Result<usize, ClientError> {
        let j = self.json("GET", "/v1/healthz", None)?;
        j.get("entries")
            .and_then(Json::as_int)
            .and_then(|n| usize::try_from(n).ok())
            .ok_or_else(|| decode_err("healthz payload missing entries"))
    }

    /// `GET /v1/stats` — repository aggregates, cache/job counters and
    /// the process-wide telemetry snapshot.
    pub fn stats(&self) -> Result<crate::dto::StatsDto, ClientError> {
        let j = self.json("GET", "/v1/stats", None)?;
        crate::dto::StatsDto::from_json(&j).map_err(decode_err)
    }

    /// `GET path` for a plain-text payload, mapping non-2xx answers to
    /// [`ClientError::Api`].
    fn text(&self, path: &str) -> Result<String, ClientError> {
        let (status, body) = self.request("GET", path, None)?;
        if status >= 400 {
            let error = Json::parse(&body)
                .map(|j| ApiError::from_json(&j))
                .unwrap_or_else(|_| ApiError::new(crate::error::ErrorCode::Internal, body));
            return Err(ClientError::Api { status, error });
        }
        Ok(body)
    }

    /// `GET /metrics` — the raw Prometheus text exposition.
    pub fn metrics_text(&self) -> Result<String, ClientError> {
        self.text("/metrics")
    }

    /// `GET /v1/hypergraphs` — one page of summaries.
    pub fn list(&self, query: &ListQuery) -> Result<PageDto, ClientError> {
        let path = format!("/v1/hypergraphs{}", query.query_string());
        let j = self.json("GET", &path, None)?;
        PageDto::from_json(&j).map_err(decode_err)
    }

    /// Follows `next_cursor` until exhaustion, collecting every page.
    pub fn list_all(&self, query: &ListQuery) -> Result<PageDto, ClientError> {
        let mut q = query.clone();
        let mut first = self.list(&q)?;
        while let Some(cursor) = first.next_cursor.take() {
            q.cursor = Some(cursor);
            let mut page = self.list(&q)?;
            first.items.append(&mut page.items);
            first.next_cursor = page.next_cursor;
        }
        Ok(first)
    }

    /// `POST /v1/query` — runs one HBQL query. Row-returning queries
    /// page like [`Client::list`]; continue with
    /// [`QueryRequest::cursor`] set to the previous page's
    /// `next_cursor`.
    pub fn query(&self, req: &QueryRequest) -> Result<QueryResponse, ClientError> {
        let j = self.json("POST", "/v1/query", Some(&req.to_json().to_string()))?;
        QueryResponse::from_json(&j).map_err(decode_err)
    }

    /// `GET /v1/hypergraphs/{id}` — the full entry.
    pub fn entry(&self, id: usize) -> Result<EntryDetail, ClientError> {
        let j = self.json("GET", &format!("/v1/hypergraphs/{id}"), None)?;
        EntryDetail::from_json(&j).map_err(decode_err)
    }

    /// `GET /v1/hypergraphs/{id}/hg` — the raw DetKDecomp document.
    pub fn raw_hg(&self, id: usize) -> Result<String, ClientError> {
        self.text(&format!("/v1/hypergraphs/{id}/hg"))
    }

    /// `POST /v1/hypergraphs` — store a hypergraph. Idempotent by
    /// content: re-posting an identical document answers 200 with the
    /// existing id instead of creating a duplicate.
    pub fn put_new(&self, req: &WriteRequest) -> Result<WriteReceipt, ClientError> {
        let body = req.to_json().to_string();
        let j = self.json("POST", "/v1/hypergraphs", Some(&body))?;
        WriteReceipt::from_json(&j).map_err(decode_err)
    }

    /// `PUT /v1/hypergraphs/{id}` — replace an existing entry wholesale.
    pub fn put(&self, id: usize, req: &WriteRequest) -> Result<WriteReceipt, ClientError> {
        let body = req.to_json().to_string();
        let j = self.json("PUT", &format!("/v1/hypergraphs/{id}"), Some(&body))?;
        WriteReceipt::from_json(&j).map_err(decode_err)
    }

    /// `DELETE /v1/hypergraphs/{id}` — remove an entry.
    pub fn delete(&self, id: usize) -> Result<WriteReceipt, ClientError> {
        let j = self.json("DELETE", &format!("/v1/hypergraphs/{id}"), None)?;
        WriteReceipt::from_json(&j).map_err(decode_err)
    }

    /// `POST /v1/analyses` — submit a typed analysis request. A cache
    /// hit answers `done` immediately; otherwise poll with
    /// [`Client::analysis`] or [`Client::wait`]. An unparsable document
    /// returns `Ok` with a `failed` resource (the server keeps the id
    /// pollable); transport-level rejections return [`ClientError::Api`].
    pub fn submit(&self, req: &AnalyzeRequest) -> Result<AnalysisResource, ClientError> {
        let body = req.to_json().to_string();
        let (status, text) = self.request("POST", "/v1/analyses", Some(&body))?;
        let j = Json::parse(&text)
            .map_err(|e| decode_err(format!("POST /v1/analyses: bad JSON ({e}): {text}")))?;
        if status >= 400 && j.get("status").and_then(Json::as_str) != Some("failed") {
            return Err(ClientError::Api {
                status,
                error: ApiError::from_json(&j),
            });
        }
        AnalysisResource::from_json(&j).map_err(decode_err)
    }

    /// `GET /v1/analyses/{id}` — poll one analysis.
    pub fn analysis(&self, id: u64) -> Result<AnalysisResource, ClientError> {
        let j = self.json("GET", &format!("/v1/analyses/{id}"), None)?;
        AnalysisResource::from_json(&j).map_err(decode_err)
    }

    /// Polls until the analysis reaches a terminal status or `deadline`
    /// elapses. The poll interval backs off exponentially (5 ms doubling
    /// to a 250 ms cap) — every poll is a fresh connection
    /// (`Connection: close`), so a tight fixed interval would hammer the
    /// server's connection pool during long analyses without improving
    /// completion latency.
    pub fn wait(&self, id: u64, deadline: Duration) -> Result<AnalysisResource, ClientError> {
        let until = Instant::now() + deadline;
        let mut interval = Duration::from_millis(5);
        loop {
            let resource = self.analysis(id)?;
            if resource.status.is_terminal() {
                return Ok(resource);
            }
            if Instant::now() >= until {
                return Err(ClientError::TimedOut);
            }
            std::thread::sleep(interval);
            interval = (interval * 2).min(Duration::from_millis(250));
        }
    }

    /// Convenience: submit and wait in one call.
    pub fn analyze(
        &self,
        req: &AnalyzeRequest,
        deadline: Duration,
    ) -> Result<AnalysisResource, ClientError> {
        let submitted = self.submit(req)?;
        if submitted.status.is_terminal() {
            return Ok(submitted);
        }
        self.wait(submitted.id, deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_encoding_covers_reserved_characters() {
        assert_eq!(percent_encode("CSP Random"), "CSP%20Random");
        assert_eq!(percent_encode("a/b&c=d"), "a%2Fb%26c%3Dd");
        assert_eq!(percent_encode("plain-1_2.3~"), "plain-1_2.3~");
    }

    #[test]
    fn replay_gating_covers_idempotent_verbs_and_readonly_posts() {
        assert!(replay_safe("GET", "/v1/hypergraphs"));
        assert!(replay_safe("PUT", "/v1/hypergraphs/3"));
        assert!(replay_safe("DELETE", "/v1/hypergraphs/3"));
        assert!(replay_safe("POST", "/v1/hypergraphs"));
        assert!(replay_safe("POST", "/v1/query"));
        assert!(!replay_safe("POST", "/v1/analyses"));
    }

    #[test]
    fn jitter_draws_stay_in_range() {
        let mut j = Jitter::new();
        for _ in 0..1000 {
            let v = j.between(25, 75);
            assert!((25..=75).contains(&v), "{v}");
        }
        assert_eq!(j.between(9, 9), 9);
        assert_eq!(j.between(10, 3), 10, "inverted range saturates to lo");
    }

    #[test]
    fn list_query_builds_ordered_query_strings() {
        let q = ListQuery::new()
            .limit(10)
            .filter("class", "CSP Random")
            .filter("hw_le", "5");
        assert_eq!(q.query_string(), "?limit=10&class=CSP%20Random&hw_le=5");
        assert_eq!(ListQuery::new().query_string(), "");
    }
}
