//! Minimal HTTP/1.1 request parsing and response writing.
//!
//! The core is [`RequestParser`], an *incremental* state machine: it
//! consumes whatever bytes are currently available and suspends with
//! [`Parse::NeedMore`] when the buffer runs dry, so the epoll reactor
//! ([`crate::reactor`]) can feed it one `EPOLLIN` burst at a time
//! without ever blocking a thread. [`read_request`] wraps the same
//! machine in a synchronous loop so the unit tests can parse complete
//! requests straight out of byte slices.
//!
//! Supported surface: GET/POST/PUT/DELETE, `Content-Length` bodies,
//! percent-decoded query strings, and HTTP/1.1 keep-alive semantics
//! (persistent unless the client sends `Connection: close` or speaks
//! HTTP/1.0).

use std::collections::HashMap;
use std::io::{Read, Write};
use std::time::{Duration, Instant};

/// Upper bound on the request line + each header line.
const MAX_LINE: usize = 8 * 1024;
/// Upper bound on the number of headers.
const MAX_HEADERS: usize = 64;
/// [`MAX_HEAD`] bounds the whole head (request line + all header lines)
/// — a belt-and-braces cap on top of the per-line and per-count bounds,
/// so a drip-fed head can never pin more than this much buffer;
/// [`MAX_BODY`] bounds request bodies. Both sides of the wire share
/// them.
pub use hyperbench_api::http::{MAX_BODY, MAX_HEAD};
/// Whole-request deadline: a client gets this long to deliver the full
/// request (line + headers + body). Socket read timeouts only bound each
/// individual read, so without this a one-byte-at-a-time client could
/// pin a connection thread indefinitely (slowloris). Maps to a 408.
pub const MAX_REQUEST_TIME: Duration = Duration::from_secs(20);

/// The request methods the service routes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// `GET`
    Get,
    /// `POST`
    Post,
    /// `PUT`
    Put,
    /// `DELETE`
    Delete,
}

impl Method {
    fn parse(s: &str) -> Option<Method> {
        match s {
            "GET" => Some(Method::Get),
            "POST" => Some(Method::Post),
            "PUT" => Some(Method::Put),
            "DELETE" => Some(Method::Delete),
            _ => None,
        }
    }

    /// The wire spelling (`GET`/`POST`/`PUT`/`DELETE`), for log lines.
    pub fn as_str(&self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Post => "POST",
            Method::Put => "PUT",
            Method::Delete => "DELETE",
        }
    }

    /// Whether this method mutates repository state. Mutating requests
    /// (and only those) are offloaded to the worker pool by the reactor
    /// and gated on the server being writable.
    pub fn is_write(&self) -> bool {
        matches!(self, Method::Post | Method::Put | Method::Delete)
    }
}

/// A parsed request: method, decoded path segments, query params, body.
#[derive(Debug)]
pub struct Request {
    /// The request method.
    pub method: Method,
    /// The raw path, percent-decoded, without the query string.
    pub path: String,
    /// Query parameters in order of appearance, percent-decoded.
    pub query: Vec<(String, String)>,
    /// Lower-cased request headers.
    pub headers: HashMap<String, String>,
    /// The request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
    /// Whether the connection should stay open after the response
    /// (HTTP/1.1 default unless the client asked `Connection: close`;
    /// HTTP/1.0 closes unless it asked `keep-alive`).
    pub keep_alive: bool,
    /// The tracing id assigned by the IO engine at accept time and
    /// carried through router → handler → job queue (0 = untraced,
    /// e.g. in parser unit tests).
    pub trace_id: u64,
}

/// The request-deadline header: the client's remaining budget in
/// milliseconds. Propagated into the analysis [`Budget`] as a hard stop
/// and checked before dispatch, so work the caller has already given up
/// on is never started.
///
/// [`Budget`]: hyperbench_decomp::Budget
pub const DEADLINE_HEADER: &str = "x-hyperbench-deadline-ms";

impl Request {
    /// The client's propagated deadline, parsed from
    /// [`DEADLINE_HEADER`]. `None` when absent or unparsable (a garbage
    /// value means no deadline rather than a rejection: the header is
    /// advisory, and refusing the request outright would make a
    /// misconfigured proxy fatal).
    pub fn deadline(&self) -> Option<Duration> {
        let ms: u64 = self.headers.get(DEADLINE_HEADER)?.trim().parse().ok()?;
        Some(Duration::from_millis(ms))
    }
}

/// Why a request could not be parsed; maps onto a 400/408/413/405.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The connection closed before a full request arrived.
    ConnectionClosed,
    /// The request line / headers / body are malformed. Maps to 400.
    Malformed(String),
    /// Unknown or unsupported method. Maps to 405.
    BadMethod(String),
    /// Body longer than [`MAX_BODY`]. Maps to 413.
    BodyTooLarge(usize),
    /// The head (request line + headers) exceeds a bound — an over-long
    /// line, too many headers, or more than [`MAX_HEAD`] bytes in total.
    /// Maps to 413.
    HeadTooLarge(usize),
    /// The client did not deliver the full request within the read
    /// deadline (slowloris). Maps to 408.
    TimedOut,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::ConnectionClosed => write!(f, "connection closed"),
            ParseError::Malformed(m) => write!(f, "malformed request: {m}"),
            ParseError::BadMethod(m) => write!(f, "unsupported method {m:?}"),
            ParseError::BodyTooLarge(n) => write!(f, "body of {n} bytes exceeds limit"),
            ParseError::HeadTooLarge(n) => {
                write!(f, "request head of {n} bytes exceeds limit")
            }
            ParseError::TimedOut => write!(f, "request not delivered within the read deadline"),
        }
    }
}

/// Outcome of one [`RequestParser::advance`] call.
#[derive(Debug)]
pub enum Parse {
    /// The buffer ran dry before the request completed; feed more bytes.
    NeedMore,
    /// One full request was parsed; the parser has reset itself and any
    /// unconsumed input belongs to the *next* (pipelined) request.
    Complete(Request),
}

#[derive(Debug)]
enum ParseState {
    /// Accumulating the request line.
    RequestLine,
    /// Accumulating header lines.
    Headers,
    /// Accumulating exactly `expect` body bytes.
    Body { expect: usize },
}

/// An incremental HTTP/1.1 request parser: feed it byte slices as they
/// arrive; it consumes what it can and remembers where it stopped.
/// After [`Parse::Complete`] it is reset and immediately ready for the
/// next request on the same connection.
#[derive(Debug)]
pub struct RequestParser {
    state: ParseState,
    /// The current (partial) head line, CR/LF not yet seen.
    line: Vec<u8>,
    /// Total head bytes consumed for the current request.
    head_bytes: usize,
    /// Parsed request line: method + raw target.
    method: Option<Method>,
    target: String,
    headers: HashMap<String, String>,
    keep_alive: bool,
    body: Vec<u8>,
}

impl Default for RequestParser {
    fn default() -> Self {
        RequestParser::new()
    }
}

impl RequestParser {
    /// A parser at the start of a request.
    pub fn new() -> RequestParser {
        RequestParser {
            state: ParseState::RequestLine,
            line: Vec::new(),
            head_bytes: 0,
            method: None,
            target: String::new(),
            headers: HashMap::new(),
            keep_alive: true,
            body: Vec::new(),
        }
    }

    /// Whether the parser has consumed no bytes of the current request —
    /// the keep-alive *idle* state, where a peer disconnect is a normal
    /// end of conversation rather than a truncated request.
    pub fn is_idle(&self) -> bool {
        matches!(self.state, ParseState::RequestLine)
            && self.line.is_empty()
            && self.head_bytes == 0
    }

    /// Consumes bytes from `input`, returning how many were used and
    /// whether a request completed. Always consumes the whole input
    /// unless a request completes first (the remainder then belongs to
    /// the next pipelined request). Errors are terminal for the
    /// connection: the parser's state is unspecified afterwards.
    pub fn advance(&mut self, input: &[u8]) -> Result<(usize, Parse), ParseError> {
        let mut used = 0;
        while used < input.len() {
            match self.state {
                ParseState::RequestLine | ParseState::Headers => {
                    // Scan for the end of the current line.
                    let rest = &input[used..];
                    let nl = rest.iter().position(|&b| b == b'\n');
                    let take = nl.map_or(rest.len(), |i| i + 1);
                    if self.line.len() + take > MAX_LINE + 2 {
                        return Err(ParseError::HeadTooLarge(self.head_bytes + take));
                    }
                    self.line.extend_from_slice(&rest[..take]);
                    used += take;
                    self.head_bytes += take;
                    if self.head_bytes > MAX_HEAD {
                        return Err(ParseError::HeadTooLarge(self.head_bytes));
                    }
                    if nl.is_none() {
                        break; // need more input for this line
                    }
                    let mut line = std::mem::take(&mut self.line);
                    line.pop(); // the \n
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    let line = String::from_utf8(line)
                        .map_err(|_| ParseError::Malformed("non-UTF-8 header line".to_string()))?;
                    if matches!(self.state, ParseState::RequestLine) {
                        self.parse_request_line(&line)?;
                        self.state = ParseState::Headers;
                    } else if line.is_empty() {
                        // End of head: settle framing and move on.
                        if let Some(req) = self.finish_head()? {
                            return Ok((used, Parse::Complete(req)));
                        }
                    } else {
                        self.parse_header_line(&line)?;
                    }
                }
                ParseState::Body { expect } => {
                    let missing = expect - self.body.len();
                    let take = missing.min(input.len() - used);
                    self.body.extend_from_slice(&input[used..used + take]);
                    used += take;
                    if self.body.len() == expect {
                        return Ok((used, Parse::Complete(self.finish_request()?)));
                    }
                }
            }
        }
        Ok((used, Parse::NeedMore))
    }

    fn parse_request_line(&mut self, line: &str) -> Result<(), ParseError> {
        let mut parts = line.split(' ');
        let (method_s, target, version) =
            match (parts.next(), parts.next(), parts.next(), parts.next()) {
                (Some(m), Some(t), Some(v), None) => (m, t, v),
                _ => return Err(ParseError::Malformed(format!("bad request line {line:?}"))),
            };
        if !version.starts_with("HTTP/1.") {
            return Err(ParseError::Malformed(format!(
                "unsupported version {version:?}"
            )));
        }
        self.method = Some(
            Method::parse(method_s).ok_or_else(|| ParseError::BadMethod(method_s.to_string()))?,
        );
        self.target = target.to_string();
        // HTTP/1.0 closes by default; HTTP/1.1 keeps alive by default.
        self.keep_alive = version != "HTTP/1.0";
        Ok(())
    }

    fn parse_header_line(&mut self, line: &str) -> Result<(), ParseError> {
        if self.headers.len() >= MAX_HEADERS {
            return Err(ParseError::HeadTooLarge(self.head_bytes));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| ParseError::Malformed(format!("bad header line {line:?}")))?;
        self.headers
            .insert(name.trim().to_ascii_lowercase(), value.trim().to_string());
        Ok(())
    }

    /// Called at the blank line ending the head: decides the body
    /// framing. Returns the finished request for body-less requests.
    fn finish_head(&mut self) -> Result<Option<Request>, ParseError> {
        match self
            .headers
            .get("connection")
            .map(|v| v.to_ascii_lowercase())
        {
            Some(v) if v == "close" => self.keep_alive = false,
            Some(v) if v == "keep-alive" => self.keep_alive = true,
            _ => {}
        }
        // Only `Content-Length` framing is spoken here. Silently
        // ignoring a Transfer-Encoding would desync the keep-alive
        // stream (the chunked body would parse as pipelined requests —
        // a request-smuggling surface), so reject it outright.
        if self.headers.contains_key("transfer-encoding") {
            return Err(ParseError::Malformed(
                "Transfer-Encoding is not supported; use Content-Length".to_string(),
            ));
        }
        let expect = match self.headers.get("content-length") {
            None => 0,
            Some(v) => {
                let len: usize = v
                    .parse()
                    .map_err(|_| ParseError::Malformed(format!("bad Content-Length {v:?}")))?;
                if len > MAX_BODY {
                    return Err(ParseError::BodyTooLarge(len));
                }
                len
            }
        };
        if expect == 0 {
            return Ok(Some(self.finish_request()?));
        }
        self.state = ParseState::Body { expect };
        Ok(None)
    }

    /// Builds the [`Request`] and resets the parser for the next one.
    fn finish_request(&mut self) -> Result<Request, ParseError> {
        let target = std::mem::take(&mut self.target);
        let (path_raw, query_raw) = match target.split_once('?') {
            Some((p, q)) => (p, Some(q)),
            None => (target.as_str(), None),
        };
        let path = percent_decode(path_raw).ok_or_else(|| {
            ParseError::Malformed(format!("bad percent-encoding in {path_raw:?}"))
        })?;
        let query = match query_raw {
            None => Vec::new(),
            Some(q) => parse_query(q)
                .ok_or_else(|| ParseError::Malformed(format!("bad query string {q:?}")))?,
        };
        let request = Request {
            method: self.method.take().expect("request line parsed"),
            path,
            query,
            headers: std::mem::take(&mut self.headers),
            body: std::mem::take(&mut self.body),
            keep_alive: self.keep_alive,
            trace_id: 0,
        };
        self.state = ParseState::RequestLine;
        self.line.clear();
        self.head_bytes = 0;
        self.keep_alive = true;
        Ok(request)
    }
}

/// Reads and parses one request from `stream`, blocking until it is
/// complete: a synchronous loop over the incremental [`RequestParser`],
/// used by the unit tests to drive the machine from byte slices. A slow
/// client is cut off by [`MAX_REQUEST_TIME`] (and by the socket read
/// timeout the caller installed) with a [`ParseError::TimedOut`], which
/// maps to a structured 408.
pub fn read_request<R: Read>(mut stream: R) -> Result<Request, ParseError> {
    let deadline = Instant::now() + MAX_REQUEST_TIME;
    let mut parser = RequestParser::new();
    let mut buf = [0u8; 8 * 1024];
    loop {
        if Instant::now() > deadline {
            return Err(ParseError::TimedOut);
        }
        let n = match stream.read(&mut buf) {
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return Err(ParseError::TimedOut)
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ParseError::Malformed(e.to_string())),
        };
        if n == 0 {
            if parser.is_idle() {
                return Err(ParseError::ConnectionClosed);
            }
            return Err(ParseError::Malformed("truncated request".to_string()));
        }
        if let (_, Parse::Complete(req)) = parser.advance(&buf[..n])? {
            // Any pipelined surplus is dropped: this path serves exactly
            // one request per connection.
            return Ok(req);
        }
    }
}

/// Splits `a=1&b=2` into decoded pairs; `None` on bad percent-encoding.
pub fn parse_query(q: &str) -> Option<Vec<(String, String)>> {
    let mut out = Vec::new();
    for pair in q.split('&') {
        if pair.is_empty() {
            continue;
        }
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        out.push((percent_decode(k)?, percent_decode(v)?));
    }
    Some(out)
}

/// Percent-decoding with `+` → space (form-style), `None` on bad escapes.
pub fn percent_decode(s: &str) -> Option<String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes.get(i + 1..i + 3)?;
                let hi = (hex[0] as char).to_digit(16)?;
                let lo = (hex[1] as char).to_digit(16)?;
                out.push((hi * 16 + lo) as u8);
                i += 3;
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).ok()
}

/// An outgoing response.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` of the body.
    pub content_type: &'static str,
    /// The body bytes.
    pub body: Vec<u8>,
    /// Emits a `Retry-After: N` header (seconds) when set — attached to
    /// every capacity refusal (429 shed, 503 queue-full/degraded) so
    /// well-behaved clients back off by the observed service time
    /// instead of guessing.
    pub retry_after: Option<u32>,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: impl ToString) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: body.to_string().into_bytes(),
            retry_after: None,
        }
    }

    /// A plain-text response with the given status.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into().into_bytes(),
            retry_after: None,
        }
    }

    /// Attaches a `Retry-After` hint (seconds, minimum 1).
    pub fn with_retry_after(mut self, seconds: u32) -> Response {
        self.retry_after = Some(seconds.max(1));
        self
    }

    /// Serializes the response into `out` (appending), with keep-alive
    /// or close framing. The reactor's per-connection write buffer is
    /// reused across requests, so on the keep-alive fast path this does
    /// not allocate once the buffer has grown to its working size.
    pub fn serialize_into(&self, keep_alive: bool, out: &mut Vec<u8>) {
        let _ = write!(
            out,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            status_reason(self.status),
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        );
        if let Some(seconds) = self.retry_after {
            let _ = write!(out, "Retry-After: {seconds}\r\n");
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&self.body);
    }

    /// Serializes the response (status line + headers + body) to `w`
    /// with `Connection: close` framing — the one-request-per-connection
    /// blocking path.
    pub fn write_to<W: Write>(&self, w: &mut W) -> std::io::Result<()> {
        let mut out = Vec::with_capacity(128 + self.body.len());
        self.serialize_into(false, &mut out);
        w.write_all(&out)?;
        w.flush()
    }
}

/// The canonical reason phrase for the status codes the service emits.
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        202 => "Accepted",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_get_with_query() {
        let raw = b"GET /hypergraphs?class=CSP%20Random&hw_le=5 HTTP/1.1\r\nHost: x\r\n\r\n";
        let req = read_request(&raw[..]).unwrap();
        assert_eq!(req.method, Method::Get);
        assert_eq!(req.path, "/hypergraphs");
        assert_eq!(
            req.query,
            vec![
                ("class".to_string(), "CSP Random".to_string()),
                ("hw_le".to_string(), "5".to_string())
            ]
        );
        assert!(req.body.is_empty());
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn parses_post_with_body() {
        let raw = b"POST /analyze HTTP/1.1\r\nContent-Length: 9\r\n\r\ne(a,b,c).";
        let req = read_request(&raw[..]).unwrap();
        assert_eq!(req.method, Method::Post);
        assert_eq!(req.body, b"e(a,b,c).");
    }

    #[test]
    fn connection_header_controls_keep_alive() {
        let close = read_request(&b"GET /x HTTP/1.1\r\nConnection: close\r\n\r\n"[..]).unwrap();
        assert!(!close.keep_alive);
        let old = read_request(&b"GET /x HTTP/1.0\r\n\r\n"[..]).unwrap();
        assert!(!old.keep_alive, "HTTP/1.0 defaults to close");
        let old_ka =
            read_request(&b"GET /x HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"[..]).unwrap();
        assert!(old_ka.keep_alive);
    }

    #[test]
    fn rejects_malformed() {
        assert!(matches!(
            read_request(&b"NOT-HTTP\r\n\r\n"[..]),
            Err(ParseError::Malformed(_))
        ));
        assert!(matches!(
            read_request(&b"PATCH /x HTTP/1.1\r\n\r\n"[..]),
            Err(ParseError::BadMethod(_))
        ));
        assert!(matches!(
            read_request(&b"GET /x HTTP/2\r\n\r\n"[..]),
            Err(ParseError::Malformed(_))
        ));
        assert!(matches!(
            read_request(&b"POST /x HTTP/1.1\r\nContent-Length: ten\r\n\r\n"[..]),
            Err(ParseError::Malformed(_))
        ));
        assert!(matches!(
            read_request(&b""[..]),
            Err(ParseError::ConnectionClosed)
        ));
    }

    #[test]
    fn rejects_transfer_encoding() {
        // Chunked bodies would desync keep-alive framing (the chunks
        // would parse as pipelined requests), so they are refused.
        assert!(matches!(
            read_request(
                &b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n"[..]
            ),
            Err(ParseError::Malformed(m)) if m.contains("Transfer-Encoding")
        ));
    }

    #[test]
    fn rejects_oversized_body() {
        let raw = format!(
            "POST /analyze HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert!(matches!(
            read_request(raw.as_bytes()),
            Err(ParseError::BodyTooLarge(_))
        ));
    }

    #[test]
    fn rejects_oversized_head() {
        // One absurdly long header line.
        let raw = format!(
            "GET /x HTTP/1.1\r\nX-Big: {}\r\n\r\n",
            "a".repeat(MAX_LINE + 10)
        );
        assert!(matches!(
            read_request(raw.as_bytes()),
            Err(ParseError::HeadTooLarge(_))
        ));
        // Too many individually-small headers.
        let mut raw = String::from("GET /x HTTP/1.1\r\n");
        for i in 0..MAX_HEADERS + 2 {
            raw.push_str(&format!("X-{i}: v\r\n"));
        }
        raw.push_str("\r\n");
        assert!(matches!(
            read_request(raw.as_bytes()),
            Err(ParseError::HeadTooLarge(_))
        ));
    }

    /// The incremental parser must produce identical requests whether it
    /// sees the bytes in one slice or one byte at a time.
    #[test]
    fn drip_fed_bytes_equal_one_shot() {
        let raw: &[u8] = b"POST /analyze?x=1 HTTP/1.1\r\nHost: t\r\nContent-Length: 5\r\n\r\nhello";
        let one_shot = {
            let mut p = RequestParser::new();
            match p.advance(raw).unwrap() {
                (n, Parse::Complete(r)) => {
                    assert_eq!(n, raw.len());
                    r
                }
                _ => panic!("one-shot parse incomplete"),
            }
        };
        let mut p = RequestParser::new();
        let mut dripped = None;
        for (i, b) in raw.iter().enumerate() {
            assert!(!p.is_idle() || i == 0, "parser idle mid-request");
            match p.advance(std::slice::from_ref(b)).unwrap() {
                (1, Parse::Complete(r)) => {
                    assert_eq!(i, raw.len() - 1, "completed early");
                    dripped = Some(r);
                }
                (1, Parse::NeedMore) => {}
                other => panic!("unexpected advance result {other:?}"),
            }
        }
        let dripped = dripped.expect("drip parse completed");
        assert_eq!(dripped.method, one_shot.method);
        assert_eq!(dripped.path, one_shot.path);
        assert_eq!(dripped.query, one_shot.query);
        assert_eq!(dripped.headers, one_shot.headers);
        assert_eq!(dripped.body, one_shot.body);
        assert_eq!(dripped.keep_alive, one_shot.keep_alive);
        assert!(p.is_idle(), "parser resets after completion");
    }

    /// Two pipelined requests in one buffer: the parser completes the
    /// first, reports how much it consumed, and the second parses from
    /// the remainder.
    #[test]
    fn pipelined_requests_split_correctly() {
        let raw: &[u8] = b"GET /healthz HTTP/1.1\r\nHost: a\r\n\r\nGET /stats HTTP/1.1\r\nHost: a\r\nConnection: close\r\n\r\n";
        let mut p = RequestParser::new();
        let (n1, first) = p.advance(raw).unwrap();
        let first = match first {
            Parse::Complete(r) => r,
            Parse::NeedMore => panic!("first request incomplete"),
        };
        assert_eq!(first.path, "/healthz");
        assert!(first.keep_alive);
        let (n2, second) = p.advance(&raw[n1..]).unwrap();
        let second = match second {
            Parse::Complete(r) => r,
            Parse::NeedMore => panic!("second request incomplete"),
        };
        assert_eq!(n1 + n2, raw.len());
        assert_eq!(second.path, "/stats");
        assert!(!second.keep_alive);
    }

    #[test]
    fn percent_decoding() {
        assert_eq!(percent_decode("a+b%2Fc").unwrap(), "a b/c");
        assert_eq!(percent_decode("plain").unwrap(), "plain");
        assert!(percent_decode("bad%zz").is_none());
        assert!(percent_decode("trunc%2").is_none());
    }

    #[test]
    fn response_serialization() {
        let mut out = Vec::new();
        Response::json(200, "{\"ok\":true}")
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Type: application/json\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));
    }

    #[test]
    fn retry_after_header_is_emitted_when_set() {
        let mut out = Vec::new();
        Response::json(429, "{}")
            .with_retry_after(2)
            .serialize_into(false, &mut out);
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"),
            "{text}"
        );
        assert!(text.contains("Retry-After: 2\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n{}"), "{text}");
        // Zero rounds up: "retry immediately" is not a useful hint.
        assert_eq!(
            Response::json(503, "{}").with_retry_after(0).retry_after,
            Some(1)
        );
    }

    #[test]
    fn deadline_header_parses_and_tolerates_garbage() {
        let raw = b"GET /x HTTP/1.1\r\nx-hyperbench-deadline-ms: 1500\r\n\r\n";
        let req = read_request(&raw[..]).unwrap();
        assert_eq!(req.deadline(), Some(Duration::from_millis(1500)));
        let raw = b"GET /x HTTP/1.1\r\nX-HyperBench-Deadline-Ms: 25\r\n\r\n";
        let req = read_request(&raw[..]).unwrap();
        assert_eq!(
            req.deadline(),
            Some(Duration::from_millis(25)),
            "headers lower-case"
        );
        let raw = b"GET /x HTTP/1.1\r\nx-hyperbench-deadline-ms: soon\r\n\r\n";
        let req = read_request(&raw[..]).unwrap();
        assert_eq!(req.deadline(), None, "garbage is advisory, not fatal");
    }

    #[test]
    fn keep_alive_serialization_reuses_the_buffer() {
        let mut out = Vec::new();
        Response::json(200, "{}").serialize_into(true, &mut out);
        let text = String::from_utf8(out.clone()).unwrap();
        assert!(text.contains("Connection: keep-alive\r\n"));
        // Reuse: clearing keeps capacity; a second serialization of the
        // same response must fit without growing.
        let cap = out.capacity();
        out.clear();
        Response::json(200, "{}").serialize_into(true, &mut out);
        assert_eq!(out.capacity(), cap);
    }
}
