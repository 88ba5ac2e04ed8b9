//! The client side of HTTP/1.1: one request writer
//! ([`encode_request`]) and one blocking response reader
//! ([`ResponseReader`]), shared by [`crate::Client`], the router's
//! upstream pools and the test suites. The server side —
//! the incremental *request* parser — lives in `hyperbench-server`.
//!
//! The servers this talks to always frame a response with
//! `Content-Length`, so that is the one framing understood: chunked
//! bodies and read-until-close bodies are out of scope. Everything a
//! peer can send is bounded ([`MAX_HEAD`], [`MAX_BODY`]) and every
//! malformed input is an [`io::Error`], never a panic:
//!
//! | what went wrong | `ErrorKind` |
//! |-----------------|-------------|
//! | the peer closed before or inside a response | `UnexpectedEof` |
//! | oversized head, oversized declared body, bad status line, bad header line, non-numeric `Content-Length`, non-UTF-8 head | `InvalidData` |
//! | anything the underlying stream reported | passed through |

use std::io::{self, Read, Write};

/// Upper bound on a message head (start line + all header lines) —
/// requests at the server, responses here.
pub const MAX_HEAD: usize = 64 * 1024;
/// Upper bound on a message body (a generous cap for `.hg` uploads and
/// the pages built from them).
pub const MAX_BODY: usize = 8 * 1024 * 1024;

/// Most body bytes reserved ahead of their arrival: a peer that
/// declares a large body and then stalls or disconnects costs this
/// much, not the declared size.
const BODY_RESERVE: usize = 64 * 1024;

/// Serializes one request: `host` and `content-length` first, then
/// `headers` verbatim, then the body.
pub fn encode_request(
    method: &str,
    path_and_query: &str,
    host: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> Vec<u8> {
    let mut out = Vec::with_capacity(256 + body.len());
    out.extend_from_slice(method.as_bytes());
    out.push(b' ');
    out.extend_from_slice(path_and_query.as_bytes());
    out.extend_from_slice(b" HTTP/1.1\r\nhost: ");
    out.extend_from_slice(host.as_bytes());
    out.extend_from_slice(b"\r\ncontent-length: ");
    out.extend_from_slice(body.len().to_string().as_bytes());
    out.extend_from_slice(b"\r\n");
    for (name, value) in headers {
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(b": ");
        out.extend_from_slice(value.as_bytes());
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
    out
}

/// One decoded response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The HTTP status code.
    pub status: u16,
    /// Response headers in wire order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The full body.
    pub body: Vec<u8>,
    /// Whether the peer left the connection open for another exchange
    /// (no `Connection: close`).
    pub keep_alive: bool,
}

impl Response {
    /// The first value of a header, by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        find_header(&self.headers, name)
    }

    /// Parsed `Retry-After` seconds, when the peer sent one.
    pub fn retry_after(&self) -> Option<u32> {
        self.header("retry-after")
            .and_then(|v| v.trim().parse().ok())
    }

    /// The body as text, lossily (for assertion messages and payloads
    /// known to be JSON or `.hg` text).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

fn find_header<'h>(headers: &'h [(String, String)], name: &str) -> Option<&'h str> {
    headers
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

fn invalid(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

/// Reads responses off one connection, in order. Bytes that arrive
/// behind a response's declared body — the start of the next pipelined
/// answer — are carried to the next [`ResponseReader::read_response`],
/// never dropped; a caller about to reuse the stream some other way
/// checks [`ResponseReader::is_drained`] first.
#[derive(Debug)]
pub struct ResponseReader<S> {
    stream: S,
    carry: Vec<u8>,
}

impl<S: Read> ResponseReader<S> {
    /// A reader over `stream` (pass `&mut stream` to keep ownership).
    pub fn new(stream: S) -> ResponseReader<S> {
        ResponseReader {
            stream,
            carry: Vec::new(),
        }
    }

    /// The underlying stream, e.g. to write the next request.
    pub fn get_mut(&mut self) -> &mut S {
        &mut self.stream
    }

    /// Whether every byte read so far belonged to a returned response.
    pub fn is_drained(&self) -> bool {
        self.carry.is_empty()
    }

    /// Blocks until one full response (head and `Content-Length` body)
    /// has arrived and decodes it; see the module docs for the errors.
    pub fn read_response(&mut self) -> io::Result<Response> {
        let mut buf = std::mem::take(&mut self.carry);
        let mut chunk = [0u8; 4096];
        let mut searched = 0usize;
        let head_end = loop {
            // Resume the terminator search where the last one stopped
            // (minus the three bytes a split terminator may straddle),
            // and never look past a head of exactly `MAX_HEAD` bytes
            // plus its terminator — so the verdict does not depend on
            // how the bytes were split across reads.
            let end = buf.len().min(MAX_HEAD + 4);
            let from = searched.saturating_sub(3).min(end);
            if let Some(pos) = buf[from..end].windows(4).position(|w| w == b"\r\n\r\n") {
                break from + pos;
            }
            searched = end;
            if end == MAX_HEAD + 4 {
                return Err(invalid("response head too large"));
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    if buf.is_empty() {
                        "connection closed before a response"
                    } else {
                        "connection closed mid-response"
                    },
                ));
            }
            buf.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&buf[..head_end])
            .map_err(|_| invalid("non-UTF-8 response head"))?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or("");
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| invalid(format!("bad status line {status_line:?}")))?;
        let mut headers = Vec::new();
        for line in lines {
            let (name, value) = line
                .split_once(':')
                .ok_or_else(|| invalid(format!("bad header line {line:?}")))?;
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
        let content_length: usize = match find_header(&headers, "content-length") {
            Some(v) => v.parse().map_err(|_| invalid("bad content-length"))?,
            None => 0,
        };
        if content_length > MAX_BODY {
            return Err(invalid("response body too large"));
        }
        let keep_alive =
            find_header(&headers, "connection").is_none_or(|v| !v.eq_ignore_ascii_case("close"));

        let mut body = buf.split_off(head_end + 4);
        if body.len() > content_length {
            self.carry = body.split_off(content_length);
        } else if body.len() < content_length {
            // The rest of the body is read straight into its final
            // buffer: a proxied response is copied back out verbatim,
            // so a staging copy would be pure per-request overhead on
            // the routed path.
            let missing = content_length - body.len();
            body.reserve_exact(missing.min(BODY_RESERVE));
            (&mut self.stream)
                .take(missing as u64)
                .read_to_end(&mut body)?;
            if body.len() < content_length {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-body",
                ));
            }
        }
        Ok(Response {
            status,
            headers,
            body,
            keep_alive,
        })
    }
}

impl<S: Read + Write> ResponseReader<S> {
    /// Writes one serialized request and reads its response.
    pub fn exchange(&mut self, request: &[u8]) -> io::Result<Response> {
        self.stream.write_all(request)?;
        self.read_response()
    }
}
