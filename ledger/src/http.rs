//! The ledger's own minimal keep-alive HTTP/1.1 client: one blocking
//! socket per connection, responses framed by `Content-Length`, and the
//! four instants (start, sent, first byte, done) every span is cut from.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// How long one exchange may wait for bytes before the op counts as
/// timed out (analyses are polled, so no single answer takes this long).
pub const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// One complete response at the front of the parser's buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame {
    pub status: u16,
    body_start: usize,
    end: usize,
}

/// Incremental response parser: feed it whatever the socket returned,
/// poll for a complete frame. Split reads and pipelined responses both
/// work because nothing is assumed about read boundaries.
#[derive(Debug, Default)]
pub struct ResponseParser {
    buf: Vec<u8>,
}

impl ResponseParser {
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The frame at the front of the buffer once all its bytes arrived.
    pub fn poll(&self) -> Result<Option<Frame>, String> {
        let Some(head_end) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") else {
            return Ok(None);
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| "response head is not UTF-8".to_string())?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or("");
        let status = status_line
            .strip_prefix("HTTP/1.1 ")
            .and_then(|rest| rest.get(..3))
            .and_then(|code| code.parse::<u16>().ok())
            .ok_or_else(|| format!("bad status line {status_line:?}"))?;
        let mut length = None;
        for line in lines {
            if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = Some(
                        value
                            .trim()
                            .parse::<usize>()
                            .map_err(|_| format!("bad Content-Length {value:?}"))?,
                    );
                }
            }
        }
        let length = length.ok_or("response without Content-Length")?;
        let body_start = head_end + 4;
        let end = body_start + length;
        Ok((self.buf.len() >= end).then_some(Frame {
            status,
            body_start,
            end,
        }))
    }

    pub fn body(&self, frame: &Frame) -> &[u8] {
        &self.buf[frame.body_start..frame.end]
    }

    /// Drops the frame's bytes; whatever was pipelined behind it moves
    /// to the front.
    pub fn consume(&mut self, frame: &Frame) {
        self.buf.drain(..frame.end);
    }
}

/// The instants of the last exchange on a connection.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub start: Instant,
    pub sent: Instant,
    pub first_byte: Instant,
    pub done: Instant,
}

impl Timing {
    pub fn total_ns(&self) -> u64 {
        (self.done - self.start).as_nanos() as u64
    }
}

/// One keep-alive connection.
pub struct Conn {
    stream: TcpStream,
    parser: ResponseParser,
    pending: Option<Frame>,
    pub timing: Timing,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2))
            .map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(READ_TIMEOUT))
            .and_then(|()| stream.set_nodelay(true))
            .map_err(|e| format!("socket options {addr}: {e}"))?;
        let now = Instant::now();
        Ok(Conn {
            stream,
            parser: ResponseParser::default(),
            pending: None,
            timing: Timing {
                start: now,
                sent: now,
                first_byte: now,
                done: now,
            },
        })
    }

    /// Sends one request and reads its response. The body borrows the
    /// connection's buffer until the next exchange.
    pub fn exchange(&mut self, request: &[u8]) -> Result<(u16, &[u8]), String> {
        if let Some(frame) = self.pending.take() {
            self.parser.consume(&frame);
        }
        if !self.parser.is_empty() {
            return Err("unsolicited bytes on an idle connection".to_string());
        }
        let start = Instant::now();
        self.stream
            .write_all(request)
            .map_err(|e| format!("send: {e}"))?;
        let sent = Instant::now();
        let mut first_byte = None;
        let mut scratch = [0u8; 16 * 1024];
        let frame = loop {
            if let Some(frame) = self.parser.poll()? {
                break frame;
            }
            let n = self
                .stream
                .read(&mut scratch)
                .map_err(|e| format!("recv: {e}"))?;
            if n == 0 {
                return Err("connection closed mid-response".to_string());
            }
            first_byte.get_or_insert_with(Instant::now);
            self.parser.feed(&scratch[..n]);
        };
        let done = Instant::now();
        self.timing = Timing {
            start,
            sent,
            first_byte: first_byte.unwrap_or(done),
            done,
        };
        self.pending = Some(frame);
        Ok((frame.status, self.parser.body(&frame)))
    }
}

/// A `GET` request for `path`.
pub fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: ledger\r\n\r\n").into_bytes()
}

/// A request with a JSON body.
pub fn with_body(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: ledger\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

pub fn delete(path: &str) -> Vec<u8> {
    format!("DELETE {path} HTTP/1.1\r\nHost: ledger\r\n\r\n").into_bytes()
}

/// One-shot request on a fresh connection (set-up, scrapes, audits).
pub fn once(addr: SocketAddr, request: &[u8]) -> Result<(u16, Vec<u8>), String> {
    let mut conn = Conn::connect(addr)?;
    let (status, body) = conn.exchange(request)?;
    Ok((status, body.to_vec()))
}
