//! Client-side upstream connections for front tiers.
//!
//! A router process accepts downstream requests on the reactor (via
//! [`crate::Dispatch`]) and proxies them to shard servers over the
//! pools here. Each [`UpstreamPool`] owns the keep-alive connections
//! to one upstream address. An exchange has two halves:
//! [`UpstreamPool::send`] checks out an idle connection (or dials a
//! new one) and writes one HTTP/1.1 request, and
//! [`UpstreamPool::finish`] reads the response and returns the
//! connection to the pool when the upstream kept it open. Between the
//! two the request is a [`Pending`], and one thread may hold several:
//! a scatter page sends one to every shard before it waits on any, and
//! a read hedged to a second replica sleeps in [`wait_readable`] until
//! the first answer starts to arrive. No thread is started for either;
//! dropping a `Pending` closes its socket, which is all the
//! cancellation an abandoned request needs. Both halves block by
//! design — the router dispatches every request on the reactor's
//! offload pool, so a slow upstream stalls one worker thread, never
//! the event loop.
//!
//! # Fault injection
//!
//! Two failpoints cover the upstream path: `router.upstream_connect`
//! fires before dialing and `router.upstream_read` fires once the
//! request is written, before the response is waited for. Both are
//! *address-filtered*: arming with `return(<host:port>)` kills only
//! that upstream, while a bare `return` kills all of them — so a chaos
//! test can take down one replica of one shard without touching its
//! peers.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::Duration;

use hyperbench_api::http::{encode_request, ResponseReader};

/// One decoded upstream response.
pub use hyperbench_api::http::Response as UpstreamResponse;

/// A request on the wire whose response has not been read:
/// [`UpstreamPool::finish`] reads it, dropping it abandons it by
/// closing the socket (a connection with an unread response is never
/// pooled).
#[derive(Debug)]
pub struct Pending {
    stream: TcpStream,
    /// The encoded request, for the one retry a stale pooled
    /// connection earns.
    request: Vec<u8>,
    /// Whether `stream` came out of the idle pool.
    pooled: bool,
}

/// Blocks until the response to one of `pending` has begun to arrive —
/// or its connection failed, which [`UpstreamPool::finish`] then
/// reports — and returns that request's position; `None` once
/// `timeout` passes with every upstream still silent.
#[cfg(target_os = "linux")]
pub fn wait_readable<'p>(
    pending: impl IntoIterator<Item = &'p Pending>,
    timeout: Duration,
) -> io::Result<Option<usize>> {
    use std::os::fd::AsRawFd;
    let fds = pending.into_iter().map(|p| p.stream.as_raw_fd());
    crate::reactor::wait_readable(fds, timeout)
}

/// Off Linux there is no reactor to serve a front tier from, and no
/// readiness wait either.
#[cfg(not(target_os = "linux"))]
pub fn wait_readable<'p>(
    _pending: impl IntoIterator<Item = &'p Pending>,
    _timeout: Duration,
) -> io::Result<Option<usize>> {
    Err(io::Error::new(
        io::ErrorKind::Unsupported,
        "waiting on several upstreams requires Linux",
    ))
}

/// A keep-alive connection pool to one upstream address.
#[derive(Debug)]
pub struct UpstreamPool {
    addr: SocketAddr,
    addr_text: String,
    idle: Mutex<Vec<TcpStream>>,
    connect_timeout: Duration,
    read_timeout: Duration,
}

/// Whether an address-filtered failpoint fires for this upstream: the
/// armed message must be empty (all upstreams) or name this address.
fn failpoint_hit(name: &str, addr: &str) -> bool {
    if !hyperbench_fault::ENABLED {
        return false;
    }
    match hyperbench_fault::eval(name) {
        Some(msg) => msg.is_empty() || msg == addr,
        None => false,
    }
}

impl UpstreamPool {
    /// A pool for the given upstream with 1 s connect and 30 s read
    /// timeouts.
    pub fn new(addr: SocketAddr) -> UpstreamPool {
        UpstreamPool::with_timeouts(addr, Duration::from_secs(1), Duration::from_secs(30))
    }

    /// A pool with explicit connect and read timeouts.
    pub fn with_timeouts(
        addr: SocketAddr,
        connect_timeout: Duration,
        read_timeout: Duration,
    ) -> UpstreamPool {
        UpstreamPool {
            addr,
            addr_text: addr.to_string(),
            idle: Mutex::new(Vec::new()),
            connect_timeout,
            read_timeout,
        }
    }

    /// The upstream address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The upstream address as `host:port` text (the failpoint filter
    /// and topology-report spelling).
    pub fn addr_text(&self) -> &str {
        &self.addr_text
    }

    /// Drops every idle connection (a drained or breaker-opened
    /// upstream should not hold sockets).
    pub fn drop_idle(&self) {
        self.idle.lock().unwrap().clear();
    }

    /// One request/response exchange.
    pub fn exchange(
        &self,
        method: &str,
        path_and_query: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> io::Result<UpstreamResponse> {
        self.finish(self.send(method, path_and_query, headers, body)?)
    }

    /// Writes one request, on an idle pooled connection when there is
    /// one and on a fresh dial otherwise — also when the pooled one
    /// turns out stale (closed by the upstream between exchanges)
    /// already at the write.
    pub fn send(
        &self,
        method: &str,
        path_and_query: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> io::Result<Pending> {
        let request = encode_request(method, path_and_query, &self.addr_text, headers, body);
        let pooled = self
            .checkout()
            .filter(|stream| self.write(stream, &request).is_ok());
        let (stream, pooled) = match pooled {
            Some(stream) => (stream, true),
            None => (self.dial_and_write(&request)?, false),
        };
        Ok(Pending {
            stream,
            request,
            pooled,
        })
    }

    /// Reads the response to a sent request.
    ///
    /// A pooled connection that turns out stale only now is retried
    /// once on a fresh dial; a failure on a fresh connection surfaces
    /// immediately, so the caller's failure accounting never
    /// double-counts one upstream fault.
    pub fn finish(&self, pending: Pending) -> io::Result<UpstreamResponse> {
        let Pending {
            stream,
            request,
            pooled,
        } = pending;
        match self.read(stream) {
            Err(_) if pooled => self.read(self.dial_and_write(&request)?),
            result => result,
        }
    }

    /// Dials a fresh connection (through the connect failpoint).
    fn connect(&self) -> io::Result<TcpStream> {
        if failpoint_hit("router.upstream_connect", &self.addr_text) {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                format!("injected connect failure to {}", self.addr_text),
            ));
        }
        let stream = TcpStream::connect_timeout(&self.addr, self.connect_timeout)?;
        stream.set_read_timeout(Some(self.read_timeout))?;
        stream.set_nodelay(true)?;
        Ok(stream)
    }

    /// Pops an idle pooled connection, if any.
    fn checkout(&self) -> Option<TcpStream> {
        self.idle.lock().unwrap().pop()
    }

    /// Returns a healthy connection to the pool.
    fn checkin(&self, stream: TcpStream) {
        let mut idle = self.idle.lock().unwrap();
        // A handful of keep-alive sockets per upstream is plenty for
        // an offload-pool's worth of concurrency; beyond that, close.
        if idle.len() < 16 {
            idle.push(stream);
        }
    }

    fn write(&self, mut stream: &TcpStream, request: &[u8]) -> io::Result<()> {
        stream.write_all(request)?;
        if failpoint_hit("router.upstream_read", &self.addr_text) {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                format!("injected read failure from {}", self.addr_text),
            ));
        }
        Ok(())
    }

    fn dial_and_write(&self, request: &[u8]) -> io::Result<TcpStream> {
        let stream = self.connect()?;
        self.write(&stream, request)?;
        Ok(stream)
    }

    fn read(&self, mut stream: TcpStream) -> io::Result<UpstreamResponse> {
        let mut reader = ResponseReader::new(&mut stream);
        let response = reader.read_response()?;
        // Bytes behind the declared body mean the upstream and this
        // pool disagree about framing; such a connection is never
        // offered to the next exchange.
        let drained = reader.is_drained();
        if response.keep_alive && drained {
            self.checkin(stream);
        }
        Ok(response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpListener;

    fn serve_once(response: &'static [u8]) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut buf = [0u8; 4096];
            let _ = stream.read(&mut buf);
            stream.write_all(response).unwrap();
        });
        addr
    }

    #[test]
    fn exchange_decodes_status_headers_and_body() {
        let addr = serve_once(
            b"HTTP/1.1 503 Service Unavailable\r\ncontent-type: application/json\r\n\
              retry-after: 2\r\ncontent-length: 7\r\nconnection: close\r\n\r\n{\"a\":1}",
        );
        let pool = UpstreamPool::new(addr);
        let response = pool.exchange("GET", "/v1/health", &[], &[]).unwrap();
        assert_eq!(response.status, 503);
        assert_eq!(response.retry_after(), Some(2));
        assert_eq!(response.header("content-type"), Some("application/json"));
        assert_eq!(response.body, b"{\"a\":1}");
        assert!(!response.keep_alive);
    }

    #[test]
    fn keep_alive_connections_return_to_the_pool() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut buf = [0u8; 4096];
            for _ in 0..2 {
                let _ = stream.read(&mut buf);
                stream
                    .write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nok")
                    .unwrap();
            }
        });
        let pool = UpstreamPool::new(addr);
        for _ in 0..2 {
            let response = pool.exchange("GET", "/v1/health", &[], &[]).unwrap();
            assert_eq!(response.status, 200);
            assert_eq!(response.body, b"ok");
        }
        // Both exchanges rode one keep-alive connection.
        assert_eq!(pool.idle.lock().unwrap().len(), 1);

        // An upstream that sends bytes past its declared body disagrees
        // with this pool about framing: the answer is served, the
        // connection is not offered to the next exchange.
        let addr = serve_once(b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nokjunk");
        let pool = UpstreamPool::new(addr);
        let response = pool.exchange("GET", "/v1/health", &[], &[]).unwrap();
        assert_eq!(response.body, b"ok");
        assert!(pool.idle.lock().unwrap().is_empty());
    }

    #[test]
    fn refused_connections_surface_as_errors() {
        // Bind-then-drop leaves an address nothing is listening on.
        let addr = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let pool =
            UpstreamPool::with_timeouts(addr, Duration::from_millis(200), Duration::from_secs(1));
        assert!(pool.exchange("GET", "/v1/health", &[], &[]).is_err());
    }

    #[test]
    fn the_first_answer_wakes_the_wait_and_a_silent_upstream_times_it_out() {
        let stall = TcpListener::bind("127.0.0.1:0").unwrap();
        let silent = UpstreamPool::new(stall.local_addr().unwrap());
        let answering = UpstreamPool::new(serve_once(
            b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\nconnection: close\r\n\r\nok",
        ));
        let slow = silent.send("GET", "/v1/health", &[], &[]).unwrap();
        assert_eq!(
            wait_readable([&slow], Duration::from_millis(20)).unwrap(),
            None,
            "nothing was answered"
        );
        let fast = answering.send("GET", "/v1/health", &[], &[]).unwrap();
        assert_eq!(
            wait_readable([&slow, &fast], Duration::from_secs(10)).unwrap(),
            Some(1)
        );
        assert_eq!(answering.finish(fast).unwrap().body, b"ok");

        // Dropping the unanswered request closes its socket: that is
        // the whole cancellation, and the upstream sees it as EOF.
        let (mut accepted, _) = stall.accept().unwrap();
        drop(slow);
        let mut request = Vec::new();
        accepted.read_to_end(&mut request).unwrap();
        assert!(request.starts_with(b"GET /v1/health HTTP/1.1\r\n"));
        assert!(silent.idle.lock().unwrap().is_empty());
    }

    #[test]
    fn a_pooled_connection_gone_stale_is_retried_on_a_fresh_dial() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            // Answer keep-alive, then hang up: the pool is left
            // holding a dead socket. The second connection answers.
            for body in [&b"one"[..], b"two"] {
                let (mut stream, _) = listener.accept().unwrap();
                let mut buf = [0u8; 4096];
                let _ = stream.read(&mut buf);
                stream
                    .write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 3\r\n\r\n")
                    .unwrap();
                stream.write_all(body).unwrap();
            }
        });
        let pool = UpstreamPool::new(addr);
        assert_eq!(pool.exchange("GET", "/a", &[], &[]).unwrap().body, b"one");
        assert_eq!(pool.idle.lock().unwrap().len(), 1);
        // Whether the stale socket fails at the write or only at the
        // read, the exchange lands on the fresh connection.
        assert_eq!(pool.exchange("GET", "/b", &[], &[]).unwrap().body, b"two");
    }
}
