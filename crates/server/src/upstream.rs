//! Client-side upstream connections for front tiers.
//!
//! A router process accepts downstream requests on the reactor (via
//! [`crate::Dispatch`]) and proxies them to shard servers over the
//! pools here. Each [`UpstreamPool`] owns the keep-alive connections
//! to one upstream address: an exchange checks out an idle connection
//! (or dials a new one), writes one HTTP/1.1 request, reads one
//! response, and returns the connection to the pool when the upstream
//! kept it open. Exchanges are blocking by design — the router
//! dispatches every request on the reactor's offload pool, so a slow
//! upstream stalls one worker thread, never the event loop.
//!
//! # Fault injection
//!
//! Two failpoints cover the upstream path: `router.upstream_connect`
//! fires before dialing and `router.upstream_read` fires before the
//! response read. Both are *address-filtered*: arming with
//! `return(<host:port>)` kills only that upstream, while a bare
//! `return` kills all of them — so a chaos test can take down one
//! replica of one shard without touching its peers.

use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use hyperbench_api::http::{encode_request, ResponseReader};

/// One decoded upstream response.
pub use hyperbench_api::http::Response as UpstreamResponse;

/// Cancels an in-flight [`UpstreamPool::exchange_with`] from another
/// thread: hedged reads hand the losing attempt's token to the winner,
/// which shuts the loser's socket down so its blocking read fails fast
/// instead of running to completion.
#[derive(Debug, Default)]
pub struct CancelToken {
    cancelled: AtomicBool,
    live: Mutex<Option<TcpStream>>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Whether [`CancelToken::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }

    /// Cancels the exchange: any registered socket is shut down and
    /// any future registration fails immediately.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
        if let Some(stream) = self.live.lock().unwrap().take() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }

    /// Points the token at the exchange's active socket.
    fn register(&self, stream: &TcpStream) -> io::Result<()> {
        let mut live = self.live.lock().unwrap();
        if self.is_cancelled() {
            return Err(io::Error::new(io::ErrorKind::Interrupted, "cancelled"));
        }
        *live = Some(stream.try_clone()?);
        Ok(())
    }

    /// Drops the registration once the exchange settles.
    fn clear(&self) {
        self.live.lock().unwrap().take();
    }
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
        self.exchange_with(method, path_and_query, headers, body, None)
    }

    /// One request/response exchange, cancellable from another thread.
    ///
    /// A stale pooled connection (closed by the upstream between
    /// exchanges) is retried once on a fresh dial; a failure on a
    /// fresh connection surfaces immediately, so the caller's failure
    /// accounting never double-counts one upstream fault.
    pub fn exchange_with(
        &self,
        method: &str,
        path_and_query: &str,
        headers: &[(&str, &str)],
        body: &[u8],
        cancel: Option<&CancelToken>,
    ) -> io::Result<UpstreamResponse> {
        let request = encode_request(method, path_and_query, &self.addr_text, headers, body);
        if let Some(stream) = self.checkout() {
            match self.try_exchange(stream, &request, cancel) {
                Ok(response) => return Ok(response),
                // The pooled socket was stale; fall through to a
                // fresh dial unless the caller cancelled us.
                Err(_) if cancel.is_none_or(|c| !c.is_cancelled()) => {}
                Err(e) => return Err(e),
            }
        }
        let stream = self.connect()?;
        self.try_exchange(stream, &request, cancel)
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

    fn try_exchange(
        &self,
        mut stream: TcpStream,
        request: &[u8],
        cancel: Option<&CancelToken>,
    ) -> io::Result<UpstreamResponse> {
        if let Some(token) = cancel {
            token.register(&stream)?;
        }
        let result = (|| {
            stream.write_all(request)?;
            if failpoint_hit("router.upstream_read", &self.addr_text) {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    format!("injected read failure from {}", self.addr_text),
                ));
            }
            let mut reader = ResponseReader::new(&mut stream);
            let response = reader.read_response()?;
            // Bytes behind the declared body mean the upstream and this
            // pool disagree about framing; such a connection is never
            // offered to the next exchange.
            Ok((reader.is_drained(), response))
        })();
        if let Some(token) = cancel {
            token.clear();
            if token.is_cancelled() {
                return Err(io::Error::new(io::ErrorKind::Interrupted, "cancelled"));
            }
        }
        let (drained, response) = result?;
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
    fn cancel_token_aborts_a_blocked_read() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // A server that reads the request and then never answers.
        std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut buf = [0u8; 4096];
            let _ = stream.read(&mut buf);
            std::thread::sleep(Duration::from_secs(5));
        });
        let pool =
            UpstreamPool::with_timeouts(addr, Duration::from_millis(500), Duration::from_secs(10));
        let token = std::sync::Arc::new(CancelToken::new());
        let cancel = std::sync::Arc::clone(&token);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            cancel.cancel();
        });
        let started = std::time::Instant::now();
        let result = pool.exchange_with("GET", "/v1/health", &[], &[], Some(&token));
        assert!(result.is_err());
        assert!(started.elapsed() < Duration::from_secs(5));
    }
}
