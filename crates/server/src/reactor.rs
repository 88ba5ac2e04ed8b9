//! The event-driven serving hot path: a hand-rolled epoll reactor.
//!
//! A small set of event-loop threads own non-blocking sockets registered
//! *edge-triggered*; each connection advances an incremental HTTP/1.1
//! parser ([`crate::http::RequestParser`]) as `EPOLLIN` bursts arrive
//! and drains a reusable per-connection write buffer on `EPOLLOUT` — so
//! concurrent-connection capacity is bounded by file descriptors and
//! memory, not by thread count, and an idle keep-alive connection costs
//! a few hundred bytes instead of a pinned thread.
//!
//! Division of labor:
//!
//! * **loop 0** owns the listener: it accepts in a burst and deals new
//!   connections round-robin across all loops (cross-loop handoff goes
//!   through an inbox + self-pipe wake);
//! * **every loop** reads, parses, dispatches *fast* requests (GETs:
//!   repository lookups, stats, polls) inline, and serializes responses
//!   into the connection's write buffer;
//! * **slow requests** (writes: `.hg` parsing, WAL commits, analysis
//!   submission) are
//!   handed to the worker-side [`crate::pool::ThreadPool`]; the worker
//!   runs the handler — which enqueues onto the bounded job queue in
//!   [`crate::jobs`] exactly as before — and wakes the owning loop
//!   through its self-pipe when the response is ready, so `/v1/analyses`
//!   stays async end-to-end and an expensive parse never stalls an
//!   event loop.
//!
//! The epoll syscalls come from a thin `sys` shim (`extern "C"`
//! declarations against the libc the Rust runtime already links) — no
//! external crates. Everything else is `std`: non-blocking `TcpStream`s,
//! a `UnixStream` pair as the self-pipe.
//!
//! ## Abuse bounds
//!
//! A connection must deliver each request within
//! [`ReactorOptions::read_deadline`] of its first byte or it is answered
//! a structured 408 and closed (slowloris). Request heads and bodies are
//! size-capped by the parser (413), and a connection may buffer at most
//! `READ_BUF_CAP` unparsed bytes before the loop stops reading from it
//! until the backlog drains. Idle keep-alive connections are closed
//! silently after [`ReactorOptions::idle_timeout`].

#![cfg(target_os = "linux")]

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hyperbench_api::{ApiError, ErrorCode};
use hyperbench_telemetry::{log_error, log_warn, next_request_id, SpanTimer};

use crate::handlers::{error_response, parse_error_response};
use crate::http::{Parse, RequestParser, Response, MAX_BODY, MAX_HEAD};
use crate::metrics::metrics;
use crate::pool::ThreadPool;
use crate::Dispatch;

/// Thin FFI shim over the epoll syscalls. The symbols resolve against
/// the C library the Rust standard library already links — this adds no
/// dependency, only declarations.
mod sys {
    use std::os::raw::{c_int, c_ulong};

    /// Mirror of the kernel's `struct epoll_event`. Packed on x86-64,
    /// naturally aligned elsewhere — exactly as the kernel ABI demands.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        /// `EPOLLIN` / `EPOLLOUT` / … bit set.
        pub events: u32,
        /// Caller-owned cookie returned verbatim with each event.
        pub data: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout_ms: c_int,
        ) -> c_int;
        pub fn close(fd: c_int) -> c_int;
        pub fn poll(fds: *mut PollFd, nfds: c_ulong, timeout_ms: c_int) -> c_int;
    }

    /// Mirror of `struct pollfd`.
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct PollFd {
        /// The descriptor to watch.
        pub fd: c_int,
        /// Requested readiness bits.
        pub events: i16,
        /// Readiness bits the kernel reports back.
        pub revents: i16,
    }

    pub const POLLIN: i16 = 0x001;

    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;
    pub const EPOLLET: u32 = 1 << 31;
}

/// Blocks until one of `fds` has bytes to read — or has hung up or
/// failed, which the read that follows reports — or `timeout` passes.
/// Returns the index of the first such descriptor, `None` on timeout.
///
/// This is the wait of a thread that owns a handful of client-side
/// sockets and nothing else (a router worker racing two upstreams);
/// the event loops below multiplex through epoll.
pub fn wait_readable(
    fds: impl IntoIterator<Item = RawFd>,
    timeout: Duration,
) -> io::Result<Option<usize>> {
    let mut set: Vec<sys::PollFd> = fds
        .into_iter()
        .map(|fd| sys::PollFd {
            fd,
            events: sys::POLLIN,
            revents: 0,
        })
        .collect();
    let deadline = Instant::now() + timeout;
    loop {
        // Round up: a 0 ms wait on a sub-millisecond remainder would spin.
        let left = deadline.saturating_duration_since(Instant::now());
        let millis = left.as_micros().div_ceil(1000).min(i32::MAX as u128) as i32;
        // SAFETY: `set` is a live, exclusively borrowed slice of
        // `set.len()` initialised `pollfd`s for the whole call.
        let ready =
            unsafe { sys::poll(set.as_mut_ptr(), set.len() as std::os::raw::c_ulong, millis) };
        if ready > 0 {
            return Ok(set.iter().position(|p| p.revents != 0));
        }
        if ready == 0 {
            return Ok(None);
        }
        let error = io::Error::last_os_error();
        if error.kind() != io::ErrorKind::Interrupted {
            return Err(error);
        }
    }
}

/// Reactor tuning knobs (surfaced through `Server` builder methods and
/// the `hyperbench serve` CLI).
#[derive(Debug, Clone, Copy)]
pub struct ReactorOptions {
    /// Number of event-loop threads (≥ 1).
    pub threads: usize,
    /// A client must deliver each full request within this much time of
    /// its first byte, or the connection is answered 408 and closed.
    pub read_deadline: Duration,
    /// Idle keep-alive connections are closed after this much silence.
    pub idle_timeout: Duration,
}

impl Default for ReactorOptions {
    fn default() -> Self {
        ReactorOptions {
            threads: 2,
            read_deadline: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(30),
        }
    }
}

/// Per-loop cap on simultaneously open connections; beyond it, fresh
/// accepts are answered a best-effort 503 and dropped instead of growing
/// without bound.
const MAX_CONNS_PER_LOOP: usize = 8192;

/// `Retry-After` seconds advertised on the conn-cap 503: connections
/// churn fast, so a capped slab usually has room again within a beat.
const CONN_CAP_RETRY_AFTER: u32 = 2;

/// Cap on offloaded write requests in flight (queued or running on the
/// worker pool) across all event loops. Past it, further writes are
/// shed with a 429 *from the event loop* — the cheap place to say no —
/// instead of piling latency onto a pool that is already behind.
const MAX_OFFLOAD_INFLIGHT: usize = 512;

/// `Retry-After` seconds advertised on the offload-backlog 429.
const OFFLOAD_SHED_RETRY_AFTER: u32 = 1;

/// `Retry-After` seconds advertised on a propagated-deadline 408: the
/// request itself was fine — only its budget ran out in our backlog —
/// so an immediate retry with a fresh budget is reasonable.
const DEADLINE_EXPIRED_RETRY_AFTER: u32 = 1;

/// Cap on *unparsed* buffered input per connection. A request can
/// legitimately need a full head + body in flight; anything beyond that
/// is a client stuffing pipelined data faster than we answer, and the
/// loop simply stops reading from that socket until the backlog drains.
const READ_BUF_CAP: usize = MAX_BODY + MAX_HEAD + 4 * 1024;

/// How long `epoll_wait` may sleep between deadline sweeps.
const TICK: Duration = Duration::from_millis(50);

/// Largest buffer capacity a connection keeps once its buffer empties.
/// The warm keep-alive path reuses buffers allocation-free below this;
/// a one-off multi-megabyte request/response does not pin its peak
/// footprint for the rest of the connection's life.
const BUF_RETAIN: usize = 64 * 1024;

/// Epoll cookie of the listener (loop 0 only).
const TOKEN_LISTENER: u64 = u64::MAX;
/// Epoll cookie of a loop's self-pipe read end.
const TOKEN_WAKE: u64 = u64::MAX - 1;

/// An owned epoll instance.
struct Epoll(RawFd);

impl Epoll {
    fn new() -> io::Result<Epoll> {
        let fd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll(fd))
    }

    fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = sys::EpollEvent {
            events,
            data: token,
        };
        if unsafe { sys::epoll_ctl(self.0, sys::EPOLL_CTL_ADD, fd, &mut ev) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Waits for events, filling `buf`; returns how many fired.
    fn wait(&self, buf: &mut [sys::EpollEvent], timeout: Duration) -> io::Result<usize> {
        let timeout_ms = timeout.as_millis().min(i32::MAX as u128) as i32;
        loop {
            let n =
                unsafe { sys::epoll_wait(self.0, buf.as_mut_ptr(), buf.len() as i32, timeout_ms) };
            if n >= 0 {
                return Ok(n as usize);
            }
            let e = io::Error::last_os_error();
            if e.kind() != io::ErrorKind::Interrupted {
                return Err(e);
            }
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        unsafe { sys::close(self.0) };
    }
}

/// A finished offloaded request on its way back to the owning loop.
struct Completion {
    slot: u32,
    generation: u32,
    response: Response,
}

/// The cross-thread face of one event loop: handed-off fresh
/// connections, finished offload responses, and the write end of its
/// self-pipe. Writing one byte to `wake_tx` pops the loop out of
/// `epoll_wait`.
struct LoopShared {
    inbox: Mutex<Vec<TcpStream>>,
    completions: Mutex<Vec<Completion>>,
    wake_tx: UnixStream,
}

impl LoopShared {
    fn wake(&self) {
        // A failed or would-block write is fine: the pipe already holds
        // an unread wake byte, so the loop is waking anyway.
        let _ = (&self.wake_tx).write(&[1u8]);
    }
}

/// One live connection owned by an event loop.
struct Conn {
    stream: TcpStream,
    parser: RequestParser,
    /// Bytes read off the socket, not yet consumed by the parser.
    read_buf: Vec<u8>,
    /// Consumed-prefix offset into `read_buf`.
    read_pos: usize,
    /// Serialized responses awaiting the socket; reused across requests
    /// so the keep-alive fast path stops allocating once warm.
    write_buf: Vec<u8>,
    write_pos: usize,
    /// Distinguishes this tenancy of the slot from earlier connections
    /// that used it (stale epoll events, late completions).
    generation: u32,
    /// A request has been handed to the worker pool; responses and
    /// further parsing wait for its completion.
    awaiting: bool,
    /// Keep-alive flag of the request currently offloaded.
    pending_keep_alive: bool,
    /// Close once the write buffer drains.
    close_after_flush: bool,
    /// Peer closed its write side (EOF seen).
    read_closed: bool,
    /// Reading is paused because `read_buf` hit [`READ_BUF_CAP`].
    read_paused: bool,
    /// When the current partial request started arriving (the slowloris
    /// deadline anchors at the request's *first* byte).
    request_started: Option<Instant>,
    /// Last byte of progress in either direction.
    last_activity: Instant,
}

impl Conn {
    fn new(stream: TcpStream, generation: u32, now: Instant) -> Conn {
        Conn {
            stream,
            parser: RequestParser::new(),
            read_buf: Vec::new(),
            read_pos: 0,
            write_buf: Vec::new(),
            write_pos: 0,
            generation,
            awaiting: false,
            pending_keep_alive: false,
            close_after_flush: false,
            read_closed: false,
            read_paused: false,
            request_started: None,
            last_activity: now,
        }
    }

    fn buffered_unparsed(&self) -> usize {
        self.read_buf.len() - self.read_pos
    }

    fn write_pending(&self) -> bool {
        self.write_pos < self.write_buf.len()
    }
}

/// What to do with a connection after handling an event.
#[derive(PartialEq)]
enum Fate {
    Keep,
    Close,
}

struct EventLoop {
    id: usize,
    epoll: Epoll,
    shared: Arc<LoopShared>,
    wake_rx: UnixStream,
    conns: Vec<Option<Conn>>,
    /// Per-slot generation counters (never reset; cookie upper half).
    generations: Vec<u32>,
    free: Vec<usize>,
    live: usize,
    dispatcher: Arc<dyn Dispatch>,
    offload: Arc<ThreadPool>,
    /// Offloaded requests queued or running, shared across loops; the
    /// admission bound for [`MAX_OFFLOAD_INFLIGHT`].
    offload_inflight: Arc<AtomicUsize>,
    opts: ReactorOptions,
}

impl EventLoop {
    fn new(
        id: usize,
        shared: Arc<LoopShared>,
        wake_rx: UnixStream,
        dispatcher: Arc<dyn Dispatch>,
        offload: Arc<ThreadPool>,
        offload_inflight: Arc<AtomicUsize>,
        opts: ReactorOptions,
    ) -> io::Result<EventLoop> {
        let epoll = Epoll::new()?;
        wake_rx.set_nonblocking(true)?;
        epoll.add(wake_rx.as_raw_fd(), sys::EPOLLIN, TOKEN_WAKE)?;
        Ok(EventLoop {
            id,
            epoll,
            shared,
            wake_rx,
            conns: Vec::new(),
            generations: Vec::new(),
            free: Vec::new(),
            live: 0,
            dispatcher,
            offload,
            offload_inflight,
            opts,
        })
    }

    /// Registers a fresh connection (already non-blocking) and performs
    /// its initial read — data may have arrived before registration, and
    /// an edge-triggered epoll would not re-announce it.
    fn adopt(&mut self, stream: TcpStream) {
        if self.live >= MAX_CONNS_PER_LOOP {
            // Best-effort 503 with a single non-blocking write, then
            // drop — the event loop must never block on a rejected
            // socket, least of all during the overload that got us here.
            let mut payload = Vec::with_capacity(256);
            error_response(ApiError::new(
                ErrorCode::QueueFull,
                "server overloaded; retry later",
            ))
            .with_retry_after(CONN_CAP_RETRY_AFTER)
            .serialize_into(false, &mut payload);
            let _ = (&stream).write(&payload);
            metrics().reactor_rejected_503.inc();
            return;
        }
        let _ = stream.set_nodelay(true);
        let now = Instant::now();
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                self.conns.push(None);
                self.generations.push(0);
                self.conns.len() - 1
            }
        };
        let generation = {
            let g = &mut self.generations[slot];
            *g = g.wrapping_add(1).max(1);
            *g
        };
        let token = ((generation as u64) << 32) | slot as u64;
        if self
            .epoll
            .add(
                stream.as_raw_fd(),
                sys::EPOLLIN | sys::EPOLLOUT | sys::EPOLLRDHUP | sys::EPOLLET,
                token,
            )
            .is_err()
        {
            self.free.push(slot);
            return; // fd limit hit; drop the connection
        }
        self.conns[slot] = Some(Conn::new(stream, generation, now));
        self.live += 1;
        if self.on_readable(slot) == Fate::Close {
            self.close(slot);
        }
    }

    fn close(&mut self, slot: usize) {
        if self.conns[slot].take().is_some() {
            // Dropping the TcpStream closes the fd, which removes it
            // from every epoll interest list automatically.
            self.live -= 1;
            self.free.push(slot);
        }
    }

    /// Drains the socket into the connection's read buffer and advances
    /// the parser over whatever arrived.
    fn on_readable(&mut self, slot: usize) -> Fate {
        hyperbench_fault::fail_point!("reactor.read", |_msg: String| Fate::Close);
        let mut scratch = [0u8; 16 * 1024];
        loop {
            let Some(conn) = self.conns[slot].as_mut() else {
                return Fate::Keep;
            };
            if conn.buffered_unparsed() >= READ_BUF_CAP {
                conn.read_paused = true;
                break;
            }
            match conn.stream.read(&mut scratch) {
                Ok(0) => {
                    conn.read_closed = true;
                    break;
                }
                Ok(n) => {
                    conn.read_buf.extend_from_slice(&scratch[..n]);
                    conn.last_activity = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return Fate::Close,
            }
        }
        self.process_input(slot)
    }

    /// Runs the parser over buffered input, dispatching complete
    /// requests, until it needs more bytes, offloads a request, or the
    /// connection ends.
    fn process_input(&mut self, slot: usize) -> Fate {
        loop {
            let Some(conn) = self.conns[slot].as_mut() else {
                return Fate::Keep;
            };
            if conn.awaiting || conn.close_after_flush || conn.buffered_unparsed() == 0 {
                break;
            }
            let parsed = {
                let input = &conn.read_buf[conn.read_pos..];
                conn.parser.advance(input)
            };
            match parsed {
                Err(e) => {
                    // Parse errors are terminal: answer (when the error
                    // has an HTTP shape) and close after flushing.
                    conn.request_started = None;
                    if let Some(response) = parse_error_response(&e) {
                        self.queue_response(slot, response, false);
                    }
                    let Some(conn) = self.conns[slot].as_mut() else {
                        return Fate::Keep;
                    };
                    conn.close_after_flush = true;
                    if !conn.write_pending() {
                        return Fate::Close;
                    }
                    break;
                }
                Ok((used, Parse::NeedMore)) => {
                    conn.read_pos += used;
                    if !conn.parser.is_idle() && conn.request_started.is_none() {
                        conn.request_started = Some(Instant::now());
                    }
                    break;
                }
                Ok((used, Parse::Complete(mut request))) => {
                    conn.read_pos += used;
                    // Parse latency anchors at the request's first byte;
                    // a request that arrived whole in one read parses in
                    // (effectively) zero time.
                    let parse_us = conn
                        .request_started
                        .take()
                        .map_or(0, |t| t.elapsed().as_micros() as u64);
                    metrics().http_parse_us.observe(parse_us);
                    request.trace_id = next_request_id();
                    let keep_alive = request.keep_alive;
                    let generation = conn.generation;
                    // The propagated budget anchors at parse completion:
                    // whatever `x-hyperbench-deadline-ms` allowed starts
                    // counting down now, across queues and handlers.
                    let deadline_at = request.deadline().map(|d| Instant::now() + d);
                    if self.dispatcher.offload(&request) {
                        // Slow path: requests the dispatcher declares
                        // slow (body parsing, WAL fsync, analysis
                        // submission, upstream proxying) go to the
                        // worker pool; the event loop waits for the
                        // completion wake.
                        let backlog = self.offload_inflight.fetch_add(1, Ordering::AcqRel);
                        if backlog >= MAX_OFFLOAD_INFLIGHT {
                            // The pool is already drowning; saying no
                            // here costs microseconds instead of adding
                            // this request's latency to everyone else's.
                            self.offload_inflight.fetch_sub(1, Ordering::AcqRel);
                            metrics().reactor_shed_total.inc();
                            let response = error_response(ApiError::new(
                                ErrorCode::Overloaded,
                                "write backlog full; retry shortly",
                            ))
                            .with_retry_after(OFFLOAD_SHED_RETRY_AFTER);
                            self.queue_response(slot, response, keep_alive);
                            continue;
                        }
                        let Some(conn) = self.conns[slot].as_mut() else {
                            self.offload_inflight.fetch_sub(1, Ordering::AcqRel);
                            return Fate::Keep;
                        };
                        conn.awaiting = true;
                        conn.pending_keep_alive = keep_alive;
                        let dispatcher = Arc::clone(&self.dispatcher);
                        let shared = Arc::clone(&self.shared);
                        let inflight = Arc::clone(&self.offload_inflight);
                        self.offload.execute(move || {
                            let response = match deadline_at {
                                Some(at) if Instant::now() >= at => {
                                    // The client's budget ran out while
                                    // the request sat in the backlog;
                                    // doing the work now helps no one.
                                    metrics().deadline_expired_total.inc();
                                    error_response(ApiError::new(
                                        ErrorCode::RequestTimeout,
                                        "propagated deadline expired before dispatch",
                                    ))
                                    .with_retry_after(DEADLINE_EXPIRED_RETRY_AFTER)
                                }
                                _ => dispatcher.dispatch(&request),
                            };
                            inflight.fetch_sub(1, Ordering::AcqRel);
                            shared
                                .completions
                                .lock()
                                .expect("completions")
                                .push(Completion {
                                    slot: slot as u32,
                                    generation,
                                    response,
                                });
                            shared.wake();
                        });
                        break;
                    }
                    let response = match deadline_at {
                        Some(at) if Instant::now() >= at => {
                            metrics().deadline_expired_total.inc();
                            error_response(ApiError::new(
                                ErrorCode::RequestTimeout,
                                "propagated deadline expired before dispatch",
                            ))
                            .with_retry_after(DEADLINE_EXPIRED_RETRY_AFTER)
                        }
                        _ => self.dispatcher.dispatch(&request),
                    };
                    self.queue_response(slot, response, keep_alive);
                }
            }
        }
        self.after_progress(slot)
    }

    /// Book-keeping after reads/parses/writes: compacts the read buffer,
    /// resumes paused reads, and settles EOF.
    fn after_progress(&mut self, slot: usize) -> Fate {
        let Some(conn) = self.conns[slot].as_mut() else {
            return Fate::Keep;
        };
        if conn.read_pos == conn.read_buf.len() {
            conn.read_buf.clear();
            conn.read_pos = 0;
            if conn.read_buf.capacity() > BUF_RETAIN {
                conn.read_buf.shrink_to(BUF_RETAIN);
            }
        } else if conn.read_pos > 8 * 1024 {
            conn.read_buf.drain(..conn.read_pos);
            conn.read_pos = 0;
        }
        if conn.read_paused && conn.buffered_unparsed() < READ_BUF_CAP && !conn.awaiting {
            conn.read_paused = false;
            return self.on_readable(slot);
        }
        if conn.read_closed && !conn.awaiting && conn.buffered_unparsed() == 0 {
            if !conn.parser.is_idle() {
                // Truncated request: nothing sensible to answer.
                return Fate::Close;
            }
            if !conn.write_pending() {
                return Fate::Close;
            }
        }
        Fate::Keep
    }

    /// Serializes a response into the connection's write buffer and
    /// pushes as much as the socket will take.
    fn queue_response(&mut self, slot: usize, response: Response, keep_alive: bool) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        if !conn.write_pending() {
            conn.write_buf.clear();
            conn.write_pos = 0;
        }
        let serialize = SpanTimer::start();
        response.serialize_into(keep_alive, &mut conn.write_buf);
        serialize.observe(&metrics().http_serialize_us);
        if !keep_alive {
            conn.close_after_flush = true;
        }
        if self.try_write(slot) == Fate::Close {
            self.close(slot);
        }
    }

    /// Drains the write buffer until the socket pushes back.
    fn try_write(&mut self, slot: usize) -> Fate {
        hyperbench_fault::fail_point!("reactor.write", |_msg: String| Fate::Close);
        let Some(conn) = self.conns[slot].as_mut() else {
            return Fate::Keep;
        };
        while conn.write_pending() {
            match conn.stream.write(&conn.write_buf[conn.write_pos..]) {
                Ok(0) => return Fate::Close,
                Ok(n) => {
                    conn.write_pos += n;
                    conn.last_activity = Instant::now();
                    metrics().reactor_write_bytes.add(n as u64);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Fate::Keep,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return Fate::Close,
            }
        }
        conn.write_buf.clear();
        conn.write_pos = 0;
        if conn.write_buf.capacity() > BUF_RETAIN {
            conn.write_buf.shrink_to(BUF_RETAIN);
        }
        if conn.close_after_flush {
            return Fate::Close;
        }
        Fate::Keep
    }

    /// Applies one finished offload to its connection (if the slot still
    /// belongs to the same tenancy), then resumes parsing any pipelined
    /// requests buffered behind it.
    fn apply_completion(&mut self, completion: Completion) {
        let slot = completion.slot as usize;
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        if conn.generation != completion.generation || !conn.awaiting {
            return;
        }
        conn.awaiting = false;
        let keep_alive = conn.pending_keep_alive;
        self.queue_response(slot, completion.response, keep_alive);
        let Some(conn) = self.conns.get(slot).and_then(Option::as_ref) else {
            return;
        };
        if (conn.buffered_unparsed() > 0 || conn.read_paused || conn.read_closed)
            && self.process_input(slot) == Fate::Close
        {
            self.close(slot);
        }
    }

    /// Sweeps deadlines: 408s half-delivered requests past the read
    /// deadline, silently closes idle keep-alive connections, and cuts
    /// connections that never drain their pending output.
    fn sweep(&mut self, now: Instant) {
        for slot in 0..self.conns.len() {
            let Some(conn) = self.conns[slot].as_mut() else {
                continue;
            };
            if conn.awaiting {
                continue; // request fully received; worker owns the clock
            }
            if conn.close_after_flush {
                // Already answered and closing; if the peer will not
                // drain the response within the idle window, cut it.
                if now.duration_since(conn.last_activity) > self.opts.idle_timeout {
                    metrics().reactor_reaped.inc();
                    self.close(slot);
                }
                continue;
            }
            if let Some(started) = conn.request_started {
                if now.duration_since(started) > self.opts.read_deadline {
                    // Clear the anchor so the 408 is queued exactly once
                    // even if the write stalls across further sweeps.
                    conn.request_started = None;
                    metrics().http_responses_408.inc();
                    let response = error_response(ApiError::new(
                        ErrorCode::RequestTimeout,
                        format!(
                            "request not delivered within {:?}; closing",
                            self.opts.read_deadline
                        ),
                    ));
                    self.queue_response(slot, response, false);
                }
            } else if now.duration_since(conn.last_activity) > self.opts.idle_timeout {
                metrics().reactor_reaped.inc();
                self.close(slot);
            }
        }
    }

    /// Drains the self-pipe, inbox, and completion queue.
    fn on_wake(&mut self) {
        let mut buf = [0u8; 64];
        while matches!((&self.wake_rx).read(&mut buf), Ok(n) if n > 0) {}
        let handed_off: Vec<TcpStream> =
            std::mem::take(&mut *self.shared.inbox.lock().expect("inbox"));
        for stream in handed_off {
            self.adopt(stream);
        }
        let completions: Vec<Completion> =
            std::mem::take(&mut *self.shared.completions.lock().expect("completions"));
        for completion in completions {
            self.apply_completion(completion);
        }
    }

    /// Handles one epoll event for a connection slot.
    fn on_conn_event(&mut self, token: u64, events: u32) {
        let slot = (token & 0xffff_ffff) as usize;
        let generation = (token >> 32) as u32;
        let stale = match self.conns.get(slot).and_then(Option::as_ref) {
            Some(conn) => conn.generation != generation,
            None => true,
        };
        if stale {
            return; // event for a previous tenant of the slot
        }
        if events & (sys::EPOLLERR | sys::EPOLLHUP) != 0 {
            self.close(slot);
            return;
        }
        if events & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0 && self.on_readable(slot) == Fate::Close {
            self.close(slot);
            return;
        }
        if events & sys::EPOLLOUT != 0 {
            if self.try_write(slot) == Fate::Close {
                self.close(slot);
                return;
            }
            // A drained buffer may unblock EOF settlement.
            if self.after_progress(slot) == Fate::Close {
                self.close(slot);
            }
        }
    }
}

/// Runs the reactor until `shutdown` flips: `opts.threads` event loops,
/// with loop 0 owning the listener and dealing accepted connections
/// round-robin. Blocks until every loop has exited.
pub(crate) fn run_reactor(
    listener: TcpListener,
    dispatcher: Arc<dyn Dispatch>,
    shutdown: Arc<AtomicBool>,
    offload: ThreadPool,
    opts: ReactorOptions,
) -> io::Result<()> {
    let threads = opts.threads.max(1);
    listener.set_nonblocking(true)?;
    let offload = Arc::new(offload);
    let offload_inflight = Arc::new(AtomicUsize::new(0));
    let mut shareds = Vec::with_capacity(threads);
    let mut wake_rxs = Vec::with_capacity(threads);
    for _ in 0..threads {
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        shareds.push(Arc::new(LoopShared {
            inbox: Mutex::new(Vec::new()),
            completions: Mutex::new(Vec::new()),
            wake_tx,
        }));
        wake_rxs.push(wake_rx);
    }
    let shareds = Arc::new(shareds);
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (id, wake_rx) in wake_rxs.into_iter().enumerate() {
            let shareds = Arc::clone(&shareds);
            let dispatcher = Arc::clone(&dispatcher);
            let shutdown = Arc::clone(&shutdown);
            let offload = Arc::clone(&offload);
            let offload_inflight = Arc::clone(&offload_inflight);
            let listener = if id == 0 { Some(&listener) } else { None };
            handles.push(
                std::thread::Builder::new()
                    .name(format!("hyperbench-reactor-{id}"))
                    .spawn_scoped(scope, move || {
                        event_loop_main(
                            id,
                            listener,
                            &shareds,
                            wake_rx,
                            dispatcher,
                            shutdown,
                            offload,
                            offload_inflight,
                            opts,
                        )
                    })
                    .expect("spawn reactor thread"),
            );
        }
        for handle in handles {
            let _ = handle.join();
        }
    });
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn event_loop_main(
    id: usize,
    listener: Option<&TcpListener>,
    shareds: &[Arc<LoopShared>],
    wake_rx: UnixStream,
    dispatcher: Arc<dyn Dispatch>,
    shutdown: Arc<AtomicBool>,
    offload: Arc<ThreadPool>,
    offload_inflight: Arc<AtomicUsize>,
    opts: ReactorOptions,
) {
    let shared = Arc::clone(&shareds[id]);
    let mut el = match EventLoop::new(
        id,
        shared,
        wake_rx,
        dispatcher,
        offload,
        offload_inflight,
        opts,
    ) {
        Ok(el) => el,
        Err(e) => {
            log_error!("reactor", "event loop failed to start"; loop_id = id, error = e);
            shutdown.store(true, Ordering::SeqCst);
            for s in shareds {
                s.wake();
            }
            return;
        }
    };
    if let Some(listener) = listener {
        if let Err(e) = el
            .epoll
            .add(listener.as_raw_fd(), sys::EPOLLIN, TOKEN_LISTENER)
        {
            log_error!("reactor", "cannot watch the listener"; error = e);
            shutdown.store(true, Ordering::SeqCst);
        }
    }
    let mut events = [sys::EpollEvent { events: 0, data: 0 }; 256];
    // Round-robin accept cursor (loop 0 only).
    let mut next_loop: usize = 0;
    let mut sweep_deadline = Instant::now() + TICK;
    loop {
        if shutdown.load(Ordering::SeqCst) {
            // Make sure the sibling loops notice promptly too.
            for s in shareds {
                s.wake();
            }
            return;
        }
        let n = match el.epoll.wait(&mut events, TICK) {
            Ok(n) => n,
            Err(e) => {
                log_error!("reactor", "epoll_wait failed; shutting down"; loop_id = id, error = e);
                shutdown.store(true, Ordering::SeqCst);
                continue;
            }
        };
        if n > 0 {
            metrics().reactor_wakeups.inc();
        }
        for ev in events.iter().take(n) {
            let token = ev.data;
            let bits = ev.events;
            match token {
                TOKEN_WAKE => el.on_wake(),
                TOKEN_LISTENER => {
                    let Some(listener) = listener else { continue };
                    if shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    accept_burst(listener, &mut el, shareds, &mut next_loop);
                }
                _ => el.on_conn_event(token, bits),
            }
        }
        // Completions and handoffs can land while the loop is busy with
        // socket events; drain opportunistically, not only on wake.
        el.on_wake();
        let now = Instant::now();
        if now >= sweep_deadline {
            el.sweep(now);
            sweep_deadline = now + TICK;
        }
    }
}

/// Accepts every pending connection and deals them round-robin across
/// the loops (self included).
fn accept_burst(
    listener: &TcpListener,
    el: &mut EventLoop,
    shareds: &[Arc<LoopShared>],
    next_loop: &mut usize,
) {
    // A fired `return` skips this whole burst; pending connections stay
    // in the kernel backlog and epoll re-announces them (level listener).
    hyperbench_fault::fail_point!("reactor.accept", |_msg: String| ());
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                metrics().reactor_accepted.inc();
                let target = *next_loop % shareds.len();
                *next_loop = next_loop.wrapping_add(1);
                if target == el.id {
                    el.adopt(stream);
                } else {
                    shareds[target].inbox.lock().expect("inbox").push(stream);
                    shareds[target].wake();
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => {
                // Transient accept failures (EMFILE and friends) must not
                // kill the loop; epoll will re-announce readiness.
                log_warn!("reactor", "accept error"; error = e);
                return;
            }
        }
    }
}
