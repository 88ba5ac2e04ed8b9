//! # hyperbench-server
//!
//! A concurrent HTTP/1.1 repository service over the HyperBench tool —
//! the serving layer the paper exposes at `hyperbench.dbai.tuwien.ac.at`
//! (§5), rebuilt on `std::net` with no external dependencies:
//!
//! * an event-driven epoll [`reactor`] owns the connection hot path:
//!   a few event-loop threads drive non-blocking sockets through an
//!   incremental HTTP parser and buffered writes, with HTTP/1.1
//!   keep-alive and pipelining — concurrent-connection capacity is not
//!   bounded by thread count,
//! * a worker-side thread pool ([`pool`]) runs the slow handlers the
//!   reactor offloads (mutating requests: `.hg` parsing, analysis
//!   submission, WAL commits),
//! * writes are durable and isolated: with a writable pack configured
//!   ([`ServerConfig::writable_pack`], `serve --pack FILE --writable`),
//!   `POST`/`PUT`/`DELETE` on `/v1/hypergraphs` commit through the MVCC
//!   store (`hyperbench_repo::store::mvcc`) — fsynced write-ahead
//!   records, snapshot-isolated readers, background checkpointing into
//!   the pack's pages,
//! * a hand-rolled router maps paths to handlers ([`router`]),
//! * the wire contract — typed DTOs, the JSON codec, cursors, and error
//!   codes — lives in the shared `hyperbench-api` crate (re-exported
//!   here as [`json`]), so server and client compile against one schema,
//! * analyses run on a background worker pool with a bounded job queue
//!   ([`jobs`]) and an LRU cache keyed by content hash + analysis
//!   options ([`cache`]), retaining the witness decomposition.
//!
//! The versioned `/v1` surface:
//!
//! | route | answer |
//! |-------|--------|
//! | `GET /v1/hypergraphs` | cursor-paginated, filterable summaries |
//! | `POST /v1/query` | run one typed HBQL query (filters, `ORDER BY`, aggregates) |
//! | `POST /v1/hypergraphs` | store an instance (idempotent by content hash) |
//! | `GET /v1/hypergraphs/{id}` | full entry + analysis as JSON |
//! | `PUT /v1/hypergraphs/{id}` | replace an entry wholesale |
//! | `DELETE /v1/hypergraphs/{id}` | remove an entry |
//! | `GET /v1/hypergraphs/{id}/hg` | raw DetKDecomp-format text |
//! | `POST /v1/analyses` | submit a typed `AnalyzeRequest` (hd/ghd/fhd) |
//! | `GET /v1/analyses/{id}` | poll: report + witness decomposition tree |
//! | `GET /v1/stats` | repository aggregates + cache/job counters |
//! | `GET /v1/healthz` | liveness |
//!
//! Beside it only the operational routes are unversioned: `GET
//! /metrics` and the test-only `POST /debug/failpoints`. Every other
//! path answers the structured 404.
//!
//! ```no_run
//! use hyperbench_repo::Repository;
//! use hyperbench_server::{Server, ServerConfig};
//!
//! let repo = Repository::new();
//! let server = Server::bind(repo, &ServerConfig::default()).unwrap();
//! println!("listening on http://{}", server.local_addr());
//! server.run(); // blocks
//! ```

pub mod cache;
pub mod handlers;
pub mod http;
pub mod jobs;
pub mod metrics;
pub mod pool;
#[cfg(target_os = "linux")]
pub mod reactor;
pub mod router;
pub mod upstream;

pub use hyperbench_api::json;

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hyperbench_api::{ApiError, ErrorCode};
use hyperbench_repo::store::mvcc::{MvccOptions, MvccStore};
use hyperbench_repo::{aggregate_stats, AnalysisConfig, Repository};
use hyperbench_telemetry::{log_info, log_warn, trace, SpanTimer};

use cache::AnalysisCache;
use handlers::{error_response, ServerState};
use http::{Method, Request, Response};
use jobs::JobSystem;
#[cfg(target_os = "linux")]
use pool::ThreadPool;
use router::{RouteMatch, Router};

/// Server configuration; `Default` is sensible for local use.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:8080`. Port 0 picks an ephemeral
    /// port (see [`Server::local_addr`]).
    pub addr: String,
    /// Serving-thread budget: the reactor runs `max(1, threads / 2)`
    /// event loops plus that many offload workers (override with
    /// [`Server::with_reactor_threads`]).
    pub threads: usize,
    /// Background analysis workers.
    pub analysis_workers: usize,
    /// Bound on the analysis job queue (overflow → 503).
    pub job_queue_capacity: usize,
    /// Capacity of the analysis LRU cache, and of the per-document
    /// facts store beside it.
    pub cache_capacity: usize,
    /// Default and ceiling budgets for `POST /v1/analyses` runs.
    /// `analysis.jobs` is the per-job parallelism ceiling for the
    /// request's `jobs` field: the total CPU budget of the
    /// analysis tier is `analysis_workers × jobs`.
    pub analysis: AnalysisConfig,
    /// Path of the analysis-cache spill segment. When set, finished
    /// analyses are appended there and replayed at the next bind, so
    /// the cache restarts warm; the segment is compacted (newest record
    /// per key, torn tail dropped) on every bind. `None` keeps the
    /// cache memory-only.
    pub spill: Option<std::path::PathBuf>,
    /// The pack a writable server keeps its entries in. When set, the
    /// server accepts `POST`/`PUT`/`DELETE` on `/v1/hypergraphs`: every
    /// commit is appended and fsynced to the write-ahead log at
    /// `<pack>.wal` before it is acknowledged, the background
    /// checkpointer folds committed records into this pack (also its
    /// compaction), and the log replays over the base repository at the
    /// next bind. `None` serves read-only (writes answer a structured
    /// 403).
    pub writable_pack: Option<std::path::PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:8080".to_string(),
            threads: 4,
            analysis_workers: 2,
            job_queue_capacity: 64,
            cache_capacity: jobs::MAX_FINISHED_RETAINED,
            analysis: AnalysisConfig::default(),
            spill: None,
            writable_pack: None,
        }
    }
}

pub(crate) enum Endpoint {
    // Versioned /v1 surface.
    V1List,
    V1Create,
    V1Detail,
    V1Replace,
    V1Delete,
    V1RawHg,
    V1Query,
    V1Analyses,
    V1Analysis,
    V1Stats,
    V1Health,
    // Unversioned telemetry scrape route (Prometheus text format).
    Metrics,
    // Test-only fault-injection arming route; answers 404 unless the
    // binary was built with `hyperbench-fault/failpoints`.
    DebugFailpoints,
}

fn build_router() -> Router<Endpoint> {
    let mut router = Router::new();
    router
        .add(Method::Get, "/v1/hypergraphs", Endpoint::V1List)
        .add(Method::Post, "/v1/hypergraphs", Endpoint::V1Create)
        .add(Method::Get, "/v1/hypergraphs/{id}", Endpoint::V1Detail)
        .add(Method::Put, "/v1/hypergraphs/{id}", Endpoint::V1Replace)
        .add(Method::Delete, "/v1/hypergraphs/{id}", Endpoint::V1Delete)
        .add(Method::Get, "/v1/hypergraphs/{id}/hg", Endpoint::V1RawHg)
        .add(Method::Post, "/v1/query", Endpoint::V1Query)
        .add(Method::Post, "/v1/analyses", Endpoint::V1Analyses)
        .add(Method::Get, "/v1/analyses/{id}", Endpoint::V1Analysis)
        .add(Method::Get, "/v1/stats", Endpoint::V1Stats)
        .add(Method::Get, "/v1/healthz", Endpoint::V1Health)
        .add(Method::Get, "/metrics", Endpoint::Metrics)
        .add(Method::Post, "/debug/failpoints", Endpoint::DebugFailpoints);
    router
}

/// A bound, not-yet-running server: [`Server::bind`], then the blocking
/// [`Server::run`] (tests run it on a thread and stop it through a
/// [`ShutdownHandle`]).
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    state: Arc<ServerState>,
    router: Arc<Router<Endpoint>>,
    shutdown: Arc<AtomicBool>,
    warm_cache_entries: usize,
    reactor_threads: usize,
    read_deadline: Duration,
    idle_timeout: Duration,
}

impl Server {
    /// Binds the listener and starts the analysis workers (but does not
    /// accept yet). With [`ServerConfig::spill`] set, the spill segment
    /// is recovered (valid prefix of a torn file), compacted, and
    /// replayed into the analysis cache before the first request.
    pub fn bind(repo: Repository, config: &ServerConfig) -> io::Result<Server> {
        // Arm any failpoints named in HYPERBENCH_FAILPOINTS. In a
        // normal build `ENABLED` is a false constant and the whole
        // branch (env read included) compiles out.
        if hyperbench_fault::ENABLED {
            hyperbench_fault::init_from_env();
        }
        let listener =
            TcpListener::bind(config.addr.to_socket_addrs()?.next().ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidInput, "unresolvable addr")
            })?)?;
        let local_addr = listener.local_addr()?;
        let mut cache = AnalysisCache::new(config.cache_capacity);
        let mut warm_cache_entries = 0;
        if let Some(path) = &config.spill {
            // Spill durability is best-effort end to end: an unreadable
            // or unwritable segment (read-only mount, wiped tmpdir)
            // degrades to a memory-only cache with a warning — it must
            // never stop the server from binding.
            match hyperbench_repo::store::spill::recover(path) {
                Ok((records, problem)) => {
                    if let Some(problem) = problem {
                        log_warn!("server", "spill segment damaged; keeping the valid prefix";
                            path = path.display(), problem = problem);
                    }
                    if let Err(e) = hyperbench_repo::store::spill::compact(path) {
                        log_warn!("server", "spill compaction failed";
                            path = path.display(), error = e);
                    }
                    warm_cache_entries = cache.warm_load(records);
                }
                Err(e) => {
                    log_warn!("server", "cannot read spill segment; starting cold";
                        path = path.display(), error = e);
                }
            }
            match hyperbench_repo::store::spill::SpillWriter::open_append(path) {
                Ok(writer) => cache = cache.with_spill(writer),
                Err(e) => {
                    log_warn!("server", "cannot append to spill segment; cache stays memory-only";
                        path = path.display(), error = e);
                }
            }
        }
        let cache = Arc::new(cache);
        let jobs = JobSystem::start(
            config.analysis_workers,
            config.job_queue_capacity,
            Arc::clone(&cache),
            config.analysis,
        );
        // With a writable pack the store opens writable: the log beside
        // it is recovered (torn tail dropped), replayed over the base,
        // and folded into fresh pack pages before the first request.
        // Without one, the same store type serves read-only and write
        // verbs answer a structured 403.
        let store = match &config.writable_pack {
            Some(pack) => {
                let mut wal = pack.as_os_str().to_owned();
                wal.push(".wal");
                MvccStore::open(repo, MvccOptions::new(wal.into(), Some(pack.clone())))
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?
            }
            None => MvccStore::read_only(repo),
        };
        let snap = store.snapshot();
        let repo_stats = std::sync::Mutex::new((snap.seq(), Arc::new(aggregate_stats(&snap))));
        drop(snap);
        Ok(Server {
            listener,
            local_addr,
            state: Arc::new(ServerState {
                store: Arc::new(store),
                repo_stats,
                jobs,
                cache,
                analysis: config.analysis,
                started: Instant::now(),
            }),
            router: Arc::new(build_router()),
            shutdown: Arc::new(AtomicBool::new(false)),
            warm_cache_entries,
            reactor_threads: (config.threads / 2).max(1),
            read_deadline: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(30),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// How many analysis results the spill segment replayed into the
    /// cache at bind time (0 without a configured spill).
    pub fn warm_cache_entries(&self) -> usize {
        self.warm_cache_entries
    }

    /// Overrides the number of reactor event-loop threads (default:
    /// `max(1, config.threads / 2)`).
    pub fn with_reactor_threads(mut self, threads: usize) -> Server {
        self.reactor_threads = threads.max(1);
        self
    }

    /// Overrides the per-request read deadline (reactor path): a client
    /// must deliver each full request within this much time of its first
    /// byte or it is answered a structured 408 and disconnected.
    pub fn with_read_deadline(mut self, deadline: Duration) -> Server {
        self.read_deadline = deadline;
        self
    }

    /// Overrides the keep-alive idle timeout (reactor path).
    pub fn with_idle_timeout(mut self, timeout: Duration) -> Server {
        self.idle_timeout = timeout;
        self
    }

    /// A handle that can stop [`Server::run`] from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            flag: Arc::clone(&self.shutdown),
            addr: self.local_addr,
        }
    }

    /// Serves on the epoll reactor until a [`ShutdownHandle`] fires.
    #[cfg(target_os = "linux")]
    pub fn run(self) {
        let opts = reactor::ReactorOptions {
            threads: self.reactor_threads,
            read_deadline: self.read_deadline,
            idle_timeout: self.idle_timeout,
        };
        // The offload pool is the worker side of the reactor: it runs
        // the mutating handlers (body parsing, WAL commits, analysis
        // submission) so an expensive parse or fsync never stalls an
        // event loop.
        let offload = ThreadPool::new(self.reactor_threads);
        let dispatcher: Arc<dyn Dispatch> = Arc::new(ServerDispatch {
            state: self.state,
            router: self.router,
        });
        if let Err(e) =
            reactor::run_reactor(self.listener, dispatcher, self.shutdown, offload, opts)
        {
            hyperbench_telemetry::log_error!("server", "reactor failed"; error = e);
        }
    }

    /// The reactor requires epoll; there is no serving engine on other
    /// platforms.
    #[cfg(not(target_os = "linux"))]
    pub fn run(self) {
        let _ = self.listener;
        hyperbench_telemetry::log_error!(
            "server",
            "the epoll reactor requires Linux; refusing to serve"
        );
    }
}

/// What the reactor serves: anything that can turn one parsed request
/// into a response.
///
/// The epoll reactor owns sockets, parsing, buffering, and overload
/// bounds; *what* a request means is behind this trait. The stock
/// server wires it to the repository handlers; `hyperbench-router`
/// wires the identical connection machinery to upstream proxying — one
/// hot path, two tiers.
pub trait Dispatch: Send + Sync + 'static {
    /// Handles one fully-parsed request. Runs on an event-loop thread
    /// unless [`Dispatch::offload`] said otherwise — implementations
    /// that block (disk, upstream sockets) must offload.
    fn dispatch(&self, request: &Request) -> Response;

    /// Whether this request must run on the worker pool instead of the
    /// event loop. The default offloads mutating verbs, matching the
    /// stock server (GETs answer from memory; writes parse bodies and
    /// fsync).
    fn offload(&self, request: &Request) -> bool {
        request.method.is_write()
    }
}

/// The stock dispatcher: repository state behind the route table.
struct ServerDispatch {
    state: Arc<ServerState>,
    router: Arc<Router<Endpoint>>,
}

impl Dispatch for ServerDispatch {
    fn dispatch(&self, request: &Request) -> Response {
        dispatch(&self.state, &self.router, request)
    }
}

/// Runs the epoll reactor over an arbitrary [`Dispatch`] until
/// `shutdown` flips — the entry point for front tiers (the router)
/// that reuse the server's connection machinery without its repository
/// state. `offload_threads` sizes the worker pool that runs offloaded
/// requests.
#[cfg(target_os = "linux")]
pub fn run_dispatcher(
    listener: TcpListener,
    dispatcher: Arc<dyn Dispatch>,
    shutdown: Arc<AtomicBool>,
    opts: reactor::ReactorOptions,
    offload_threads: usize,
) -> io::Result<()> {
    let offload = ThreadPool::new(offload_threads.max(1));
    reactor::run_reactor(listener, dispatcher, shutdown, offload, opts)
}

/// Stops a running server: sets the flag and pokes the listener so the
/// blocking `accept` (or the reactor's listener loop) wakes up.
#[derive(Clone)]
pub struct ShutdownHandle {
    flag: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl ShutdownHandle {
    /// Requests shutdown. Idempotent.
    pub fn shutdown(&self) {
        self.flag.store(true, Ordering::SeqCst);
        // Wake the accept loop; ignore failure (server may be gone).
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
    }
}

/// Routes one parsed request to its handler — shared by the reactor's
/// event loops and its write-offload workers, so the two can never
/// drift.
pub(crate) fn dispatch(
    state: &ServerState,
    router: &Router<Endpoint>,
    request: &Request,
) -> Response {
    metrics::metrics().http_requests.inc();
    let handle = SpanTimer::start();
    // The ambient request id makes the trace id visible to everything
    // the handler calls synchronously (job submission captures it, and
    // inline cache lookups log under it) without widening signatures.
    let response = trace::with_request_id(request.trace_id, || {
        match router.route(request.method, &request.path) {
            RouteMatch::Found(endpoint, params) => match endpoint {
                Endpoint::V1List => handlers::v1::list(state, request),
                Endpoint::V1Create => handlers::v1::post_hypergraphs(state, request),
                Endpoint::V1Detail => handlers::v1::get(state, &params),
                Endpoint::V1Replace => handlers::v1::put_hypergraph(state, request, &params),
                Endpoint::V1Delete => handlers::v1::delete_hypergraph(state, &params),
                Endpoint::V1RawHg => handlers::v1::raw_hg(state, &params),
                Endpoint::V1Query => handlers::v1::post_query(state, request),
                Endpoint::V1Analyses => handlers::v1::post_analyses(state, request),
                Endpoint::V1Analysis => handlers::v1::get_analysis(state, &params),
                Endpoint::V1Stats => handlers::get_stats(state),
                Endpoint::V1Health => handlers::get_healthz(state),
                Endpoint::Metrics => handlers::get_metrics(),
                Endpoint::DebugFailpoints => handlers::post_failpoints(request),
            },
            RouteMatch::MethodMismatch => error_response(ApiError::new(
                ErrorCode::MethodNotAllowed,
                format!("wrong method for {}", request.path),
            )),
            RouteMatch::NotFound => error_response(ApiError::not_found(format!(
                "no route for {}",
                request.path
            ))),
        }
    });
    let handle_us = handle.observe(&metrics::metrics().http_handle_us);
    hyperbench_telemetry::log_debug!("http", "request handled";
        req = request.trace_id, method = request.method.as_str(), path = request.path,
        status = response.status, handle_us = handle_us);
    response
}

/// CLI-facing knobs for [`serve_pack_opts`], kept off [`ServerConfig`]
/// so its construction stays frozen.
#[derive(Debug, Clone, Default)]
pub struct ServeOptions {
    /// Accept writes (`--writable`): the served pack becomes
    /// [`ServerConfig::writable_pack`].
    pub writable: bool,
    /// Override the reactor event-loop thread count
    /// (`--reactor-threads N`; default `max(1, threads / 2)`).
    pub reactor_threads: Option<usize>,
}

/// Opens a packed repository (see `hyperbench pack`) and serves it until
/// the process exits. Only the pack's index sections are read up front;
/// entries hydrate from disk as requests touch them. `--writable` logs
/// commits at `<pack>.wal` and checkpoints back into the served pack file
/// itself: the background checkpointer's atomic rewrite is exactly the
/// pack's compaction, and the next bind opens the checkpointed state
/// directly.
pub fn serve_pack_opts(
    pack: &std::path::Path,
    config: &ServerConfig,
    opts: &ServeOptions,
) -> Result<(), String> {
    let repo = Repository::open_pack(pack).map_err(|e| e.to_string())?;
    let mut config = config.clone();
    if opts.writable {
        config.writable_pack = Some(pack.to_path_buf());
    }
    let source = format!("{} (pack)", pack.display());
    let mut server =
        Server::bind(repo, &config).map_err(|e| format!("bind {}: {e}", config.addr))?;
    if let Some(n) = opts.reactor_threads {
        server = server.with_reactor_threads(n);
    }
    let io = format!("epoll reactor, {} event loops", server.reactor_threads);
    let mode = if server.state.store.writable() {
        "writable"
    } else {
        "read-only"
    };
    let entries = server.state.store.snapshot().len();
    // The startup banner stays on stdout (scripts read the bound
    // address from it); the structured line mirrors it for log capture.
    println!(
        "hyperbench-server: {entries} entries from {source} on http://{} \
         ({io}, {mode}, {} analysis workers, {} warm cache entries)",
        server.local_addr(),
        config.analysis_workers,
        server.warm_cache_entries(),
    );
    log_info!("server", "serving";
        entries = entries, source = source, addr = server.local_addr(),
        io = io, mode = mode, analysis_workers = config.analysis_workers,
        warm_cache_entries = server.warm_cache_entries());
    server.run();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperbench_api::http::ResponseReader;
    use hyperbench_core::builder::hypergraph_from_edges;

    fn test_server() -> (std::thread::JoinHandle<()>, SocketAddr, ShutdownHandle) {
        test_server_with(|s| s)
    }

    fn test_server_with(
        tweak: impl FnOnce(Server) -> Server,
    ) -> (std::thread::JoinHandle<()>, SocketAddr, ShutdownHandle) {
        let mut repo = Repository::new();
        repo.insert(
            hypergraph_from_edges(&[("e", &["a", "b"])]),
            "TPC-H",
            "CQ Application",
        );
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 2,
            ..ServerConfig::default()
        };
        let server = tweak(Server::bind(repo, &config).unwrap());
        let addr = server.local_addr();
        let handle = server.shutdown_handle();
        let join = std::thread::spawn(move || server.run());
        (join, addr, handle)
    }

    /// One exchange on a fresh connection: (status, body text).
    fn request(addr: SocketAddr, raw: &str) -> (u16, String) {
        let response = ResponseReader::new(TcpStream::connect(addr).unwrap())
            .exchange(raw.as_bytes())
            .unwrap();
        (response.status, response.text())
    }

    #[test]
    fn bind_run_shutdown() {
        let (join, addr, shutdown) = test_server();
        let (status, body) = request(
            addr,
            "GET /v1/healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
        );
        assert_eq!(status, 200, "got: {body}");
        assert!(body.contains("\"status\":\"ok\""), "got: {body}");
        shutdown.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn unknown_route_is_404_with_json() {
        let (join, addr, shutdown) = test_server();
        let (status, body) = request(
            addr,
            "GET /nope HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
        );
        assert_eq!(status, 404, "got: {body}");
        assert!(body.contains("\"error\""), "got: {body}");
        shutdown.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn write_verbs_are_forbidden_without_a_wal() {
        let (join, addr, shutdown) = test_server();
        let body = r#"{"hypergraph":"e(a,b)."}"#;
        let (status, answer) = request(
            addr,
            &format!(
                "POST /v1/hypergraphs HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\
                 Connection: close\r\n\r\n{body}",
                body.len()
            ),
        );
        assert_eq!(status, 403, "got: {answer}");
        assert!(answer.contains("\"read_only\""), "got: {answer}");
        shutdown.shutdown();
        join.join().unwrap();
    }
}
