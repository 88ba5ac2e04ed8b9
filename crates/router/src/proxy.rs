//! The routing proxy: the [`Dispatch`] implementation behind the
//! front tier's listener.
//!
//! Ids federate across `N` shards as
//! `global_id = local_id * N + shard_index`: the owning shard of a
//! global id is `gid % N` and its shard-local id is `gid / N`. The
//! proxy localizes `{id}` path segments on the way in and globalizes
//! the `id` fields of single-shard answers on the way out, so clients
//! see one contiguous id space. Creates (and standalone analyses)
//! route by an FNV-1a hash of the request body modulo `N` — a
//! replayed create lands on the same shard, preserving the shards'
//! content-hash idempotency end to end.
//!
//! Reads fail over across a shard's replicas and may hedge: when the
//! first attempt is slower than the upstream's observed p95, a second
//! attempt goes to the next replica, the first answer wins and the
//! loser's socket is closed. The worker serving the request does all
//! of it itself — it writes the request, sleeps until a socket has an
//! answer or the hedge delay runs out, and reads the winner; no
//! attempt gets a thread. Writes go to the shard primary only and
//! surface the shard's own refusals (a degraded shard's 503 and
//! `Retry-After` pass through verbatim). List and query pages
//! scatter-gather over every active shard on that same worker: it puts
//! every shard's first attempt on the wire before it waits on any, then
//! finishes the reads in turn, and starts no thread (two shards that
//! both need a hedge wait out their delays one after the other). The
//! pages merge through [`crate::scatter`], which splices the merged
//! page from the shards' own row bytes; a shard with no live upstream
//! fails the page with a structured 502 `bad_upstream` naming the
//! shard — unless the client opted in with `x-hyperbench-allow-partial`,
//! in which case the page carries a `partial` marker listing the
//! missing shards.
//!
//! Every request dispatches on the reactor's offload pool
//! ([`Dispatch::offload`] answers `true` unconditionally): upstream
//! exchanges block, and blocking belongs on worker threads, never on
//! the event loop. The offload backlog bound doubles as the router's
//! overload control.

use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hyperbench_api::cursor::{ScatterCursor, ShardSlot};
use hyperbench_api::dto::QueryRequest;
use hyperbench_api::error::{ApiError, ErrorCode};
use hyperbench_api::hash::fnv1a64;
use hyperbench_api::json::{Json, Walker};
use hyperbench_api::{client::percent_encode, schema};
use hyperbench_server::handlers::{error_response, get_metrics, post_failpoints};
use hyperbench_server::http::{Method, Request, Response, DEADLINE_HEADER};
use hyperbench_server::router::{RouteMatch, Router};
use hyperbench_server::upstream::{wait_readable, Pending, UpstreamPool, UpstreamResponse};
use hyperbench_server::Dispatch;
use hyperbench_telemetry::trace;

use crate::health::{InFlight, Role, Upstream};
use crate::map::ShardMap;
use crate::metrics::metrics;
use crate::scatter::{decode_page, encode_page, merge_pages};

/// Header a client sends to accept partial scatter-gather pages.
pub const ALLOW_PARTIAL_HEADER: &str = "x-hyperbench-allow-partial";

/// Tuning knobs for the front tier.
#[derive(Debug, Clone)]
pub struct RouterOptions {
    /// Consecutive upstream failures that open its breaker.
    pub breaker_threshold: u32,
    /// How long an open breaker fails fast before a half-open trial.
    pub breaker_cooldown: Duration,
    /// Active health-probe period per upstream.
    pub probe_interval: Duration,
    /// Whether reads hedge to a second replica when slow.
    pub hedge: bool,
    /// Bounds on the p95-derived hedge delay.
    pub hedge_delay_floor: Duration,
    /// Upper bound on the hedge delay.
    pub hedge_delay_ceiling: Duration,
    /// Per-upstream connect timeout.
    pub connect_timeout: Duration,
    /// Per-upstream response read timeout.
    pub read_timeout: Duration,
}

impl Default for RouterOptions {
    fn default() -> RouterOptions {
        RouterOptions {
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_millis(500),
            probe_interval: Duration::from_millis(100),
            hedge: true,
            hedge_delay_floor: Duration::from_millis(2),
            hedge_delay_ceiling: Duration::from_millis(50),
            connect_timeout: Duration::from_secs(1),
            read_timeout: Duration::from_secs(30),
        }
    }
}

/// Drain lifecycle of one shard.
const ACTIVE: u8 = 0;
const DRAINING: u8 = 1;
const DRAINED: u8 = 2;

/// One shard's live state: its upstreams and drain lifecycle.
#[derive(Debug)]
pub struct ShardState {
    /// The shard's index in the map (the partition residue it owns).
    pub index: usize,
    /// Live upstream state, primary first.
    pub upstreams: Vec<Arc<Upstream>>,
    drain: AtomicU8,
    in_flight: AtomicUsize,
}

impl ShardState {
    /// Whether new requests may dispatch to this shard.
    pub fn is_active(&self) -> bool {
        self.drain.load(Ordering::Acquire) == ACTIVE
    }

    /// Whether the shard is draining or drained.
    pub fn is_draining(&self) -> bool {
        self.drain.load(Ordering::Acquire) != ACTIVE
    }

    /// Client requests currently in flight against this shard.
    pub fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::Acquire)
    }

    /// Registers a request, unless the shard is draining. The count is
    /// taken *before* the drain check, so a drain that begins between
    /// the check and the dispatch still waits for this request.
    fn enter(self: &Arc<ShardState>) -> Option<ShardGuard> {
        self.in_flight.fetch_add(1, Ordering::AcqRel);
        if self.is_draining() {
            self.in_flight.fetch_sub(1, Ordering::AcqRel);
            return None;
        }
        Some(ShardGuard {
            shard: Arc::clone(self),
        })
    }

    /// Read candidates in preference order: healthy upstreams first
    /// (replicas before the primary, spreading read load), then
    /// unhealthy-but-breaker-admitted ones as a last resort.
    fn read_candidates(&self) -> Vec<Arc<Upstream>> {
        let admitted: Vec<&Arc<Upstream>> = self.upstreams.iter().filter(|u| u.allow()).collect();
        let (healthy, suspect): (Vec<_>, Vec<_>) =
            admitted.into_iter().partition(|u| u.is_healthy());
        let order = |set: Vec<&Arc<Upstream>>| {
            let (replicas, primaries): (Vec<_>, Vec<_>) =
                set.into_iter().partition(|u| u.role == Role::Replica);
            replicas
                .into_iter()
                .chain(primaries)
                .cloned()
                .collect::<Vec<_>>()
        };
        let mut out = order(healthy);
        out.extend(order(suspect));
        out
    }
}

/// RAII shard-level in-flight count (drains wait on it).
#[derive(Debug)]
struct ShardGuard {
    shard: Arc<ShardState>,
}

impl Drop for ShardGuard {
    fn drop(&mut self) {
        self.shard.in_flight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// The router's routes.
#[derive(Debug, Clone, Copy)]
enum Endpoint {
    List,
    Create,
    Detail,
    Replace,
    Delete,
    RawHg,
    Query,
    Analyses,
    Analysis,
    Health,
    Metrics,
    Failpoints,
    Topology,
    Drain,
    Undrain,
}

fn build_routes() -> Router<Endpoint> {
    let mut router = Router::new();
    router
        .add(Method::Get, "/v1/hypergraphs", Endpoint::List)
        .add(Method::Post, "/v1/hypergraphs", Endpoint::Create)
        .add(Method::Get, "/v1/hypergraphs/{id}", Endpoint::Detail)
        .add(Method::Put, "/v1/hypergraphs/{id}", Endpoint::Replace)
        .add(Method::Delete, "/v1/hypergraphs/{id}", Endpoint::Delete)
        .add(Method::Get, "/v1/hypergraphs/{id}/hg", Endpoint::RawHg)
        .add(Method::Post, "/v1/query", Endpoint::Query)
        .add(Method::Post, "/v1/analyses", Endpoint::Analyses)
        .add(Method::Get, "/v1/analyses/{id}", Endpoint::Analysis)
        .add(Method::Get, "/v1/healthz", Endpoint::Health)
        .add(Method::Get, "/metrics", Endpoint::Metrics)
        .add(Method::Post, "/debug/failpoints", Endpoint::Failpoints)
        .add(Method::Get, "/admin/topology", Endpoint::Topology)
        .add(Method::Post, "/admin/drain/{shard}", Endpoint::Drain)
        .add(Method::Post, "/admin/undrain/{shard}", Endpoint::Undrain);
    router
}

/// The front tier's shared state: one entry per shard in map order.
pub struct RouterState {
    /// Per-shard live state, in map order.
    pub shards: Vec<Arc<ShardState>>,
    opts: RouterOptions,
    routes: Router<Endpoint>,
}

impl RouterState {
    /// Builds the live state for a shard map.
    pub fn new(map: &ShardMap, opts: RouterOptions) -> Arc<RouterState> {
        let shards = map
            .shards
            .iter()
            .enumerate()
            .map(|(index, shard)| {
                let upstreams = shard
                    .upstreams
                    .iter()
                    .enumerate()
                    .map(|(i, &addr)| {
                        let pool = UpstreamPool::with_timeouts(
                            addr,
                            opts.connect_timeout,
                            opts.read_timeout,
                        );
                        let role = if i == 0 { Role::Primary } else { Role::Replica };
                        Arc::new(Upstream::new(
                            pool,
                            role,
                            opts.breaker_threshold,
                            opts.breaker_cooldown,
                        ))
                    })
                    .collect();
                Arc::new(ShardState {
                    index,
                    upstreams,
                    drain: AtomicU8::new(ACTIVE),
                    in_flight: AtomicUsize::new(0),
                })
            })
            .collect();
        Arc::new(RouterState {
            shards,
            opts,
            routes: build_routes(),
        })
    }

    /// The shard count (the id-partition modulus).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn globalize(&self, shard: usize, local: usize) -> usize {
        local * self.shard_count() + shard
    }

    fn localize(&self, gid: usize) -> (usize, usize) {
        (gid % self.shard_count(), gid / self.shard_count())
    }

    /// Spawns one probe thread per upstream, each hitting
    /// `GET /v1/healthz` every probe interval until `shutdown` flips.
    pub fn start_probes(
        self: &Arc<RouterState>,
        shutdown: Arc<std::sync::atomic::AtomicBool>,
    ) -> Vec<std::thread::JoinHandle<()>> {
        let mut handles = Vec::new();
        for shard in &self.shards {
            for upstream in &shard.upstreams {
                let upstream = Arc::clone(upstream);
                let shutdown = Arc::clone(&shutdown);
                let interval = self.opts.probe_interval;
                handles.push(std::thread::spawn(move || {
                    while !shutdown.load(Ordering::Acquire) {
                        crate::health::probe(&upstream);
                        std::thread::sleep(interval);
                    }
                }));
            }
        }
        handles
    }
}

/// The [`Dispatch`] wrapper served by the reactor.
pub struct RouterDispatch(pub Arc<RouterState>);

impl Dispatch for RouterDispatch {
    fn dispatch(&self, request: &Request) -> Response {
        trace::with_request_id(request.trace_id, || self.0.handle(request))
    }

    /// Everything offloads: every route blocks on upstream sockets.
    fn offload(&self, _request: &Request) -> bool {
        true
    }
}

/// The request headers forwarded upstream.
fn forward_headers(request: &Request) -> Vec<(&str, &str)> {
    [DEADLINE_HEADER, "content-type"]
        .into_iter()
        .filter_map(|name| Some((name, request.headers.get(name)?.as_str())))
        .collect()
}

/// One read attempt in flight: a request sent to a candidate, its
/// answer not yet read.
struct Attempt {
    /// Index into the read's candidate list.
    candidate: usize,
    pending: Pending,
    started: Instant,
    _in_flight: InFlight,
}

/// After a failed attempt: counts a failover when another candidate
/// is left to take its place.
fn fail_over(next_candidate: usize, candidates: usize) {
    if next_candidate < candidates {
        metrics().failovers.inc();
    }
}

/// One read against a shard. [`ShardRead::start`] puts the first
/// attempt on the wire; [`ShardRead::finish`] sleeps on the sockets of
/// the attempts in flight (at most two: hedging to the next candidate
/// waits for a lone attempt slower than the observed p95, failing over
/// replaces a failed one) and reads the first answer; an attempt still
/// out then is dropped, which closes its socket.
struct ShardRead<'r> {
    opts: &'r RouterOptions,
    shard: usize,
    /// Method, path and query, forwarded headers, body.
    request: (&'r str, String, &'r [(&'r str, &'r str)], Vec<u8>),
    /// Read candidates in preference order.
    candidates: Vec<Arc<Upstream>>,
    next_candidate: usize,
    attempts: Vec<Attempt>,
}

impl<'r> ShardRead<'r> {
    /// Sends the first attempt; `Err` is the refusal for a shard with
    /// no candidate.
    fn start(
        opts: &'r RouterOptions,
        shard: &ShardState,
        request: (&'r str, String, &'r [(&'r str, &'r str)], Vec<u8>),
    ) -> Result<ShardRead<'r>, Response> {
        let candidates = shard.read_candidates();
        if candidates.is_empty() {
            return Err(bad_upstream(
                shard.index,
                "every upstream is open-circuit or dead",
            ));
        }
        let mut read = ShardRead {
            opts,
            shard: shard.index,
            request,
            candidates,
            next_candidate: 0,
            attempts: Vec::with_capacity(2),
        };
        read.launch();
        Ok(read)
    }

    /// Sends the request to the next candidate, failing over past any
    /// whose send fails; returns the candidate it went out to.
    fn launch(&mut self) -> Option<usize> {
        let (method, path, headers, body) = &self.request;
        while self.next_candidate < self.candidates.len() {
            let candidate = self.next_candidate;
            self.next_candidate += 1;
            let upstream = &self.candidates[candidate];
            let in_flight = upstream.track();
            let started = Instant::now();
            match upstream.pool.send(method, path, headers, body) {
                Ok(pending) => {
                    self.attempts.push(Attempt {
                        candidate,
                        pending,
                        started,
                        _in_flight: in_flight,
                    });
                    return Some(candidate);
                }
                Err(_) => {
                    upstream.record_failure();
                    fail_over(self.next_candidate, self.candidates.len());
                }
            }
        }
        None
    }

    /// Waits the read out. `Err` carries the ready-to-send refusal.
    fn finish(mut self) -> Result<UpstreamResponse, Response> {
        let (m, opts) = (metrics(), self.opts);
        let hedge_delay = self.candidates[0]
            .p95()
            .unwrap_or(opts.hedge_delay_ceiling)
            .clamp(opts.hedge_delay_floor, opts.hedge_delay_ceiling);
        // The candidate the hedge actually went out to.
        let mut hedge_candidate = None;
        loop {
            let Some(first) = self.attempts.first() else {
                return Err(bad_upstream(self.shard, "every read attempt failed"));
            };
            // Hedge only while one attempt is out, counting the delay
            // from when it was sent.
            let may_hedge = opts.hedge
                && hedge_candidate.is_none()
                && self.attempts.len() == 1
                && self.next_candidate < self.candidates.len();
            let wait = if may_hedge {
                hedge_delay.saturating_sub(first.started.elapsed())
            } else {
                opts.read_timeout + Duration::from_secs(5)
            };
            match wait_readable(self.attempts.iter().map(|a| &a.pending), wait) {
                Ok(Some(ready)) => {
                    let attempt = self.attempts.swap_remove(ready);
                    let upstream = &self.candidates[attempt.candidate];
                    match upstream.pool.finish(attempt.pending) {
                        Ok(response) => {
                            upstream.record_success(attempt.started.elapsed());
                            if hedge_candidate == Some(attempt.candidate) {
                                m.hedge_wins.inc();
                            }
                            for loser in self.attempts {
                                // Closing its socket is the cancellation;
                                // an upstream outrun by its hedge counts
                                // as a failure towards its breaker.
                                self.candidates[loser.candidate].record_failure();
                                m.hedges_cancelled.inc();
                            }
                            return Ok(response);
                        }
                        Err(_) => {
                            upstream.record_failure();
                            fail_over(self.next_candidate, self.candidates.len());
                            self.launch();
                        }
                    }
                }
                Ok(None) if may_hedge => {
                    m.hedges.inc();
                    hedge_candidate = self.launch();
                }
                Ok(None) | Err(_) => {
                    // Attempts outlived the read timeout plus slack;
                    // treat the shard as unreachable.
                    for attempt in self.attempts {
                        self.candidates[attempt.candidate].record_failure();
                    }
                    return Err(bad_upstream(self.shard, "read attempts timed out"));
                }
            }
        }
    }
}

/// Counts a shard's refusal for want of a live upstream and builds it.
fn bad_upstream(shard: usize, why: &str) -> Response {
    metrics().bad_upstream.inc();
    error_response(ApiError::new(
        ErrorCode::BadUpstream,
        format!("shard {shard} has no live upstream: {why}"),
    ))
    .with_retry_after(1)
}

/// Maps an upstream content type onto the server's static set.
fn static_content_type(value: Option<&str>) -> &'static str {
    match value {
        Some(v) if v.starts_with("application/json") => "application/json",
        Some(v) if v.starts_with("text/plain; version=0.0.4") => {
            "text/plain; version=0.0.4; charset=utf-8"
        }
        Some(v) if v.starts_with("text/plain") => "text/plain; charset=utf-8",
        _ => "application/octet-stream",
    }
}

/// Converts an upstream answer into a downstream response, preserving
/// status, body and any `Retry-After` (a degraded shard's 503 passes
/// through verbatim).
fn passthrough(upstream: UpstreamResponse) -> Response {
    let retry_after = upstream.retry_after();
    let mut response = Response {
        status: upstream.status,
        content_type: static_content_type(upstream.header("content-type")),
        body: upstream.body,
        retry_after: None,
    };
    if let Some(secs) = retry_after {
        response = response.with_retry_after(secs);
    }
    response
}

impl RouterState {
    fn handle(&self, request: &Request) -> Response {
        metrics().requests.inc();
        let (endpoint, params) = match self.routes.route(request.method, &request.path) {
            RouteMatch::Found(ep, params) => (*ep, params),
            RouteMatch::MethodMismatch => {
                return error_response(ApiError::new(
                    ErrorCode::MethodNotAllowed,
                    "method not allowed on this route",
                ))
            }
            RouteMatch::NotFound => {
                return error_response(ApiError::not_found(
                    "unknown route (the front tier serves /v1, /admin and /metrics)",
                ))
            }
        };
        match endpoint {
            Endpoint::Metrics => get_metrics(),
            Endpoint::Failpoints => post_failpoints(request),
            Endpoint::Health => self.health(),
            Endpoint::Topology => self.topology(),
            Endpoint::Drain => self.drain(params.get("shard")),
            Endpoint::Undrain => self.undrain(params.get("shard")),
            Endpoint::List => self.scatter_list(request),
            Endpoint::Query => self.scatter_query(request),
            Endpoint::Create => self.create(request, "/v1/hypergraphs"),
            Endpoint::Analyses => self.create(request, "/v1/analyses"),
            Endpoint::Detail => {
                self.read_by_id(request, &params, |local| format!("/v1/hypergraphs/{local}"))
            }
            Endpoint::RawHg => self.read_by_id(request, &params, |local| {
                format!("/v1/hypergraphs/{local}/hg")
            }),
            Endpoint::Analysis => {
                self.read_by_id(request, &params, |local| format!("/v1/analyses/{local}"))
            }
            Endpoint::Replace | Endpoint::Delete => self.write_by_id(request, &params),
        }
    }

    // ----------------------------------------------------------------
    // Single-shard reads: failover + hedging.
    // ----------------------------------------------------------------

    fn read_by_id(
        &self,
        request: &Request,
        params: &hyperbench_server::router::Params,
        path_of: impl Fn(usize) -> String,
    ) -> Response {
        let Some(gid) = params.get("id").and_then(|s| s.parse::<usize>().ok()) else {
            return error_response(ApiError::invalid_param("id must be a non-negative integer"));
        };
        let (shard_index, local) = self.localize(gid);
        let shard = &self.shards[shard_index];
        let Some(_guard) = shard.enter() else {
            return self.drain_refusal(shard_index);
        };
        let headers = forward_headers(request);
        match ShardRead::start(
            &self.opts,
            shard,
            ("GET", path_of(local), &headers, Vec::new()),
        )
        .and_then(ShardRead::finish)
        {
            Ok(upstream) => {
                let mut response = passthrough(upstream);
                if response.status == 200 && response.content_type == "application/json" {
                    self.globalize_body_id(&mut response, shard_index);
                }
                response
            }
            Err(refusal) => refusal,
        }
    }

    /// Rewrites a single-shard JSON answer's top-level `id` into the
    /// global id space: the digits are replaced where they stand, every
    /// other byte is the shard's. A body that is not a JSON object with
    /// an integer `id` passes through untouched.
    fn globalize_body_id(&self, response: &mut Response, shard: usize) {
        let Ok(text) = std::str::from_utf8(&response.body) else {
            return;
        };
        let mut id = None;
        let mut walker = Walker::new(text);
        let walked = walker.object(|w, key| {
            let start = w.offset();
            let value = w.skip_value()?;
            if key == schema::ID {
                if let Ok(local) = value.parse::<usize>() {
                    id = Some((start..w.offset(), local));
                }
            }
            Ok(())
        });
        if let (Ok(()), Ok(()), Some((digits, local))) = (walked, walker.finish(), id) {
            let global = self.globalize(shard, local).to_string();
            response.body.splice(digits, global.into_bytes());
        }
    }

    fn drain_refusal(&self, shard: usize) -> Response {
        metrics().drain_refusals.inc();
        error_response(ApiError::new(
            ErrorCode::ShuttingDown,
            format!("shard {shard} is draining"),
        ))
        .with_retry_after(1)
    }

    // ----------------------------------------------------------------
    // Writes: primary only, no failover, refusals pass through.
    // ----------------------------------------------------------------

    fn write_by_id(
        &self,
        request: &Request,
        params: &hyperbench_server::router::Params,
    ) -> Response {
        let Some(gid) = params.get("id").and_then(|s| s.parse::<usize>().ok()) else {
            return error_response(ApiError::invalid_param("id must be a non-negative integer"));
        };
        let (shard_index, local) = self.localize(gid);
        let method = match request.method {
            Method::Put => "PUT",
            Method::Delete => "DELETE",
            _ => unreachable!("routed writes are PUT or DELETE"),
        };
        self.proxied_write(
            request,
            shard_index,
            method,
            &format!("/v1/hypergraphs/{local}"),
        )
    }

    fn create(&self, request: &Request, path: &str) -> Response {
        let shard_index = (fnv1a64(&request.body) % self.shard_count() as u64) as usize;
        self.proxied_write(request, shard_index, "POST", path)
    }

    fn proxied_write(
        &self,
        request: &Request,
        shard_index: usize,
        method: &'static str,
        path: &str,
    ) -> Response {
        let shard = &self.shards[shard_index];
        let Some(_guard) = shard.enter() else {
            return self.drain_refusal(shard_index);
        };
        let primary = &shard.upstreams[0];
        if !primary.allow() {
            return bad_upstream(shard_index, "the primary's breaker is open");
        }
        let headers = forward_headers(request);
        let _in_flight = primary.track();
        let started = Instant::now();
        match primary.pool.exchange(method, path, &headers, &request.body) {
            Ok(upstream) => {
                primary.record_success(started.elapsed());
                let mut response = passthrough(upstream);
                if (200..300).contains(&response.status)
                    && response.content_type == "application/json"
                {
                    self.globalize_body_id(&mut response, shard_index);
                }
                response
            }
            Err(_) => {
                primary.record_failure();
                bad_upstream(shard_index, "the primary is unreachable")
            }
        }
    }

    // ----------------------------------------------------------------
    // Scatter-gather: list and HBQL rows pages.
    // ----------------------------------------------------------------

    /// Decodes the incoming scatter cursor (all-`Start` when absent).
    fn incoming_slots(&self, token: Option<&str>) -> Result<Vec<ShardSlot>, Response> {
        match token {
            None => Ok(vec![ShardSlot::Start; self.shard_count()]),
            Some(token) => {
                let cursor = ScatterCursor::decode(token).map_err(|e| {
                    error_response(ApiError::new(
                        ErrorCode::InvalidCursor,
                        format!("bad cursor: {e}"),
                    ))
                })?;
                if cursor.shards.len() != self.shard_count() {
                    return Err(error_response(ApiError::new(
                        ErrorCode::InvalidCursor,
                        format!(
                            "cursor spans {} shards, the fleet has {}",
                            cursor.shards.len(),
                            self.shard_count()
                        ),
                    )));
                }
                Ok(cursor.shards)
            }
        }
    }

    /// Fans one request out to every shard with a live slot: starts
    /// every shard's read, then finishes them in turn. Returns per-shard
    /// outcomes; `None` = not fetched (slot `Done` or shard draining).
    fn scatter_fetch(
        &self,
        slots: &[ShardSlot],
        request_of: impl Fn(ShardSlot) -> (String, Vec<u8>),
        method: &str,
        headers: &[(&str, &str)],
    ) -> Vec<Option<Result<UpstreamResponse, Response>>> {
        let mut guards = Vec::new();
        let reads: Vec<_> = slots
            .iter()
            .zip(&self.shards)
            .map(|(slot, shard)| {
                if matches!(slot, ShardSlot::Done) {
                    return None;
                }
                // Draining shards leave the scatter silently: their
                // slice of the walk ends here (slot comes back Done).
                guards.push(shard.enter()?);
                let (path, body) = request_of(*slot);
                Some(ShardRead::start(
                    &self.opts,
                    shard,
                    (method, path, headers, body),
                ))
            })
            .collect();
        metrics().scatter_fanout.observe(guards.len() as u64);
        reads
            .into_iter()
            .map(|read| read.map(|read| read.and_then(ShardRead::finish)))
            .collect()
    }

    /// Merges fetched pages and builds the outgoing page: the body of
    /// a list page, or with `rows_query` of a rows-query page.
    fn merged_page(
        &self,
        outcomes: Vec<Option<Result<UpstreamResponse, Response>>>,
        slots: &[ShardSlot],
        limit: usize,
        allow_partial: bool,
        rows_query: bool,
    ) -> Response {
        let mut bodies = Vec::with_capacity(outcomes.len());
        let mut partial = Vec::new();
        for (index, outcome) in outcomes.into_iter().enumerate() {
            match outcome {
                None => bodies.push(None),
                // A shard-level refusal (e.g. 503 degraded) aborts the
                // scatter and passes through verbatim.
                Some(Ok(upstream)) if upstream.status != 200 => return passthrough(upstream),
                Some(Ok(upstream)) => bodies.push(Some(upstream.body)),
                Some(Err(refusal)) => {
                    if !allow_partial {
                        return refusal;
                    }
                    metrics().partial_pages.inc();
                    partial.push(index);
                    bodies.push(None);
                }
            }
        }
        let pages = bodies
            .iter()
            .map(|body| match body {
                None => Ok(None),
                Some(body) => std::str::from_utf8(body)
                    .map_err(|e| e.to_string())
                    .and_then(decode_page)
                    .map(Some),
            })
            .collect::<Result<Vec<_>, String>>();
        let Ok(pages) = pages else {
            return error_response(ApiError::new(
                ErrorCode::Internal,
                "a shard answered an undecodable page",
            ));
        };
        let merged = merge_pages(pages, slots, limit);
        Response {
            status: 200,
            content_type: "application/json",
            body: encode_page(rows_query, &merged, &partial).into_bytes(),
            retry_after: None,
        }
    }

    fn scatter_list(&self, request: &Request) -> Response {
        let mut limit = 50usize;
        let mut cursor_token = None;
        let mut filters = String::new();
        for (key, value) in &request.query {
            match key.as_str() {
                "limit" => match value.parse::<usize>() {
                    Ok(n) if (1..=1000).contains(&n) => limit = n,
                    _ => {
                        return error_response(ApiError::invalid_param(
                            "limit must be an integer in 1..=1000",
                        ))
                    }
                },
                "cursor" => cursor_token = Some(value.as_str()),
                _ => filters.push_str(&format!(
                    "&{}={}",
                    percent_encode(key),
                    percent_encode(value)
                )),
            }
        }
        let slots = match self.incoming_slots(cursor_token) {
            Ok(s) => s,
            Err(refusal) => return refusal,
        };
        let allow_partial = request.headers.contains_key(ALLOW_PARTIAL_HEADER);
        let outcomes = self.scatter_fetch(
            &slots,
            |slot| {
                let mut path = format!("/v1/hypergraphs?limit={limit}{filters}");
                if let ShardSlot::Resume(c) = slot {
                    path.push_str(&format!("&cursor={}", c.encode()));
                }
                (path, Vec::new())
            },
            "GET",
            &forward_headers(request),
        );
        self.merged_page(outcomes, &slots, limit, allow_partial, false)
    }

    fn scatter_query(&self, request: &Request) -> Response {
        let body = match std::str::from_utf8(&request.body) {
            Ok(s) => s,
            Err(_) => return error_response(ApiError::bad_request("body is not UTF-8")),
        };
        let json = match Json::parse(body) {
            Ok(j) => j,
            Err(e) => return error_response(ApiError::bad_request(format!("bad JSON: {e}"))),
        };
        let query = match QueryRequest::from_json(&json) {
            Ok(q) => q,
            Err(e) => {
                return error_response(ApiError::invalid_param(format!("bad query request: {e}")))
            }
        };
        // The router merges by id; ORDER BY, GROUP BY and a bare
        // aggregate (`SELECT COUNT(*)`) would need a global
        // sort/aggregation pass it does not implement. A query that
        // does not parse is scattered as it is: every shard answers the
        // same 422 with its span, and that passes through.
        let parsed = hyperbench_query::parse(&query.query).ok();
        let unsupported = match &parsed {
            Some(q) if !q.order_by.is_empty() => Some("ORDER BY"),
            Some(q) if q.group_by.is_some() => Some("GROUP BY"),
            Some(q) if matches!(q.select, hyperbench_query::ast::Select::Items(_)) => {
                Some("an aggregate select list")
            }
            _ => None,
        };
        if let Some(clause) = unsupported {
            return error_response(ApiError::new(
                ErrorCode::InvalidQuery,
                format!("{clause} is not supported through the router; query a shard directly"),
            ));
        }
        let limit = parsed
            .and_then(|q| q.limit)
            .map_or(50, |l| usize::try_from(l).unwrap_or(usize::MAX));
        let slots = match self.incoming_slots(query.cursor.as_deref()) {
            Ok(s) => s,
            Err(refusal) => return refusal,
        };
        let allow_partial = request.headers.contains_key(ALLOW_PARTIAL_HEADER);
        let outcomes = self.scatter_fetch(
            &slots,
            |slot| {
                let shard_request = QueryRequest {
                    query: query.query.clone(),
                    cursor: match slot {
                        ShardSlot::Resume(c) => Some(c.encode()),
                        _ => None,
                    },
                };
                (
                    "/v1/query".to_string(),
                    shard_request.to_json().to_string().into_bytes(),
                )
            },
            "POST",
            &forward_headers(request),
        );
        self.merged_page(outcomes, &slots, limit, allow_partial, true)
    }

    // ----------------------------------------------------------------
    // Admin and liveness.
    // ----------------------------------------------------------------

    fn health(&self) -> Response {
        let down: Vec<usize> = self
            .shards
            .iter()
            .filter(|s| s.is_active() && !s.upstreams.iter().any(|u| u.is_healthy()))
            .map(|s| s.index)
            .collect();
        if down.is_empty() {
            Response::json(
                200,
                Json::obj([
                    (schema::STATUS, Json::str("ok")),
                    (schema::SHARDS, Json::int(self.shard_count())),
                ]),
            )
        } else {
            Response::json(
                503,
                Json::obj([
                    (schema::STATUS, Json::str("degraded")),
                    (
                        schema::SHARDS,
                        Json::Arr(down.into_iter().map(Json::int).collect()),
                    ),
                ]),
            )
            .with_retry_after(1)
        }
    }

    fn topology(&self) -> Response {
        let shards: Vec<Json> = self
            .shards
            .iter()
            .map(|shard| {
                let upstreams: Vec<Json> = shard
                    .upstreams
                    .iter()
                    .map(|u| {
                        let (state, failures) = u.breaker_view();
                        Json::obj([
                            (schema::ADDR, Json::str(u.pool.addr_text())),
                            (schema::ROLE, Json::str(u.role.as_str())),
                            (schema::HEALTHY, Json::Bool(u.is_healthy())),
                            (schema::BREAKER, Json::str(state.as_str())),
                            (schema::IN_FLIGHT, Json::int(u.in_flight())),
                            (schema::CONSECUTIVE_FAILURES, Json::int(failures)),
                        ])
                    })
                    .collect();
                Json::obj([
                    (schema::SHARD, Json::int(shard.index)),
                    (schema::DRAINING, Json::Bool(shard.is_draining())),
                    (schema::IN_FLIGHT, Json::int(shard.in_flight())),
                    (schema::UPSTREAMS, Json::Arr(upstreams)),
                ])
            })
            .collect();
        Response::json(200, Json::obj([(schema::SHARDS, Json::Arr(shards))]))
    }

    fn shard_param(&self, param: Option<&str>) -> Result<usize, Response> {
        let Some(index) = param.and_then(|s| s.parse::<usize>().ok()) else {
            return Err(error_response(ApiError::invalid_param(
                "shard must be a non-negative integer",
            )));
        };
        if index >= self.shard_count() {
            return Err(error_response(ApiError::not_found(format!(
                "no shard {index} (the map has {})",
                self.shard_count()
            ))));
        }
        Ok(index)
    }

    /// `POST /admin/drain/{shard}` — stop new dispatch, wait out the
    /// in-flight requests, flip the shard out of the map.
    fn drain(&self, param: Option<&str>) -> Response {
        let index = match self.shard_param(param) {
            Ok(i) => i,
            Err(refusal) => return refusal,
        };
        let shard = &self.shards[index];
        shard.drain.store(DRAINING, Ordering::Release);
        for upstream in &shard.upstreams {
            upstream.pool.drop_idle();
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        while shard.in_flight() > 0 {
            if Instant::now() > deadline {
                return error_response(ApiError::new(
                    ErrorCode::Internal,
                    format!(
                        "shard {index} still has {} requests in flight after 30s",
                        shard.in_flight()
                    ),
                ));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        shard.drain.store(DRAINED, Ordering::Release);
        Response::json(
            200,
            Json::obj([
                (schema::SHARD, Json::int(index)),
                (schema::DRAINING, Json::Bool(true)),
                (schema::IN_FLIGHT, Json::int(0)),
            ]),
        )
    }

    /// `POST /admin/undrain/{shard}` — return a drained shard to the
    /// map.
    fn undrain(&self, param: Option<&str>) -> Response {
        let index = match self.shard_param(param) {
            Ok(i) => i,
            Err(refusal) => return refusal,
        };
        self.shards[index].drain.store(ACTIVE, Ordering::Release);
        Response::json(
            200,
            Json::obj([
                (schema::SHARD, Json::int(index)),
                (schema::DRAINING, Json::Bool(false)),
            ]),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(n: usize) -> Arc<RouterState> {
        let text = (0..n)
            .map(|i| format!("127.0.0.1:{}", 40000 + i))
            .collect::<Vec<_>>()
            .join("\n");
        RouterState::new(&ShardMap::parse(&text).unwrap(), RouterOptions::default())
    }

    #[test]
    fn id_federation_roundtrips() {
        let s = state(3);
        for gid in 0..50 {
            let (shard, local) = s.localize(gid);
            assert_eq!(s.globalize(shard, local), gid);
            assert!(shard < 3);
        }
    }

    #[test]
    fn create_routing_is_stable_and_in_range() {
        let s = state(4);
        let body = b"{\"hypergraph\":\"e(a,b).\"}";
        let shard = (fnv1a64(body) % s.shard_count() as u64) as usize;
        assert_eq!((fnv1a64(body) % s.shard_count() as u64) as usize, shard);
        assert!(shard < 4);
    }

    #[test]
    fn body_ids_are_globalized_where_they_stand() {
        let s = state(2);
        let globalized = |body: &str| {
            let mut response = Response::json(200, body);
            s.globalize_body_id(&mut response, 1);
            String::from_utf8(response.body).unwrap()
        };
        // Only the top-level id moves (local 3 on shard 1 of 2 is 7);
        // every other byte is the shard's, spacing included.
        assert_eq!(
            globalized(r#"{"id":3,"nested":{"id":3},"s":"\u00e9 \"id\":3"}"#),
            r#"{"id":7,"nested":{"id":3},"s":"\u00e9 \"id\":3"}"#
        );
        assert_eq!(
            globalized(r#" { "n" : [1] , "id" : 12 } "#),
            r#" { "n" : [1] , "id" : 25 } "#
        );
        for untouched in [
            r#"{"id":"3"}"#,
            r#"{"id":-3}"#,
            r#"{"name":"x"}"#,
            r#"[{"id":3}]"#,
            r#"{"id":3"#,
            r#"{"id":3} trailing"#,
            "e1(a,b).",
        ] {
            assert_eq!(globalized(untouched), untouched);
        }
    }

    #[test]
    fn drain_refuses_entry_and_undrain_restores_it() {
        let s = state(2);
        let pre_drain_guard = s.shards[0].enter().unwrap();
        s.shards[0].drain.store(DRAINING, Ordering::Release);
        assert!(s.shards[0].enter().is_none());
        assert_eq!(s.shards[0].in_flight(), 1, "the pre-drain guard is live");
        drop(pre_drain_guard);
        assert_eq!(s.shards[0].in_flight(), 0);
        s.shards[0].drain.store(ACTIVE, Ordering::Release);
        assert!(s.shards[0].enter().is_some());
    }

    /// A hedge whose send fails over is the candidate its attempt
    /// went out to: when that one answers first, the win counts.
    #[test]
    fn a_hedge_that_fails_over_on_send_still_counts_its_win() {
        use std::io::{BufRead, BufReader, Write};
        let bind = || std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        // Replicas go first: one whose backlog takes the connection and
        // that never answers, then a closed port that refuses it.
        let (silent, refused, primary) = (bind(), bind().local_addr().unwrap(), bind());
        let [primary_addr, silent_addr] = [&primary, &silent].map(|l| l.local_addr().unwrap());
        let map = ShardMap::parse(&format!("{primary_addr} {silent_addr} {refused}")).unwrap();
        let responder = std::thread::spawn(move || {
            let (stream, _) = primary.accept().unwrap();
            let head = BufReader::new(&stream).lines().map(Result::unwrap);
            assert!(head.take_while(|line| !line.is_empty()).count() > 0);
            (&stream)
                .write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\n{}")
                .unwrap();
        });
        let opts = RouterOptions {
            hedge_delay_ceiling: Duration::from_millis(10),
            ..RouterOptions::default()
        };
        let s = RouterState::new(&map, opts);
        let m = metrics();
        let counters = || [m.hedges.get(), m.hedge_wins.get(), m.hedges_cancelled.get()];
        let before = counters();
        let request = ("GET", "/v1/hypergraphs/0".to_string(), &[][..], Vec::new());
        let answer = ShardRead::start(&s.opts, &s.shards[0], request)
            .and_then(ShardRead::finish)
            .unwrap_or_else(|refusal| panic!("refused: {}", refusal.status));
        assert_eq!((answer.status, answer.body.as_slice()), (200, &b"{}"[..]));
        assert_eq!(
            counters(),
            before.map(|n| n + 1),
            "one hedge, won by the primary, the silent replica cancelled"
        );
        responder.join().unwrap();
    }

    #[test]
    fn incoming_slots_validate_shape_and_checksum() {
        let s = state(2);
        assert_eq!(s.incoming_slots(None).unwrap().len(), 2);
        let wrong_width = ScatterCursor {
            shards: vec![ShardSlot::Start; 3],
        };
        assert!(s.incoming_slots(Some(&wrong_width.encode())).is_err());
        assert!(s.incoming_slots(Some("zzzz")).is_err());
    }
}
