//! Endpoint implementations: pure functions from shared state + request
//! to [`Response`]. The routing table itself lives in `lib.rs`.
//!
//! The `/v1` handlers ([`v1`]) speak the typed DTOs of `hyperbench-api`.
//! Every error answer is a structured [`ApiError`] with a stable code.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hyperbench_api::cursor::PageCursor;
use hyperbench_api::dto::{
    AnalysisReport, AnalysisResource, AnalysisStatus, AnalyzeRequest, CacheStatsDto,
    DecompositionDto, EdgeDto, EntryDetail, EntrySummary, HistogramSummaryDto, JobStatsDto,
    PageDto, QueryRequest, QueryResponse, QueryStatsDto, RepoStatsDto, StatsDto, TelemetryDto,
    WriteOutcome, WriteReceipt, WriteRequest,
};
use hyperbench_api::error::{ApiError, ErrorCode};
use hyperbench_api::json::Json;
use hyperbench_api::schema;
use hyperbench_core::format::{parse_hg, to_hg};
use hyperbench_core::Hypergraph;
use hyperbench_query::QueryError;
use hyperbench_repo::store::mvcc::{Inserted, MvccStore};
use hyperbench_repo::store::pack::content_hash_of;
use hyperbench_repo::{
    aggregate_stats, AnalysisConfig, AnalysisRecord, Entry, RepoStats, Repository, StoreError,
};
use hyperbench_telemetry::metrics::{HistogramSummary, MetricSnapshot};

use crate::cache::{canonicalize, AnalysisCache, JobResult};
use crate::http::{ParseError, Request, Response};
use crate::jobs::{AnalyzeOptions, DocKey, JobId, JobStatus, JobSystem, SubmitError};
use crate::router::Params;

/// Default page size for entry listings.
pub const DEFAULT_LIMIT: usize = 50;
/// Hard ceiling on the page size; larger requests answer a structured
/// 400.
pub const MAX_LIMIT: usize = 1000;

/// Everything the handlers share. Reads run against MVCC snapshots, so
/// concurrent readers need no locking; writes serialize inside the
/// store, and the job system and cache synchronize internally.
pub struct ServerState {
    /// The repository store: read-only, or WAL-backed writable when the
    /// server was started over a writable pack (`serve --pack FILE
    /// --writable`). Every handler reads through one generation
    /// ([`Repository`]) pinned for the request.
    pub store: Arc<MvccStore>,
    /// Repository aggregates, cached per snapshot generation: `GET
    /// /v1/stats` re-walks all entries only after a commit moved the seq.
    pub repo_stats: Mutex<(u64, Arc<RepoStats>)>,
    /// Background analysis jobs.
    pub jobs: JobSystem,
    /// The analysis LRU (shared with `jobs`).
    pub cache: Arc<AnalysisCache>,
    /// The configured analysis budgets: the defaults *and* ceilings for
    /// per-request overrides in `POST /v1/analyses`.
    pub analysis: AnalysisConfig,
    /// Server start time, for `/v1/healthz` uptime.
    pub started: Instant,
}

impl ServerState {
    /// The aggregates of `snap`'s generation, recomputing only when a
    /// commit has moved the store past the cached seq.
    pub fn stats_of(&self, snap: &Repository) -> Arc<RepoStats> {
        let mut cached = self.repo_stats.lock().expect("stats lock");
        if cached.0 != snap.seq() {
            *cached = (snap.seq(), Arc::new(aggregate_stats(snap)));
        }
        Arc::clone(&cached.1)
    }
}

/// Renders a structured error to its HTTP response. Inside a traced
/// request, the payload carries the trace id as `request_id`, so a
/// failure logged by a shard and surfaced by the router greps to the
/// same id on both sides of the fleet.
pub fn error_response(err: ApiError) -> Response {
    error_response_with(err, None)
}

/// [`error_response`] with one field after the error's own (the `span`
/// of an `invalid_query`): every error payload is rendered here.
fn error_response_with(mut err: ApiError, extra: Option<(&str, Json)>) -> Response {
    let request_id = hyperbench_telemetry::trace::current_request_id();
    if request_id != 0 {
        err.request_id = Some(request_id);
    }
    let mut json = err.to_json();
    if let (Json::Obj(fields), Some((key, value))) = (&mut json, extra) {
        fields.push((key.to_string(), value));
    }
    Response::json(err.http_status(), json)
}

/// The structured response for a request that could not be parsed, or
/// `None` when there is nobody to answer (the peer disconnected before
/// sending anything): oversized heads/bodies → 413, a request not
/// delivered within the read deadline (slowloris) → 408, malformed
/// bytes → 400.
pub fn parse_error_response(e: &ParseError) -> Option<Response> {
    let err = match e {
        ParseError::ConnectionClosed => return None,
        ParseError::BadMethod(m) => ApiError::new(
            ErrorCode::MethodNotAllowed,
            format!("method {m:?} not supported"),
        ),
        ParseError::BodyTooLarge(n) => {
            crate::metrics::metrics().http_responses_413.inc();
            ApiError::new(
                ErrorCode::PayloadTooLarge,
                format!(
                    "body of {n} bytes exceeds the {} byte limit",
                    crate::http::MAX_BODY
                ),
            )
        }
        ParseError::HeadTooLarge(n) => {
            crate::metrics::metrics().http_responses_413.inc();
            ApiError::new(
                ErrorCode::PayloadTooLarge,
                format!(
                    "request head of {n} bytes exceeds the {} byte limit",
                    crate::http::MAX_HEAD
                ),
            )
        }
        ParseError::TimedOut => {
            crate::metrics::metrics().http_responses_408.inc();
            ApiError::new(
                ErrorCode::RequestTimeout,
                "request not delivered within the read deadline",
            )
        }
        e @ ParseError::Malformed(_) => ApiError::bad_request(e.to_string()),
    };
    Some(error_response(err))
}

/// A paged-backend read failure (I/O error, bad page checksum) as a
/// structured 500 — storage corruption fails the one request with a
/// diagnostic instead of panicking the connection thread.
fn storage_error(e: StoreError) -> Response {
    error_response(ApiError::new(
        ErrorCode::Internal,
        format!("repository storage error: {e}"),
    ))
}

/// The [`EntrySummary`] DTO of a repository entry.
fn summary_of(e: &Entry) -> EntrySummary {
    EntrySummary {
        id: e.id,
        collection: e.collection.clone(),
        class: e.class.clone(),
        vertices: e.hypergraph.num_vertices(),
        edges: e.hypergraph.num_edges(),
        arity: e.hypergraph.arity(),
        analyzed: e.analysis.is_some(),
        hw_upper: e.analysis.as_ref().and_then(|r| r.hw_upper),
        hw_lower: e.analysis.as_ref().map(|r| r.hw_lower),
    }
}

/// The [`AnalysisReport`] DTO of a stored record.
fn report_of(rec: &AnalysisRecord) -> AnalysisReport {
    AnalysisReport {
        sizes: rec.sizes,
        properties: rec.properties,
        hw_upper: rec.hw_upper,
        hw_lower: rec.hw_lower,
        hw_exact: rec.hw_exact(),
        cyclic: rec.is_cyclic(),
        hw_timed_out: rec.hw_timed_out,
    }
}

/// The [`EntryDetail`] DTO of a repository entry.
fn detail_of(e: &Entry) -> EntryDetail {
    let h = &e.hypergraph;
    EntryDetail {
        summary: summary_of(e),
        edge_list: h
            .edge_ids()
            .map(|eid| EdgeDto {
                name: h.edge_name(eid).to_string(),
                vertices: h
                    .edge(eid)
                    .iter()
                    .map(|&v| h.vertex_name(v).to_string())
                    .collect(),
            })
            .collect(),
        analysis: e.analysis.as_ref().map(report_of),
    }
}

/// The [`AnalysisResource`] DTO of a job status, witness included.
fn resource_of(id: JobId, status: &JobStatus) -> AnalysisResource {
    let mut resource = AnalysisResource {
        id,
        status: AnalysisStatus::Queued,
        method: None,
        cached: None,
        result: None,
        decomposition: None,
        error: None,
    };
    match status {
        JobStatus::Queued => {}
        JobStatus::Running => resource.status = AnalysisStatus::Running,
        JobStatus::Done { result, cached } => {
            resource.status = AnalysisStatus::Done;
            resource.method = Some(result.method);
            resource.cached = Some(*cached);
            resource.result = Some(report_of(&result.record));
            resource.decomposition = decomposition_of(result);
        }
        JobStatus::Failed(msg) => {
            resource.status = AnalysisStatus::Failed;
            resource.error = Some(msg.clone());
        }
    }
    resource
}

/// The finished job's pre-serialized witness tree, if the search found
/// one (built once by the worker, see [`JobResult::witness_dto`]).
fn decomposition_of(result: &JobResult) -> Option<DecompositionDto> {
    result.witness_dto.clone()
}

/// Parses a `/v1` `limit` query value: 1..=[`MAX_LIMIT`], structured
/// 400 otherwise (zero, non-numeric, and over-limit values are all
/// rejected instead of clamped or defaulted).
fn parse_limit(value: &str) -> Result<usize, ApiError> {
    match value.parse::<usize>() {
        Ok(v) if (1..=MAX_LIMIT).contains(&v) => Ok(v),
        Ok(v) => Err(ApiError::invalid_param(format!(
            "limit must be between 1 and {MAX_LIMIT}, got {v}"
        ))),
        Err(_) => Err(ApiError::invalid_param(format!(
            "bad value {value:?} for limit"
        ))),
    }
}

fn parse_entry_id(params: &Params) -> Result<usize, ApiError> {
    params
        .get("id")
        .unwrap_or_default()
        .parse()
        .map_err(|_| ApiError::invalid_param("hypergraph id must be a non-negative integer"))
}

/// Compiles `?key=value` filter params into an executable HBQL plan —
/// the one predicate-evaluation path the list route and
/// `POST /v1/query` share. Unknown keys and bad values answer a
/// structured 400 listing the valid vocabulary.
fn compile_filter_params<'a>(
    params: impl IntoIterator<Item = (&'a str, &'a str)>,
) -> Result<hyperbench_query::Plan, ApiError> {
    let query = hyperbench_query::legacy::desugar_params(params)
        .map_err(|e| ApiError::invalid_param(e.to_string()))?;
    // Desugared queries only reference catalog fields with matching
    // types, so resolution cannot fail; a failure here is a bug.
    hyperbench_query::resolve(&query).map_err(|e| {
        ApiError::new(
            ErrorCode::Internal,
            format!("desugared filter failed to resolve: {e}"),
        )
    })
}

/// Renders an HBQL compile failure as a 422 `invalid_query` whose
/// payload carries the byte-offset span of the offending query text.
fn query_error_response(e: QueryError) -> Response {
    let span = Json::obj([
        (schema::START, Json::int(e.span.start)),
        (schema::END, Json::int(e.span.end)),
    ]);
    error_response_with(
        ApiError::new(ErrorCode::InvalidQuery, e.message),
        Some((schema::SPAN, span)),
    )
}

/// Parses, keys, and submits an analysis. `Err` is the structured
/// parse failure (with a pollable failed job id attached by the
/// caller).
fn submit_analysis(
    state: &ServerState,
    document: &str,
    options: AnalyzeOptions,
    trace_id: u64,
    deadline: Option<Instant>,
) -> Result<Result<JobId, SubmitError>, String> {
    let hypergraph: Hypergraph = parse_hg(document).map_err(|e| format!("parse error: {e}"))?;
    // The options are folded into the cache/dedup identity so the same
    // document under different methods or budgets never false-hits; the
    // facts the methods share are keyed by the document alone.
    let key = DocKey::new(&canonicalize(document), &options);
    Ok(state
        .jobs
        .submit_traced(hypergraph, key, options, trace_id, deadline))
}

fn submit_error(e: SubmitError) -> Response {
    match e {
        SubmitError::QueueFull {
            capacity,
            retry_after,
        } => error_response(ApiError::new(
            ErrorCode::QueueFull,
            format!("analysis queue full ({capacity} jobs); retry later"),
        ))
        .with_retry_after(retry_after),
        SubmitError::Overloaded { retry_after } => error_response(ApiError::new(
            ErrorCode::Overloaded,
            format!("analysis pool overloaded; retry in {retry_after}s"),
        ))
        .with_retry_after(retry_after),
        SubmitError::ShuttingDown => error_response(ApiError::new(
            ErrorCode::ShuttingDown,
            "server shutting down",
        )),
    }
}

/// `GET /v1/stats` — repository aggregates + cache and job counters +
/// the process-wide telemetry snapshot, all through the typed
/// [`StatsDto`].
pub fn get_stats(state: &ServerState) -> Response {
    let repo_stats = state.stats_of(&state.store.snapshot());
    let cache = state.cache.stats();
    let jobs = state.jobs.stats();
    let m = crate::metrics::metrics();
    let snapshot = hyperbench_telemetry::global().snapshot();
    let mut counters = Vec::new();
    let mut gauges = Vec::new();
    let mut histograms = Vec::new();
    for entry in &snapshot.entries {
        match &entry.value {
            MetricSnapshot::Counter(v) => counters.push((entry.name.to_string(), *v)),
            MetricSnapshot::Gauge(v) => gauges.push((entry.name.to_string(), *v)),
            MetricSnapshot::Histogram(h) => {
                let s = HistogramSummary::of(h);
                histograms.push(HistogramSummaryDto {
                    name: entry.name.to_string(),
                    count: s.count,
                    sum: s.sum,
                    // The wire speaks integers only; microsecond means
                    // lose nothing that matters when rounded.
                    mean: s.mean.round() as u64,
                    p50: s.p50,
                    p90: s.p90,
                    p99: s.p99,
                });
            }
        }
    }
    let stats = StatsDto {
        repository: RepoStatsDto {
            entries: repo_stats.entries,
            analyzed: repo_stats.analyzed,
            cyclic: repo_stats.cyclic,
            hw_timeouts: repo_stats.hw_timeouts,
            total_vertices: repo_stats.total_vertices,
            total_edges: repo_stats.total_edges,
            max_arity: repo_stats.max_arity,
            by_class: repo_stats.by_class.clone(),
            by_collection: repo_stats.by_collection.clone(),
            hw_exact: repo_stats
                .hw_exact
                .iter()
                .map(|(hw, n)| (hw.to_string(), *n))
                .collect(),
        },
        cache: CacheStatsDto {
            hits: cache.hits,
            misses: cache.misses,
            len: cache.len,
            capacity: cache.capacity,
            evictions: m.cache_evictions.get(),
            spill_appends: m.cache_spill_appends.get(),
            spill_append_failures: m.cache_spill_append_failures.get(),
        },
        jobs: JobStatsDto {
            submitted: jobs.submitted,
            queued: jobs.queued,
            running: jobs.running,
            done: jobs.done,
            failed: jobs.failed,
            deduped: jobs.deduped,
            facts_reused: jobs.facts_reused,
        },
        query: {
            let q = hyperbench_query::metrics::metrics();
            QueryStatsDto {
                queries: q.queries.get(),
                errors: q.errors.get(),
                rows_scanned: q.rows_scanned.get(),
                rows_hydrated: q.rows_hydrated.get(),
            }
        },
        telemetry: TelemetryDto {
            counters,
            gauges,
            histograms,
        },
    };
    Response::json(200, stats.to_json())
}

/// `GET /metrics` — the Prometheus text exposition of every registered
/// counter, gauge and histogram. Served identically by both IO engines.
pub fn get_metrics() -> Response {
    Response {
        status: 200,
        content_type: "text/plain; version=0.0.4; charset=utf-8",
        body: hyperbench_telemetry::global()
            .snapshot()
            .render_prometheus()
            .into_bytes(),
        retry_after: None,
    }
}

/// `POST /debug/failpoints` — test-only fault-injection arming. The
/// body is the same `name=spec;name2=spec` grammar as the
/// `HYPERBENCH_FAILPOINTS` env var; an empty body disarms everything.
/// Answers the armed set as JSON. In a binary built without
/// `hyperbench-fault/failpoints` the route answers 404 — the constant
/// gate below folds to `return` at compile time, so production builds
/// carry no arming surface at all.
pub fn post_failpoints(req: &Request) -> Response {
    if !hyperbench_fault::ENABLED {
        return error_response(ApiError::not_found(
            "fault injection is compiled out of this binary",
        ));
    }
    let body = match std::str::from_utf8(&req.body) {
        Ok(s) => s.trim(),
        Err(_) => return error_response(ApiError::bad_request("body is not UTF-8")),
    };
    if body.is_empty() {
        hyperbench_fault::clear();
    } else if let Err(e) = hyperbench_fault::configure_all(body) {
        return error_response(ApiError::invalid_param(format!(
            "bad failpoint config: {e}"
        )));
    }
    let armed = Json::Obj(
        hyperbench_fault::list()
            .into_iter()
            .map(|(name, spec)| (name, Json::str(spec)))
            .collect(),
    );
    Response::json(200, Json::obj([("failpoints", armed)]))
}

/// `GET /v1/healthz` — liveness.
pub fn get_healthz(state: &ServerState) -> Response {
    Response::json(
        200,
        Json::obj([
            (schema::STATUS, Json::str("ok")),
            ("entries", Json::int(state.store.snapshot().len())),
            (
                "uptime_ms",
                Json::int(state.started.elapsed().as_millis().min(i64::MAX as u128) as i64),
            ),
        ]),
    )
}

/// The `/v1` handlers: typed DTOs, keyset cursors, structured errors.
pub mod v1 {
    use super::*;

    /// Parses a request body as JSON; empty, non-UTF-8 and non-JSON
    /// bodies answer a structured 400 naming the `expected` document.
    fn json_body(req: &Request, expected: &str) -> Result<Json, Response> {
        let body = match std::str::from_utf8(&req.body) {
            Ok(s) if !s.trim().is_empty() => s,
            Ok(_) => {
                return Err(error_response(ApiError::bad_request(format!(
                    "empty body; expected {expected} JSON document"
                ))))
            }
            Err(_) => return Err(error_response(ApiError::bad_request("body is not UTF-8"))),
        };
        Json::parse(body)
            .map_err(|e| error_response(ApiError::bad_request(format!("body is not JSON: {e}"))))
    }

    /// The snapshot and resume point a page request runs on. A cursor
    /// pins the generation its walk started on; one the store no longer
    /// retains falls back to current — ids only grow, so the keyset
    /// scan stays correct, merely un-pinned.
    fn page_position(
        state: &ServerState,
        cursor: Option<&str>,
    ) -> Result<(Arc<Repository>, Option<usize>), Response> {
        let Some(token) = cursor else {
            return Ok((state.store.snapshot(), None));
        };
        let c = PageCursor::decode(token)
            .map_err(|e| error_response(ApiError::new(ErrorCode::InvalidCursor, e.to_string())))?;
        let pinned = c.snapshot.and_then(|seq| state.store.snapshot_at(seq));
        Ok((
            pinned.unwrap_or_else(|| state.store.snapshot()),
            Some(c.after_id),
        ))
    }

    /// Runs a rows plan as one keyset page of `snap` and encodes it,
    /// continuation cursor included.
    fn rows_page(
        state: &ServerState,
        plan: &hyperbench_query::Plan,
        snap: &Repository,
        after: Option<usize>,
        limit: usize,
    ) -> PageDto {
        let page = plan.execute_rows(snap.metas(), after, limit);
        PageDto {
            partial: Vec::new(),
            total: page.total,
            items: page.items,
            next_cursor: page.next_after.map(|after_id| {
                PageCursor {
                    after_id,
                    // Read-only stores emit unpinned tokens (nothing
                    // ever moves underneath a reader).
                    snapshot: state.store.writable().then(|| snap.seq()),
                }
                .encode()
            }),
        }
    }

    /// `GET /v1/hypergraphs` — cursor-paginated, filterable summaries.
    /// On a writable store, cursors pin the snapshot generation they
    /// started on: a client paging through results sees one consistent
    /// world even while writes land between its page fetches. The
    /// filter params desugar into HBQL and run on the same planner as
    /// `POST /v1/query`, straight off the metadata index.
    pub fn list(state: &ServerState, req: &Request) -> Response {
        let mut limit = DEFAULT_LIMIT;
        let mut cursor = None;
        let mut params: Vec<(&str, &str)> = Vec::new();
        for (key, value) in &req.query {
            match key.as_str() {
                "limit" => match parse_limit(value) {
                    Ok(v) => limit = v,
                    Err(e) => return error_response(e),
                },
                "cursor" => cursor = Some(value.as_str()),
                _ => params.push((key.as_str(), value.as_str())),
            }
        }
        let (snap, after) = match page_position(state, cursor) {
            Ok(position) => position,
            Err(resp) => return resp,
        };
        let plan = match compile_filter_params(params) {
            Ok(p) => p,
            Err(e) => return error_response(e),
        };
        Response::json(200, rows_page(state, &plan, &snap, after, limit).to_json())
    }

    /// `POST /v1/query` — runs one HBQL query. Row queries answer the
    /// `GET /v1/hypergraphs` page contract (keyset cursors, snapshot
    /// pinning); aggregate queries answer their groups in ascending key
    /// order. Compile failures are 422 `invalid_query` with a byte-
    /// offset span into the query text.
    pub fn post_query(state: &ServerState, req: &Request) -> Response {
        let parsed = match json_body(req, "a QueryRequest") {
            Ok(j) => j,
            Err(resp) => return resp,
        };
        let request = match QueryRequest::from_json(&parsed) {
            Ok(r) => r,
            Err(e) => return error_response(ApiError::invalid_param(e.to_string())),
        };
        let plan = match hyperbench_query::compile(&request.query) {
            Ok(p) => p,
            Err(e) => return query_error_response(e),
        };
        if plan.is_aggregate() {
            if request.cursor.is_some() {
                return error_response(ApiError::invalid_param(
                    "aggregate queries answer in one page and take no cursor",
                ));
            }
            let snap = state.store.snapshot();
            let result = plan.execute_groups(snap.metas());
            let dto = QueryResponse::Groups {
                group_by: result.group_by,
                groups: result.groups,
            };
            return Response::json(200, dto.to_json());
        }
        let limit = match plan.limit() {
            None => DEFAULT_LIMIT,
            Some(l) if l <= MAX_LIMIT as u64 => l as usize,
            Some(l) => {
                return error_response(ApiError::invalid_param(format!(
                    "LIMIT must be at most {MAX_LIMIT}, got {l}"
                )))
            }
        };
        // An ORDER BY page is not in id order, so a keyset cursor
        // cannot continue it.
        if request.cursor.is_some() && plan.has_order() {
            return error_response(ApiError::invalid_param(
                "ORDER BY queries cannot be continued with a cursor; \
                 raise LIMIT instead",
            ));
        }
        let (snap, after) = match page_position(state, request.cursor.as_deref()) {
            Ok(position) => position,
            Err(resp) => return resp,
        };
        let dto = QueryResponse::Rows(rows_page(state, &plan, &snap, after, limit));
        Response::json(200, dto.to_json())
    }

    /// `GET /v1/hypergraphs/{id}` — full entry with properties.
    pub fn get(state: &ServerState, params: &Params) -> Response {
        let id = match parse_entry_id(params) {
            Ok(id) => id,
            Err(e) => return error_response(e),
        };
        let snap = state.store.snapshot();
        match snap.try_get(id) {
            Ok(Some(e)) => Response::json(200, detail_of(e).to_json()),
            Ok(None) => error_response(ApiError::not_found(format!("no hypergraph with id {id}"))),
            Err(e) => storage_error(e),
        }
    }

    /// `GET /v1/hypergraphs/{id}/hg` — the raw DetKDecomp document.
    pub fn raw_hg(state: &ServerState, params: &Params) -> Response {
        let id = match parse_entry_id(params) {
            Ok(id) => id,
            Err(e) => return error_response(e),
        };
        let snap = state.store.snapshot();
        match snap.try_get(id) {
            Ok(Some(e)) => Response::text(200, to_hg(&e.hypergraph)),
            Ok(None) => error_response(ApiError::not_found(format!("no hypergraph with id {id}"))),
            Err(e) => storage_error(e),
        }
    }

    /// Parses a write-verb body into its request DTO and hypergraph:
    /// malformed JSON or fields → 400, a syntactically valid request
    /// whose `.hg` document does not parse → 422 `invalid_hypergraph`.
    fn parse_write_request(req: &Request) -> Result<(WriteRequest, Hypergraph), Response> {
        let parsed = json_body(req, "a WriteRequest")?;
        let request = match WriteRequest::from_json(&parsed) {
            Ok(r) => r,
            Err(e) => return Err(error_response(ApiError::invalid_param(e.to_string()))),
        };
        match parse_hg(&request.hypergraph) {
            Ok(h) => Ok((request, h)),
            Err(e) => Err(error_response(ApiError::new(
                ErrorCode::InvalidHypergraph,
                format!("hypergraph does not parse: {e}"),
            ))),
        }
    }

    /// Maps a store-side write failure to its structured response.
    fn write_error(e: StoreError) -> Response {
        match e {
            StoreError::ReadOnly => error_response(ApiError::new(
                ErrorCode::ReadOnly,
                "repository is read-only (serve with --writable)",
            )),
            StoreError::NoSuchEntry { id } => {
                error_response(ApiError::not_found(format!("no hypergraph with id {id}")))
            }
            StoreError::DuplicateContent { id } => error_response(ApiError::new(
                ErrorCode::Conflict,
                format!("identical hypergraph already stored under entry {id}"),
            )),
            // The supervisor retries recovery every 200 ms, so "soon"
            // is the honest hint: reads keep working, writes should
            // back off briefly and come back.
            StoreError::Degraded(reason) => error_response(ApiError::new(
                ErrorCode::Degraded,
                format!("store is degraded after a WAL failure ({reason}); writes refused while it recovers"),
            ))
            .with_retry_after(1),
            e => storage_error(e),
        }
    }

    /// `POST /v1/hypergraphs` — store a new instance. Idempotent by
    /// content hash: a duplicate of a live entry answers `200 exists`
    /// with the original id, a fresh document commits and answers
    /// `201 created` with its WAL seq.
    pub fn post_hypergraphs(state: &ServerState, req: &Request) -> Response {
        let (request, h) = match parse_write_request(req) {
            Ok(v) => v,
            Err(resp) => return resp,
        };
        let hash = content_hash_of(&h);
        match state.store.insert(h, request.collection, request.class) {
            Ok(Inserted::Created { id, seq }) => {
                let receipt = WriteReceipt {
                    id,
                    outcome: WriteOutcome::Created,
                    seq: Some(seq),
                    content_hash: Some(hash),
                };
                Response::json(201, receipt.to_json())
            }
            Ok(Inserted::Existing { id }) => {
                let receipt = WriteReceipt {
                    id,
                    outcome: WriteOutcome::Exists,
                    seq: None,
                    content_hash: Some(hash),
                };
                Response::json(200, receipt.to_json())
            }
            Err(e) => write_error(e),
        }
    }

    /// `PUT /v1/hypergraphs/{id}` — replace an entry wholesale.
    /// Duplicating another live entry's content is a `409 conflict`;
    /// analyses cached for the old content are evicted.
    pub fn put_hypergraph(state: &ServerState, req: &Request, params: &Params) -> Response {
        let id = match parse_entry_id(params) {
            Ok(id) => id,
            Err(e) => return error_response(e),
        };
        let (request, h) = match parse_write_request(req) {
            Ok(v) => v,
            Err(resp) => return resp,
        };
        let hash = content_hash_of(&h);
        match state
            .store
            .replace(id, h, request.collection, request.class)
        {
            Ok(committed) => {
                // The displaced hash comes out of the serialized
                // commit, so concurrent writes to the same id each
                // evict exactly the content they overwrote — a
                // pre-write snapshot read could miss an intermediate
                // hash.
                if let Some(old) = committed.displaced_hash.filter(|&o| o != hash) {
                    state.cache.evict_content(old);
                }
                let receipt = WriteReceipt {
                    id,
                    outcome: WriteOutcome::Replaced,
                    seq: Some(committed.seq),
                    content_hash: Some(hash),
                };
                Response::json(200, receipt.to_json())
            }
            Err(e) => write_error(e),
        }
    }

    /// `DELETE /v1/hypergraphs/{id}` — remove an entry; analyses cached
    /// for its content are evicted.
    pub fn delete_hypergraph(state: &ServerState, params: &Params) -> Response {
        let id = match parse_entry_id(params) {
            Ok(id) => id,
            Err(e) => return error_response(e),
        };
        match state.store.remove(id) {
            Ok(committed) => {
                if let Some(old) = committed.displaced_hash {
                    state.cache.evict_content(old);
                }
                let receipt = WriteReceipt {
                    id,
                    outcome: WriteOutcome::Removed,
                    seq: Some(committed.seq),
                    content_hash: None,
                };
                Response::json(200, receipt.to_json())
            }
            Err(e) => write_error(e),
        }
    }

    /// `POST /v1/analyses` — submit a typed [`AnalyzeRequest`]. Answers
    /// an [`AnalysisResource`]: `200 done` on a cache hit, `202 queued`
    /// otherwise, `400 failed` (with a pollable id) on an unparsable
    /// document.
    pub fn post_analyses(state: &ServerState, req: &Request) -> Response {
        let parsed = match json_body(req, "an AnalyzeRequest") {
            Ok(j) => j,
            Err(resp) => return resp,
        };
        let request = match AnalyzeRequest::from_json(&parsed) {
            Ok(r) => r,
            Err(e) => return error_response(ApiError::invalid_param(e.to_string())),
        };
        // Degenerate overrides are rejected, not silently repaired…
        if request.max_width == Some(0) {
            return error_response(ApiError::invalid_param("max_width must be at least 1"));
        }
        if request.timeout_ms == Some(0) {
            return error_response(ApiError::invalid_param("timeout_ms must be at least 1"));
        }
        if request.jobs == Some(0) {
            return error_response(ApiError::invalid_param("jobs must be at least 1"));
        }
        // …while valid overrides are clamped to the configured budgets —
        // a client cannot buy more server time (or more cores) than the
        // operator allowed. The per-job ceiling is the operator's
        // `--jobs` resolved to a concrete worker count.
        let jobs_ceiling = hyperbench_decomp::Options::with_jobs(state.analysis.jobs)
            .effective_jobs()
            .max(1);
        let options = AnalyzeOptions {
            method: request.method,
            k_max: request
                .max_width
                .map_or(state.analysis.k_max, |w| w.min(state.analysis.k_max)),
            per_check: request.timeout_ms.map_or(state.analysis.per_check, |ms| {
                Duration::from_millis(ms).min(state.analysis.per_check)
            }),
            jobs: request
                .jobs
                .map_or(jobs_ceiling, |j| j.clamp(1, jobs_ceiling)),
        };
        let deadline = req.deadline().map(|d| Instant::now() + d);
        match submit_analysis(state, &request.hypergraph, options, req.trace_id, deadline) {
            Err(message) => {
                let id = state.jobs.submit_failed(message.clone());
                let resource = AnalysisResource {
                    id,
                    status: AnalysisStatus::Failed,
                    method: Some(request.method),
                    cached: None,
                    result: None,
                    decomposition: None,
                    error: Some(message),
                };
                Response::json(400, resource.to_json())
            }
            Ok(Err(e)) => submit_error(e),
            Ok(Ok(id)) => match state.jobs.status(id) {
                Some(status @ JobStatus::Done { .. }) => {
                    Response::json(200, resource_of(id, &status).to_json())
                }
                Some(status) => Response::json(202, resource_of(id, &status).to_json()),
                None => error_response(ApiError::new(ErrorCode::Internal, "job vanished")),
            },
        }
    }

    /// `GET /v1/analyses/{id}` — poll an analysis; a `done` answer
    /// carries the report and the witness decomposition tree.
    pub fn get_analysis(state: &ServerState, params: &Params) -> Response {
        let id = match params.get("id").unwrap_or_default().parse::<u64>() {
            Ok(id) => id,
            Err(_) => {
                return error_response(ApiError::invalid_param(
                    "analysis id must be a non-negative integer",
                ))
            }
        };
        match state.jobs.status(id) {
            Some(status) => Response::json(200, resource_of(id, &status).to_json()),
            None => error_response(ApiError::not_found(format!("no analysis with id {id}"))),
        }
    }
}
