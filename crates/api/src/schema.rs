//! The single constant table for field names: every key of a `/v1`
//! payload.
//!
//! The DTO field tables in [`crate::dto`] name their keys only through
//! these constants, so a literal key cannot enter the wire, and handler
//! code and the client decode from one vocabulary.

/// Entry id.
pub const ID: &str = "id";
/// Name of an edge or of a histogram.
pub const NAME: &str = "name";
/// Collection name, e.g. `TPC-H`.
pub const COLLECTION: &str = "collection";
/// Benchmark class, e.g. `CSP Random`.
pub const CLASS: &str = "class";
/// Vertex count.
pub const VERTICES: &str = "vertices";
/// Edge count.
pub const EDGES: &str = "edges";
/// Maximum edge size.
pub const ARITY: &str = "arity";
/// Degree (Table 2).
pub const DEGREE: &str = "degree";
/// Intersection size (BIP).
pub const BIP: &str = "bip";
/// 3-multi-intersection size.
pub const BMIP3: &str = "bmip3";
/// 4-multi-intersection size.
pub const BMIP4: &str = "bmip4";
/// VC dimension (absent on timeout).
pub const VC_DIM: &str = "vc_dim";
/// Smallest k with a yes-answer from `Check(HD,k)`.
pub const HW_UPPER: &str = "hw_upper";
/// 1 + largest certified no-answer.
pub const HW_LOWER: &str = "hw_lower";
/// Whether an entry has an analysis record attached.
pub const ANALYZED: &str = "analyzed";
/// Exact hw, when the bounds meet.
pub const HW_EXACT: &str = "hw_exact";
/// Whether the instance is known cyclic (hw ≥ 2).
pub const CYCLIC: &str = "cyclic";
/// Whether the hw search hit a timeout (wire spelling).
pub const HW_TIMED_OUT: &str = "hw_timed_out";
/// Nested size-metrics object.
pub const SIZES: &str = "sizes";
/// Nested structural-properties object.
pub const PROPERTIES: &str = "properties";
/// Edge list of a full entry payload.
pub const EDGE_LIST: &str = "edge_list";
/// Page payload: items array.
pub const ITEMS: &str = "items";
/// Page payload: total match count.
pub const TOTAL: &str = "total";
/// Page payload: opaque cursor for the next page (`null` when done).
pub const NEXT_CURSOR: &str = "next_cursor";
/// Analysis resource: lifecycle status.
pub const STATUS: &str = "status";
/// Analysis resource: requested method (`hd`/`ghd`/`fhd`).
pub const METHOD: &str = "method";
/// Analysis resource: whether the result came from the cache.
pub const CACHED: &str = "cached";
/// Analyze request: worker threads per decomposition search
/// (server-clamped; width bounds are identical at any worker count).
pub const JOBS: &str = "jobs";
/// Analysis resource: the analysis report.
pub const RESULT: &str = "result";
/// Analysis resource: the witness decomposition tree.
pub const DECOMPOSITION: &str = "decomposition";
/// Write receipts: what the write did (`created`/`exists`/`replaced`/
/// `removed`).
pub const OUTCOME: &str = "outcome";
/// Write receipts: commit sequence number (`null` on idempotent hits).
pub const SEQ: &str = "seq";
/// Write receipts: canonical content hash of the stored hypergraph
/// (hex, 16 digits).
pub const CONTENT_HASH: &str = "content_hash";
/// Analyze and write requests: the `.hg` document.
pub const HYPERGRAPH: &str = "hypergraph";
/// Analyze request: largest width tried (`k_max`).
pub const MAX_WIDTH: &str = "max_width";
/// Analyze request: per-`Check` timeout budget in milliseconds.
pub const TIMEOUT_MS: &str = "timeout_ms";
/// Entry detail: the analysis report (`null` when not computed).
pub const ANALYSIS: &str = "analysis";
/// Decomposition: the width `max |λ_u|`.
pub const WIDTH: &str = "width";
/// Decomposition: the server's validation verdict.
pub const VALIDATION: &str = "validation";
/// Decomposition: fractional width upper bound (`fhd` only).
pub const FRACTIONAL_WIDTH: &str = "fractional_width";
/// Decomposition: the tree nodes, root first.
pub const NODES: &str = "nodes";
/// Decomposition node: parent node id (`null` for the root).
pub const PARENT: &str = "parent";
/// Decomposition node: bag vertex names.
pub const BAG: &str = "bag";
/// Decomposition node: the λ-label's cover atoms.
pub const COVER: &str = "cover";
/// Cover atom: the (parent) edge name.
pub const EDGE: &str = "edge";
/// Error payloads: stable machine-readable code.
pub const CODE: &str = "code";
/// Error payloads: human-readable message (legacy-compatible key).
pub const ERROR: &str = "error";
/// Error payloads: the request's trace id (present inside a traced
/// request), grep-able across router and shard logs.
pub const REQUEST_ID: &str = "request_id";

// Router (front tier) field names: topology reports and the
// partial-result marker of scatter-gather responses.

/// Scatter-gather pages: indexes of shards missing from the merge
/// (present only when the client sent `x-hyperbench-allow-partial`).
pub const PARTIAL: &str = "partial";
/// Topology payload: the shards array.
pub const SHARDS: &str = "shards";
/// Topology payload: a shard's index in the map.
pub const SHARD: &str = "shard";
/// Topology payload: whether the shard is draining (or drained).
pub const DRAINING: &str = "draining";
/// Topology payload: a shard's upstreams array.
pub const UPSTREAMS: &str = "upstreams";
/// Topology upstream: the `host:port` address.
pub const ADDR: &str = "addr";
/// Topology upstream: `primary` or `replica`.
pub const ROLE: &str = "role";
/// Topology upstream: breaker state (`closed`/`open`/`half_open`).
pub const BREAKER: &str = "breaker";
/// Topology upstream: last active health probe verdict.
pub const HEALTHY: &str = "healthy";
/// Topology upstream: requests currently proxied to it.
pub const IN_FLIGHT: &str = "in_flight";
/// Topology upstream: consecutive failures feeding the breaker.
pub const CONSECUTIVE_FAILURES: &str = "consecutive_failures";

// `POST /v1/query` field names (the HBQL surface).

/// Query request: the HBQL text. Also the `query` stats section.
pub const QUERY: &str = "query";
/// Query request: continuation cursor from a previous rows page.
pub const CURSOR: &str = "cursor";
/// Query response: payload shape discriminator (`rows` / `groups`).
pub const KIND: &str = "kind";
/// Query response: the `GROUP BY` field (`null` for the global group).
pub const GROUP_BY: &str = "group_by";
/// Query response: the aggregate groups array.
pub const GROUPS: &str = "groups";
/// `invalid_query` payloads: byte-offset range of the offending text.
pub const SPAN: &str = "span";
/// Span object: first byte offset.
pub const START: &str = "start";
/// Span object: one past the last byte offset.
pub const END: &str = "end";

// `/v1/stats` field names (the telemetry section of the stats payload).

/// Stats payload: the repository aggregates section.
pub const REPOSITORY: &str = "repository";
/// Stats payload: the analysis-cache counters section.
pub const CACHE: &str = "cache";
/// Stats payload: the job-system counters section.
pub const JOBS_SECTION: &str = "jobs";
/// Repository section: total entries.
pub const ENTRIES: &str = "entries";
/// Repository section: analyzed entries whose hw search timed out.
pub const HW_TIMEOUTS: &str = "hw_timeouts";
/// Repository section: sum of vertex counts.
pub const TOTAL_VERTICES: &str = "total_vertices";
/// Repository section: sum of edge counts.
pub const TOTAL_EDGES: &str = "total_edges";
/// Repository section: largest edge size over all entries.
pub const MAX_ARITY: &str = "max_arity";
/// Repository section: entry counts per class (`name` → count).
pub const BY_CLASS: &str = "by_class";
/// Repository section: entry counts per collection (`name` → count).
pub const BY_COLLECTION: &str = "by_collection";
/// Cache section: lookups answered from memory.
pub const HITS: &str = "hits";
/// Cache section: lookups that missed.
pub const MISSES: &str = "misses";
/// Cache section: entries resident.
pub const LEN: &str = "len";
/// Cache section: configured capacity.
pub const CAPACITY: &str = "capacity";
/// Cache section: entries evicted by the capacity bound.
pub const EVICTIONS: &str = "evictions";
/// Cache section: results appended to the warm-restart spill.
pub const SPILL_APPENDS: &str = "spill_appends";
/// Cache section: spill appends that failed.
pub const SPILL_APPEND_FAILURES: &str = "spill_append_failures";
/// Jobs section: jobs ever submitted.
pub const SUBMITTED: &str = "submitted";
/// Jobs section: jobs queued.
pub const QUEUED: &str = "queued";
/// Jobs section: jobs running.
pub const RUNNING: &str = "running";
/// Jobs section: jobs finished.
pub const DONE: &str = "done";
/// Jobs section: jobs failed.
pub const FAILED: &str = "failed";
/// Jobs section: submissions deduplicated onto an in-flight job.
pub const DEDUPED: &str = "deduped";
/// Jobs section: jobs that started from recorded facts.
pub const FACTS_REUSED: &str = "facts_reused";
/// Query section: queries compiled.
pub const QUERIES: &str = "queries";
/// Query section: queries rejected.
pub const ERRORS: &str = "errors";
/// Query section: metadata rows visited.
pub const ROWS_SCANNED: &str = "rows_scanned";
/// Query section: rows whose evaluation hydrated the entry.
pub const ROWS_HYDRATED: &str = "rows_hydrated";
/// Stats payload: the process-wide telemetry section.
pub const TELEMETRY: &str = "telemetry";
/// Telemetry section: monotone counters (`name` → total).
pub const COUNTERS: &str = "counters";
/// Telemetry section: point-in-time gauges (`name` → level).
pub const GAUGES: &str = "gauges";
/// Telemetry section: latency histogram summaries.
pub const HISTOGRAMS: &str = "histograms";
/// Histogram summary: number of recorded observations.
pub const COUNT: &str = "count";
/// Histogram summary: sum of recorded values.
pub const SUM: &str = "sum";
/// Histogram summary: mean of recorded values (integer division).
pub const MEAN: &str = "mean";
/// Histogram summary: median upper bound (log₂ bucket boundary).
pub const P50: &str = "p50";
/// Histogram summary: 90th-percentile upper bound.
pub const P90: &str = "p90";
/// Histogram summary: 99th-percentile upper bound.
pub const P99: &str = "p99";
