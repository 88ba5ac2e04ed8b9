//! Typed request/response DTOs of the `/v1` contract.
//!
//! Each DTO owns its JSON encoding (`to_json`) and decoding
//! (`from_json`), so the server handlers and the native [`crate::client`]
//! share one schema instead of two hand-rolled ones. Field names come
//! from the single constant table in [`crate::schema`].

use hyperbench_core::properties::StructuralProperties;
use hyperbench_core::stats::SizeMetrics;
use hyperbench_core::{BitSet, Hypergraph};
use hyperbench_decomp::tree::{CoverAtom, Decomposition, NodeId};
use hyperbench_decomp::validate::{validate_ghd, validate_hd};

use crate::json::Json;
use crate::schema;

/// A DTO failed to decode from JSON (missing field, wrong type, unknown
/// enum value, or an unresolvable name).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "decode error: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

fn missing(field: &str) -> DecodeError {
    DecodeError(format!("missing or mistyped field {field:?}"))
}

fn req_int(j: &Json, field: &str) -> Result<i64, DecodeError> {
    j.get(field)
        .and_then(Json::as_int)
        .ok_or_else(|| missing(field))
}

fn req_usize(j: &Json, field: &str) -> Result<usize, DecodeError> {
    usize::try_from(req_int(j, field)?)
        .map_err(|_| DecodeError(format!("negative value for {field:?}")))
}

fn opt_usize(j: &Json, field: &str) -> Result<Option<usize>, DecodeError> {
    match j.get(field) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => {
            let n = v.as_int().ok_or_else(|| missing(field))?;
            usize::try_from(n)
                .map(Some)
                .map_err(|_| DecodeError(format!("negative value for {field:?}")))
        }
    }
}

fn req_str(j: &Json, field: &str) -> Result<String, DecodeError> {
    j.get(field)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| missing(field))
}

fn req_bool(j: &Json, field: &str) -> Result<bool, DecodeError> {
    j.get(field)
        .and_then(Json::as_bool)
        .ok_or_else(|| missing(field))
}

fn opt_int_json(v: Option<usize>) -> Json {
    v.map_or(Json::Null, Json::int)
}

/// Which analysis the `/v1/analyses` endpoint runs. Each method starts
/// from what earlier analyses of the same document proved and answers
/// what it would answer alone (see `hyperbench_repo::analyze_with_facts`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AnalyzeMethod {
    /// Hypertree decompositions — iterative `Check(HD,k)` (default):
    /// nothing runs when hw is already known, and the search starts at
    /// k = ghw when only ghw is.
    Hd,
    /// Generalized hypertree decompositions — the §6.4 three-way race
    /// per `k`: nothing runs when ghw is already known, and only the
    /// `k` below a known hw are raced (the stored HD pins ghw = hw when
    /// none answers yes).
    Ghd,
    /// Fractionally improved decompositions — an HD witness improved by
    /// `ImproveHD` (§6.5); reports a fractional width upper bound. A
    /// known hw's HD is improved without running any `Check`.
    Fhd,
}

impl AnalyzeMethod {
    /// The wire string (`hd`/`ghd`/`fhd`).
    pub fn as_str(&self) -> &'static str {
        match self {
            AnalyzeMethod::Hd => "hd",
            AnalyzeMethod::Ghd => "ghd",
            AnalyzeMethod::Fhd => "fhd",
        }
    }

    /// Parses a wire string.
    pub fn parse(s: &str) -> Option<AnalyzeMethod> {
        match s {
            "hd" => Some(AnalyzeMethod::Hd),
            "ghd" => Some(AnalyzeMethod::Ghd),
            "fhd" => Some(AnalyzeMethod::Fhd),
            _ => None,
        }
    }
}

/// `POST /v1/analyses` request body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalyzeRequest {
    /// The `.hg` document to analyze.
    pub hypergraph: String,
    /// Which decomposition notion to search.
    pub method: AnalyzeMethod,
    /// Largest width tried (`k_max`); `None` uses the server default,
    /// and the server clamps to its configured ceiling.
    pub max_width: Option<usize>,
    /// Per-`Check` timeout budget in milliseconds; `None` uses the
    /// server default, and the server clamps to its configured ceiling.
    pub timeout_ms: Option<u64>,
    /// Worker threads per decomposition search; `None` uses the server
    /// default, and the server clamps to its configured per-job
    /// parallelism ceiling. Parallel and serial analyses report the same
    /// width bounds (the engine's determinism guarantee), so this knob
    /// only trades server CPU for latency.
    pub jobs: Option<usize>,
}

impl AnalyzeRequest {
    /// A request for the default (hd) analysis of a document.
    pub fn hd(hypergraph: impl Into<String>) -> AnalyzeRequest {
        AnalyzeRequest {
            hypergraph: hypergraph.into(),
            method: AnalyzeMethod::Hd,
            max_width: None,
            timeout_ms: None,
            jobs: None,
        }
    }

    /// Same document, different method.
    pub fn with_method(mut self, method: AnalyzeMethod) -> AnalyzeRequest {
        self.method = method;
        self
    }

    /// Same request, explicit per-search worker count (server-clamped).
    pub fn with_jobs(mut self, jobs: usize) -> AnalyzeRequest {
        self.jobs = Some(jobs);
        self
    }

    /// Encodes to the wire shape.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("hypergraph".to_string(), Json::str(&self.hypergraph)),
            (schema::METHOD.to_string(), Json::str(self.method.as_str())),
        ];
        if let Some(w) = self.max_width {
            fields.push(("max_width".to_string(), Json::int(w)));
        }
        if let Some(t) = self.timeout_ms {
            fields.push(("timeout_ms".to_string(), Json::int(t)));
        }
        if let Some(j) = self.jobs {
            fields.push((schema::JOBS.to_string(), Json::int(j)));
        }
        Json::Obj(fields)
    }

    /// Decodes from the wire shape. `method` defaults to `hd` when
    /// absent; an unknown method is an error, not a default.
    pub fn from_json(j: &Json) -> Result<AnalyzeRequest, DecodeError> {
        let hypergraph = req_str(j, "hypergraph")?;
        let method = match j.get(schema::METHOD) {
            None | Some(Json::Null) => AnalyzeMethod::Hd,
            Some(v) => {
                let s = v.as_str().ok_or_else(|| missing(schema::METHOD))?;
                AnalyzeMethod::parse(s)
                    .ok_or_else(|| DecodeError(format!("unknown method {s:?} (hd|ghd|fhd)")))?
            }
        };
        let max_width = opt_usize(j, "max_width")?;
        let timeout_ms = match j.get("timeout_ms") {
            None | Some(Json::Null) => None,
            Some(v) => Some(
                v.as_int()
                    .and_then(|n| u64::try_from(n).ok())
                    .ok_or_else(|| missing("timeout_ms"))?,
            ),
        };
        let jobs = opt_usize(j, schema::JOBS)?;
        Ok(AnalyzeRequest {
            hypergraph,
            method,
            max_width,
            timeout_ms,
            jobs,
        })
    }
}

/// One row of a `/v1/hypergraphs` page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntrySummary {
    /// Stable repository id.
    pub id: usize,
    /// Collection name.
    pub collection: String,
    /// Benchmark class.
    pub class: String,
    /// Vertex count.
    pub vertices: usize,
    /// Edge count.
    pub edges: usize,
    /// Maximum edge size.
    pub arity: usize,
    /// Whether an analysis record is attached.
    pub analyzed: bool,
    /// hw upper bound (`None` when unanalyzed or unbounded).
    pub hw_upper: Option<usize>,
    /// hw lower bound (`None` when unanalyzed).
    pub hw_lower: Option<usize>,
}

impl EntrySummary {
    /// Encodes to the `/v1` shape: every field always present, absent
    /// bounds as `null`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (schema::ID, Json::int(self.id)),
            (schema::COLLECTION, Json::str(&self.collection)),
            (schema::CLASS, Json::str(&self.class)),
            (schema::VERTICES, Json::int(self.vertices)),
            (schema::EDGES, Json::int(self.edges)),
            (schema::ARITY, Json::int(self.arity)),
            (schema::ANALYZED, Json::Bool(self.analyzed)),
            (schema::HW_UPPER, opt_int_json(self.hw_upper)),
            (schema::HW_LOWER, opt_int_json(self.hw_lower)),
        ])
    }

    /// Decodes the `/v1` shape.
    pub fn from_json(j: &Json) -> Result<EntrySummary, DecodeError> {
        Ok(EntrySummary {
            id: req_usize(j, schema::ID)?,
            collection: req_str(j, schema::COLLECTION)?,
            class: req_str(j, schema::CLASS)?,
            vertices: req_usize(j, schema::VERTICES)?,
            edges: req_usize(j, schema::EDGES)?,
            arity: req_usize(j, schema::ARITY)?,
            analyzed: req_bool(j, schema::ANALYZED)?,
            hw_upper: opt_usize(j, schema::HW_UPPER)?,
            hw_lower: opt_usize(j, schema::HW_LOWER)?,
        })
    }
}

/// One page of entry summaries with an opaque continuation cursor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageDto {
    /// Total number of entries matching the filter (all pages).
    pub total: usize,
    /// The rows of this page, in ascending id order.
    pub items: Vec<EntrySummary>,
    /// Token for the next page; `None` when this page is the last.
    pub next_cursor: Option<String>,
    /// Shards missing from a scatter-gathered page (router responses
    /// only, and only when the client opted in with
    /// `x-hyperbench-allow-partial`). Empty means the page is complete;
    /// single-server responses never set it, and the field stays off
    /// the wire when empty.
    pub partial: Vec<usize>,
}

impl PageDto {
    /// A complete (non-partial) page.
    pub fn new(total: usize, items: Vec<EntrySummary>, next_cursor: Option<String>) -> PageDto {
        PageDto {
            total,
            items,
            next_cursor,
            partial: Vec::new(),
        }
    }

    /// Encodes to the wire shape.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            (schema::TOTAL.to_string(), Json::int(self.total)),
            (
                schema::ITEMS.to_string(),
                Json::Arr(self.items.iter().map(EntrySummary::to_json).collect()),
            ),
            (
                schema::NEXT_CURSOR.to_string(),
                self.next_cursor.as_deref().map_or(Json::Null, Json::str),
            ),
        ];
        if !self.partial.is_empty() {
            fields.push((
                schema::PARTIAL.to_string(),
                Json::Arr(self.partial.iter().copied().map(Json::int).collect()),
            ));
        }
        Json::Obj(fields)
    }

    /// Decodes the wire shape.
    pub fn from_json(j: &Json) -> Result<PageDto, DecodeError> {
        let items = j
            .get(schema::ITEMS)
            .and_then(Json::as_arr)
            .ok_or_else(|| missing(schema::ITEMS))?
            .iter()
            .map(EntrySummary::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let next_cursor = match j.get(schema::NEXT_CURSOR) {
            None | Some(Json::Null) => None,
            Some(v) => Some(
                v.as_str()
                    .ok_or_else(|| missing(schema::NEXT_CURSOR))?
                    .to_string(),
            ),
        };
        let partial = match j.get(schema::PARTIAL) {
            None | Some(Json::Null) => Vec::new(),
            Some(v) => v
                .as_arr()
                .ok_or_else(|| missing(schema::PARTIAL))?
                .iter()
                .map(|s| {
                    s.as_int()
                        .and_then(|n| usize::try_from(n).ok())
                        .ok_or_else(|| missing(schema::PARTIAL))
                })
                .collect::<Result<Vec<_>, _>>()?,
        };
        Ok(PageDto {
            total: req_usize(j, schema::TOTAL)?,
            items,
            next_cursor,
            partial,
        })
    }
}

/// `POST /v1/query` request body: one HBQL query, plus an optional
/// continuation cursor from a previous rows page of the same query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryRequest {
    /// The HBQL text, e.g. `SELECT * WHERE hw_upper <= 5 LIMIT 20`.
    pub query: String,
    /// Opaque cursor from a previous [`QueryResponse::Rows`] page.
    pub cursor: Option<String>,
}

impl QueryRequest {
    /// A request for the first page of `query`.
    pub fn new(query: impl Into<String>) -> QueryRequest {
        QueryRequest {
            query: query.into(),
            cursor: None,
        }
    }

    /// Encodes to the wire shape.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![(schema::QUERY.to_string(), Json::str(&self.query))];
        if let Some(cursor) = &self.cursor {
            fields.push((schema::CURSOR.to_string(), Json::str(cursor)));
        }
        Json::Obj(fields)
    }

    /// Decodes the wire shape.
    pub fn from_json(j: &Json) -> Result<QueryRequest, DecodeError> {
        let cursor = match j.get(schema::CURSOR) {
            None | Some(Json::Null) => None,
            Some(v) => Some(
                v.as_str()
                    .ok_or_else(|| missing(schema::CURSOR))?
                    .to_string(),
            ),
        };
        Ok(QueryRequest {
            query: req_str(j, schema::QUERY)?,
            cursor,
        })
    }
}

/// `POST /v1/query` response: rows for `SELECT *` queries, groups for
/// aggregate queries. The wire shape carries a `kind` discriminator.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResponse {
    /// A rows page — same page contract as `GET /v1/hypergraphs`.
    Rows(PageDto),
    /// Aggregate groups, in ascending key order.
    Groups {
        /// The `GROUP BY` field name, or `None` for the global group.
        group_by: Option<String>,
        /// One object per group, fields in select-list order.
        groups: Vec<Json>,
    },
}

impl QueryResponse {
    /// Encodes to the wire shape.
    pub fn to_json(&self) -> Json {
        match self {
            QueryResponse::Rows(page) => {
                let mut fields = vec![(schema::KIND.to_string(), Json::str("rows"))];
                if let Json::Obj(page_fields) = page.to_json() {
                    fields.extend(page_fields);
                }
                Json::Obj(fields)
            }
            QueryResponse::Groups { group_by, groups } => Json::obj([
                (schema::KIND, Json::str("groups")),
                (
                    schema::GROUP_BY,
                    group_by.as_deref().map_or(Json::Null, Json::str),
                ),
                (schema::TOTAL, Json::int(groups.len())),
                (schema::GROUPS, Json::Arr(groups.clone())),
            ]),
        }
    }

    /// Decodes the wire shape by its `kind` discriminator.
    pub fn from_json(j: &Json) -> Result<QueryResponse, DecodeError> {
        match j.get(schema::KIND).and_then(Json::as_str) {
            Some("rows") => Ok(QueryResponse::Rows(PageDto::from_json(j)?)),
            Some("groups") => {
                let group_by = match j.get(schema::GROUP_BY) {
                    None | Some(Json::Null) => None,
                    Some(v) => Some(
                        v.as_str()
                            .ok_or_else(|| missing(schema::GROUP_BY))?
                            .to_string(),
                    ),
                };
                let groups = j
                    .get(schema::GROUPS)
                    .and_then(Json::as_arr)
                    .ok_or_else(|| missing(schema::GROUPS))?
                    .to_vec();
                Ok(QueryResponse::Groups { group_by, groups })
            }
            _ => Err(missing(schema::KIND)),
        }
    }
}

/// `POST /v1/hypergraphs` and `PUT /v1/hypergraphs/{id}` request body:
/// an `.hg` document plus its provenance labels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteRequest {
    /// The `.hg` document to store.
    pub hypergraph: String,
    /// Collection label (defaults to `"uploads"` when absent).
    pub collection: String,
    /// Class label (defaults to `"Uploaded"` when absent).
    pub class: String,
}

/// Default collection label for uploaded hypergraphs.
pub const DEFAULT_WRITE_COLLECTION: &str = "uploads";
/// Default class label for uploaded hypergraphs.
pub const DEFAULT_WRITE_CLASS: &str = "Uploaded";

impl WriteRequest {
    /// A request with the default provenance labels.
    pub fn new(hypergraph: impl Into<String>) -> WriteRequest {
        WriteRequest {
            hypergraph: hypergraph.into(),
            collection: DEFAULT_WRITE_COLLECTION.to_string(),
            class: DEFAULT_WRITE_CLASS.to_string(),
        }
    }

    /// Same document, explicit provenance.
    pub fn labeled(
        hypergraph: impl Into<String>,
        collection: impl Into<String>,
        class: impl Into<String>,
    ) -> WriteRequest {
        WriteRequest {
            hypergraph: hypergraph.into(),
            collection: collection.into(),
            class: class.into(),
        }
    }

    /// Encodes to the wire shape.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("hypergraph", Json::str(&self.hypergraph)),
            (schema::COLLECTION, Json::str(&self.collection)),
            (schema::CLASS, Json::str(&self.class)),
        ])
    }

    /// Decodes the wire shape; absent labels take the defaults.
    pub fn from_json(j: &Json) -> Result<WriteRequest, DecodeError> {
        let hypergraph = req_str(j, "hypergraph")?;
        let label = |field: &str, default: &str| -> Result<String, DecodeError> {
            match j.get(field) {
                None | Some(Json::Null) => Ok(default.to_string()),
                Some(v) => v.as_str().map(str::to_string).ok_or_else(|| missing(field)),
            }
        };
        Ok(WriteRequest {
            hypergraph,
            collection: label(schema::COLLECTION, DEFAULT_WRITE_COLLECTION)?,
            class: label(schema::CLASS, DEFAULT_WRITE_CLASS)?,
        })
    }
}

/// What a write actually did — the wire form of the server's commit
/// decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteOutcome {
    /// A new entry was committed (`POST` → 201).
    Created,
    /// An identical hypergraph already existed; nothing was written
    /// (`POST` idempotent hit → 200).
    Exists,
    /// The addressed entry was replaced (`PUT` → 200).
    Replaced,
    /// The addressed entry was removed (`DELETE` → 200).
    Removed,
}

impl WriteOutcome {
    /// The stable wire string.
    pub fn as_str(&self) -> &'static str {
        match self {
            WriteOutcome::Created => "created",
            WriteOutcome::Exists => "exists",
            WriteOutcome::Replaced => "replaced",
            WriteOutcome::Removed => "removed",
        }
    }

    /// Parses a wire string.
    pub fn parse(s: &str) -> Option<WriteOutcome> {
        Some(match s {
            "created" => WriteOutcome::Created,
            "exists" => WriteOutcome::Exists,
            "replaced" => WriteOutcome::Replaced,
            "removed" => WriteOutcome::Removed,
            _ => return None,
        })
    }

    /// The HTTP status a successful write with this outcome answers.
    pub fn http_status(&self) -> u16 {
        match self {
            WriteOutcome::Created => 201,
            WriteOutcome::Exists | WriteOutcome::Replaced | WriteOutcome::Removed => 200,
        }
    }
}

/// Response body of every successful `/v1/hypergraphs` write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteReceipt {
    /// The entry the write addressed (for `Created`/`Exists`, the id to
    /// read it back under).
    pub id: usize,
    /// What the write did.
    pub outcome: WriteOutcome,
    /// The commit sequence number, when a record was durably appended
    /// (`None` on an idempotent `Exists` hit — nothing was written).
    pub seq: Option<u64>,
    /// Canonical content hash of the stored hypergraph (hex), when one
    /// is live after the write (`None` after `Removed`). Clients use it
    /// to verify durability across restarts.
    pub content_hash: Option<u64>,
}

impl WriteReceipt {
    /// Encodes to the wire shape.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (schema::ID, Json::int(self.id)),
            (schema::OUTCOME, Json::str(self.outcome.as_str())),
            (
                schema::SEQ,
                self.seq.map_or(Json::Null, |s| Json::int(s as usize)),
            ),
            (
                schema::CONTENT_HASH,
                self.content_hash
                    .map_or(Json::Null, |h| Json::str(format!("{h:016x}"))),
            ),
        ])
    }

    /// Decodes the wire shape.
    pub fn from_json(j: &Json) -> Result<WriteReceipt, DecodeError> {
        let outcome = j
            .get(schema::OUTCOME)
            .and_then(Json::as_str)
            .and_then(WriteOutcome::parse)
            .ok_or_else(|| missing(schema::OUTCOME))?;
        let seq = match j.get(schema::SEQ) {
            None | Some(Json::Null) => None,
            Some(v) => Some(
                v.as_int()
                    .and_then(|n| u64::try_from(n).ok())
                    .ok_or_else(|| missing(schema::SEQ))?,
            ),
        };
        let content_hash = match j.get(schema::CONTENT_HASH) {
            None | Some(Json::Null) => None,
            Some(v) => Some(
                v.as_str()
                    .and_then(|s| u64::from_str_radix(s, 16).ok())
                    .ok_or_else(|| missing(schema::CONTENT_HASH))?,
            ),
        };
        Ok(WriteReceipt {
            id: req_usize(j, schema::ID)?,
            outcome,
            seq,
            content_hash,
        })
    }
}

/// One named edge of a full entry payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeDto {
    /// Edge name.
    pub name: String,
    /// Vertex names, in edge order.
    pub vertices: Vec<String>,
}

/// `GET /v1/hypergraphs/{id}` response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntryDetail {
    /// The summary row.
    pub summary: EntrySummary,
    /// The full edge list.
    pub edge_list: Vec<EdgeDto>,
    /// The analysis report, when computed.
    pub analysis: Option<AnalysisReport>,
}

impl EntryDetail {
    /// Encodes to the wire shape: the summary fields inline plus
    /// `edge_list` and `analysis`.
    pub fn to_json(&self) -> Json {
        let Json::Obj(mut fields) = self.summary.to_json() else {
            unreachable!("summary encodes to an object")
        };
        fields.push((
            schema::EDGE_LIST.to_string(),
            Json::Arr(
                self.edge_list
                    .iter()
                    .map(|e| {
                        Json::obj([
                            (schema::NAME, Json::str(&e.name)),
                            (
                                schema::VERTICES,
                                Json::Arr(e.vertices.iter().map(Json::str).collect()),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ));
        fields.push((
            "analysis".to_string(),
            self.analysis
                .as_ref()
                .map_or(Json::Null, AnalysisReport::to_json),
        ));
        Json::Obj(fields)
    }

    /// Decodes the wire shape.
    pub fn from_json(j: &Json) -> Result<EntryDetail, DecodeError> {
        let summary = EntrySummary::from_json(j)?;
        let edge_list = j
            .get(schema::EDGE_LIST)
            .and_then(Json::as_arr)
            .ok_or_else(|| missing(schema::EDGE_LIST))?
            .iter()
            .map(|e| {
                Ok(EdgeDto {
                    name: req_str(e, schema::NAME)?,
                    vertices: e
                        .get(schema::VERTICES)
                        .and_then(Json::as_arr)
                        .ok_or_else(|| missing(schema::VERTICES))?
                        .iter()
                        .map(|v| {
                            v.as_str()
                                .map(str::to_string)
                                .ok_or_else(|| missing(schema::VERTICES))
                        })
                        .collect::<Result<Vec<_>, _>>()?,
                })
            })
            .collect::<Result<Vec<_>, DecodeError>>()?;
        let analysis = match j.get("analysis") {
            None | Some(Json::Null) => None,
            Some(a) => Some(AnalysisReport::from_json(a)?),
        };
        Ok(EntryDetail {
            summary,
            edge_list,
            analysis,
        })
    }
}

/// The analysis report of one hypergraph: sizes, Table-2 structural
/// properties, and width bounds.
///
/// The `hw_*` fields are **method-relative**: they bound the width of
/// whatever decomposition notion the producing analysis searched. For
/// repository records and `method=hd`/`fhd` analyses that is hypertree
/// width; for `method=ghd` analyses the same fields carry *generalized*
/// hypertree width bounds (hw and ghw can differ). Check the carrying
/// resource's `method` field before treating them as hw.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisReport {
    /// Size metrics.
    pub sizes: SizeMetrics,
    /// Structural properties (`vc_dim = None` means timeout).
    pub properties: StructuralProperties,
    /// hw upper bound.
    pub hw_upper: Option<usize>,
    /// hw lower bound.
    pub hw_lower: usize,
    /// Exact hw when the bounds meet.
    pub hw_exact: Option<usize>,
    /// Whether the instance is known cyclic.
    pub cyclic: bool,
    /// Whether the width search hit a timeout.
    pub hw_timed_out: bool,
}

impl AnalysisReport {
    /// Encodes to the wire shape.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                schema::SIZES,
                Json::obj([
                    (schema::VERTICES, Json::int(self.sizes.vertices)),
                    (schema::EDGES, Json::int(self.sizes.edges)),
                    (schema::ARITY, Json::int(self.sizes.arity)),
                ]),
            ),
            (
                schema::PROPERTIES,
                Json::obj([
                    (schema::DEGREE, Json::int(self.properties.degree)),
                    (schema::BIP, Json::int(self.properties.bip)),
                    (schema::BMIP3, Json::int(self.properties.bmip3)),
                    (schema::BMIP4, Json::int(self.properties.bmip4)),
                    (schema::VC_DIM, opt_int_json(self.properties.vc_dim)),
                ]),
            ),
            (schema::HW_UPPER, opt_int_json(self.hw_upper)),
            (schema::HW_LOWER, Json::int(self.hw_lower)),
            (schema::HW_EXACT, opt_int_json(self.hw_exact)),
            (schema::CYCLIC, Json::Bool(self.cyclic)),
            (schema::HW_TIMED_OUT, Json::Bool(self.hw_timed_out)),
        ])
    }

    /// Decodes the wire shape.
    pub fn from_json(j: &Json) -> Result<AnalysisReport, DecodeError> {
        let sizes = j.get(schema::SIZES).ok_or_else(|| missing(schema::SIZES))?;
        let props = j
            .get(schema::PROPERTIES)
            .ok_or_else(|| missing(schema::PROPERTIES))?;
        Ok(AnalysisReport {
            sizes: SizeMetrics {
                vertices: req_usize(sizes, schema::VERTICES)?,
                edges: req_usize(sizes, schema::EDGES)?,
                arity: req_usize(sizes, schema::ARITY)?,
            },
            properties: StructuralProperties {
                degree: req_usize(props, schema::DEGREE)?,
                bip: req_usize(props, schema::BIP)?,
                bmip3: req_usize(props, schema::BMIP3)?,
                bmip4: req_usize(props, schema::BMIP4)?,
                vc_dim: opt_usize(props, schema::VC_DIM)?,
            },
            hw_upper: opt_usize(j, schema::HW_UPPER)?,
            hw_lower: req_usize(j, schema::HW_LOWER)?,
            hw_exact: opt_usize(j, schema::HW_EXACT)?,
            cyclic: req_bool(j, schema::CYCLIC)?,
            hw_timed_out: req_bool(j, schema::HW_TIMED_OUT)?,
        })
    }
}

/// One cover atom of a decomposition node: a full edge, or a subedge of
/// it (`vertices` present).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverAtomDto {
    /// The (parent) edge name.
    pub edge: String,
    /// `Some(vs)` for a subedge `vs ⊆ edge`; `None` for the full edge.
    pub vertices: Option<Vec<String>>,
}

/// One node of a serialized decomposition tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecompNodeDto {
    /// Node id (dense preorder; the root is 0 and parents precede
    /// children).
    pub id: usize,
    /// Parent node id; `None` for the root.
    pub parent: Option<usize>,
    /// Bag vertex names, sorted by vertex id.
    pub bag: Vec<String>,
    /// The λ-label.
    pub cover: Vec<CoverAtomDto>,
}

/// A serialized witness decomposition: the tree from
/// `hyperbench_decomp::tree` with names resolved, plus the validation
/// verdict the server computed by re-checking the §3.2 conditions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecompositionDto {
    /// Which notion the witness certifies.
    pub method: AnalyzeMethod,
    /// The width `max |λ_u|`.
    pub width: usize,
    /// Server-side validation verdict: `"valid-hd"`, `"valid-ghd"`, or
    /// `"invalid: …"`.
    pub validation: String,
    /// Fractional width upper bound (exact rational as a string, e.g.
    /// `"3/2"`); only set for `fhd`.
    pub fractional_width: Option<String>,
    /// The tree nodes, root first.
    pub nodes: Vec<DecompNodeDto>,
}

impl DecompositionDto {
    /// Serializes a witness tree, resolving names against `h` and
    /// re-validating the §3.2 conditions (HD conditions for `hd`, GHD
    /// conditions otherwise).
    pub fn from_tree(
        h: &Hypergraph,
        d: &Decomposition,
        method: AnalyzeMethod,
        fractional_width: Option<String>,
    ) -> DecompositionDto {
        // Re-number in preorder so parents always precede children in
        // the wire form, whatever internal order the algorithm produced.
        let order = d.preorder();
        let mut wire_id = vec![usize::MAX; d.len()];
        for (new, &old) in order.iter().enumerate() {
            wire_id[old] = new;
        }
        let nodes = order
            .iter()
            .map(|&old| {
                let n = d.node(old);
                DecompNodeDto {
                    id: wire_id[old],
                    parent: n.parent.map(|p| wire_id[p]),
                    bag: n.bag.iter().map(|v| h.vertex_name(v).to_string()).collect(),
                    cover: n
                        .cover
                        .iter()
                        .map(|a| match a {
                            CoverAtom::Edge(e) => CoverAtomDto {
                                edge: h.edge_name(*e).to_string(),
                                vertices: None,
                            },
                            CoverAtom::Subedge { parent, vertices } => CoverAtomDto {
                                edge: h.edge_name(*parent).to_string(),
                                vertices: Some(
                                    vertices
                                        .iter()
                                        .map(|v| h.vertex_name(v).to_string())
                                        .collect(),
                                ),
                            },
                        })
                        .collect(),
                }
            })
            .collect();
        let validation = match method {
            AnalyzeMethod::Hd => match validate_hd(h, d) {
                Ok(()) => "valid-hd".to_string(),
                Err(e) => format!("invalid: {e}"),
            },
            AnalyzeMethod::Ghd | AnalyzeMethod::Fhd => match validate_ghd(h, d) {
                Ok(()) => "valid-ghd".to_string(),
                Err(e) => format!("invalid: {e}"),
            },
        };
        DecompositionDto {
            method,
            width: d.width(),
            validation,
            fractional_width,
            nodes,
        }
    }

    /// Reconstructs a [`Decomposition`] over `h` from the wire form, so
    /// clients can re-run `hyperbench_decomp::validate` themselves
    /// instead of trusting the server's verdict.
    pub fn to_decomposition(&self, h: &Hypergraph) -> Result<Decomposition, DecodeError> {
        let vertex = |name: &str| {
            h.vertex_by_name(name)
                .ok_or_else(|| DecodeError(format!("unknown vertex {name:?}")))
        };
        let edge = |name: &str| {
            h.edge_by_name(name)
                .ok_or_else(|| DecodeError(format!("unknown edge {name:?}")))
        };
        let build_bag = |names: &[String]| -> Result<BitSet, DecodeError> {
            let mut bag = BitSet::with_capacity(h.num_vertices());
            for n in names {
                bag.insert(vertex(n)?);
            }
            Ok(bag)
        };
        let build_cover = |atoms: &[CoverAtomDto]| -> Result<Vec<CoverAtom>, DecodeError> {
            atoms
                .iter()
                .map(|a| {
                    let e = edge(&a.edge)?;
                    Ok(match &a.vertices {
                        None => CoverAtom::Edge(e),
                        Some(vs) => CoverAtom::Subedge {
                            parent: e,
                            vertices: build_bag(vs)?,
                        },
                    })
                })
                .collect()
        };
        let Some(root) = self.nodes.first() else {
            return Err(DecodeError("decomposition has no nodes".to_string()));
        };
        if root.id != 0 || root.parent.is_some() {
            return Err(DecodeError("first node must be the root".to_string()));
        }
        let mut d = Decomposition::new(build_bag(&root.bag)?, build_cover(&root.cover)?);
        for (pos, n) in self.nodes.iter().enumerate().skip(1) {
            if n.id != pos {
                return Err(DecodeError(format!(
                    "node ids must be dense and ordered (found {} at position {pos})",
                    n.id
                )));
            }
            let parent = n
                .parent
                .ok_or_else(|| DecodeError(format!("non-root node {} has no parent", n.id)))?;
            if parent >= pos {
                return Err(DecodeError(format!(
                    "node {} references parent {parent} that does not precede it",
                    n.id
                )));
            }
            let id: NodeId = d.add_child(parent, build_bag(&n.bag)?, build_cover(&n.cover)?);
            debug_assert_eq!(id, pos);
        }
        Ok(d)
    }

    /// Encodes to the wire shape.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (schema::METHOD, Json::str(self.method.as_str())),
            ("width", Json::int(self.width)),
            ("validation", Json::str(&self.validation)),
            (
                "fractional_width",
                self.fractional_width
                    .as_deref()
                    .map_or(Json::Null, Json::str),
            ),
            (
                "nodes",
                Json::Arr(
                    self.nodes
                        .iter()
                        .map(|n| {
                            Json::obj([
                                (schema::ID, Json::int(n.id)),
                                ("parent", n.parent.map_or(Json::Null, Json::int)),
                                ("bag", Json::Arr(n.bag.iter().map(Json::str).collect())),
                                (
                                    "cover",
                                    Json::Arr(
                                        n.cover
                                            .iter()
                                            .map(|a| {
                                                let mut fields =
                                                    vec![("edge".to_string(), Json::str(&a.edge))];
                                                if let Some(vs) = &a.vertices {
                                                    fields.push((
                                                        schema::VERTICES.to_string(),
                                                        Json::Arr(
                                                            vs.iter().map(Json::str).collect(),
                                                        ),
                                                    ));
                                                }
                                                Json::Obj(fields)
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Decodes the wire shape.
    pub fn from_json(j: &Json) -> Result<DecompositionDto, DecodeError> {
        let method_s = req_str(j, schema::METHOD)?;
        let method = AnalyzeMethod::parse(&method_s)
            .ok_or_else(|| DecodeError(format!("unknown method {method_s:?}")))?;
        let fractional_width = match j.get("fractional_width") {
            None | Some(Json::Null) => None,
            Some(v) => Some(
                v.as_str()
                    .ok_or_else(|| missing("fractional_width"))?
                    .to_string(),
            ),
        };
        let names = |v: &Json, field: &str| -> Result<Vec<String>, DecodeError> {
            v.get(field)
                .and_then(Json::as_arr)
                .ok_or_else(|| missing(field))?
                .iter()
                .map(|s| s.as_str().map(str::to_string).ok_or_else(|| missing(field)))
                .collect()
        };
        let nodes = j
            .get("nodes")
            .and_then(Json::as_arr)
            .ok_or_else(|| missing("nodes"))?
            .iter()
            .map(|n| {
                Ok(DecompNodeDto {
                    id: req_usize(n, schema::ID)?,
                    parent: opt_usize(n, "parent")?,
                    bag: names(n, "bag")?,
                    cover: n
                        .get("cover")
                        .and_then(Json::as_arr)
                        .ok_or_else(|| missing("cover"))?
                        .iter()
                        .map(|a| {
                            Ok(CoverAtomDto {
                                edge: req_str(a, "edge")?,
                                vertices: match a.get(schema::VERTICES) {
                                    None | Some(Json::Null) => None,
                                    Some(_) => Some(names(a, schema::VERTICES)?),
                                },
                            })
                        })
                        .collect::<Result<Vec<_>, DecodeError>>()?,
                })
            })
            .collect::<Result<Vec<_>, DecodeError>>()?;
        Ok(DecompositionDto {
            method,
            width: req_usize(j, "width")?,
            validation: req_str(j, "validation")?,
            fractional_width,
            nodes,
        })
    }
}

/// Lifecycle status of an analysis resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnalysisStatus {
    /// Waiting for a worker.
    Queued,
    /// A worker is on it.
    Running,
    /// Finished; `result` (and possibly `decomposition`) is present.
    Done,
    /// The submission failed; `error` says why.
    Failed,
}

impl AnalysisStatus {
    /// The wire string.
    pub fn as_str(&self) -> &'static str {
        match self {
            AnalysisStatus::Queued => "queued",
            AnalysisStatus::Running => "running",
            AnalysisStatus::Done => "done",
            AnalysisStatus::Failed => "failed",
        }
    }

    /// Parses a wire string.
    pub fn parse(s: &str) -> Option<AnalysisStatus> {
        match s {
            "queued" => Some(AnalysisStatus::Queued),
            "running" => Some(AnalysisStatus::Running),
            "done" => Some(AnalysisStatus::Done),
            "failed" => Some(AnalysisStatus::Failed),
            _ => None,
        }
    }

    /// Whether the resource will not change anymore.
    pub fn is_terminal(&self) -> bool {
        matches!(self, AnalysisStatus::Done | AnalysisStatus::Failed)
    }
}

/// `POST /v1/analyses` and `GET /v1/analyses/{id}` response body.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisResource {
    /// The analysis id (poll `GET /v1/analyses/{id}`).
    pub id: u64,
    /// Lifecycle status.
    pub status: AnalysisStatus,
    /// The requested method, when known (failed submissions that never
    /// parsed a request carry `None`).
    pub method: Option<AnalyzeMethod>,
    /// Whether the result came from the content-addressed cache.
    pub cached: Option<bool>,
    /// The analysis report (status `done` only); its `hw_*` bounds are
    /// relative to [`AnalysisResource::method`].
    pub result: Option<AnalysisReport>,
    /// The witness decomposition tree, when the search found one.
    pub decomposition: Option<DecompositionDto>,
    /// The failure message (status `failed` only).
    pub error: Option<String>,
}

impl AnalysisResource {
    /// Encodes to the wire shape.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            (schema::ID.to_string(), Json::int(self.id)),
            (schema::STATUS.to_string(), Json::str(self.status.as_str())),
        ];
        if let Some(m) = self.method {
            fields.push((schema::METHOD.to_string(), Json::str(m.as_str())));
        }
        if let Some(c) = self.cached {
            fields.push((schema::CACHED.to_string(), Json::Bool(c)));
        }
        if let Some(r) = &self.result {
            fields.push((schema::RESULT.to_string(), r.to_json()));
        }
        if let Some(d) = &self.decomposition {
            fields.push((schema::DECOMPOSITION.to_string(), d.to_json()));
        }
        if let Some(e) = &self.error {
            fields.push((schema::ERROR.to_string(), Json::str(e)));
        }
        Json::Obj(fields)
    }

    /// Decodes the wire shape.
    pub fn from_json(j: &Json) -> Result<AnalysisResource, DecodeError> {
        let status_s = req_str(j, schema::STATUS)?;
        let status = AnalysisStatus::parse(&status_s)
            .ok_or_else(|| DecodeError(format!("unknown status {status_s:?}")))?;
        let method = match j.get(schema::METHOD) {
            None | Some(Json::Null) => None,
            Some(v) => {
                let s = v.as_str().ok_or_else(|| missing(schema::METHOD))?;
                Some(
                    AnalyzeMethod::parse(s)
                        .ok_or_else(|| DecodeError(format!("unknown method {s:?}")))?,
                )
            }
        };
        let id = req_int(j, schema::ID)?;
        Ok(AnalysisResource {
            id: u64::try_from(id).map_err(|_| DecodeError("negative id".to_string()))?,
            status,
            method,
            cached: j.get(schema::CACHED).and_then(Json::as_bool),
            result: match j.get(schema::RESULT) {
                None | Some(Json::Null) => None,
                Some(r) => Some(AnalysisReport::from_json(r)?),
            },
            decomposition: match j.get(schema::DECOMPOSITION) {
                None | Some(Json::Null) => None,
                Some(d) => Some(DecompositionDto::from_json(d)?),
            },
            error: j
                .get(schema::ERROR)
                .and_then(Json::as_str)
                .map(str::to_string),
        })
    }
}

/// Decodes a `{name: count}` histogram object into ordered pairs.
fn pairs_from_json(j: &Json, field: &str) -> Result<Vec<(String, usize)>, DecodeError> {
    let Some(Json::Obj(pairs)) = j.get(field) else {
        return Err(missing(field));
    };
    pairs
        .iter()
        .map(|(k, v)| {
            let n = v.as_int().ok_or_else(|| missing(field))?;
            let n = usize::try_from(n)
                .map_err(|_| DecodeError(format!("negative count in {field:?}")))?;
            Ok((k.clone(), n))
        })
        .collect()
}

/// Repository aggregates of the `GET /v1/stats` payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepoStatsDto {
    /// Total entries in the repository.
    pub entries: usize,
    /// Entries with an analysis record attached.
    pub analyzed: usize,
    /// Analyzed entries known cyclic (hw ≥ 2).
    pub cyclic: usize,
    /// Analyzed entries whose hw search hit a timeout.
    pub hw_timeouts: usize,
    /// Sum of vertex counts.
    pub total_vertices: usize,
    /// Sum of edge counts.
    pub total_edges: usize,
    /// Largest edge size over all entries.
    pub max_arity: usize,
    /// Entry counts per benchmark class.
    pub by_class: Vec<(String, usize)>,
    /// Entry counts per collection.
    pub by_collection: Vec<(String, usize)>,
    /// Exact-hw histogram (`hw` rendered as the key).
    pub hw_exact: Vec<(String, usize)>,
}

impl RepoStatsDto {
    /// Encodes into the `repository` section.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("entries", Json::int(self.entries)),
            (schema::ANALYZED, Json::int(self.analyzed)),
            (schema::CYCLIC, Json::int(self.cyclic)),
            ("hw_timeouts", Json::int(self.hw_timeouts)),
            ("total_vertices", Json::int(self.total_vertices)),
            ("total_edges", Json::int(self.total_edges)),
            ("max_arity", Json::int(self.max_arity)),
            ("by_class", crate::json::histogram(&self.by_class)),
            ("by_collection", crate::json::histogram(&self.by_collection)),
            (schema::HW_EXACT, crate::json::histogram(&self.hw_exact)),
        ])
    }

    /// Decodes the `repository` section.
    pub fn from_json(j: &Json) -> Result<RepoStatsDto, DecodeError> {
        Ok(RepoStatsDto {
            entries: req_usize(j, "entries")?,
            analyzed: req_usize(j, schema::ANALYZED)?,
            cyclic: req_usize(j, schema::CYCLIC)?,
            hw_timeouts: req_usize(j, "hw_timeouts")?,
            total_vertices: req_usize(j, "total_vertices")?,
            total_edges: req_usize(j, "total_edges")?,
            max_arity: req_usize(j, "max_arity")?,
            by_class: pairs_from_json(j, "by_class")?,
            by_collection: pairs_from_json(j, "by_collection")?,
            hw_exact: pairs_from_json(j, schema::HW_EXACT)?,
        })
    }
}

/// Analysis-cache counters of the `GET /v1/stats` payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStatsDto {
    /// Lookups answered from memory.
    pub hits: usize,
    /// Lookups that missed.
    pub misses: usize,
    /// Entries currently resident.
    pub len: usize,
    /// Configured capacity.
    pub capacity: usize,
    /// Entries evicted by the capacity bound (process-wide).
    pub evictions: u64,
    /// Results appended to the warm-restart spill (process-wide).
    pub spill_appends: u64,
    /// Spill appends that failed and were dropped (process-wide).
    pub spill_append_failures: u64,
}

impl CacheStatsDto {
    /// Encodes into the `cache` section (the LRU's own keys first, the
    /// process-wide telemetry counters appended).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("hits", Json::int(self.hits)),
            ("misses", Json::int(self.misses)),
            ("len", Json::int(self.len)),
            ("capacity", Json::int(self.capacity)),
            ("evictions", Json::int(self.evictions)),
            ("spill_appends", Json::int(self.spill_appends)),
            (
                "spill_append_failures",
                Json::int(self.spill_append_failures),
            ),
        ])
    }

    /// Decodes the `cache` section.
    pub fn from_json(j: &Json) -> Result<CacheStatsDto, DecodeError> {
        let u = |f| req_int(j, f).map(|n| n.max(0) as u64);
        Ok(CacheStatsDto {
            hits: req_usize(j, "hits")?,
            misses: req_usize(j, "misses")?,
            len: req_usize(j, "len")?,
            capacity: req_usize(j, "capacity")?,
            evictions: u("evictions")?,
            spill_appends: u("spill_appends")?,
            spill_append_failures: u("spill_append_failures")?,
        })
    }
}

/// Job-system counters of the `GET /v1/stats` payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobStatsDto {
    /// Jobs ever submitted (including cache hits and failures).
    pub submitted: usize,
    /// Jobs currently queued.
    pub queued: usize,
    /// Jobs currently running on a worker.
    pub running: usize,
    /// Jobs finished successfully.
    pub done: usize,
    /// Jobs that failed (parse errors, panics).
    pub failed: usize,
    /// Submissions deduplicated onto an in-flight job.
    pub deduped: usize,
    /// Jobs that started from facts an earlier analysis of the same
    /// document recorded (this server's own count).
    pub facts_reused: usize,
}

impl JobStatsDto {
    /// Encodes into the `jobs` section.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("submitted", Json::int(self.submitted)),
            ("queued", Json::int(self.queued)),
            ("running", Json::int(self.running)),
            ("done", Json::int(self.done)),
            ("failed", Json::int(self.failed)),
            ("deduped", Json::int(self.deduped)),
            ("facts_reused", Json::int(self.facts_reused)),
        ])
    }

    /// Decodes the `jobs` section.
    pub fn from_json(j: &Json) -> Result<JobStatsDto, DecodeError> {
        Ok(JobStatsDto {
            submitted: req_usize(j, "submitted")?,
            queued: req_usize(j, "queued")?,
            running: req_usize(j, "running")?,
            done: req_usize(j, "done")?,
            failed: req_usize(j, "failed")?,
            deduped: req_usize(j, "deduped")?,
            facts_reused: req_usize(j, "facts_reused")?,
        })
    }
}

/// A latency histogram condensed to its headline numbers: count, sum,
/// mean and the log₂-bucket upper bounds of the 50/90/99th percentiles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSummaryDto {
    /// The metric name (e.g. `hyperbench_http_handle_us`).
    pub name: String,
    /// Number of recorded observations.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Mean value (integer division; 0 when empty).
    pub mean: u64,
    /// Median upper bound.
    pub p50: u64,
    /// 90th-percentile upper bound.
    pub p90: u64,
    /// 99th-percentile upper bound.
    pub p99: u64,
}

impl HistogramSummaryDto {
    /// Encodes one histogram summary.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (schema::NAME, Json::str(&self.name)),
            (schema::COUNT, Json::int(self.count)),
            (schema::SUM, Json::int(self.sum)),
            (schema::MEAN, Json::int(self.mean)),
            (schema::P50, Json::int(self.p50)),
            (schema::P90, Json::int(self.p90)),
            (schema::P99, Json::int(self.p99)),
        ])
    }

    /// Decodes one histogram summary.
    pub fn from_json(j: &Json) -> Result<HistogramSummaryDto, DecodeError> {
        let u = |f| req_int(j, f).map(|n| n.max(0) as u64);
        Ok(HistogramSummaryDto {
            name: req_str(j, schema::NAME)?,
            count: u(schema::COUNT)?,
            sum: u(schema::SUM)?,
            mean: u(schema::MEAN)?,
            p50: u(schema::P50)?,
            p90: u(schema::P90)?,
            p99: u(schema::P99)?,
        })
    }
}

/// The process-wide telemetry section of `GET /v1/stats`: every
/// registered counter and gauge by name, plus condensed latency
/// histograms.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TelemetryDto {
    /// Monotone counters (`name` → total), registry order.
    pub counters: Vec<(String, u64)>,
    /// Point-in-time gauges (`name` → level), registry order.
    pub gauges: Vec<(String, i64)>,
    /// Latency histogram summaries, registry order.
    pub histograms: Vec<HistogramSummaryDto>,
}

impl TelemetryDto {
    /// Encodes the `telemetry` section.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                schema::COUNTERS,
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::int(*v)))
                        .collect(),
                ),
            ),
            (
                schema::GAUGES,
                Json::Obj(
                    self.gauges
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::int(*v)))
                        .collect(),
                ),
            ),
            (
                schema::HISTOGRAMS,
                Json::Arr(self.histograms.iter().map(|h| h.to_json()).collect()),
            ),
        ])
    }

    /// Decodes the `telemetry` section.
    pub fn from_json(j: &Json) -> Result<TelemetryDto, DecodeError> {
        let Some(Json::Obj(counters)) = j.get(schema::COUNTERS) else {
            return Err(missing(schema::COUNTERS));
        };
        let counters = counters
            .iter()
            .map(|(k, v)| {
                v.as_int()
                    .map(|n| (k.clone(), n.max(0) as u64))
                    .ok_or_else(|| missing(schema::COUNTERS))
            })
            .collect::<Result<_, _>>()?;
        let Some(Json::Obj(gauges)) = j.get(schema::GAUGES) else {
            return Err(missing(schema::GAUGES));
        };
        let gauges = gauges
            .iter()
            .map(|(k, v)| {
                v.as_int()
                    .map(|n| (k.clone(), n))
                    .ok_or_else(|| missing(schema::GAUGES))
            })
            .collect::<Result<_, _>>()?;
        let histograms = j
            .get(schema::HISTOGRAMS)
            .and_then(Json::as_arr)
            .ok_or_else(|| missing(schema::HISTOGRAMS))?
            .iter()
            .map(HistogramSummaryDto::from_json)
            .collect::<Result<_, _>>()?;
        Ok(TelemetryDto {
            counters,
            gauges,
            histograms,
        })
    }
}

/// HBQL counters of the `GET /v1/stats` payload. The scanned/hydrated
/// pair makes the executor's no-hydration invariant observable: every
/// queryable field is index-resident, so `rows_hydrated` stays zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueryStatsDto {
    /// Queries compiled (parse + resolve), successful or not.
    pub queries: u64,
    /// Queries rejected at lex, parse, or resolve time.
    pub errors: u64,
    /// Metadata rows visited by the executor.
    pub rows_scanned: u64,
    /// Rows whose evaluation hydrated the full entry.
    pub rows_hydrated: u64,
}

impl QueryStatsDto {
    /// Encodes into the `query` section.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("queries", Json::int(self.queries)),
            ("errors", Json::int(self.errors)),
            ("rows_scanned", Json::int(self.rows_scanned)),
            ("rows_hydrated", Json::int(self.rows_hydrated)),
        ])
    }

    /// Decodes the `query` section.
    pub fn from_json(j: &Json) -> Result<QueryStatsDto, DecodeError> {
        let u = |f| req_int(j, f).map(|n| n.max(0) as u64);
        Ok(QueryStatsDto {
            queries: u("queries")?,
            errors: u("errors")?,
            rows_scanned: u("rows_scanned")?,
            rows_hydrated: u("rows_hydrated")?,
        })
    }
}

/// The full `GET /v1/stats` payload: repository aggregates, cache and
/// job counters (version-stable since PR 1), HBQL counters, plus the
/// process-wide telemetry section.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsDto {
    /// Repository aggregates.
    pub repository: RepoStatsDto,
    /// Analysis-cache counters.
    pub cache: CacheStatsDto,
    /// Job-system counters.
    pub jobs: JobStatsDto,
    /// HBQL query counters.
    pub query: QueryStatsDto,
    /// Process-wide telemetry snapshot.
    pub telemetry: TelemetryDto,
}

impl StatsDto {
    /// Encodes the stats payload.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (schema::REPOSITORY, self.repository.to_json()),
            (schema::CACHE, self.cache.to_json()),
            (schema::JOBS_SECTION, self.jobs.to_json()),
            (schema::QUERY, self.query.to_json()),
            (schema::TELEMETRY, self.telemetry.to_json()),
        ])
    }

    /// Decodes the stats payload.
    pub fn from_json(j: &Json) -> Result<StatsDto, DecodeError> {
        Ok(StatsDto {
            repository: RepoStatsDto::from_json(
                j.get(schema::REPOSITORY)
                    .ok_or_else(|| missing(schema::REPOSITORY))?,
            )?,
            cache: CacheStatsDto::from_json(
                j.get(schema::CACHE).ok_or_else(|| missing(schema::CACHE))?,
            )?,
            jobs: JobStatsDto::from_json(
                j.get(schema::JOBS_SECTION)
                    .ok_or_else(|| missing(schema::JOBS_SECTION))?,
            )?,
            // Tolerate pre-HBQL payloads: an absent section decodes to
            // zeroes rather than failing the whole stats read.
            query: j
                .get(schema::QUERY)
                .map(QueryStatsDto::from_json)
                .transpose()?
                .unwrap_or_default(),
            telemetry: TelemetryDto::from_json(
                j.get(schema::TELEMETRY)
                    .ok_or_else(|| missing(schema::TELEMETRY))?,
            )?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperbench_core::builder::hypergraph_from_edges;
    use hyperbench_decomp::budget::Budget;
    use hyperbench_decomp::driver::{check_hd, Outcome};

    fn path3() -> Hypergraph {
        hypergraph_from_edges(&[("R", &["a", "b"]), ("S", &["b", "c"]), ("T", &["c", "d"])])
    }

    #[test]
    fn analyze_request_roundtrip_and_defaults() {
        let full = AnalyzeRequest {
            hypergraph: "e(a,b).".to_string(),
            method: AnalyzeMethod::Ghd,
            max_width: Some(3),
            timeout_ms: Some(500),
            jobs: Some(2),
        };
        assert_eq!(
            AnalyzeRequest::from_json(&Json::parse(&full.to_json().to_string()).unwrap()),
            Ok(full)
        );
        // Method defaults to hd; unknown methods are rejected, and an
        // absent `jobs` stays absent (server default applies).
        let min = Json::parse(r#"{"hypergraph":"e(a,b)."}"#).unwrap();
        let decoded = AnalyzeRequest::from_json(&min).unwrap();
        assert_eq!(decoded.method, AnalyzeMethod::Hd);
        assert_eq!(decoded.jobs, None);
        assert_eq!(
            AnalyzeRequest::hd("e(a,b).").with_jobs(4).jobs,
            Some(4),
            "with_jobs sets the knob"
        );
        // A negative jobs value is a decode error, not a default.
        let neg = Json::parse(r#"{"hypergraph":"e(a,b).","jobs":-2}"#).unwrap();
        assert!(AnalyzeRequest::from_json(&neg).is_err());
        let bad = Json::parse(r#"{"hypergraph":"e(a,b).","method":"magic"}"#).unwrap();
        assert!(AnalyzeRequest::from_json(&bad).is_err());
        assert!(AnalyzeRequest::from_json(&Json::parse("{}").unwrap()).is_err());
    }

    #[test]
    fn entry_summary_always_carries_its_bounds() {
        let analyzed = EntrySummary {
            id: 3,
            collection: "TPC-H".to_string(),
            class: "CQ Application".to_string(),
            vertices: 4,
            edges: 3,
            arity: 2,
            analyzed: true,
            hw_upper: None,
            hw_lower: Some(2),
        };
        let v1 = analyzed.to_json();
        assert_eq!(v1.get("hw_upper"), Some(&Json::Null));
        assert_eq!(EntrySummary::from_json(&v1), Ok(analyzed.clone()));
        // Unanalyzed rows carry the bounds too, as null.
        let bare = EntrySummary {
            analyzed: false,
            hw_upper: None,
            hw_lower: None,
            ..analyzed
        };
        assert_eq!(bare.to_json().get("hw_upper"), Some(&Json::Null));
        assert_eq!(bare.to_json().get("hw_lower"), Some(&Json::Null));
    }

    #[test]
    fn page_roundtrip() {
        let page = PageDto {
            total: 12,
            items: vec![EntrySummary {
                id: 0,
                collection: "SPARQL".to_string(),
                class: "CQ Application".to_string(),
                vertices: 3,
                edges: 3,
                arity: 2,
                analyzed: true,
                hw_upper: Some(2),
                hw_lower: Some(2),
            }],
            next_cursor: Some(crate::cursor::PageCursor::after(0).encode()),
            partial: Vec::new(),
        };
        let wire = page.to_json().to_string();
        assert_eq!(PageDto::from_json(&Json::parse(&wire).unwrap()), Ok(page));
    }

    #[test]
    fn decomposition_roundtrips_and_revalidates() {
        let h = path3();
        let d = match check_hd(&h, 1, &Budget::unlimited()) {
            Outcome::Yes(d) => d,
            other => panic!("expected width-1 HD, got {other:?}"),
        };
        let dto = DecompositionDto::from_tree(&h, &d, AnalyzeMethod::Hd, None);
        assert_eq!(dto.width, 1);
        assert_eq!(dto.validation, "valid-hd");
        assert_eq!(dto.nodes.len(), d.len());
        // Wire roundtrip, then rebuild the tree and re-validate it.
        let wire = dto.to_json().to_string();
        let back = DecompositionDto::from_json(&Json::parse(&wire).unwrap()).unwrap();
        assert_eq!(back, dto);
        let rebuilt = back.to_decomposition(&h).unwrap();
        assert_eq!(rebuilt.width(), 1);
        validate_hd(&h, &rebuilt).unwrap();
    }

    #[test]
    fn decomposition_decode_rejects_bad_trees() {
        let h = path3();
        let dto = DecompositionDto {
            method: AnalyzeMethod::Hd,
            width: 1,
            validation: "valid-hd".to_string(),
            fractional_width: None,
            nodes: vec![DecompNodeDto {
                id: 0,
                parent: None,
                bag: vec!["nope".to_string()],
                cover: vec![],
            }],
        };
        assert!(dto.to_decomposition(&h).is_err(), "unknown vertex name");
        let forward = DecompositionDto {
            nodes: vec![
                DecompNodeDto {
                    id: 0,
                    parent: None,
                    bag: vec!["a".to_string()],
                    cover: vec![CoverAtomDto {
                        edge: "R".to_string(),
                        vertices: None,
                    }],
                },
                DecompNodeDto {
                    id: 1,
                    parent: Some(2),
                    bag: vec![],
                    cover: vec![],
                },
            ],
            ..dto
        };
        assert!(forward.to_decomposition(&h).is_err(), "forward parent ref");
    }

    #[test]
    fn subedge_atoms_roundtrip() {
        let h = path3();
        let b = h.vertex_by_name("b").unwrap();
        let mut all = BitSet::new();
        for v in h.vertex_ids() {
            all.insert(v);
        }
        let d = Decomposition::new(
            all,
            vec![
                CoverAtom::Edge(0),
                CoverAtom::Subedge {
                    parent: 1,
                    vertices: BitSet::from_slice(&[b]),
                },
                CoverAtom::Edge(2),
            ],
        );
        let dto = DecompositionDto::from_tree(&h, &d, AnalyzeMethod::Ghd, None);
        assert_eq!(dto.validation, "valid-ghd");
        assert_eq!(dto.nodes[0].cover[1].vertices, Some(vec!["b".to_string()]));
        let rebuilt = dto.to_decomposition(&h).unwrap();
        assert_eq!(
            rebuilt.node(0).cover[1],
            CoverAtom::Subedge {
                parent: 1,
                vertices: BitSet::from_slice(&[b]),
            }
        );
    }

    #[test]
    fn analysis_resource_roundtrip() {
        let r = AnalysisResource {
            id: 9,
            status: AnalysisStatus::Failed,
            method: Some(AnalyzeMethod::Fhd),
            cached: None,
            result: None,
            decomposition: None,
            error: Some("parse error: nope".to_string()),
        };
        let wire = r.to_json().to_string();
        assert_eq!(
            AnalysisResource::from_json(&Json::parse(&wire).unwrap()),
            Ok(r)
        );
        assert!(AnalysisStatus::Failed.is_terminal());
        assert!(!AnalysisStatus::Running.is_terminal());
    }

    #[test]
    fn stats_roundtrip_preserves_section_shape() {
        let stats = StatsDto {
            repository: RepoStatsDto {
                entries: 12,
                analyzed: 8,
                cyclic: 5,
                hw_timeouts: 1,
                total_vertices: 40,
                total_edges: 33,
                max_arity: 4,
                by_class: vec![("CQ Application".to_string(), 8)],
                by_collection: vec![("SPARQL".to_string(), 6), ("TPC-H".to_string(), 6)],
                hw_exact: vec![("1".to_string(), 3), ("2".to_string(), 5)],
            },
            cache: CacheStatsDto {
                hits: 3,
                misses: 4,
                len: 4,
                capacity: 64,
                evictions: 0,
                spill_appends: 4,
                spill_append_failures: 0,
            },
            jobs: JobStatsDto {
                submitted: 7,
                queued: 0,
                running: 1,
                done: 5,
                failed: 1,
                deduped: 2,
                facts_reused: 1,
            },
            query: QueryStatsDto {
                queries: 9,
                errors: 1,
                rows_scanned: 120,
                rows_hydrated: 0,
            },
            telemetry: TelemetryDto {
                counters: vec![("hyperbench_cache_hits_total".to_string(), 3)],
                gauges: vec![("hyperbench_jobs_queue_depth".to_string(), 0)],
                histograms: vec![HistogramSummaryDto {
                    name: "hyperbench_http_handle_us".to_string(),
                    count: 7,
                    sum: 900,
                    mean: 128,
                    p50: 128,
                    p90: 256,
                    p99: 256,
                }],
            },
        };
        let wire = stats.to_json().to_string();
        let back = StatsDto::from_json(&Json::parse(&wire).unwrap()).unwrap();
        assert_eq!(back, stats);
        // Sections and keys are version-stable; by_class is a
        // name->count object.
        let j = Json::parse(&wire).unwrap();
        let repo = j.get(schema::REPOSITORY).unwrap();
        assert_eq!(repo.get("entries").and_then(Json::as_int), Some(12));
        assert_eq!(
            repo.get("by_class")
                .unwrap()
                .get("CQ Application")
                .and_then(Json::as_int),
            Some(8)
        );
        let cache = j.get(schema::CACHE).unwrap();
        assert_eq!(cache.get("hits").and_then(Json::as_int), Some(3));
        assert_eq!(
            j.get(schema::JOBS_SECTION)
                .unwrap()
                .get("done")
                .and_then(Json::as_int),
            Some(5)
        );
        assert!(j.get(schema::TELEMETRY).is_some());
    }
}
