//! Typed request/response DTOs of the `/v1` contract, and the one table
//! that puts them on the wire.
//!
//! The server handlers, the router and the native [`crate::client`] all
//! encode with `to_json` and decode with `from_json`, so every side
//! speaks one schema. Nothing in this module writes a codec per DTO:
//!
//! * **Values.** A private `Wire` trait is implemented once per wire
//!   value type — `usize`/`u64`/`i64` (range-checked), `bool`, `String`,
//!   `Option<T>` (`null` when `None`), `Vec<T>` (an array), name→count
//!   objects (`Vec<(String, T)>`), each wire enum, and each DTO.
//! * **DTOs.** `wire_struct!` lists a DTO's fields against the key
//!   constants of [`crate::schema`] (a literal key cannot enter the
//!   table) in wire order, each with one mode:
//!   - `req field: KEY` — always written; required on decode;
//!   - `null field: KEY` — an `Option` written as `null` when `None`;
//!   - `omit field: KEY` — left off the wire when `None` or empty;
//!   - `default field: KEY = expr` — always written; `expr` when absent;
//!   - `inline field` — the fields of another DTO, in place:
//!     [`EntryDetail`] carries [`EntrySummary`]'s;
//!   - `hex field: KEY` — [`WriteReceipt::content_hash`] only (below).
//! * **Enums.** `wire_enum!` spells each variant's string once and
//!   yields `as_str` and `parse` ([`AnalyzeMethod`], [`AnalysisStatus`],
//!   [`WriteOutcome`] and [`crate::ErrorCode`]).
//!
//! **The decode rule.** A key that is absent or `null` decodes to `None`,
//! to its empty value or to its default when its mode allows that, and is
//! a [`DecodeError`] when the field is required. A key that is present
//! but mistyped or out of range is always a [`DecodeError`], whose
//! message names the path to the field (`result: sizes: vertices: …`).
//! Unknown keys are ignored.
//!
//! **What is written out by hand**, and why:
//! * [`DecompositionDto::from_tree`] and
//!   [`DecompositionDto::to_decomposition`] — tree logic, not codec;
//! * the hex codec of [`WriteReceipt::content_hash`] — a `u64` hash
//!   travels as 16 hex digits because the wire's integers are `i64`;
//! * [`QueryResponse`]'s `kind` dispatch — `rows` inlines a page after
//!   the discriminator, and `groups` derives its `total` from the groups.

use hyperbench_core::properties::StructuralProperties;
use hyperbench_core::stats::SizeMetrics;
use hyperbench_core::{BitSet, Hypergraph};
use hyperbench_decomp::tree::{CoverAtom, Decomposition, NodeId};
use hyperbench_decomp::validate::{validate_ghd, validate_hd};

use crate::json::Json;
use crate::schema;

/// A DTO failed to decode from JSON: a missing field, a mistyped or
/// out-of-range value, an unknown enum value, or an unresolvable name.
/// The message names the path to the offending field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "decode error: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

impl DecodeError {
    /// Prefixes the key or index the failure occurred under.
    fn at(self, key: &str) -> DecodeError {
        DecodeError(format!("{key}: {}", self.0))
    }
}

/// The error for a value of the wrong JSON type; `null` (which an absent
/// key reads as) is "missing".
pub(crate) fn expected(what: &str, found: &Json) -> DecodeError {
    DecodeError(match found {
        Json::Null => "missing".to_string(),
        _ => format!("expected {what}"),
    })
}

/// One value type on the wire. `decode` reads `Json::Null` for an absent
/// key, so an `Option` decodes both to `None` and a required value
/// reports both as missing.
pub(crate) trait Wire: Sized {
    fn encode(&self) -> Json;
    fn decode(v: &Json) -> Result<Self, DecodeError>;
}

macro_rules! wire_int {
    ($($t:ty),+) => {$(
        impl Wire for $t {
            fn encode(&self) -> Json {
                Json::int(*self)
            }
            fn decode(v: &Json) -> Result<$t, DecodeError> {
                let n = v.as_int().ok_or_else(|| expected("an integer", v))?;
                <$t>::try_from(n).map_err(|_| DecodeError(format!("{n} is out of range")))
            }
        }
    )+};
}

wire_int!(usize, u64, i64);

impl Wire for bool {
    fn encode(&self) -> Json {
        Json::Bool(*self)
    }
    fn decode(v: &Json) -> Result<bool, DecodeError> {
        v.as_bool().ok_or_else(|| expected("a bool", v))
    }
}

impl Wire for String {
    fn encode(&self) -> Json {
        Json::str(self.as_str())
    }
    fn decode(v: &Json) -> Result<String, DecodeError> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| expected("a string", v))
    }
}

/// Free-form values (aggregate rows) pass through as they are.
impl Wire for Json {
    fn encode(&self) -> Json {
        self.clone()
    }
    fn decode(v: &Json) -> Result<Json, DecodeError> {
        Ok(v.clone())
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::encode)
    }
    fn decode(v: &Json) -> Result<Option<T>, DecodeError> {
        (*v != Json::Null).then(|| T::decode(v)).transpose()
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self) -> Json {
        Json::Arr(self.iter().map(T::encode).collect())
    }
    fn decode(v: &Json) -> Result<Vec<T>, DecodeError> {
        let items = v.as_arr().ok_or_else(|| expected("an array", v))?;
        let mut out = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            out.push(T::decode(item).map_err(|e| e.at(&format!("[{i}]")))?);
        }
        Ok(out)
    }
}

/// Name→count objects (`by_class`, `counters`, …), pairs in wire order.
impl<T: Wire> Wire for Vec<(String, T)> {
    fn encode(&self) -> Json {
        Json::Obj(self.iter().map(|(k, v)| (k.clone(), v.encode())).collect())
    }
    fn decode(v: &Json) -> Result<Vec<(String, T)>, DecodeError> {
        let pair = |(k, v): &(String, Json)| Ok((k.clone(), T::decode(v).map_err(|e| e.at(k))?));
        match v {
            Json::Obj(pairs) => pairs.iter().map(pair).collect(),
            _ => Err(expected("an object", v)),
        }
    }
}

/// Writes one field.
pub(crate) fn put<T: Wire>(out: &mut Vec<(String, Json)>, key: &str, value: &T) {
    out.push((key.to_string(), value.encode()));
}

/// Reads one field; an absent key reads as `null`.
pub(crate) fn take<T: Wire>(j: &Json, key: &str) -> Result<T, DecodeError> {
    T::decode(j.get(key).unwrap_or(&Json::Null)).map_err(|e| e.at(key))
}

/// Writes the fields of a DTO in place (`inline`).
pub(crate) fn inline<T: Wire>(value: &T, out: &mut Vec<(String, Json)>) {
    if let Json::Obj(fields) = value.encode() {
        out.extend(fields);
    }
}

/// Whether an `omit` field stays off the wire (`None` or empty).
pub(crate) fn is_default<T: Default + PartialEq>(value: &T) -> bool {
    *value == T::default()
}

/// The field table of one DTO (see the module docs for the modes), with
/// public `to_json`/`from_json`; the `@record` form omits those, for
/// foreign types and for DTOs whose public codec differs.
macro_rules! wire_struct {
    (@record $ty:ty {
        $($mode:ident $field:ident $(: $key:ident)? $(= $default:expr)?),+ $(,)?
    }) => {
        impl $crate::dto::Wire for $ty {
            fn encode(&self) -> $crate::json::Json {
                let mut out = Vec::with_capacity([$(stringify!($field)),+].len());
                $($crate::dto::wire_struct!(
                    @put $mode out, self.$field $(, $crate::schema::$key)?
                );)+
                $crate::json::Json::Obj(out)
            }
            fn decode(j: &$crate::json::Json) -> Result<Self, $crate::dto::DecodeError> {
                if !matches!(j, $crate::json::Json::Obj(_)) {
                    return Err($crate::dto::expected("an object", j));
                }
                Ok(Self {
                    $($field: $crate::dto::wire_struct!(
                        @take $mode j $(, $crate::schema::$key)? $(, $default)?
                    ),)+
                })
            }
        }
    };
    (@put omit $o:ident, $v:expr, $k:expr) => {
        if !$crate::dto::is_default(&$v) { $crate::dto::put(&mut $o, $k, &$v) }
    };
    (@put inline $o:ident, $v:expr) => { $crate::dto::inline(&$v, &mut $o) };
    (@put hex $o:ident, $v:expr, $k:expr) => {
        $crate::dto::put(&mut $o, $k, &$v.map(|h| format!("{h:016x}")))
    };
    // `req`, `null` and `default` (a misspelt mode fails at `@take`).
    (@put $mode:ident $o:ident, $v:expr, $k:expr) => { $crate::dto::put(&mut $o, $k, &$v) };
    (@take req $j:ident, $k:expr) => { $crate::dto::take($j, $k)? };
    (@take null $j:ident, $k:expr) => { $crate::dto::take($j, $k)? };
    (@take default $j:ident, $k:expr, $d:expr) => {
        $crate::dto::take::<Option<_>>($j, $k)?.unwrap_or_else(|| $d)
    };
    (@take omit $j:ident, $k:expr) => {
        $crate::dto::take::<Option<_>>($j, $k)?.unwrap_or_default()
    };
    (@take inline $j:ident) => { $crate::dto::Wire::decode($j)? };
    (@take hex $j:ident, $k:expr) => { $crate::dto::unhex($j, $k)? };
    ($ty:ident { $($table:tt)+ }) => {
        $crate::dto::wire_struct!(@record $ty { $($table)+ });
        impl $ty {
            /// Encodes to the wire shape.
            pub fn to_json(&self) -> $crate::json::Json {
                $crate::dto::Wire::encode(self)
            }
            /// Decodes the wire shape (see the module docs for the rule).
            pub fn from_json(j: &$crate::json::Json) -> Result<$ty, $crate::dto::DecodeError> {
                $crate::dto::Wire::decode(j)
            }
        }
    };
}

/// The string table of one wire enum: yields `as_str`, `parse` and its
/// `Wire` codec.
macro_rules! wire_enum {
    ($ty:ident { $($variant:ident = $s:literal),+ $(,)? }) => {
        impl $ty {
            /// The stable wire string.
            pub fn as_str(&self) -> &'static str {
                match self {
                    $($ty::$variant => $s,)+
                }
            }

            /// Parses a wire string.
            pub fn parse(s: &str) -> Option<$ty> {
                match s {
                    $($s => Some($ty::$variant),)+
                    _ => None,
                }
            }
        }

        impl $crate::dto::Wire for $ty {
            fn encode(&self) -> $crate::json::Json {
                $crate::json::Json::str(self.as_str())
            }
            fn decode(v: &$crate::json::Json) -> Result<$ty, $crate::dto::DecodeError> {
                let s = v.as_str().ok_or_else(|| $crate::dto::expected("a string", v))?;
                $ty::parse(s).ok_or_else(|| {
                    $crate::dto::DecodeError(format!("unknown {s:?} ({})", [$($s),+].join("|")))
                })
            }
        }
    };
}

pub(crate) use {wire_enum, wire_struct};

/// Reads [`WriteReceipt::content_hash`], the one field whose wire form
/// is not its type's: a `u64` hash travels as 16 hex digits (the wire's
/// integers are `i64`), `null` when no entry is live.
pub(crate) fn unhex(j: &Json, key: &str) -> Result<Option<u64>, DecodeError> {
    let hex: Option<String> = take(j, key)?;
    hex.map(|s| u64::from_str_radix(&s, 16))
        .transpose()
        .map_err(|e| DecodeError(format!("not a hex hash ({e})")).at(key))
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
    /// Generalized hypertree decompositions — iterative `Check(GHD,k)`,
    /// each decided by the hybrid (balanced separators, then detk on
    /// the components): nothing runs when ghw is already known, and
    /// only the `k` below a known hw are checked (the stored HD pins
    /// ghw = hw when none answers yes).
    Ghd,
    /// Fractionally improved decompositions — an HD witness improved by
    /// `ImproveHD` (§6.5); reports a fractional width upper bound. A
    /// known hw's HD is improved without running any `Check`.
    Fhd,
}

wire_enum!(AnalyzeMethod {
    Hd = "hd",
    Ghd = "ghd",
    Fhd = "fhd",
});

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
    /// width bounds (the engine's determinism guarantee), so the knob
    /// changes only CPU and latency — and not always for the better: a
    /// search that never forks runs on one thread whatever the knob
    /// says, and on the benchmark's fixed-width basket two workers are
    /// at best break-even with one.
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
}

wire_struct!(AnalyzeRequest {
    req hypergraph: HYPERGRAPH,
    default method: METHOD = AnalyzeMethod::Hd,
    omit max_width: MAX_WIDTH,
    omit timeout_ms: TIMEOUT_MS,
    omit jobs: JOBS,
});

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

wire_struct!(EntrySummary {
    req id: ID,
    req collection: COLLECTION,
    req class: CLASS,
    req vertices: VERTICES,
    req edges: EDGES,
    req arity: ARITY,
    req analyzed: ANALYZED,
    null hw_upper: HW_UPPER,
    null hw_lower: HW_LOWER,
});

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
}

wire_struct!(PageDto {
    req total: TOTAL,
    req items: ITEMS,
    null next_cursor: NEXT_CURSOR,
    omit partial: PARTIAL,
});

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
}

wire_struct!(QueryRequest {
    req query: QUERY,
    omit cursor: CURSOR,
});

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

/// The `kind` discriminator of a [`QueryResponse`].
enum QueryKind {
    Rows,
    Groups,
}

wire_enum!(QueryKind {
    Rows = "rows",
    Groups = "groups",
});

// Written out rather than tabled: `rows` carries the page's fields after
// the discriminator, and `groups` derives its `total` from the groups.
impl QueryResponse {
    /// Encodes to the wire shape.
    pub fn to_json(&self) -> Json {
        let mut out = Vec::with_capacity(5);
        match self {
            QueryResponse::Rows(page) => {
                put(&mut out, schema::KIND, &QueryKind::Rows);
                inline(page, &mut out);
            }
            QueryResponse::Groups { group_by, groups } => {
                put(&mut out, schema::KIND, &QueryKind::Groups);
                put(&mut out, schema::GROUP_BY, group_by);
                put(&mut out, schema::TOTAL, &groups.len());
                put(&mut out, schema::GROUPS, groups);
            }
        }
        Json::Obj(out)
    }

    /// Decodes the wire shape by its `kind` discriminator.
    pub fn from_json(j: &Json) -> Result<QueryResponse, DecodeError> {
        Ok(match take(j, schema::KIND)? {
            QueryKind::Rows => QueryResponse::Rows(PageDto::from_json(j)?),
            QueryKind::Groups => QueryResponse::Groups {
                group_by: take(j, schema::GROUP_BY)?,
                groups: take(j, schema::GROUPS)?,
            },
        })
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
}

wire_struct!(WriteRequest {
    req hypergraph: HYPERGRAPH,
    default collection: COLLECTION = DEFAULT_WRITE_COLLECTION.to_string(),
    default class: CLASS = DEFAULT_WRITE_CLASS.to_string(),
});

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

wire_enum!(WriteOutcome {
    Created = "created",
    Exists = "exists",
    Replaced = "replaced",
    Removed = "removed",
});

impl WriteOutcome {
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

wire_struct!(WriteReceipt {
    req id: ID,
    req outcome: OUTCOME,
    null seq: SEQ,
    hex content_hash: CONTENT_HASH,
});

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

wire_struct!(EdgeDto {
    req name: NAME,
    req vertices: VERTICES,
});

wire_struct!(EntryDetail {
    inline summary,
    req edge_list: EDGE_LIST,
    null analysis: ANALYSIS,
});

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

wire_struct!(@record SizeMetrics {
    req vertices: VERTICES,
    req edges: EDGES,
    req arity: ARITY,
});

wire_struct!(@record StructuralProperties {
    req degree: DEGREE,
    req bip: BIP,
    req bmip3: BMIP3,
    req bmip4: BMIP4,
    null vc_dim: VC_DIM,
});

wire_struct!(AnalysisReport {
    req sizes: SIZES,
    req properties: PROPERTIES,
    null hw_upper: HW_UPPER,
    req hw_lower: HW_LOWER,
    null hw_exact: HW_EXACT,
    req cyclic: CYCLIC,
    req hw_timed_out: HW_TIMED_OUT,
});

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
}

// A full-edge atom carries no `vertices`.
wire_struct!(CoverAtomDto {
    req edge: EDGE,
    omit vertices: VERTICES,
});

wire_struct!(DecompNodeDto {
    req id: ID,
    null parent: PARENT,
    req bag: BAG,
    req cover: COVER,
});

wire_struct!(DecompositionDto {
    req method: METHOD,
    req width: WIDTH,
    req validation: VALIDATION,
    null fractional_width: FRACTIONAL_WIDTH,
    req nodes: NODES,
});

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

wire_enum!(AnalysisStatus {
    Queued = "queued",
    Running = "running",
    Done = "done",
    Failed = "failed",
});

impl AnalysisStatus {
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

wire_struct!(AnalysisResource {
    req id: ID,
    req status: STATUS,
    omit method: METHOD,
    omit cached: CACHED,
    omit result: RESULT,
    omit decomposition: DECOMPOSITION,
    omit error: ERROR,
});

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

wire_struct!(RepoStatsDto {
    req entries: ENTRIES,
    req analyzed: ANALYZED,
    req cyclic: CYCLIC,
    req hw_timeouts: HW_TIMEOUTS,
    req total_vertices: TOTAL_VERTICES,
    req total_edges: TOTAL_EDGES,
    req max_arity: MAX_ARITY,
    req by_class: BY_CLASS,
    req by_collection: BY_COLLECTION,
    req hw_exact: HW_EXACT,
});

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

wire_struct!(CacheStatsDto {
    req hits: HITS,
    req misses: MISSES,
    req len: LEN,
    req capacity: CAPACITY,
    req evictions: EVICTIONS,
    req spill_appends: SPILL_APPENDS,
    req spill_append_failures: SPILL_APPEND_FAILURES,
});

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

wire_struct!(JobStatsDto {
    req submitted: SUBMITTED,
    req queued: QUEUED,
    req running: RUNNING,
    req done: DONE,
    req failed: FAILED,
    req deduped: DEDUPED,
    req facts_reused: FACTS_REUSED,
});

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

wire_struct!(HistogramSummaryDto {
    req name: NAME,
    req count: COUNT,
    req sum: SUM,
    req mean: MEAN,
    req p50: P50,
    req p90: P90,
    req p99: P99,
});

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

wire_struct!(TelemetryDto {
    req counters: COUNTERS,
    req gauges: GAUGES,
    req histograms: HISTOGRAMS,
});

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

wire_struct!(QueryStatsDto {
    req queries: QUERIES,
    req errors: ERRORS,
    req rows_scanned: ROWS_SCANNED,
    req rows_hydrated: ROWS_HYDRATED,
});

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

// A payload from before HBQL has no `query` section: it decodes to
// zeroes rather than failing the whole stats read.
wire_struct!(StatsDto {
    req repository: REPOSITORY,
    req cache: CACHE,
    req jobs: JOBS_SECTION,
    default query: QUERY = QueryStatsDto::default(),
    req telemetry: TELEMETRY,
});

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

    /// Decodes `payload` with `decode`, which must fail naming `path`.
    fn rejects<T: std::fmt::Debug>(
        decode: fn(&Json) -> Result<T, DecodeError>,
        payload: &str,
        path: &str,
    ) {
        let err = decode(&Json::parse(payload).unwrap())
            .expect_err(&format!("{payload} must not decode"));
        assert!(
            err.0.starts_with(path),
            "{payload}: {err} does not name {path:?}"
        );
    }

    #[test]
    fn present_but_mistyped_or_out_of_range_fields_are_rejected() {
        let counters = r#""hits":0,"misses":0,"len":0,"capacity":0,"spill_appends":0"#;
        // A mistyped optional is not an absent one, and a negative
        // counter is not zero.
        rejects(
            AnalysisResource::from_json,
            r#"{"id":1,"status":"done","cached":"yes"}"#,
            "cached",
        );
        rejects(
            AnalysisResource::from_json,
            r#"{"id":1,"status":"failed","error":5}"#,
            "error",
        );
        rejects(
            CacheStatsDto::from_json,
            &format!(r#"{{{counters},"evictions":-1,"spill_append_failures":0}}"#),
            "evictions",
        );
        rejects(
            HistogramSummaryDto::from_json,
            r#"{"name":"h","count":-1,"sum":0,"mean":0,"p50":0,"p90":0,"p99":0}"#,
            "count",
        );
        rejects(
            TelemetryDto::from_json,
            r#"{"counters":{"c":-1},"gauges":{},"histograms":[]}"#,
            "counters: c",
        );
        rejects(
            QueryStatsDto::from_json,
            r#"{"queries":-1,"errors":0,"rows_scanned":0,"rows_hydrated":0}"#,
            "queries",
        );
        // The same rule everywhere else.
        rejects(
            AnalysisResource::from_json,
            r#"{"id":-1,"status":"done"}"#,
            "id",
        );
        rejects(
            AnalysisResource::from_json,
            r#"{"id":1,"status":"lost"}"#,
            "status",
        );
        rejects(
            AnalyzeRequest::from_json,
            r#"{"hypergraph":"e(a,b).","max_width":"3"}"#,
            "max_width",
        );
        rejects(
            WriteRequest::from_json,
            r#"{"hypergraph":"e(a,b).","collection":7}"#,
            "collection",
        );
        rejects(
            PageDto::from_json,
            r#"{"total":1,"items":[{"id":"x"}],"next_cursor":null}"#,
            "items: [0]: id",
        );
        rejects(
            PageDto::from_json,
            r#"{"total":0,"items":[],"next_cursor":null,"partial":[-1]}"#,
            "partial: [0]",
        );
        rejects(
            WriteReceipt::from_json,
            r#"{"id":1,"outcome":"created","seq":1,"content_hash":"zz"}"#,
            "content_hash",
        );
        rejects(QueryResponse::from_json, r#"{"kind":"tables"}"#, "kind");
        rejects(StatsDto::from_json, r#"{"repository":[]}"#, "repository");
        rejects(EntryDetail::from_json, "[]", "expected an object");
    }

    #[test]
    fn absent_or_null_optionals_decode_to_none_or_their_default() {
        let r = AnalysisResource::from_json(
            &Json::parse(r#"{"id":1,"status":"queued","method":null,"cached":null,"error":null}"#)
                .unwrap(),
        )
        .unwrap();
        assert_eq!((r.method, r.cached, r.error), (None, None, None));
        let req = AnalyzeRequest::from_json(
            &Json::parse(r#"{"hypergraph":"e.","method":null}"#).unwrap(),
        );
        assert_eq!(req.unwrap().method, AnalyzeMethod::Hd);
        let write =
            WriteRequest::from_json(&Json::parse(r#"{"hypergraph":"e.","class":null}"#).unwrap());
        assert_eq!(write, Ok(WriteRequest::new("e.")));
        // A required field is missing whether absent or null.
        rejects(EntrySummary::from_json, r#"{"id":null}"#, "id: missing");
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
