//! # hyperbench-api
//!
//! The versioned wire contract of the HyperBench service: one crate that
//! both sides of the HTTP boundary compile against.
//!
//! * [`json`]: the zero-dependency JSON value type, writer, and parser
//!   (relocated here from `hyperbench-server` so clients need no server
//!   dependency),
//! * [`schema`]: the single constant table of field names, shared with
//!   the repository's `index.tsv` store schema,
//! * [`dto`]: typed request/response DTOs (`EntrySummary`,
//!   `AnalysisReport`, `DecompositionDto`, `AnalyzeRequest`, …), each
//!   owning its JSON encode/decode,
//! * [`cursor`]: opaque keyset pagination cursors,
//! * [`error`]: structured [`ApiError`]s with stable machine-readable
//!   codes,
//! * [`http`]: the client side of HTTP/1.1 — the one request writer and
//!   the one blocking response reader every caller shares,
//! * [`client`]: a native `std::net` client
//!   ([`Client`]) speaking the `/v1` routes.
//!
//! ```no_run
//! use hyperbench_api::{AnalyzeRequest, Client};
//! use std::time::Duration;
//!
//! let client = Client::new("127.0.0.1:8080".parse().unwrap());
//! let done = client
//!     .analyze(&AnalyzeRequest::hd("e1(a,b),e2(b,c)."), Duration::from_secs(30))
//!     .unwrap();
//! println!("hw ≤ {:?}", done.result.unwrap().hw_upper);
//! ```

pub mod client;
pub mod cursor;
pub mod dto;
pub mod error;
pub mod http;
pub mod json;
pub mod schema;

pub use client::{Client, ClientError, ListQuery, RetryPolicy};
pub use cursor::{CursorError, PageCursor, ScatterCursor, ShardSlot};
pub use dto::{
    AnalysisReport, AnalysisResource, AnalysisStatus, AnalyzeMethod, AnalyzeRequest, CacheStatsDto,
    CoverAtomDto, DecodeError, DecompNodeDto, DecompositionDto, EdgeDto, EntryDetail, EntrySummary,
    HistogramSummaryDto, JobStatsDto, PageDto, QueryRequest, QueryResponse, QueryStatsDto,
    RepoStatsDto, StatsDto, TelemetryDto, WriteOutcome, WriteReceipt, WriteRequest,
};
pub use error::{ApiError, ErrorCode};
/// FNV-1a (cursor checksums here, shard placement in the router).
pub use hyperbench_core::hash;
pub use json::Json;
