//! The HyperBench telemetry spine: a zero-dependency metrics registry,
//! a structured leveled logger, and request-tracing helpers.
//!
//! The serving stack (reactor, worker pool, analysis cache, pack
//! backend, decomposition engine) records into process-global metric
//! handles on its hot paths using relaxed atomics — no locks, no
//! allocation — and the HTTP layer exposes point-in-time snapshots as
//! Prometheus text (`GET /metrics`) and a typed JSON DTO
//! (`GET /v1/stats`).
//!
//! Three pillars:
//!
//! * [`metrics`] — [`Counter`], [`Gauge`], and log₂-bucketed
//!   [`Histogram`]s with mergeable per-thread shards, registered by
//!   name in the global [`Registry`] and snapshotted without stopping
//!   writers;
//! * [`log`] — a leveled key=value logger on stderr, configured by the
//!   `HYPERBENCH_LOG` env var or an explicit [`log::set_level`] call,
//!   with an [`log::Every`] rate limiter for error paths that would
//!   otherwise spam under sustained failure;
//! * [`trace`] — process-unique request ids assigned at accept and
//!   carried through router → handler → job queue → decomposition, and
//!   a monotonic [`trace::SpanTimer`] feeding per-phase latency
//!   histograms.

#![forbid(unsafe_code)]

pub mod log;
pub mod metrics;
pub mod trace;

pub use metrics::{
    global, Counter, Gauge, Histogram, HistogramSnapshot, HistogramSummary, MetricSnapshot,
    Registry, RegistrySnapshot,
};
pub use trace::{current_request_id, next_request_id, with_request_id, SpanTimer};
