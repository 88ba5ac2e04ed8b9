//! The server's metric handles, registered once in the process-global
//! [`hyperbench_telemetry`] registry.
//!
//! Every hot subsystem records through the [`ServerMetrics`] bundle
//! returned by [`metrics`]: the epoll reactor counts wakeups, accepted
//! and reaped connections and zero-copy write bytes; the shared HTTP
//! layer feeds per-phase latency histograms (parse, handle, serialize)
//! and the overload counters (408/413/503); the job queue tracks its
//! depth, queue-wait / decompose latency and jobs that started from
//! recorded facts; the analysis cache counts hits, misses, evictions
//! and spill appends. All recording is relaxed
//! atomics — registration (the only lock) happens once per process.
//!
//! Metric names follow Prometheus conventions: counters end in
//! `_total`, latency histograms in `_us` (microsecond buckets).

use std::sync::{Arc, OnceLock};

use hyperbench_telemetry::{global, Counter, Gauge, Histogram};

/// Handles to every server-side metric; obtained via [`metrics`].
#[derive(Debug)]
pub struct ServerMetrics {
    /// Reactor: `epoll_wait` returns with at least one event.
    pub reactor_wakeups: Arc<Counter>,
    /// Reactor: connections accepted across all event loops.
    pub reactor_accepted: Arc<Counter>,
    /// Reactor: idle / deadline-expired connections closed by `sweep`.
    pub reactor_reaped: Arc<Counter>,
    /// Reactor: bytes flushed to sockets by the zero-copy write path.
    pub reactor_write_bytes: Arc<Counter>,
    /// Reactor: connections refused with a 503 because the slab is full.
    pub reactor_rejected_503: Arc<Counter>,
    /// Both engines: requests answered with a 408 (read deadline).
    pub http_responses_408: Arc<Counter>,
    /// Both engines: requests answered with a 413 (head/body too large).
    pub http_responses_413: Arc<Counter>,
    /// Both engines: requests fully parsed and dispatched.
    pub http_requests: Arc<Counter>,
    /// Microseconds from first request byte to a complete parse.
    pub http_parse_us: Arc<Histogram>,
    /// Microseconds spent in route + handler (the dispatch call).
    pub http_handle_us: Arc<Histogram>,
    /// Microseconds serializing a response into the write buffer.
    pub http_serialize_us: Arc<Histogram>,
    /// Analysis jobs currently waiting in the queue.
    pub jobs_queue_depth: Arc<Gauge>,
    /// Microseconds a job waited in the queue before a worker took it.
    pub jobs_queue_wait_us: Arc<Histogram>,
    /// Microseconds a worker spent inside one decomposition run.
    pub jobs_decompose_us: Arc<Histogram>,
    /// Analysis cache lookups answered from memory.
    pub cache_hits: Arc<Counter>,
    /// Analysis cache lookups that missed.
    pub cache_misses: Arc<Counter>,
    /// Cache entries evicted by the FIFO capacity bound.
    pub cache_evictions: Arc<Counter>,
    /// Results appended to the warm-restart spill file.
    pub cache_spill_appends: Arc<Counter>,
    /// Spill appends that failed (disk full, permissions, …).
    pub cache_spill_append_failures: Arc<Counter>,
    /// Analysis submissions shed by admission control (429).
    pub jobs_shed_total: Arc<Counter>,
    /// EWMA of decompose service time driving admission (microseconds).
    pub jobs_service_avg_us: Arc<Gauge>,
    /// Write requests shed by the reactor's offload-backlog bound (429).
    pub reactor_shed_total: Arc<Counter>,
    /// Requests whose propagated deadline expired before dispatch (408).
    pub deadline_expired_total: Arc<Counter>,
    /// Jobs dropped unstarted because their deadline had passed.
    pub jobs_deadline_skipped_total: Arc<Counter>,
    /// Jobs that started from facts an earlier analysis of the same
    /// document recorded (not a cache hit: the job still runs).
    pub jobs_facts_reused: Arc<Counter>,
}

/// The process-wide [`ServerMetrics`] bundle (registered on first use).
pub fn metrics() -> &'static ServerMetrics {
    static METRICS: OnceLock<ServerMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = global();
        ServerMetrics {
            reactor_wakeups: r.counter(
                "hyperbench_reactor_epoll_wakeups_total",
                "epoll_wait returns that delivered at least one event",
            ),
            reactor_accepted: r.counter(
                "hyperbench_reactor_conns_accepted_total",
                "connections accepted by the reactor event loops",
            ),
            reactor_reaped: r.counter(
                "hyperbench_reactor_conns_reaped_total",
                "connections closed by the idle/deadline sweep",
            ),
            reactor_write_bytes: r.counter(
                "hyperbench_reactor_write_bytes_total",
                "bytes flushed to client sockets by the reactor write path",
            ),
            reactor_rejected_503: r.counter(
                "hyperbench_reactor_conns_rejected_503_total",
                "connections refused with 503 because the connection slab was full",
            ),
            http_responses_408: r.counter(
                "hyperbench_http_responses_408_total",
                "requests answered 408 after missing the read deadline",
            ),
            http_responses_413: r.counter(
                "hyperbench_http_responses_413_total",
                "requests answered 413 for an oversized head or body",
            ),
            http_requests: r.counter(
                "hyperbench_http_requests_total",
                "requests fully parsed and dispatched to a handler",
            ),
            http_parse_us: r.histogram(
                "hyperbench_http_parse_us",
                "microseconds from first request byte to a complete parse",
            ),
            http_handle_us: r.histogram(
                "hyperbench_http_handle_us",
                "microseconds spent routing and handling one request",
            ),
            http_serialize_us: r.histogram(
                "hyperbench_http_serialize_us",
                "microseconds serializing one response",
            ),
            jobs_queue_depth: r.gauge(
                "hyperbench_jobs_queue_depth",
                "analysis jobs currently waiting in the queue",
            ),
            jobs_queue_wait_us: r.histogram(
                "hyperbench_jobs_queue_wait_us",
                "microseconds a job waited in the queue before a worker took it",
            ),
            jobs_decompose_us: r.histogram(
                "hyperbench_jobs_decompose_us",
                "microseconds a worker spent inside one decomposition run",
            ),
            cache_hits: r.counter(
                "hyperbench_cache_hits_total",
                "analysis cache lookups answered from memory",
            ),
            cache_misses: r.counter(
                "hyperbench_cache_misses_total",
                "analysis cache lookups that missed",
            ),
            cache_evictions: r.counter(
                "hyperbench_cache_evictions_total",
                "cache entries evicted by the FIFO capacity bound",
            ),
            cache_spill_appends: r.counter(
                "hyperbench_cache_spill_appends_total",
                "results appended to the warm-restart spill file",
            ),
            cache_spill_append_failures: r.counter(
                "hyperbench_cache_spill_append_failures_total",
                "spill appends that failed and were dropped",
            ),
            jobs_shed_total: r.counter(
                "hyperbench_jobs_shed_total",
                "analysis submissions shed by admission control with a 429",
            ),
            jobs_service_avg_us: r.gauge(
                "hyperbench_jobs_service_avg_us",
                "EWMA of decompose service time driving admission control",
            ),
            reactor_shed_total: r.counter(
                "hyperbench_reactor_shed_total",
                "write requests shed by the reactor offload-backlog bound with a 429",
            ),
            deadline_expired_total: r.counter(
                "hyperbench_deadline_expired_total",
                "requests whose propagated deadline expired before dispatch",
            ),
            jobs_deadline_skipped_total: r.counter(
                "hyperbench_jobs_deadline_skipped_total",
                "queued jobs dropped unstarted because their deadline had passed",
            ),
            jobs_facts_reused: r.counter(
                "hyperbench_jobs_facts_reused_total",
                "analysis jobs that started from facts recorded for the same document",
            ),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundle_is_a_singleton_sharing_registry_handles() {
        let a = metrics();
        let b = metrics();
        assert!(std::ptr::eq(a, b));
        // The registry hands back the same underlying counter.
        let again = global().counter("hyperbench_cache_hits_total", "dup");
        again.inc();
        assert!(a.cache_hits.get() >= 1);
    }
}
