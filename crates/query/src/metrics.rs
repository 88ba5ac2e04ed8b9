//! The `query` metric family, registered once in the process-global
//! [`hyperbench_telemetry`] registry.
//!
//! The scanned/hydrated counter pair makes the executor's no-hydration
//! invariant observable: every catalog field resolves from `EntryMeta`,
//! so `rows_hydrated` stays at zero while `rows_scanned` climbs;
//! `tests/no_hydration.rs` asserts the pack-side counterpart.

use std::sync::{Arc, OnceLock};

use hyperbench_telemetry::{global, Counter, Histogram};

/// Handles to every query metric; obtained via [`metrics`].
#[derive(Debug)]
pub struct QueryMetrics {
    /// Queries compiled (parse + resolve), successful or not.
    pub queries: Arc<Counter>,
    /// Queries rejected at lex, parse, or resolve time.
    pub errors: Arc<Counter>,
    /// Lex + parse wall time, microseconds.
    pub parse_us: Arc<Histogram>,
    /// Resolve (type-check/plan) wall time, microseconds.
    pub plan_us: Arc<Histogram>,
    /// Execution wall time over the metadata scan, microseconds.
    pub execute_us: Arc<Histogram>,
    /// Metadata rows visited by the executor.
    pub rows_scanned: Arc<Counter>,
    /// Rows whose evaluation had to hydrate the full entry (zero while
    /// every catalog field is index-resident).
    pub rows_hydrated: Arc<Counter>,
}

/// The process-wide [`QueryMetrics`] bundle (registered on first use).
pub fn metrics() -> &'static QueryMetrics {
    static METRICS: OnceLock<QueryMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = global();
        QueryMetrics {
            queries: r.counter(
                "hyperbench_query_queries_total",
                "HBQL queries compiled (parse + resolve)",
            ),
            errors: r.counter(
                "hyperbench_query_errors_total",
                "HBQL queries rejected at lex, parse, or resolve time",
            ),
            parse_us: r.histogram(
                "hyperbench_query_parse_us",
                "HBQL lex + parse wall time in microseconds",
            ),
            plan_us: r.histogram(
                "hyperbench_query_plan_us",
                "HBQL resolve/plan wall time in microseconds",
            ),
            execute_us: r.histogram(
                "hyperbench_query_execute_us",
                "HBQL execution wall time in microseconds",
            ),
            rows_scanned: r.counter(
                "hyperbench_query_rows_scanned_total",
                "metadata rows visited by the HBQL executor",
            ),
            rows_hydrated: r.counter(
                "hyperbench_query_rows_hydrated_total",
                "rows the HBQL executor had to hydrate beyond the metadata index",
            ),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundle_is_a_singleton() {
        assert!(std::ptr::eq(metrics(), metrics()));
    }
}
