//! Pack-backend metric handles, registered once in the process-global
//! [`hyperbench_telemetry`] registry.
//!
//! The paged pack store counts every page it reads off disk and every
//! checksum it verifies (pages on the record path, sections at open),
//! making cold-read amplification visible next to the server's cache
//! hit rate.

use std::sync::{Arc, OnceLock};

use hyperbench_telemetry::{global, Counter, Gauge, Histogram};

/// Handles to every pack-store metric; obtained via [`metrics`].
#[derive(Debug)]
pub struct RepoMetrics {
    /// Data pages read and verified while hydrating records.
    pub pack_page_hydrations: Arc<Counter>,
    /// Checksums verified (data pages plus index/section reads).
    pub pack_checksum_reads: Arc<Counter>,
    /// Entry payloads parsed from `.hg` text while hydrating records.
    pub pack_entries_parsed: Arc<Counter>,
    /// WAL records appended (each one durable mutation).
    pub wal_appends: Arc<Counter>,
    /// `fdatasync` calls on the WAL (the commit points).
    pub wal_fsyncs: Arc<Counter>,
    /// Framed bytes appended to the WAL.
    pub wal_append_bytes: Arc<Counter>,
    /// Current WAL size in bytes (shrinks when checkpoints rewrite it).
    pub wal_size_bytes: Arc<Gauge>,
    /// Checkpoints completed (WAL folded into fresh pack pages).
    pub wal_checkpoints: Arc<Counter>,
    /// Checkpoint wall time, microseconds.
    pub wal_checkpoint_us: Arc<Histogram>,
    /// Commit sequence number of the current snapshot.
    pub mvcc_snapshot_seq: Arc<Gauge>,
    /// Snapshots alive (current + retained for cursor pinning).
    pub mvcc_snapshots_active: Arc<Gauge>,
    /// Age of the displaced snapshot at commit time, microseconds —
    /// how long the previous generation stayed current.
    pub mvcc_snapshot_age_us: Arc<Histogram>,
    /// Torn WAL tails dropped during recovery.
    pub wal_torn_tail_recoveries: Arc<Counter>,
    /// Whether the store is currently degraded (1) or healthy (0).
    pub store_degraded: Arc<Gauge>,
    /// Healthy→degraded transitions (a WAL append/fsync failure).
    pub store_degraded_total: Arc<Counter>,
    /// Degraded→healthy transitions (supervised WAL recovery).
    pub store_recoveries: Arc<Counter>,
    /// Writes refused because the store was degraded.
    pub store_degraded_rejects: Arc<Counter>,
}

/// The process-wide [`RepoMetrics`] bundle (registered on first use).
pub fn metrics() -> &'static RepoMetrics {
    static METRICS: OnceLock<RepoMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = global();
        RepoMetrics {
            pack_page_hydrations: r.counter(
                "hyperbench_pack_page_hydrations_total",
                "data pages read and checksum-verified while hydrating records",
            ),
            pack_checksum_reads: r.counter(
                "hyperbench_pack_checksum_reads_total",
                "checksums verified across page and section reads",
            ),
            pack_entries_parsed: r.counter(
                "hyperbench_pack_entries_parsed_total",
                "entry payloads parsed from .hg text while hydrating records",
            ),
            wal_appends: r.counter(
                "hyperbench_wal_appends_total",
                "records appended to the write-ahead log",
            ),
            wal_fsyncs: r.counter(
                "hyperbench_wal_fsyncs_total",
                "fdatasync calls made durable on the write-ahead log",
            ),
            wal_append_bytes: r.counter(
                "hyperbench_wal_append_bytes_total",
                "framed bytes appended to the write-ahead log",
            ),
            wal_size_bytes: r.gauge(
                "hyperbench_wal_size_bytes",
                "current size of the write-ahead log in bytes",
            ),
            wal_checkpoints: r.counter(
                "hyperbench_wal_checkpoints_total",
                "checkpoints folding WAL records into pack pages",
            ),
            wal_checkpoint_us: r.histogram(
                "hyperbench_wal_checkpoint_us",
                "checkpoint wall time in microseconds",
            ),
            mvcc_snapshot_seq: r.gauge(
                "hyperbench_mvcc_snapshot_seq",
                "commit sequence number of the current snapshot",
            ),
            mvcc_snapshots_active: r.gauge(
                "hyperbench_mvcc_snapshots_active",
                "snapshots alive (current plus retained for cursors)",
            ),
            mvcc_snapshot_age_us: r.histogram(
                "hyperbench_mvcc_snapshot_age_us",
                "lifetime of each displaced snapshot in microseconds",
            ),
            wal_torn_tail_recoveries: r.counter(
                "hyperbench_wal_torn_tail_recoveries_total",
                "torn WAL tails dropped during recovery",
            ),
            store_degraded: r.gauge(
                "hyperbench_store_degraded",
                "1 while the store is degraded (read-only after a WAL failure), else 0",
            ),
            store_degraded_total: r.counter(
                "hyperbench_store_degraded_total",
                "healthy-to-degraded transitions after a WAL append/fsync failure",
            ),
            store_recoveries: r.counter(
                "hyperbench_store_recoveries_total",
                "degraded-to-healthy transitions via supervised WAL recovery",
            ),
            store_degraded_rejects: r.counter(
                "hyperbench_store_degraded_rejects_total",
                "writes refused while the store was degraded",
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
