//! Decomposition-engine metric handles, registered once in the
//! process-global [`hyperbench_telemetry`] registry.
//!
//! The parallel search records scheduler events (steals, forks, helping
//! joins), the sharded memo its hits, the BalSep search how many
//! candidate separators it examined, the driver each budget-stopped run
//! and the width every completed search decided. All recording is one
//! relaxed atomic op — cheap enough for the fork–join hot path.

use std::sync::{Arc, OnceLock};

use hyperbench_telemetry::{global, Counter, Histogram};

/// Handles to every decomposition-side metric; obtained via [`metrics`].
#[derive(Debug)]
pub struct DecompMetrics {
    /// Forked tasks run by a thread other than the one that forked them.
    pub steals: Arc<Counter>,
    /// `fork_join` calls that actually fanned out (≥ 2 thunks).
    pub forks: Arc<Counter>,
    /// Tasks a forking worker executed while waiting for its siblings.
    pub helping_joins: Arc<Counter>,
    /// Sharded-memo lookups answered from a previous subproblem.
    pub memo_hits: Arc<Counter>,
    /// Candidate balanced separators examined by BalSep.
    pub separators_tried: Arc<Counter>,
    /// Searches stopped by a budget (timeout or cancellation).
    pub cancellations: Arc<Counter>,
    /// Width each completed width search decided.
    pub width_found: Arc<Histogram>,
}

/// The process-wide [`DecompMetrics`] bundle (registered on first use).
pub fn metrics() -> &'static DecompMetrics {
    static METRICS: OnceLock<DecompMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = global();
        DecompMetrics {
            steals: r.counter(
                "hyperbench_decomp_steals_total",
                "forked tasks run by a thread other than the one that forked them",
            ),
            forks: r.counter(
                "hyperbench_decomp_forks_total",
                "fork_join calls that fanned work out to the pool",
            ),
            helping_joins: r.counter(
                "hyperbench_decomp_helping_joins_total",
                "tasks a forking worker ran while waiting for its siblings",
            ),
            memo_hits: r.counter(
                "hyperbench_decomp_memo_hits_total",
                "sharded-memo lookups answered from a previous subproblem",
            ),
            separators_tried: r.counter(
                "hyperbench_decomp_separators_tried_total",
                "candidate balanced separators examined by BalSep",
            ),
            cancellations: r.counter(
                "hyperbench_decomp_cancellations_total",
                "searches stopped by a budget timeout or cancellation",
            ),
            width_found: r.histogram(
                "hyperbench_decomp_width_found",
                "width decided by each completed width search",
            ),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundle_is_a_singleton() {
        let a = metrics();
        let b = metrics();
        assert!(std::ptr::eq(a, b));
        a.memo_hits.inc();
        assert!(metrics().memo_hits.get() >= 1);
    }
}
