//! Property tests of the telemetry crate: log₂ histogram bucketing and
//! shard merging are exact, quantile bounds really bound, and registry
//! snapshots stay internally consistent while writer threads hammer the
//! same handles.

use std::sync::Arc;

use hyperbench_telemetry::metrics::{HistogramSnapshot, Registry, HISTOGRAM_BUCKETS};
use hyperbench_telemetry::{Histogram, HistogramSummary};
use proptest::prelude::*;

/// The bucket the shipped histogram must place `v` in: the first
/// log₂ bound covering it, saturated at the `+Inf` bucket.
fn expected_bucket(v: u64) -> usize {
    for i in 0..HISTOGRAM_BUCKETS - 1 {
        if v <= HistogramSnapshot::bound(i) {
            return i;
        }
    }
    HISTOGRAM_BUCKETS - 1
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn histogram_counts_every_observation_in_its_bucket(
        values in prop::collection::vec(0u64..1u64 << 40, 0..200)
    ) {
        let h = Histogram::default();
        let mut expected = [0u64; HISTOGRAM_BUCKETS];
        let mut sum = 0u64;
        for &v in &values {
            h.observe(v);
            expected[expected_bucket(v)] += 1;
            sum += v;
        }
        let snap = h.snapshot();
        prop_assert_eq!(snap.count, values.len() as u64);
        prop_assert_eq!(snap.sum, sum);
        prop_assert_eq!(snap.buckets, expected);
    }

    #[test]
    fn quantile_bounds_really_bound(
        values in prop::collection::vec(1u64..1u64 << 20, 1..200)
    ) {
        let h = Histogram::default();
        for &v in &values {
            h.observe(v);
        }
        let snap = h.snapshot();
        let max = *values.iter().max().unwrap();
        // Every quantile is an upper bound on that fraction of the data,
        // and never overshoots the max by more than one log₂ bucket.
        let p50 = snap.quantile(0.5).unwrap();
        let p99 = snap.quantile(0.99).unwrap();
        prop_assert!(p50 <= p99, "quantiles must be monotone");
        let over = values.iter().filter(|&&v| v > p50).count();
        prop_assert!(
            over * 2 <= values.len(),
            "more than half the data above the p50 bound"
        );
        prop_assert!(p99 <= max.next_power_of_two().max(1));
        // The summary DTO source agrees with the raw snapshot.
        let summary = HistogramSummary::of(&snap);
        prop_assert_eq!(summary.count, snap.count);
        prop_assert_eq!(summary.sum, snap.sum);
        prop_assert_eq!(summary.p50, p50);
        prop_assert_eq!(summary.p99, p99);
    }

    #[test]
    fn concurrent_recording_merges_exactly(
        per_thread in 1usize..300,
        threads in 2usize..8,
    ) {
        // Writers record through shards chosen per thread; the merged
        // snapshot must still account for every observation exactly.
        let registry = Registry::new();
        let hist = registry.histogram("t_props_lat_us", "test latency");
        let hits = registry.counter("t_props_hits_total", "test counter");
        std::thread::scope(|scope| {
            for t in 0..threads {
                let hist = Arc::clone(&hist);
                let hits = Arc::clone(&hits);
                scope.spawn(move || {
                    for i in 0..per_thread {
                        hist.observe((t * per_thread + i) as u64);
                        hits.inc();
                    }
                });
            }
        });
        let total = (threads * per_thread) as u64;
        let snap = registry.snapshot();
        prop_assert_eq!(snap.counter("t_props_hits_total"), Some(total));
        let merged = snap.histogram("t_props_lat_us").unwrap();
        prop_assert_eq!(merged.count, total);
        prop_assert_eq!(
            merged.buckets.iter().sum::<u64>(),
            total,
            "every observation lands in exactly one bucket"
        );
        let expected_sum: u64 = (0..total).sum();
        prop_assert_eq!(merged.sum, expected_sum);
    }

    #[test]
    fn snapshots_under_concurrent_writes_are_monotone_and_coherent(
        rounds in 2usize..20,
    ) {
        // A scraper racing one writer: counts and sums only grow, and a
        // snapshot never counts an observation it has not bucketed
        // (`snapshot` reads each shard's count first, so buckets can
        // only lead).
        let registry = Registry::new();
        let hist = registry.histogram("t_props_race_us", "raced histogram");
        let writer = {
            let hist = Arc::clone(&hist);
            move || {
                for v in 0..2_000u64 {
                    hist.observe(v % 1024);
                }
            }
        };
        std::thread::scope(|scope| {
            let handle = scope.spawn(writer);
            let mut last_count = 0u64;
            let mut last_sum = 0u64;
            for _ in 0..rounds {
                let s = hist.snapshot();
                prop_assert!(s.count >= last_count, "count went backwards");
                prop_assert!(s.sum >= last_sum, "sum went backwards");
                let buckets: u64 = s.buckets.iter().sum();
                prop_assert!(
                    buckets >= s.count,
                    "buckets lost observations: {} bucketed vs {} counted",
                    buckets,
                    s.count
                );
                last_count = s.count;
                last_sum = s.sum;
                std::thread::yield_now();
            }
            handle.join().expect("writer");
            Ok(())
        })?;
        let final_snap = hist.snapshot();
        prop_assert_eq!(final_snap.count, 2_000);
        prop_assert_eq!(final_snap.buckets.iter().sum::<u64>(), 2_000);
    }
}
