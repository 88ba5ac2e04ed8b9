//! Lock-light metrics: atomic counters and gauges, log₂-bucketed
//! histograms with mergeable per-thread shards, and a process-global
//! [`Registry`] that renders point-in-time snapshots as Prometheus
//! text.
//!
//! Recording is wait-free: a counter increment is one relaxed
//! `fetch_add`; a histogram observation is three relaxed `fetch_add`s
//! on a shard owned (statistically) by the recording thread. The
//! registry's mutex is touched only at registration (startup) and
//! snapshot (a `/metrics` scrape), never on the record path.

use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of histogram buckets, including the final `+Inf` bucket.
/// Finite bucket `i` holds observations `v ≤ 2^i`, so the largest
/// finite bound is `2^26` — about 67 s when recording microseconds.
pub const HISTOGRAM_BUCKETS: usize = 28;

/// Number of per-thread histogram shards. Threads hash onto shards
/// round-robin; concurrent writers on distinct shards never contend on
/// the same cache line set.
const HISTOGRAM_SHARDS: usize = 8;

/// A monotonically increasing counter.
///
/// Increments are relaxed atomics: cheap on the hot path, and a
/// snapshot sees some recent consistent-enough value (counters only
/// move up, so scrapes are monotone too).
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A signed gauge for instantaneous levels (queue depth, open
/// connections).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Sets the gauge to `v`.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative via [`Gauge::sub`]).
    #[inline]
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`.
    #[inline]
    pub fn sub(&self, n: i64) {
        self.value.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// One histogram shard: a fixed bucket array plus sum and count.
/// Padded to its own cache lines would be nicer, but distinct
/// allocations inside the array already keep cross-thread interference
/// modest, and the record path stays allocation-free either way.
#[derive(Debug, Default)]
struct HistShard {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

/// A fixed-bucket log₂-scale histogram with per-thread shards.
///
/// Bucket `i < HISTOGRAM_BUCKETS-1` counts observations `v ≤ 2^i`; the
/// last bucket is `+Inf`. Each recording thread writes one shard
/// (chosen once per thread, round-robin), and [`Histogram::snapshot`]
/// merges all shards into one [`HistogramSnapshot`] — the "mergeable
/// per-thread shards" design: writers never coordinate, readers pay
/// the merge.
#[derive(Debug, Default)]
pub struct Histogram {
    shards: [HistShard; HISTOGRAM_SHARDS],
}

/// The bucket index for an observed value.
#[inline]
fn bucket_index(v: u64) -> usize {
    // v ≤ 2^i  ⇔  bit_length(v-1) ≤ i, so ceil(log2(v)) indexes the
    // first bucket whose inclusive upper bound covers v.
    let i = match v {
        0 | 1 => 0,
        _ => (64 - (v - 1).leading_zeros()) as usize,
    };
    i.min(HISTOGRAM_BUCKETS - 1)
}

/// The inclusive upper bound of finite bucket `i`.
#[inline]
fn bucket_bound(i: usize) -> u64 {
    1u64 << i
}

fn shard_of_current_thread() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: usize = NEXT.fetch_add(1, Ordering::Relaxed) % HISTOGRAM_SHARDS;
    }
    SHARD.with(|s| *s)
}

impl Histogram {
    /// Records one observation.
    #[inline]
    pub fn observe(&self, v: u64) {
        let shard = &self.shards[shard_of_current_thread()];
        shard.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        shard.sum.fetch_add(v, Ordering::Relaxed);
        // Publishes the bucket and sum updates above; pairs with the
        // `Acquire` load in `snapshot`.
        shard.count.fetch_add(1, Ordering::Release);
    }

    /// Merges all shards into a point-in-time snapshot. Concurrent
    /// recording may land an observation's bucket and count in
    /// different scrapes; both only ever grow, and a snapshot never
    /// counts an observation it has not bucketed: **the bucket total
    /// is always ≥ `count`** (and `sum` covers at least the counted
    /// observations). Each shard's `count` is read first, with
    /// `Acquire`: every `observe` whose `Release` increment that load
    /// sees had already added to its bucket and to `sum`, so the reads
    /// that follow include it however long the scraper was descheduled
    /// in between.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        let mut sum = 0u64;
        let mut count = 0u64;
        for shard in &self.shards {
            count += shard.count.load(Ordering::Acquire);
            sum += shard.sum.load(Ordering::Relaxed);
            for (acc, b) in buckets.iter_mut().zip(shard.buckets.iter()) {
                *acc += b.load(Ordering::Relaxed);
            }
        }
        HistogramSnapshot {
            buckets,
            sum,
            count,
        }
    }
}

/// A merged, point-in-time view of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (not cumulative); the last bucket
    /// is `+Inf`.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Sum of all observed values.
    pub sum: u64,
    /// Total number of observations.
    pub count: u64,
}

impl HistogramSnapshot {
    /// The inclusive upper bound of finite bucket `i` (`2^i`).
    pub fn bound(i: usize) -> u64 {
        bucket_bound(i)
    }

    /// An upper bound on the `q`-quantile (0.0 ≤ q ≤ 1.0): the bound
    /// of the first bucket whose cumulative count reaches `q · count`.
    /// Returns `None` when the histogram is empty; the `+Inf` bucket
    /// reports the largest finite bound.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return Some(bucket_bound(i.min(HISTOGRAM_BUCKETS - 2)));
            }
        }
        Some(bucket_bound(HISTOGRAM_BUCKETS - 2))
    }

    /// Mean observed value, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }
}

/// What kind of metric a registry entry is, with its snapshot value.
///
/// The histogram variant is ~240 bytes against the scalars' 8; the
/// size skew is accepted unboxed because snapshots are built only on
/// scrape, entry counts are small (dozens), and keeping the buckets
/// inline avoids a per-histogram allocation on every scrape.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum MetricSnapshot {
    /// A monotone counter value.
    Counter(u64),
    /// An instantaneous gauge level.
    Gauge(i64),
    /// A merged histogram.
    Histogram(HistogramSnapshot),
}

/// One named metric in a [`RegistrySnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricEntry {
    /// The metric name (`snake_case`, Prometheus-safe).
    pub name: &'static str,
    /// One-line help text.
    pub help: &'static str,
    /// The snapshot value.
    pub value: MetricSnapshot,
}

/// A point-in-time view of every registered metric, in registration
/// order.
#[derive(Debug, Clone, Default)]
pub struct RegistrySnapshot {
    /// The metric entries.
    pub entries: Vec<MetricEntry>,
}

impl RegistrySnapshot {
    /// Looks up a counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.entries.iter().find(|e| e.name == name).and_then(|e| {
            if let MetricSnapshot::Counter(v) = e.value {
                Some(v)
            } else {
                None
            }
        })
    }

    /// Looks up a gauge value by name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.entries.iter().find(|e| e.name == name).and_then(|e| {
            if let MetricSnapshot::Gauge(v) = e.value {
                Some(v)
            } else {
                None
            }
        })
    }

    /// Looks up a histogram snapshot by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.entries.iter().find(|e| e.name == name).and_then(|e| {
            if let MetricSnapshot::Histogram(ref h) = e.value {
                Some(h)
            } else {
                None
            }
        })
    }

    /// Renders the snapshot in the Prometheus text exposition format
    /// (`text/plain; version=0.0.4`): `# HELP` / `# TYPE` preamble per
    /// metric, cumulative `_bucket{le="…"}` series plus `_sum` and
    /// `_count` for histograms.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::with_capacity(4096);
        for e in &self.entries {
            out.push_str("# HELP ");
            out.push_str(e.name);
            out.push(' ');
            out.push_str(e.help);
            out.push('\n');
            out.push_str("# TYPE ");
            out.push_str(e.name);
            match &e.value {
                MetricSnapshot::Counter(v) => {
                    out.push_str(" counter\n");
                    out.push_str(&format!("{} {v}\n", e.name));
                }
                MetricSnapshot::Gauge(v) => {
                    out.push_str(" gauge\n");
                    out.push_str(&format!("{} {v}\n", e.name));
                }
                MetricSnapshot::Histogram(h) => {
                    out.push_str(" histogram\n");
                    let mut cum = 0u64;
                    for (i, b) in h.buckets.iter().enumerate() {
                        cum += b;
                        if i == HISTOGRAM_BUCKETS - 1 {
                            out.push_str(&format!("{}_bucket{{le=\"+Inf\"}} {cum}\n", e.name));
                        } else {
                            out.push_str(&format!(
                                "{}_bucket{{le=\"{}\"}} {cum}\n",
                                e.name,
                                bucket_bound(i)
                            ));
                        }
                    }
                    out.push_str(&format!("{}_sum {}\n", e.name, h.sum));
                    out.push_str(&format!("{}_count {}\n", e.name, h.count));
                }
            }
        }
        out
    }
}

enum Slot {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

struct Entry {
    name: &'static str,
    help: &'static str,
    slot: Slot,
}

/// A named collection of metrics. Registration is idempotent by name —
/// two callers asking for the same counter share one handle, so
/// multiple in-process servers (tests) accumulate into the same
/// metric.
#[derive(Default)]
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
}

impl Registry {
    /// An empty registry. Most callers want [`global`] instead.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn register<T>(
        &self,
        name: &'static str,
        help: &'static str,
        project: impl Fn(&Slot) -> Option<Arc<T>>,
        make: impl FnOnce() -> Slot,
    ) -> Arc<T> {
        let mut entries = self.entries.lock().expect("metrics registry poisoned");
        if let Some(e) = entries.iter().find(|e| e.name == name) {
            return project(&e.slot).unwrap_or_else(|| {
                panic!("metric {name:?} already registered with a different kind")
            });
        }
        let slot = make();
        let handle = project(&slot).expect("freshly made slot has the right kind");
        entries.push(Entry { name, help, slot });
        handle
    }

    /// The counter named `name`, registering it on first use.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different kind.
    pub fn counter(&self, name: &'static str, help: &'static str) -> Arc<Counter> {
        self.register(
            name,
            help,
            |s| match s {
                Slot::Counter(c) => Some(Arc::clone(c)),
                _ => None,
            },
            || Slot::Counter(Arc::new(Counter::default())),
        )
    }

    /// The gauge named `name`, registering it on first use.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different kind.
    pub fn gauge(&self, name: &'static str, help: &'static str) -> Arc<Gauge> {
        self.register(
            name,
            help,
            |s| match s {
                Slot::Gauge(g) => Some(Arc::clone(g)),
                _ => None,
            },
            || Slot::Gauge(Arc::new(Gauge::default())),
        )
    }

    /// The histogram named `name`, registering it on first use.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different kind.
    pub fn histogram(&self, name: &'static str, help: &'static str) -> Arc<Histogram> {
        self.register(
            name,
            help,
            |s| match s {
                Slot::Histogram(h) => Some(Arc::clone(h)),
                _ => None,
            },
            || Slot::Histogram(Arc::new(Histogram::default())),
        )
    }

    /// Snapshots every registered metric, in registration order.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let entries = self.entries.lock().expect("metrics registry poisoned");
        RegistrySnapshot {
            entries: entries
                .iter()
                .map(|e| MetricEntry {
                    name: e.name,
                    help: e.help,
                    value: match &e.slot {
                        Slot::Counter(c) => MetricSnapshot::Counter(c.get()),
                        Slot::Gauge(g) => MetricSnapshot::Gauge(g.get()),
                        Slot::Histogram(h) => MetricSnapshot::Histogram(h.snapshot()),
                    },
                })
                .collect(),
        }
    }
}

/// The process-global registry every subsystem records into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// A typed bundle of histogram summary stats for wire DTOs: count,
/// mean, and the p50/p90/p99 bucket upper bounds.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSummary {
    /// Observation count.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Mean observed value (0 when empty).
    pub mean: f64,
    /// Upper bound on the median.
    pub p50: u64,
    /// Upper bound on the 90th percentile.
    pub p90: u64,
    /// Upper bound on the 99th percentile.
    pub p99: u64,
}

impl HistogramSummary {
    /// Summarizes a snapshot.
    pub fn of(h: &HistogramSnapshot) -> HistogramSummary {
        HistogramSummary {
            count: h.count,
            sum: h.sum,
            mean: h.mean().unwrap_or(0.0),
            p50: h.quantile(0.50).unwrap_or(0),
            p90: h.quantile(0.90).unwrap_or(0),
            p99: h.quantile(0.99).unwrap_or(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_inclusive_powers_of_two() {
        // v ≤ 2^i defines bucket i: the boundary value lands low, the
        // successor rolls over.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        for i in 0..HISTOGRAM_BUCKETS - 1 {
            let bound = bucket_bound(i);
            assert_eq!(bucket_index(bound), i, "bound {bound} in its own bucket");
            if bound > 1 {
                assert_eq!(bucket_index(bound + 1), i + 1, "successor rolls over");
            }
        }
        // Values beyond the largest finite bound clamp into +Inf.
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn histogram_merges_shards_and_summarizes() {
        let h = Histogram::default();
        // Record from several threads so multiple shards fill.
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let h = &h;
                s.spawn(move || {
                    for v in [1u64, 3, 100, 5000] {
                        h.observe(v * (t + 1));
                    }
                });
            }
        });
        let snap = h.snapshot();
        assert_eq!(snap.count, 16);
        assert_eq!(
            snap.sum,
            (1 + 3 + 100 + 5000) * (1 + 2 + 3 + 4),
            "sum merges across shards"
        );
        assert_eq!(snap.buckets.iter().sum::<u64>(), snap.count);
        assert!(snap.quantile(0.5).unwrap() <= snap.quantile(0.99).unwrap());
        assert!(snap.mean().unwrap() > 0.0);
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let snap = Histogram::default().snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.quantile(0.5), None);
        assert_eq!(snap.mean(), None);
    }

    #[test]
    fn registry_is_idempotent_by_name() {
        let r = Registry::new();
        let a = r.counter("test_total", "help");
        let b = r.counter("test_total", "help");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3, "same name shares one handle");
        let snap = r.snapshot();
        assert_eq!(snap.counter("test_total"), Some(3));
        assert_eq!(snap.counter("missing"), None);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn registry_rejects_kind_mismatch() {
        let r = Registry::new();
        let _ = r.counter("kind_clash", "help");
        let _ = r.gauge("kind_clash", "help");
    }

    #[test]
    fn prometheus_rendering_shape() {
        let r = Registry::new();
        r.counter("reqs_total", "requests").add(7);
        r.gauge("depth", "queue depth").set(-2);
        let h = r.histogram("lat_us", "latency");
        h.observe(1);
        h.observe(3);
        h.observe(1_000_000_000);
        let text = r.snapshot().render_prometheus();
        assert!(text.contains("# TYPE reqs_total counter"));
        assert!(text.contains("reqs_total 7"));
        assert!(text.contains("# TYPE depth gauge"));
        assert!(text.contains("depth -2"));
        assert!(text.contains("# TYPE lat_us histogram"));
        assert!(text.contains("lat_us_bucket{le=\"1\"} 1"));
        assert!(text.contains("lat_us_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("lat_us_sum 1000000004"));
        assert!(text.contains("lat_us_count 3"));
        // Cumulative buckets never decrease.
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.starts_with("lat_us_bucket")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "cumulative buckets are monotone: {line}");
            last = v;
        }
    }

    #[test]
    fn quantile_bounds_are_bucket_bounds() {
        let h = Histogram::default();
        for _ in 0..90 {
            h.observe(10); // bucket le=16
        }
        for _ in 0..10 {
            h.observe(1000); // bucket le=1024
        }
        let snap = h.snapshot();
        assert_eq!(snap.quantile(0.5), Some(16));
        assert_eq!(snap.quantile(0.99), Some(1024));
        let summary = HistogramSummary::of(&snap);
        assert_eq!(summary.count, 100);
        assert_eq!(summary.p50, 16);
        assert_eq!(summary.p99, 1024);
    }
}
