//! Shared fixtures for the criterion benches: deterministic slices of the
//! generated benchmark, grouped the way the paper's tables group them —
//! plus [`TelemetryBaseline`], which dumps engine counters (memo hits,
//! steals, queue depth, latency summaries) next to the criterion-shim
//! timing lines so the CI perf artifacts carry cause alongside effect —
//! and the keep-alive connection ([`connect`]) of the benches that
//! drive a live server.

use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use hyperbench_api::http::ResponseReader;
use hyperbench_core::Hypergraph;
use hyperbench_datagen::{generate_collection, BenchClass, Instance, TABLE1};
use hyperbench_telemetry::metrics::MetricSnapshot;
use hyperbench_telemetry::{HistogramSnapshot, HistogramSummary, RegistrySnapshot};

/// Opens a keep-alive connection to a server under test (30 s read
/// timeout, `TCP_NODELAY`).
pub fn connect(addr: SocketAddr) -> ResponseReader<TcpStream> {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    stream.set_nodelay(true).expect("nodelay");
    ResponseReader::new(stream)
}

/// A small, deterministic slice of every collection (a few instances
/// each), used by the per-table benches.
///
/// Every collection contributes at least one instance: the per-spec
/// scale is clamped from below so a small slice of a large collection
/// (where `per_collection / spec.count` rounds toward zero) can never
/// drop the collection from the slice entirely.
pub fn benchmark_slice(per_collection: usize) -> Vec<Instance> {
    // `generate_collection` already guarantees ≥1 instance per spec
    // (its internal count is ceil(count·scale) clamped to 1), so the
    // clamp needed here is on the truncation bound.
    let per_collection = per_collection.max(1);
    TABLE1
        .iter()
        .flat_map(|spec| {
            let scale = per_collection as f64 / spec.count as f64;
            let mut v = generate_collection(spec, 42, scale);
            v.truncate(per_collection);
            v
        })
        .collect()
}

/// One representative hypergraph per benchmark class.
pub fn representatives() -> Vec<(BenchClass, Hypergraph)> {
    let mut out = Vec::new();
    for class in BenchClass::ALL {
        let spec = TABLE1.iter().find(|s| s.class == class).unwrap();
        let inst = generate_collection(spec, 42, 1.0 / spec.count as f64)
            .into_iter()
            .next()
            .expect("at least one instance");
        out.push((class, inst.hypergraph));
    }
    out
}

/// Cyclic instances whose hw lies in the given range — the grouping used
/// by Tables 3–6. Computed with a generous budget.
pub fn instances_with_hw(lo: usize, hi: usize, max_instances: usize) -> Vec<(usize, Hypergraph)> {
    use hyperbench_decomp::driver::hypertree_width;
    use std::time::Duration;
    let mut out = Vec::new();
    for inst in benchmark_slice(6) {
        if out.len() >= max_instances {
            break;
        }
        let hw = hypertree_width(&inst.hypergraph, hi + 1, Duration::from_millis(300));
        if let Some(k) = hw.upper {
            if (lo..=hi).contains(&k) {
                out.push((k, inst.hypergraph));
            }
        }
    }
    out
}

/// A captured baseline of the global telemetry registry.
///
/// Benches take a baseline before a variant, run it, and
/// [`emit`](Self::emit) what changed as one JSON line into the same
/// `CRITERION_SHIM_JSON` feed the timing lines go to. Counters and
/// histograms are reported as deltas since the baseline (the registry
/// is process-global and monotone, so per-variant attribution needs
/// the subtraction); gauges report their instantaneous level.
pub struct TelemetryBaseline {
    prefixes: Vec<&'static str>,
    snap: RegistrySnapshot,
}

impl TelemetryBaseline {
    /// Captures current global values for metrics whose names start
    /// with any of `prefixes` (every metric when the slice is empty).
    pub fn capture(prefixes: &[&'static str]) -> TelemetryBaseline {
        TelemetryBaseline {
            prefixes: prefixes.to_vec(),
            snap: hyperbench_telemetry::global().snapshot(),
        }
    }

    fn matches(&self, name: &str) -> bool {
        self.prefixes.is_empty() || self.prefixes.iter().any(|p| name.starts_with(p))
    }

    /// Emits the change since the last capture as one
    /// `{"bench":"<label>/telemetry",…}` line appended to the file named
    /// by `CRITERION_SHIM_JSON`, prints a compact human-readable line,
    /// and re-arms the baseline at the current values. Like the shim's
    /// own timing lines, a missing or unwritable feed never panics.
    pub fn emit(&mut self, label: &str) {
        let now = hyperbench_telemetry::global().snapshot();
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut histograms = Vec::new();
        let mut human = String::new();
        for e in &now.entries {
            if !self.matches(e.name) {
                continue;
            }
            match &e.value {
                MetricSnapshot::Counter(v) => {
                    let delta = v.saturating_sub(self.snap.counter(e.name).unwrap_or(0));
                    counters.push(format!("{:?}:{delta}", e.name));
                    human.push_str(&format!(" {}={delta}", e.name));
                }
                MetricSnapshot::Gauge(v) => {
                    gauges.push(format!("{:?}:{v}", e.name));
                }
                MetricSnapshot::Histogram(h) => {
                    let base = self.snap.histogram(e.name);
                    let mut buckets = h.buckets;
                    if let Some(b) = base {
                        for (x, y) in buckets.iter_mut().zip(b.buckets.iter()) {
                            *x = x.saturating_sub(*y);
                        }
                    }
                    let delta = HistogramSnapshot {
                        buckets,
                        sum: h.sum.saturating_sub(base.map_or(0, |b| b.sum)),
                        count: h.count.saturating_sub(base.map_or(0, |b| b.count)),
                    };
                    let s = HistogramSummary::of(&delta);
                    histograms.push(format!(
                        "{:?}:{{\"count\":{},\"sum\":{},\"p50\":{},\"p99\":{}}}",
                        e.name, s.count, s.sum, s.p50, s.p99
                    ));
                }
            }
        }
        println!("{label:<40} telemetry:{human}");
        self.snap = now;

        let Ok(path) = std::env::var("CRITERION_SHIM_JSON") else {
            return;
        };
        if path.is_empty() {
            return;
        }
        let line = format!(
            "{{\"bench\":{:?},\"counters\":{{{}}},\"gauges\":{{{}}},\"histograms\":{{{}}}}}\n",
            format!("{label}/telemetry"),
            counters.join(","),
            gauges.join(","),
            histograms.join(","),
        );
        use std::io::Write;
        let result = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| f.write_all(line.as_bytes()));
        if let Err(e) = result {
            eprintln!("telemetry baseline: cannot append to {path}: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression test for the slice-scale clamp: a 1-instance slice of
    /// the full Table-1 spec list must still contain every collection —
    /// the unclamped `per_collection / spec.count` scale degrades to a
    /// zero-instance contribution for large collections.
    #[test]
    fn every_collection_contributes_at_least_one_instance() {
        for per_collection in [0, 1, 3] {
            let slice = benchmark_slice(per_collection);
            for spec in TABLE1.iter() {
                let n = slice.iter().filter(|i| i.collection == spec.name).count();
                assert!(
                    n >= 1,
                    "collection {} contributed 0 instances at per_collection={per_collection}",
                    spec.name
                );
                assert!(
                    n <= per_collection.max(1),
                    "collection {} overshot the slice bound: {n}",
                    spec.name
                );
            }
        }
    }

    #[test]
    fn slice_is_deterministic() {
        let a = benchmark_slice(2);
        let b = benchmark_slice(2);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.collection, y.collection);
            assert_eq!(x.hypergraph.num_edges(), y.hypergraph.num_edges());
        }
    }
}
