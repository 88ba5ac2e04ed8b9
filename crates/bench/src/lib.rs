//! Shared fixtures for the criterion benches: deterministic slices of the
//! generated benchmark, grouped the way the paper's tables group them.

use hyperbench_core::Hypergraph;
use hyperbench_datagen::{generate_collection, BenchClass, Instance, TABLE1};

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
