//! The 14 source collections of Table 1, with their instance counts and
//! cyclic (hw ≥ 2) counts, and the top-level benchmark generator.

use hyperbench_core::hash::fnv1a64;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::sqlgen::{schema, sql_collection, QueryShape};
use crate::{cqrand, cspgen, cspother, csprand, graphgen, BenchClass, Instance};

/// Static description of one Table-1 row.
#[derive(Debug, Clone, Copy)]
pub struct CollectionSpec {
    /// Collection name as printed in Table 1.
    pub name: &'static str,
    /// Benchmark class the collection belongs to.
    pub class: BenchClass,
    /// Number of instances (Table 1, column 2).
    pub count: usize,
    /// Number of instances with hw ≥ 2 (Table 1, column 3).
    pub cyclic: usize,
}

/// Table 1 of the paper: all 14 collections, 3,648 instances total,
/// 2,939 of them cyclic.
pub const TABLE1: [CollectionSpec; 14] = [
    CollectionSpec {
        name: "SPARQL",
        class: BenchClass::CqApplication,
        count: 70,
        cyclic: 70,
    },
    CollectionSpec {
        name: "Wikidata",
        class: BenchClass::CqApplication,
        count: 354,
        cyclic: 354,
    },
    CollectionSpec {
        name: "LUBM",
        class: BenchClass::CqApplication,
        count: 14,
        cyclic: 2,
    },
    CollectionSpec {
        name: "iBench",
        class: BenchClass::CqApplication,
        count: 40,
        cyclic: 0,
    },
    CollectionSpec {
        name: "Doctors",
        class: BenchClass::CqApplication,
        count: 14,
        cyclic: 0,
    },
    CollectionSpec {
        name: "Deep",
        class: BenchClass::CqApplication,
        count: 41,
        cyclic: 0,
    },
    CollectionSpec {
        name: "JOB (IMDB)",
        class: BenchClass::CqApplication,
        count: 33,
        cyclic: 7,
    },
    CollectionSpec {
        name: "TPC-H",
        class: BenchClass::CqApplication,
        count: 29,
        cyclic: 1,
    },
    CollectionSpec {
        name: "TPC-DS",
        class: BenchClass::CqApplication,
        count: 228,
        cyclic: 5,
    },
    CollectionSpec {
        name: "SQLShare",
        class: BenchClass::CqApplication,
        count: 290,
        cyclic: 1,
    },
    CollectionSpec {
        name: "Random",
        class: BenchClass::CqRandom,
        count: 500,
        cyclic: 464,
    },
    CollectionSpec {
        name: "Application",
        class: BenchClass::CspApplication,
        count: 1090,
        cyclic: 1090,
    },
    CollectionSpec {
        name: "Random (CSP)",
        class: BenchClass::CspRandom,
        count: 863,
        cyclic: 863,
    },
    CollectionSpec {
        name: "Other",
        class: BenchClass::CspOther,
        count: 82,
        cyclic: 82,
    },
];

fn scaled(count: usize, scale: f64) -> usize {
    ((count as f64 * scale).ceil() as usize).max(1)
}

/// Generates one collection at the given scale (`1.0` = Table-1 counts).
pub fn generate_collection(spec: &CollectionSpec, seed: u64, scale: f64) -> Vec<Instance> {
    let mut rng = StdRng::seed_from_u64(seed ^ fnv1a64(spec.name.as_bytes()));
    let count = scaled(spec.count, scale);
    let cyclic = scaled_cyclic(spec, count);
    let hgs = match spec.name {
        "SPARQL" => graphgen::sparql_collection(count, &mut rng),
        "Wikidata" => graphgen::wikidata_collection(count, &mut rng),
        "LUBM" => {
            let cat = schema(8, 3, &mut rng);
            sql_collection(
                count,
                &[QueryShape::Chain, QueryShape::Star],
                cyclic,
                &cat,
                &mut rng,
            )
        }
        "iBench" => {
            let cat = schema(12, 4, &mut rng);
            sql_collection(count, &[QueryShape::Chain], cyclic, &cat, &mut rng)
        }
        "Doctors" => {
            let cat = schema(5, 4, &mut rng);
            sql_collection(count, &[QueryShape::Star], cyclic, &cat, &mut rng)
        }
        "Deep" => {
            let cat = schema(10, 3, &mut rng);
            sql_collection(count, &[QueryShape::Chain], cyclic, &cat, &mut rng)
        }
        "JOB (IMDB)" => {
            let cat = schema(12, 6, &mut rng);
            sql_collection(
                count,
                &[
                    QueryShape::Star,
                    QueryShape::Snowflake,
                    QueryShape::ExplicitJoin,
                ],
                cyclic,
                &cat,
                &mut rng,
            )
        }
        "TPC-H" => {
            let cat = schema(8, 9, &mut rng);
            sql_collection(
                count,
                &[QueryShape::Star, QueryShape::Nested, QueryShape::Union],
                cyclic,
                &cat,
                &mut rng,
            )
        }
        "TPC-DS" => {
            let cat = schema(24, 10, &mut rng);
            sql_collection(
                count,
                &[
                    QueryShape::Snowflake,
                    QueryShape::Nested,
                    QueryShape::Viewed,
                    QueryShape::Union,
                ],
                cyclic,
                &cat,
                &mut rng,
            )
        }
        "SQLShare" => {
            let cat = schema(16, 6, &mut rng);
            sql_collection(
                count,
                &[
                    QueryShape::Chain,
                    QueryShape::ExplicitJoin,
                    QueryShape::Star,
                    QueryShape::Nested,
                    QueryShape::Viewed,
                ],
                cyclic,
                &cat,
                &mut rng,
            )
        }
        "Random" => cqrand::cq_random_collection(count, &mut rng),
        "Application" => cspgen::csp_application_collection(count, &mut rng),
        "Random (CSP)" => csprand::csp_random_collection(count, &mut rng),
        "Other" => cspother::csp_other_collection(count, &mut rng),
        other => panic!("unknown collection {other}"),
    };
    hgs.into_iter()
        .map(|hypergraph| Instance {
            collection: spec.name,
            class: spec.class,
            hypergraph,
        })
        .collect()
}

fn scaled_cyclic(spec: &CollectionSpec, count: usize) -> usize {
    if spec.cyclic == 0 {
        0
    } else {
        ((spec.cyclic as f64 / spec.count as f64) * count as f64).round() as usize
    }
}

/// Generates the whole HyperBench benchmark at the given scale.
///
/// `scale = 1.0` reproduces Table 1's 3,648 instances; smaller scales are
/// used by tests and quick experiment runs.
pub fn generate_benchmark(seed: u64, scale: f64) -> Vec<Instance> {
    TABLE1
        .iter()
        .flat_map(|spec| generate_collection(spec, seed, scale))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_totals_match_paper() {
        let total: usize = TABLE1.iter().map(|s| s.count).sum();
        let cyclic: usize = TABLE1.iter().map(|s| s.cyclic).sum();
        assert_eq!(total, 3648);
        assert_eq!(cyclic, 2939);
    }

    #[test]
    fn small_scale_benchmark_generates_all_collections() {
        let instances = generate_benchmark(1, 0.02);
        let names: std::collections::HashSet<&str> =
            instances.iter().map(|i| i.collection).collect();
        assert_eq!(names.len(), TABLE1.len());
        assert!(instances.iter().all(|i| i.hypergraph.num_edges() >= 1));
    }

    #[test]
    fn scale_one_collection_counts() {
        let spec = &TABLE1[2]; // LUBM, 14 instances
        let instances = generate_collection(spec, 1, 1.0);
        assert_eq!(instances.len(), 14);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_collection(&TABLE1[0], 7, 0.1);
        let b = generate_collection(&TABLE1[0], 7, 0.1);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.hypergraph.num_edges(), y.hypergraph.num_edges());
            assert_eq!(x.hypergraph.num_vertices(), y.hypergraph.num_vertices());
        }
    }

    #[test]
    fn classes_assigned_correctly() {
        let instances = generate_benchmark(1, 0.01);
        for i in &instances {
            let spec = TABLE1.iter().find(|s| s.name == i.collection).unwrap();
            assert_eq!(spec.class, i.class);
        }
    }
}
