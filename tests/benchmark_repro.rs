//! Benchmark-level reproduction checks on a small generated slice: class
//! signatures from the paper hold (non-random CQs have hw ≤ 3, graph
//! collections are cyclic, CSP Application has bounded intersections),
//! and the repository persists everything faithfully.

use std::time::Duration;

use hyperbench_core::format::to_hg_unnamed;
use hyperbench_datagen::{generate_collection, BenchClass, TABLE1};
use hyperbench_repo::store::{pack::write_pack, tree};
use hyperbench_repo::{analyze_instance, AnalysisConfig, Filter, Repository};

fn spec(name: &str) -> &'static hyperbench_datagen::CollectionSpec {
    TABLE1.iter().find(|s| s.name == name).unwrap()
}

fn config() -> AnalysisConfig {
    AnalysisConfig {
        per_check: Duration::from_millis(500),
        k_max: 6,
        vc_budget: 1_000_000,
        jobs: 1,
    }
}

#[test]
fn sparql_and_wikidata_are_cyclic_with_low_hw() {
    for name in ["SPARQL", "Wikidata"] {
        let instances = generate_collection(spec(name), 3, 0.06);
        assert!(!instances.is_empty());
        for inst in &instances {
            let rec = analyze_instance(&inst.hypergraph, &config());
            assert!(
                rec.is_cyclic(),
                "{name} instance {} must be cyclic",
                inst.hypergraph.name()
            );
            let hw = rec.hw_upper.expect("small graph query must resolve");
            assert!(hw <= 3, "{name} hw must be ≤ 3, got {hw}");
        }
    }
}

#[test]
fn relational_collections_are_mostly_acyclic_with_hw_le_3() {
    for name in ["TPC-H", "iBench", "Doctors", "Deep"] {
        let instances = generate_collection(spec(name), 3, 0.2);
        let mut cyclic = 0usize;
        for inst in &instances {
            let rec = analyze_instance(&inst.hypergraph, &config());
            let hw = rec.hw_upper.expect("SQL-derived queries are small");
            assert!(hw <= 3, "{name}: hw {hw} > 3");
            if rec.is_cyclic() {
                cyclic += 1;
            }
        }
        // The acyclic collections must stay acyclic.
        if matches!(name, "iBench" | "Doctors" | "Deep") {
            assert_eq!(cyclic, 0, "{name} must be acyclic");
        }
    }
}

#[test]
fn csp_application_signature() {
    let instances = generate_collection(spec("Application"), 3, 0.01);
    assert!(!instances.is_empty());
    for inst in &instances {
        let rec = analyze_instance(&inst.hypergraph, &config());
        // Table 1: all CSP Application instances are cyclic.
        assert!(rec.is_cyclic(), "{}", inst.hypergraph.name());
        // Table 2 signature: small intersection sizes.
        assert!(rec.properties.bip <= 3);
        // §5.5: fewer than 100 constraints.
        assert!(inst.hypergraph.num_edges() < 100);
    }
}

#[test]
fn cq_random_is_mostly_cyclic() {
    let instances = generate_collection(spec("Random"), 3, 0.03);
    let mut cyclic = 0usize;
    let mut total = 0usize;
    for inst in &instances {
        let rec = analyze_instance(&inst.hypergraph, &config());
        total += 1;
        if rec.hw_lower >= 2 {
            cyclic += 1;
        }
    }
    // Paper: 464 of 500 random CQs are cyclic (93%).
    assert!(
        cyclic * 10 >= total * 7,
        "only {cyclic}/{total} random CQs cyclic"
    );
}

#[test]
fn repository_roundtrip_with_benchmark_slice() {
    // The CLI's path: the generated slice is published as a tree,
    // imported, analysed, packed and opened.
    let mut repo = Repository::new();
    for name in ["SPARQL", "TPC-H"] {
        for inst in generate_collection(spec(name), 5, 0.05) {
            repo.insert(inst.hypergraph, inst.collection, inst.class.name());
        }
    }
    let n = repo.len();
    assert!(n >= 5);

    let dir = std::env::temp_dir().join(format!("hyperbench-it-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    tree::export(&repo, &dir).unwrap();
    let mut imported = tree::import(&dir).unwrap();
    assert_eq!(imported.len(), n);
    for (a, b) in repo.entries().zip(imported.entries()) {
        assert_eq!(
            (a.id, &a.collection, &a.class),
            (b.id, &b.collection, &b.class)
        );
        assert_eq!(to_hg_unnamed(&a.hypergraph), to_hg_unnamed(&b.hypergraph));
    }
    let ids: Vec<usize> = imported.metas().map(|m| m.id).collect();
    for id in ids {
        let rec = analyze_instance(&imported.entry(id).hypergraph, &config());
        imported.set_analysis(id, rec);
    }
    let pack = dir.join("repo.pack");
    write_pack(&imported, &pack).unwrap();
    let loaded = Repository::open_pack(&pack).unwrap();
    assert_eq!(loaded.len(), n);

    // Filters keep working on the opened pack.
    let cyclic = loaded.select(&Filter::new().cyclic_only()).count();
    let sparql = loaded.select(&Filter::new().collection("SPARQL")).count();
    assert!(sparql > 0);
    assert!(cyclic >= sparql, "all SPARQL instances are cyclic");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn class_assignment_matches_table1() {
    for s in &TABLE1 {
        let instances = generate_collection(s, 11, 0.01);
        for i in &instances {
            assert_eq!(i.class, s.class);
            assert_eq!(i.collection, s.name);
        }
        if s.class == BenchClass::CspOther {
            assert!(!instances.is_empty());
        }
    }
}
