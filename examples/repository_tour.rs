//! Repository tour: the HyperBench *tool* as a library — generate a slice
//! of the benchmark, publish it as `.hg` files + manifest, import that
//! tree, analyze it, store it in a pack, open the pack and answer the
//! kind of queries the paper's web interface offers ("all cyclic CSP
//! instances with BIP ≤ 2 and hw ≤ 5").
//!
//! Run with: `cargo run --release -p hyperbench-examples --bin repository_tour`

use std::time::Duration;

use hyperbench_datagen::{generate_collection, TABLE1};
use hyperbench_repo::store::{pack::write_pack, tree};
use hyperbench_repo::{analyze_instance, AnalysisConfig, Filter, Repository};

fn main() {
    // 1. Generate a small slice: SPARQL CQs and application CSPs.
    let mut repo = Repository::new();
    for spec in TABLE1
        .iter()
        .filter(|s| matches!(s.name, "SPARQL" | "Application" | "TPC-H"))
    {
        for inst in generate_collection(spec, 2024, 0.02) {
            repo.insert(inst.hypergraph, inst.collection, inst.class.name());
        }
    }
    println!("repository holds {} hypergraphs", repo.len());

    // 2. Publish the slice as a tree and import it back — the .hg files
    //    are DetKDecomp-compatible.
    let dir = std::env::temp_dir().join("hyperbench-repo-tour");
    let _ = std::fs::remove_dir_all(&dir);
    tree::export(&repo, &dir).expect("export");
    let mut repo = tree::import(&dir).expect("import");
    println!("published to {} and imported", dir.display());

    // 3. Analyze everything (properties + iterative hw search).
    let cfg = AnalysisConfig {
        per_check: Duration::from_millis(300),
        k_max: 6,
        vc_budget: 1_000_000,
        jobs: 1,
    };
    let ids: Vec<usize> = repo.metas().map(|m| m.id).collect();
    for id in ids {
        let rec = analyze_instance(&repo.entry(id).hypergraph, &cfg);
        repo.set_analysis(id, rec);
    }

    // 4. Store the analysed repository in a pack and open it: only the
    //    index is read, entries hydrate as the queries touch them.
    let pack = dir.join("repo.pack");
    write_pack(&repo, &pack).expect("write pack");
    let repo = Repository::open_pack(&pack).expect("open pack");
    println!("stored in {}", pack.display());

    // 5. Query it like the web tool.
    let queries: Vec<(&str, Filter)> = vec![
        ("cyclic instances", Filter::new().cyclic_only()),
        (
            "CSPs with hw ≤ 5 and BIP ≤ 2",
            Filter::new()
                .class("CSP Application")
                .hw_at_most(5)
                .max_bip(2),
        ),
        (
            "small acyclic CQs (≤ 6 edges)",
            Filter::new()
                .class("CQ Application")
                .max_edges(6)
                .hw_at_most(1),
        ),
        ("arity > 3", Filter::new().min_arity(4)),
    ];
    for (label, f) in queries {
        let hits: Vec<_> = repo.select(&f).collect();
        println!("\n{label}: {} hits", hits.len());
        for e in hits.iter().take(3) {
            let a = e.analysis.as_ref().unwrap();
            println!(
                "  #{:03} {:<12} {:>2} edges  hw {:?}  bip {}",
                e.id,
                e.collection,
                e.hypergraph.num_edges(),
                a.hw_upper,
                a.properties.bip
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
