//! HBQL answers off the pack's metadata index: row pages and a
//! `GROUP BY` over a paged repository read no data page, counted on the
//! pack's own side (`hyperbench_pack_page_hydrations_total`) rather than
//! by the executor's word. The counter is process-global, so this file
//! holds the one test of its process.

use hyperbench_core::format::parse_hg;
use hyperbench_query::compile;
use hyperbench_repo::metrics::metrics;
use hyperbench_repo::store::pack::write_pack;
use hyperbench_repo::Repository;

#[test]
fn row_pages_and_groups_hydrate_no_pack_page() {
    let dir = std::env::temp_dir().join(format!("hyperbench-no-hydration-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let pack = dir.join("repo.pack");
    let mut repo = Repository::new();
    for i in 0..60usize {
        let atoms: Vec<String> = (0..1 + i % 4)
            .map(|e| format!("d{i}e{e}(d{i}v{e},d{i}v{})", e + 1))
            .collect();
        repo.insert(
            parse_hg(&format!("{}.", atoms.join(","))).unwrap(),
            ["left", "right"][i % 2],
            "CQ Application",
        );
    }
    write_pack(&repo, &pack).unwrap();
    let repo = Repository::open_pack(&pack).unwrap();
    let hydrations = || metrics().pack_page_hydrations.get();
    let before = hydrations();

    // A keyset walk of row pages to exhaustion.
    let rows = compile("SELECT * WHERE edges >= 2").unwrap();
    let (mut after, mut seen) = (None, 0);
    loop {
        let page = rows.execute_rows(repo.metas(), after, 7);
        assert_eq!(page.total, 45);
        seen += page.items.len();
        after = page.next_after;
        if after.is_none() {
            break;
        }
    }
    assert_eq!(seen, 45);
    let groups = compile("SELECT collection, COUNT(*), MAX(edges) GROUP BY collection")
        .unwrap()
        .execute_groups(repo.metas());
    assert_eq!(groups.groups.len(), 2);
    assert_eq!(hydrations() - before, 0, "a query read a data page");

    // The zero means something: a detail read right after moves it.
    assert_eq!(repo.get(17).unwrap().hypergraph.num_edges(), 2);
    assert!(hydrations() > before, "the hydration counter is dead");
    std::fs::remove_dir_all(&dir).unwrap();
}
