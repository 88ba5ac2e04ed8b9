//! Live-socket round-trip of the paged on-disk backend: a repository is
//! packed to a single `repo.pack` file, opened page-by-page, and served
//! over `/v1` — keyset cursor paging runs against the pack's disk
//! index, entry detail/raw-`.hg` answers hydrate lazily, and the
//! analysis-cache spill segment carries finished results across a full
//! server restart (the second `POST /v1/analyses` of the same document
//! is a cache hit served from disk, witness included).

use std::net::SocketAddr;
use std::path::Path;
use std::time::Duration;

use hyperbench_api::{AnalysisStatus, AnalyzeRequest, Client, ListQuery};
use hyperbench_core::builder::hypergraph_from_edges;
use hyperbench_core::format::to_hg_unnamed;
use hyperbench_integration_tests::fixture::tmpdir;
use hyperbench_repo::{
    analyze_instance, store, AnalysisConfig, AnalysisRecord, Filter, Repository,
};
use hyperbench_server::{Server, ServerConfig, ShutdownHandle};

const WAIT: Duration = Duration::from_secs(30);

/// The same deterministic 12-entry corpus as `api_v1.rs` / `server_http.rs`:
/// 8 analyzed CQ entries (alternating SPARQL/TPC-H) + 4 unanalyzed CSP
/// entries, so all three suites assert the same totals.
fn corpus() -> Repository {
    let mut repo = Repository::new();
    let cfg = AnalysisConfig::default();
    for i in 0..8 {
        let h = if i % 2 == 0 {
            hypergraph_from_edges(&[("R", &["a", "b"]), ("S", &["b", "c"]), ("T", &["c", "a"])])
        } else {
            hypergraph_from_edges(&[("e", &["a", "b"]), ("f", &["b", "c"])])
        };
        let rec = analyze_instance(&h, &cfg);
        let coll = if i % 2 == 0 { "SPARQL" } else { "TPC-H" };
        let id = repo.insert(h, coll, "CQ Application");
        repo.set_analysis(id, rec);
    }
    for i in 0..4 {
        let name = format!("x{i}");
        repo.insert(
            hypergraph_from_edges(&[("c", &[name.as_str(), "y"])]),
            "xcsp",
            "CSP Random",
        );
    }
    repo
}

fn start_packed_server(
    pack: &Path,
    spill: &Path,
) -> (std::thread::JoinHandle<()>, SocketAddr, ShutdownHandle) {
    let repo = Repository::open_pack(pack).expect("open pack");
    let server = Server::bind(
        repo,
        &ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 4,
            spill: Some(spill.to_path_buf()),
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let addr = server.local_addr();
    let shutdown = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run());
    (join, addr, shutdown)
}

#[test]
fn packed_repository_serves_pages_and_restarts_with_a_warm_cache() {
    let dir = tmpdir("warm");
    let repo = corpus();
    let pack = dir.join("repo.pack");
    store::pack::write_pack(&repo, &pack).unwrap();
    let spill = dir.join("cache.spill");
    let tri_doc = "r(a,b),s(b,c),t(c,a).";

    // ---- first server lifetime: pack-backed paging + first analysis ----
    {
        let (join, addr, shutdown) = start_packed_server(&pack, &spill);
        let client = Client::new(addr);
        assert_eq!(client.healthz().unwrap(), 12);

        // Cursor-page the whole repository off the pack's keyset index:
        // 5 + 5 + 2, each id exactly once, stable totals on every page.
        let mut q = ListQuery::new().limit(5);
        let mut ids = Vec::new();
        let mut pages = 0;
        loop {
            let page = client.list(&q).unwrap();
            assert_eq!(page.total, 12);
            pages += 1;
            ids.extend(page.items.iter().map(|i| i.id));
            match page.next_cursor {
                Some(c) => q.cursor = Some(c),
                None => break,
            }
        }
        assert_eq!(pages, 3);
        assert_eq!(ids, (0..12).collect::<Vec<_>>(), "each id exactly once");

        // Filtered keyset paging matches the in-memory repository's
        // answer for the same filter.
        let expected: Vec<usize> = repo
            .select(&Filter::new().collection("SPARQL"))
            .map(|e| e.id)
            .collect();
        let page = client
            .list(&ListQuery::new().limit(10).filter("collection", "SPARQL"))
            .unwrap();
        assert_eq!(
            page.items.iter().map(|i| i.id).collect::<Vec<_>>(),
            expected
        );

        // Detail + raw .hg hydrate lazily from data pages and agree
        // with the source entries.
        let detail = client.entry(0).unwrap();
        assert_eq!(detail.summary.vertices, 3);
        assert_eq!(detail.edge_list.len(), 3);
        assert_eq!(detail.analysis.as_ref().unwrap().hw_exact, Some(2));
        let raw = client.raw_hg(0).unwrap();
        assert!(raw.contains("R(a,b)"), "raw hg was: {raw}");

        // First analysis of the triangle: a real run, not a cache hit.
        let done = client.analyze(&AnalyzeRequest::hd(tri_doc), WAIT).unwrap();
        assert_eq!(done.status, AnalysisStatus::Done);
        assert_eq!(done.cached, Some(false));
        assert_eq!(done.result.as_ref().unwrap().hw_exact, Some(2));
        assert!(done.decomposition.is_some(), "witness retained");

        shutdown.shutdown();
        join.join().unwrap();
    }

    // The spill segment now holds the finished analysis.
    assert!(spill.exists(), "spill segment written");
    assert!(!store::spill::read_all(&spill).unwrap().is_empty());

    // ---- second server lifetime: the same submission hits warm ----
    {
        let (join, addr, shutdown) = start_packed_server(&pack, &spill);
        let client = Client::new(addr);

        // Submitted again after a full restart, the analysis completes
        // synchronously from the spill-reloaded cache.
        let hit = client.submit(&AnalyzeRequest::hd(tri_doc)).unwrap();
        assert_eq!(hit.status, AnalysisStatus::Done, "no re-run after restart");
        assert_eq!(hit.cached, Some(true), "served from the warm cache");
        assert_eq!(hit.result.as_ref().unwrap().hw_exact, Some(2));
        // The witness decomposition survived the restart in wire form.
        let dto = hit.decomposition.as_ref().expect("witness from spill");
        assert_eq!(dto.width, 2);
        assert_eq!(dto.validation, "valid-hd");

        // A different document is still a miss (and a fresh run).
        let fresh = client
            .analyze(&AnalyzeRequest::hd("p(a,b),q(b,c)."), WAIT)
            .unwrap();
        assert_eq!(fresh.cached, Some(false));

        shutdown.shutdown();
        join.join().unwrap();
    }

    std::fs::remove_dir_all(&dir).unwrap();
}

/// The pack-format smoke check the CI matrix runs: every entry of the
/// opened pack equals the in-memory one it was written from — id,
/// collection, class, canonical `.hg`, name and analysis (less its
/// per-`k` step timings, which packs do not store) — and the packed
/// repository answers the same filtered pages as the in-memory one,
/// over the library API (the live-socket variant is the test above).
#[test]
fn pack_roundtrip_smoke() {
    let dir = tmpdir("smoke");
    let repo = corpus();
    let pack = dir.join("repo.pack");
    store::pack::write_pack(&repo, &pack).unwrap();
    let opened = Repository::open_pack(&pack).unwrap();
    let view = |r: &Repository| -> Vec<_> {
        r.entries()
            .map(|e| {
                (
                    e.id,
                    e.collection.clone(),
                    e.class.clone(),
                    to_hg_unnamed(&e.hypergraph),
                    e.hypergraph.name().to_string(),
                    e.analysis.clone().map(|a| AnalysisRecord {
                        hw_steps: Vec::new(),
                        ..a
                    }),
                )
            })
            .collect()
    };
    assert_eq!(view(&opened), view(&repo), "pack → open changed an entry");
    let filter = Filter::new().hw_at_most(2);
    assert_eq!(
        repo.select(&filter).map(|e| e.id).collect::<Vec<_>>(),
        opened.select(&filter).map(|e| e.id).collect::<Vec<_>>()
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
