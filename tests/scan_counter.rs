//! `hyperbench_query_rows_scanned_total` counts exactly the rows a page
//! scanned: one rows page, one `ORDER BY` page and one `GROUP BY` page
//! each advance it by the snapshot's live-entry count, over an empty
//! overlay and over a non-empty one.
//!
//! The metric registry is process-global, so this binary holds one test
//! and nothing else in the process scans.

use hyperbench_api::{Client, QueryRequest, WriteRequest};
use hyperbench_integration_tests::fixture::{doc, tmpdir};
use hyperbench_integration_tests::http::{get, metric};
use hyperbench_repo::store::pack::write_pack;
use hyperbench_repo::Repository;
use hyperbench_server::{Server, ServerConfig};

const SCANNED: &str = "hyperbench_query_rows_scanned_total";

/// How far `page` moved the scanned-rows counter.
fn scanned_by(addr: std::net::SocketAddr, page: impl FnOnce()) -> f64 {
    let before = metric(addr, SCANNED);
    page();
    metric(addr, SCANNED) - before
}

/// Runs each kind of page once and asserts each scanned `live` rows.
fn assert_pages_scan(addr: std::net::SocketAddr, client: &Client, live: usize) {
    assert_eq!(client.stats().unwrap().repository.entries, live);
    let query = |text: &str| {
        client.query(&QueryRequest::new(text)).unwrap();
    };
    let rows = scanned_by(addr, || {
        assert_eq!(get(addr, "/v1/hypergraphs?limit=2").0, 200);
    });
    assert_eq!(rows, live as f64, "rows page over {live} live entries");
    let order = scanned_by(addr, || query("SELECT * ORDER BY edges DESC LIMIT 3"));
    assert_eq!(order, live as f64, "ORDER BY page over {live} live entries");
    let groups = scanned_by(addr, || {
        query("SELECT collection, COUNT(*) GROUP BY collection")
    });
    assert_eq!(
        groups, live as f64,
        "GROUP BY page over {live} live entries"
    );
}

#[test]
fn every_page_scans_each_live_entry_exactly_once() {
    let dir = tmpdir("scan-counter");
    let mut base = Repository::new();
    for i in 0..9 {
        base.insert(
            hyperbench_core::format::parse_hg(&doc(i)).unwrap(),
            if i % 2 == 0 { "SPARQL" } else { "TPC-H" },
            "CQ Application",
        );
    }
    let pack = dir.join("repo.pack");
    write_pack(&base, &pack).unwrap();
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        analysis_workers: 1,
        // The writes below stay far under the overlay limit that
        // triggers a checkpoint, so they stay in the overlay.
        writable_pack: Some(pack.clone()),
        ..ServerConfig::default()
    };
    let server = Server::bind(Repository::open_pack(&pack).unwrap(), &config).unwrap();
    let addr = server.local_addr();
    let shutdown = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run());
    let client = Client::new(addr);

    assert_pages_scan(addr, &client, 9);

    // Overlay keys before, among and after the base rows: a replace, a
    // removal and three creates.
    client.put(4, &WriteRequest::new(doc(100))).unwrap();
    client.delete(0).unwrap();
    client.delete(7).unwrap();
    for i in 200..203 {
        assert!(client.put_new(&WriteRequest::new(doc(i))).unwrap().id > 8);
    }
    assert_pages_scan(addr, &client, 10);

    shutdown.shutdown();
    join.join().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}
