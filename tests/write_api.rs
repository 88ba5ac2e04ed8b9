//! End-to-end test of the write path over a real TCP socket: durable
//! `POST`/`PUT`/`DELETE /v1/hypergraphs` through the native client,
//! idempotent create-by-content-hash, the stable error codes (403
//! read-only, 404, 409 conflict, 422 invalid hypergraph), snapshot
//! isolation for cursor-holding readers while writes land, and
//! analysis-cache eviction when a stored instance is replaced or
//! removed.

use std::time::Duration;

use hyperbench_api::{AnalysisStatus, AnalyzeRequest, Client, ErrorCode, ListQuery, WriteRequest};
use hyperbench_integration_tests::fixture::{doc, expect_api_error, start_writable};
use hyperbench_repo::Repository;
use hyperbench_server::{Server, ServerConfig};

#[test]
fn write_verbs_round_trip_with_stable_error_codes() {
    let (join, addr, shutdown) = start_writable("verbs");
    let client = Client::new(addr);
    assert_eq!(client.healthz().unwrap(), 0);

    // Create: 201 with a commit seq and a content hash.
    let created = client.put_new(&WriteRequest::new(doc(0))).unwrap();
    assert_eq!(created.outcome.as_str(), "created");
    let seq0 = created.seq.expect("created writes commit a record");
    let hash0 = created.content_hash.expect("live entry has a hash");

    // Idempotent create: same content (different whitespace) answers
    // `exists` with the original id and no new record.
    let again = client
        .put_new(&WriteRequest::new(doc(0).replace(',', ", ")))
        .unwrap();
    assert_eq!(again.outcome.as_str(), "exists");
    assert_eq!(again.id, created.id);
    assert_eq!(again.seq, None, "idempotent hit writes nothing");
    assert_eq!(again.content_hash, Some(hash0));

    // A second, distinct document.
    let other = client.put_new(&WriteRequest::new(doc(1))).unwrap();
    assert_eq!(other.outcome.as_str(), "created");
    assert!(other.seq.unwrap() > seq0, "seqs increase");

    // Replace: the stored text changes, the hash moves.
    let replaced = client.put(created.id, &WriteRequest::new(doc(2))).unwrap();
    assert_eq!(replaced.outcome.as_str(), "replaced");
    assert_ne!(replaced.content_hash, Some(hash0));
    assert!(client.raw_hg(created.id).unwrap().contains("r2"));

    // 409: replacing `other` with entry 0's current content would
    // duplicate a live entry.
    expect_api_error(
        client.put(other.id, &WriteRequest::new(doc(2))),
        ErrorCode::Conflict,
    );

    // 422: a body that parses as JSON but not as a hypergraph.
    expect_api_error(
        client.put_new(&WriteRequest::new("this is not a hypergraph ((")),
        ErrorCode::InvalidHypergraph,
    );

    // 404: writes addressed at ids that do not exist.
    expect_api_error(
        client.put(999, &WriteRequest::new(doc(7))),
        ErrorCode::NotFound,
    );
    expect_api_error(client.delete(999), ErrorCode::NotFound);

    // Delete: the entry vanishes from reads.
    let removed = client.delete(other.id).unwrap();
    assert_eq!(removed.outcome.as_str(), "removed");
    assert_eq!(removed.content_hash, None);
    expect_api_error(client.entry(other.id), ErrorCode::NotFound);
    assert_eq!(client.healthz().unwrap(), 1);

    // Provenance labels land on the entry.
    let labeled = client
        .put_new(&WriteRequest::labeled(doc(3), "uploads-test", "Custom"))
        .unwrap();
    let detail = client.entry(labeled.id).unwrap();
    assert_eq!(detail.summary.collection, "uploads-test");
    assert_eq!(detail.summary.class, "Custom");

    shutdown.shutdown();
    join.join().unwrap();
}

#[test]
fn read_only_server_answers_403_for_writes() {
    let mut repo = Repository::new();
    repo.insert(
        hyperbench_core::format::parse_hg(&doc(0)).unwrap(),
        "SPARQL",
        "CQ Application",
    );
    let server = Server::bind(
        repo,
        &ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let addr = server.local_addr();
    let shutdown = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run());

    let client = Client::new(addr);
    expect_api_error(
        client.put_new(&WriteRequest::new(doc(1))),
        ErrorCode::ReadOnly,
    );
    expect_api_error(
        client.put(0, &WriteRequest::new(doc(1))),
        ErrorCode::ReadOnly,
    );
    expect_api_error(client.delete(0), ErrorCode::ReadOnly);
    // Reads keep working, and read-only cursors carry no snapshot pin.
    let page = client.list(&ListQuery::new().limit(1)).unwrap();
    assert_eq!(page.total, 1);

    shutdown.shutdown();
    join.join().unwrap();
}

#[test]
fn cursor_holding_readers_see_a_stable_snapshot_while_writes_land() {
    let (join, addr, shutdown) = start_writable("snapshot");
    let client = Client::new(addr);

    let mut ids = Vec::new();
    for i in 0..9 {
        ids.push(client.put_new(&WriteRequest::new(doc(i))).unwrap().id);
    }

    // Open a cursor over the 9-entry snapshot.
    let first = client.list(&ListQuery::new().limit(3)).unwrap();
    assert_eq!(first.total, 9);
    let mut walked: Vec<usize> = first.items.iter().map(|i| i.id).collect();
    let mut cursor = first.next_cursor.clone().expect("more pages");

    // Writes land between pages: new entries appear, an entry the
    // walk has not reached yet is removed, another is replaced.
    for i in 9..14 {
        client.put_new(&WriteRequest::new(doc(i))).unwrap();
    }
    client.delete(ids[7]).unwrap();
    client.put(ids[5], &WriteRequest::new(doc(20))).unwrap();

    // The pinned walk still sees exactly the original 9 entries —
    // including the since-removed one — each exactly once.
    loop {
        let page = client
            .list(&ListQuery {
                limit: Some(3),
                cursor: Some(cursor.clone()),
                filters: vec![],
            })
            .unwrap();
        walked.extend(page.items.iter().map(|i| i.id));
        match page.next_cursor {
            Some(c) => cursor = c,
            None => break,
        }
    }
    assert_eq!(walked, ids, "pinned cursor walks the opening snapshot");

    // A fresh listing sees the current state: 9 - 1 removed + 5 new.
    let now = client.list(&ListQuery::new().limit(100)).unwrap();
    assert_eq!(now.total, 13);
    let current: Vec<usize> = now.items.iter().map(|i| i.id).collect();
    assert!(!current.contains(&ids[7]), "removed entry is gone");

    shutdown.shutdown();
    join.join().unwrap();
}

/// Analyzes `doc` with the server-default options, waiting out the job
/// if it was a cache miss, and reports whether the answer came from
/// the cache.
fn analyze_cached(client: &Client, doc: &str) -> bool {
    let done = client
        .analyze(&AnalyzeRequest::hd(doc), Duration::from_secs(30))
        .expect("analysis");
    assert_eq!(done.status, AnalysisStatus::Done, "{done:?}");
    done.cached == Some(true)
}

#[test]
fn replacing_or_removing_an_instance_evicts_its_cached_analysis() {
    let (join, addr, shutdown) = start_writable("evict");
    let client = Client::new(addr);

    // Warm the cache for two distinct documents.
    assert!(
        !analyze_cached(&client, &doc(0)),
        "first analysis is a miss"
    );
    assert!(analyze_cached(&client, &doc(0)), "second analysis hits");
    assert!(!analyze_cached(&client, &doc(1)));
    assert!(analyze_cached(&client, &doc(1)));

    // Store doc 0 as an instance, then replace its content: the cached
    // analysis of the *old* content must be evicted.
    let a = client.put_new(&WriteRequest::new(doc(0))).unwrap();
    let b = client.put_new(&WriteRequest::new(doc(1))).unwrap();
    client.put(a.id, &WriteRequest::new(doc(2))).unwrap();
    assert!(
        !analyze_cached(&client, &doc(0)),
        "replace evicted the stale analysis"
    );
    // The unrelated document's entry survived the eviction.
    assert!(
        analyze_cached(&client, &doc(1)),
        "unrelated entry untouched"
    );

    // Removing an instance evicts its analysis too.
    client.delete(b.id).unwrap();
    assert!(
        !analyze_cached(&client, &doc(1)),
        "remove evicted the analysis"
    );

    shutdown.shutdown();
    join.join().unwrap();
}
