//! Live-socket tests of the sharding front tier: real shard servers
//! (the ordinary writable reactor server) behind a real router, all
//! in-process on ephemeral ports. Covers the federated id space
//! (creates hash to a shard, reads route back to it), scatter-gather
//! list and query paging across the fleet, write pass-through,
//! partial-page opt-in against a dead shard, drain/undrain, and the
//! topology report.
//!
//! The router exists only on Linux (it rides the epoll reactor).
#![cfg(target_os = "linux")]

use std::net::SocketAddr;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

use hyperbench_api::{
    Client, ClientError, ErrorCode, Json, ListQuery, QueryRequest, QueryResponse, WriteRequest,
};
use hyperbench_integration_tests::fixture::{doc, start_writable};
use hyperbench_integration_tests::http;
use hyperbench_router::{RouterOptions, ShardMap};
use hyperbench_server::reactor::ReactorOptions;
use hyperbench_server::ShutdownHandle;

/// The router over `lines` (the shard-map text), on an ephemeral port.
/// The serving thread is leaked; the returned flag stops its probers.
fn start_router(lines: &str, opts: RouterOptions) -> (SocketAddr, Arc<AtomicBool>) {
    let map = ShardMap::parse(lines).expect("shard map");
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind router");
    let addr = listener.local_addr().unwrap();
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&shutdown);
    std::thread::spawn(move || {
        let _ = hyperbench_router::serve(listener, &map, opts, ReactorOptions::default(), 8, flag);
    });
    // The reactor accepts as soon as bind returns; no readiness dance.
    (addr, shutdown)
}

/// One writable WAL-backed shard server on an ephemeral port; its
/// serving thread is leaked.
fn start_shard(tag: &str) -> (SocketAddr, ShutdownHandle) {
    let (_join, addr, shutdown) = start_writable(tag);
    (addr, shutdown)
}

fn client(addr: SocketAddr) -> Client {
    Client::new(addr).with_timeout(Duration::from_secs(30))
}

fn fast_probes() -> RouterOptions {
    RouterOptions {
        probe_interval: Duration::from_millis(25),
        breaker_cooldown: Duration::from_millis(100),
        ..RouterOptions::default()
    }
}

/// A raw `GET`, for requests the typed client cannot spell (custom
/// headers, admin routes): (status, JSON body or `Null`).
fn get_json(addr: SocketAddr, path: &str, extra_header: Option<&str>) -> (u16, Json) {
    let extra = extra_header.map(|h| format!("{h}\r\n")).unwrap_or_default();
    let r = http::send(
        addr,
        &format!("GET {path} HTTP/1.1\r\nhost: x\r\n{extra}connection: close\r\n\r\n"),
    );
    (r.status, Json::parse(&r.text()).unwrap_or(Json::Null))
}

/// A bodiless raw `POST` (the admin verbs).
fn post(addr: SocketAddr, path: &str) -> (u16, Json) {
    let (status, body) = http::post(addr, path, "");
    (status, Json::parse(&body).unwrap_or(Json::Null))
}

fn field<'j>(j: &'j Json, name: &str) -> &'j Json {
    match j {
        Json::Obj(fields) => fields
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .unwrap_or(&Json::Null),
        _ => &Json::Null,
    }
}

#[test]
fn crud_roundtrips_through_the_router_in_a_federated_id_space() {
    let (a, _ha) = start_shard("crud-a");
    let (b, _hb) = start_shard("crud-b");
    let (router, _stop) = start_router(&format!("{a}\n{b}\n"), fast_probes());
    let c = client(router);

    // Create a spread of documents; receipts come back in global ids.
    let mut ids = Vec::new();
    for i in 0..10 {
        let receipt = c.put_new(&WriteRequest::new(doc(i))).expect("create");
        ids.push(receipt.id);
    }
    assert_eq!(
        ids.iter().collect::<std::collections::HashSet<_>>().len(),
        10,
        "global ids are unique across shards: {ids:?}"
    );
    // Both shards got traffic (10 draws over 2 buckets; the content
    // hash spreading all 10 onto one shard would be a routing bug).
    assert!(
        ids.iter().any(|id| id % 2 == 0) && ids.iter().any(|id| id % 2 == 1),
        "creates spread over both shards: {ids:?}"
    );

    // A replayed create is idempotent end to end: the body hashes to
    // the same shard, which answers with the same entry.
    let replay = c.put_new(&WriteRequest::new(doc(3))).expect("replay");
    assert_eq!(replay.id, ids[3], "replayed create lands on the same id");

    // Reads route by id and answer in the global id space.
    for (i, &gid) in ids.iter().enumerate() {
        let detail = c.entry(gid).expect("detail");
        assert_eq!(detail.summary.id, gid);
        assert!(c.raw_hg(gid).expect("raw hg").contains(&format!("a{i}")));
    }

    // Replace and delete route to the owning shard's primary.
    let target = ids[7];
    let receipt = c.put(target, &WriteRequest::new(doc(99))).expect("put");
    assert_eq!(receipt.id, target);
    assert!(c.raw_hg(target).expect("after put").contains("a99"));
    c.delete(target).expect("delete");
    match c.entry(target) {
        Err(ClientError::Api { status: 404, error }) => {
            assert_eq!(error.code, ErrorCode::NotFound)
        }
        other => panic!("deleted entry must answer 404, got {other:?}"),
    }
}

#[test]
fn list_pages_merge_the_fleet_in_ascending_global_order() {
    let (a, _ha) = start_shard("list-a");
    let (b, _hb) = start_shard("list-b");
    let (c_addr, _hc) = start_shard("list-c");
    let (router, _stop) = start_router(&format!("{a}\n{b}\n{c_addr}\n"), fast_probes());
    let c = client(router);

    let mut ids = Vec::new();
    for i in 0..17 {
        ids.push(c.put_new(&WriteRequest::new(doc(i))).expect("create").id);
    }
    ids.sort_unstable();

    // Walk with a page size smaller than any shard's share.
    let page = c.list_all(&ListQuery::new().limit(3)).expect("walk");
    let walked: Vec<usize> = page.items.iter().map(|s| s.id).collect();
    assert_eq!(walked, ids, "the walk is the sorted global id sequence");
    assert_eq!(page.total, 17);

    // A single first page is globally ordered and carries a cursor.
    let first = c.list(&ListQuery::new().limit(5)).expect("first page");
    assert_eq!(first.items.len(), 5);
    assert!(first.next_cursor.is_some());
    assert!(first.partial.is_empty());
}

#[test]
fn query_pages_merge_and_order_by_is_rejected() {
    let (a, _ha) = start_shard("query-a");
    let (b, _hb) = start_shard("query-b");
    let (router, _stop) = start_router(&format!("{a}\n{b}\n"), fast_probes());
    let c = client(router);

    let mut ids = Vec::new();
    for i in 0..8 {
        ids.push(c.put_new(&WriteRequest::new(doc(i))).expect("create").id);
    }
    ids.sort_unstable();

    // Page the whole fleet through the scatter cursor.
    let mut walked = Vec::new();
    let mut request = QueryRequest::new("SELECT * WHERE edges >= 1 LIMIT 3");
    loop {
        let QueryResponse::Rows(page) = c.query(&request).expect("query") else {
            panic!("rows query answers rows");
        };
        walked.extend(page.items.iter().map(|s| s.id));
        match page.next_cursor {
            Some(cursor) => request.cursor = Some(cursor),
            None => break,
        }
    }
    assert_eq!(walked, ids, "query pages walk the global id space");

    // Global ORDER BY / GROUP BY need a sort the router does not do.
    for q in [
        "SELECT * ORDER BY edges DESC LIMIT 5",
        "SELECT collection, COUNT(*) GROUP BY collection",
    ] {
        match c.query(&QueryRequest::new(q)) {
            Err(ClientError::Api { status: 422, error }) => {
                assert_eq!(error.code, ErrorCode::InvalidQuery)
            }
            other => panic!("{q} must be rejected with 422, got {other:?}"),
        }
    }
}

#[test]
fn a_dead_shard_fails_structurally_and_partial_pages_are_opt_in() {
    let (a, _ha) = start_shard("dead-a");
    // Shard 1 is an address nothing listens on: bind, note, drop.
    let dead = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
    };
    let (router, _stop) = start_router(&format!("{a}\n{dead}\n"), fast_probes());
    let c = client(router);
    // Creates route by content hash, so some documents are owned by
    // the dead shard — those answer 502 bad_upstream; keep going until
    // one hashes to the live shard.
    let mut created = None;
    for i in 0..16 {
        match c.put_new(&WriteRequest::new(doc(i))) {
            Ok(receipt) => {
                created = Some(receipt.id);
                break;
            }
            Err(ClientError::Api { status: 502, error }) => {
                assert_eq!(error.code, ErrorCode::BadUpstream);
            }
            other => panic!("create against a half-dead fleet: {other:?}"),
        }
    }
    let id = created.expect("some document hashes to the live shard");
    assert_eq!(id % 2, 0, "the surviving create lives on shard 0");
    // Wait for the prober to notice the dead upstream.
    std::thread::sleep(Duration::from_millis(200));

    // A scatter without the opt-in names the dead shard in a 502.
    let (status, body) = get_json(router, "/v1/hypergraphs?limit=10", None);
    assert_eq!(status, 502, "dead shard fails the page: {body}");
    assert_eq!(field(&body, "code"), &Json::str("bad_upstream"));
    assert!(
        format!("{}", field(&body, "error")).contains("shard 1"),
        "the 502 names the dead shard: {body}"
    );
    assert_ne!(field(&body, "request_id"), &Json::Null);

    // With the header, the page answers and carries the marker.
    let (status, body) = get_json(
        router,
        "/v1/hypergraphs?limit=10",
        Some("x-hyperbench-allow-partial: 1"),
    );
    assert_eq!(status, 200, "partial page answers: {body}");
    assert_eq!(field(&body, "partial"), &Json::Arr(vec![Json::int(1)]));
    let items = match field(&body, "items") {
        Json::Arr(items) => items.clone(),
        _ => panic!("items array"),
    };
    assert_eq!(items.len(), 1);
    assert_eq!(field(&items[0], "id"), &Json::int(id));

    // By-id traffic owned by the dead shard answers 502, and the
    // healthy shard keeps serving.
    let dead_gid = 1; // shard = gid % 2
    match c.entry(dead_gid) {
        Err(ClientError::Api { status: 502, error }) => {
            assert_eq!(error.code, ErrorCode::BadUpstream)
        }
        other => panic!("dead shard's ids answer 502, got {other:?}"),
    }
    assert!(c.entry(id).is_ok(), "live shard still serves");

    // The router's own health reflects the dead shard.
    let (status, body) = get_json(router, "/v1/healthz", None);
    assert_eq!(
        status, 503,
        "a shard with no live upstream degrades: {body}"
    );
}

#[test]
fn drain_refuses_new_work_and_undrain_restores_the_shard() {
    let (a, _ha) = start_shard("drain-a");
    let (b, _hb) = start_shard("drain-b");
    let (router, _stop) = start_router(&format!("{a}\n{b}\n"), fast_probes());
    let c = client(router);

    let mut ids = Vec::new();
    for i in 0..6 {
        ids.push(c.put_new(&WriteRequest::new(doc(i))).expect("create").id);
    }

    // Drain shard 1: the call returns only once nothing is in flight.
    let (status, body) = post(router, "/admin/drain/1");
    assert_eq!(status, 200, "{body}");
    assert_eq!(field(&body, "in_flight"), &Json::int(0));

    // New by-id work owned by shard 1 is refused with Retry-After...
    let shard1_gid = ids.iter().copied().find(|g| g % 2 == 1).unwrap();
    match c.entry(shard1_gid) {
        Err(ClientError::Api { status: 503, error }) => {
            assert_eq!(error.code, ErrorCode::ShuttingDown);
            assert!(error.code.is_retryable());
        }
        other => panic!("drained shard refuses, got {other:?}"),
    }
    // ...scatters skip the drained shard instead of failing...
    let page = c.list(&ListQuery::new().limit(100)).expect("list");
    let served: Vec<usize> = page.items.iter().map(|s| s.id).collect();
    assert!(
        served.iter().all(|g| g % 2 == 0),
        "only shard 0: {served:?}"
    );
    assert!(!served.is_empty());
    // ...and shard 0 keeps serving by id.
    let shard0_gid = ids.iter().copied().find(|g| g % 2 == 0).unwrap();
    assert!(c.entry(shard0_gid).is_ok());

    // Topology reports the drain.
    let (status, topo) = get_json(router, "/admin/topology", None);
    assert_eq!(status, 200);
    let shards = match field(&topo, "shards") {
        Json::Arr(s) => s.clone(),
        _ => panic!("shards array"),
    };
    assert_eq!(field(&shards[0], "draining"), &Json::Bool(false));
    assert_eq!(field(&shards[1], "draining"), &Json::Bool(true));

    // Undrain restores full service.
    let (status, _) = post(router, "/admin/undrain/1");
    assert_eq!(status, 200);
    assert!(c.entry(shard1_gid).is_ok(), "undrained shard serves again");
    let page = c.list_all(&ListQuery::new().limit(4)).expect("full walk");
    assert_eq!(page.items.len(), 6, "the full fleet is back");

    // Unknown shards are a structured 404.
    let (status, _) = post(router, "/admin/drain/9");
    assert_eq!(status, 404);
}

#[test]
fn topology_reports_roles_breakers_and_health() {
    let (a, _ha) = start_shard("topo-a");
    let (b, _hb) = start_shard("topo-b");
    // One shard with a replica: primary first.
    let (router, _stop) = start_router(&format!("{a} {b}\n"), fast_probes());
    std::thread::sleep(Duration::from_millis(100));

    let (status, topo) = get_json(router, "/admin/topology", None);
    assert_eq!(status, 200);
    let shards = match field(&topo, "shards") {
        Json::Arr(s) => s.clone(),
        _ => panic!("shards array"),
    };
    assert_eq!(shards.len(), 1);
    let upstreams = match field(&shards[0], "upstreams") {
        Json::Arr(u) => u.clone(),
        _ => panic!("upstreams array"),
    };
    assert_eq!(upstreams.len(), 2);
    assert_eq!(field(&upstreams[0], "role"), &Json::str("primary"));
    assert_eq!(field(&upstreams[1], "role"), &Json::str("replica"));
    for u in &upstreams {
        assert_eq!(field(u, "healthy"), &Json::Bool(true));
        assert_eq!(field(u, "breaker"), &Json::str("closed"));
    }

    // The router's metrics family is live.
    let (status, metrics) = http::get(router, "/metrics");
    assert_eq!(status, 200);
    // Exact gauge values are not asserted: every in-process router in
    // this test binary feeds the same global registry.
    assert!(metrics.contains("hyperbench_router_requests_total"));
    assert!(metrics.contains("hyperbench_router_upstreams_healthy"));
}
