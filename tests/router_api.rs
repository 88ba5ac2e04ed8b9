//! Live-socket tests of the sharding front tier: real shard servers
//! (the ordinary writable reactor server) behind a real router, all
//! in-process on ephemeral ports. Covers the federated id space
//! (creates hash to a shard, reads route back to it), scatter-gather
//! list and query paging across the fleet, write pass-through,
//! partial-page opt-in against a dead shard, drain/undrain, the
//! topology report, JSON depth bombs, HBQL keywords inside string
//! literals, and hedged and failed-over reads against a fake replica
//! that stalls or resets.
//!
//! The router exists only on Linux (it rides the epoll reactor).
#![cfg(target_os = "linux")]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

use hyperbench_api::{
    Client, ClientError, ErrorCode, Json, ListQuery, PageDto, QueryRequest, QueryResponse,
    WriteRequest,
};
use hyperbench_integration_tests::fixture::{assert_depth_bombs_are_refused, doc, start_writable};
use hyperbench_integration_tests::http::{self, metric};
use hyperbench_router::{RouterOptions, ShardMap};
use hyperbench_server::reactor::ReactorOptions;
use hyperbench_server::ShutdownHandle;

/// Every in-process router feeds one metrics registry and every server
/// adds threads to one process, so a test that asserts a counter moved
/// by exactly one, or that the thread count stood still, runs alone;
/// the rest run beside each other.
static PROCESS: RwLock<()> = RwLock::new(());

fn shared() -> RwLockReadGuard<'static, ()> {
    PROCESS.read().unwrap_or_else(|e| e.into_inner())
}

fn alone() -> RwLockWriteGuard<'static, ()> {
    PROCESS.write().unwrap_or_else(|e| e.into_inner())
}

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
    let _process = shared();
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
    let _process = shared();
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
    let _process = shared();
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

    // Global ORDER BY / GROUP BY / aggregates need a pass over every
    // shard's rows that the router does not do.
    for (q, clause) in [
        ("SELECT * ORDER BY edges DESC LIMIT 5", "ORDER BY"),
        (
            "SELECT collection, COUNT(*) GROUP BY collection",
            "GROUP BY",
        ),
        (
            "SELECT COUNT(*) WHERE edges >= 1",
            "an aggregate select list",
        ),
    ] {
        match c.query(&QueryRequest::new(q)) {
            Err(ClientError::Api { status: 422, error }) => {
                assert_eq!(error.code, ErrorCode::InvalidQuery);
                assert_eq!(
                    error.message,
                    format!("{clause} is not supported through the router; query a shard directly")
                );
            }
            other => panic!("{q} must be rejected with 422, got {other:?}"),
        }
    }
}

#[test]
fn a_dead_shard_fails_structurally_and_partial_pages_are_opt_in() {
    let _process = shared();
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
    let _process = shared();
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
    let _process = shared();
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

#[test]
fn depth_bombs_answer_400_through_the_router_and_the_fleet_lives() {
    let _process = shared();
    let (a, _ha) = start_shard("bombs-a");
    let (b, _hb) = start_shard("bombs-b");
    let (router, _stop) = start_router(&format!("{a}\n{b}\n"), fast_probes());
    // The router refuses the query body itself; creates and analyses
    // route by body hash unread, and the owning shard's 400 comes back.
    assert_depth_bombs_are_refused(router);
    for shard in [a, b] {
        let (status, body) = http::get(shard, "/v1/healthz");
        assert_eq!(status, 200, "shard {shard} must survive the bombs: {body}");
    }
}

/// A rows page with its ids blanked: what a routed page and a
/// single-node page over the same documents must agree on.
fn without_ids(response: QueryResponse) -> PageDto {
    let QueryResponse::Rows(mut page) = response else {
        panic!("a rows query answers rows");
    };
    for row in &mut page.items {
        row.id = 0;
    }
    page.items
        .sort_by(|x, y| (&x.collection, x.edges).cmp(&(&y.collection, y.edges)));
    page
}

#[test]
fn clause_keywords_inside_string_literals_are_not_clauses() {
    let _process = shared();
    let (a, _ha) = start_shard("literal-a");
    let (b, _hb) = start_shard("literal-b");
    let (single, _hs) = start_shard("literal-single");
    let (router, _stop) = start_router(&format!("{a}\n{b}\n"), fast_probes());
    let (routed, direct) = (client(router), client(single));

    for i in 0..10 {
        let collection = if i < 5 { "order by" } else { "a limit 3 b" };
        let request = WriteRequest::labeled(doc(i), collection, "group by");
        routed.put_new(&request).expect("routed create");
        direct.put_new(&request).expect("direct create");
    }
    for query in [
        // Read as text these hold ORDER BY, GROUP BY and LIMIT 3.
        r#"SELECT * WHERE collection = "order by""#,
        r#"SELECT * WHERE class = "group by" LIMIT 4"#,
        r#"SELECT * WHERE collection = "a limit 3 b""#,
    ] {
        let request = QueryRequest::new(query);
        let through = routed
            .query(&request)
            .unwrap_or_else(|e| panic!("{query} through the router: {e}"));
        let page = without_ids(through);
        assert!(!page.items.is_empty(), "{query}");
        let single_node = direct.query(&request).expect("single node");
        // Cursor tokens are per-tier; their presence must agree.
        assert_eq!(
            page.next_cursor.is_some(),
            matches!(&single_node, QueryResponse::Rows(p) if p.next_cursor.is_some()),
            "{query}"
        );
        let single_node = without_ids(single_node);
        assert_eq!(page.total, single_node.total, "{query}");
        assert_eq!(page.items, single_node.items, "{query}");
    }

    // A query that does not parse is the shard's to refuse: the span it
    // reports reaches the client through the router.
    match routed.query(&QueryRequest::new("SELECT * WHERE edges >= LIMIT")) {
        Err(ClientError::Api { status: 422, error }) => {
            assert_eq!(error.code, ErrorCode::InvalidQuery);
            assert!(error.message.contains("LIMIT"), "{error}");
        }
        other => panic!("an unparseable query must answer the shard's 422, got {other:?}"),
    }
}

/// What a [`FakeReplica`] does with a request that is not a probe.
#[derive(Clone, Copy)]
enum Fake {
    /// Never answers: holds the request until the router hangs up.
    Stall,
    /// Answers half a response, then closes.
    ResetMidResponse,
}

/// A fake upstream. It answers `GET /v1/healthz` as a live shard would,
/// so the router's prober keeps it a healthy first choice for reads,
/// and treats every other request as its [`Fake`] says.
struct FakeReplica {
    addr: SocketAddr,
    /// Stalled requests whose socket the router has closed.
    hung_up: Arc<AtomicUsize>,
}

impl FakeReplica {
    /// The name of the fake's per-connection threads, which come and go
    /// with the connections the router opens to it.
    const THREAD: &'static str = "fake-replica";

    fn start(fake: Fake) -> FakeReplica {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake replica");
        let addr = listener.local_addr().unwrap();
        let hung_up = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&hung_up);
        // The acceptor carries the name too: a thread is born with its
        // parent's name and takes its own only once running.
        let acceptor = std::thread::Builder::new().name(FakeReplica::THREAD.to_string());
        acceptor
            .spawn(move || {
                for stream in listener.incoming().flatten() {
                    let counter = Arc::clone(&counter);
                    std::thread::Builder::new()
                        .name(FakeReplica::THREAD.to_string())
                        .spawn(move || FakeReplica::serve(stream, fake, &counter))
                        .expect("spawn a fake connection");
                }
            })
            .expect("spawn the fake's acceptor");
        FakeReplica { addr, hung_up }
    }

    /// One connection, kept alive across probes.
    fn serve(mut stream: TcpStream, fake: Fake, hung_up: &AtomicUsize) {
        let mut buf = [0u8; 4096];
        loop {
            // Requests here are bodiless GETs: the head is all of one.
            let mut head = Vec::new();
            while !head.ends_with(b"\r\n\r\n") {
                match stream.read(&mut buf) {
                    Ok(0) | Err(_) => return,
                    Ok(n) => head.extend_from_slice(&buf[..n]),
                }
            }
            if head.starts_with(b"GET /v1/healthz ") {
                let body = r#"{"status":"ok","entries":0}"#;
                let answer = format!(
                    "HTTP/1.1 200 OK\r\ncontent-type: application/json\r\n\
                     content-length: {}\r\n\r\n{body}",
                    body.len()
                );
                if stream.write_all(answer.as_bytes()).is_err() {
                    return;
                }
                continue;
            }
            match fake {
                Fake::Stall => {
                    // Blocks until the router closes its end.
                    while !matches!(stream.read(&mut buf), Ok(0) | Err(_)) {}
                    hung_up.fetch_add(1, Ordering::SeqCst);
                }
                Fake::ResetMidResponse => {
                    let _ = stream.write_all(
                        b"HTTP/1.1 200 OK\r\ncontent-type: application/json\r\n\
                          content-length: 512\r\n\r\n{\"id\":",
                    );
                }
            }
            return;
        }
    }

    /// Waits until the router has hung up on `n` stalled requests.
    fn await_hung_up(&self, n: usize) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while self.hung_up.load(Ordering::SeqCst) < n {
            assert!(
                Instant::now() < deadline,
                "the router closed {} of {n} stalled sockets",
                self.hung_up.load(Ordering::SeqCst)
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

/// One shard whose replica is `fake`, behind a router that never gives
/// up on it: its breaker would otherwise open after three lost reads
/// and end the experiment.
fn start_fleet_with_fake(
    tag: &str,
    fake: &FakeReplica,
    hedge: bool,
) -> (Client, SocketAddr, usize) {
    let (primary, _handle) = start_shard(tag);
    let opts = RouterOptions {
        hedge,
        hedge_delay_ceiling: Duration::from_millis(20),
        breaker_threshold: u32::MAX,
        ..fast_probes()
    };
    let (router, _stop) = start_router(&format!("{primary} {}\n", fake.addr), opts);
    let c = client(router);
    let gid = c.put_new(&WriteRequest::new(doc(0))).expect("create").id;
    (c, router, gid)
}

const HEDGE_COUNTERS: [&str; 3] = [
    "hyperbench_router_hedges_total",
    "hyperbench_router_hedge_wins_total",
    "hyperbench_router_hedges_cancelled_total",
];

#[test]
fn a_stalled_replica_is_hedged_around_and_cancelled_by_closing_its_socket() {
    let _process = alone();
    let fake = FakeReplica::start(Fake::Stall);
    let (c, router, gid) = start_fleet_with_fake("hedge-stall", &fake, true);
    let counters = || HEDGE_COUNTERS.map(|name| metric(router, name));

    // The replica is the first choice and never answers: the primary
    // does, once the hedge delay (at most its ceiling) has run out —
    // an answer that waited for the replica's read timeout instead
    // would be a failover, and move none of these counters.
    let before = counters();
    assert_eq!(c.entry(gid).expect("hedged read").summary.id, gid);
    assert_eq!(
        counters(),
        before.map(|n| n + 1.0),
        "one hedge, won by the hedge, its loser cancelled"
    );
    // Cancellation is the router closing the loser's socket.
    fake.await_hung_up(1);

    // No thread is started per attempt, so none can outlive a request:
    // the process's threads, the fake's own aside, stand still.
    let threads = || {
        std::fs::read_dir("/proc/self/task")
            .expect("/proc")
            .flatten()
            .filter(|task| {
                std::fs::read_to_string(task.path().join("comm"))
                    .is_ok_and(|name| name.trim() != FakeReplica::THREAD)
            })
            .count()
    };
    let baseline = threads();
    for _ in 0..200 {
        assert_eq!(c.entry(gid).expect("hedged read").summary.id, gid);
    }
    assert_eq!(
        counters(),
        before.map(|n| n + 201.0),
        "every read went to the stalled replica first and was hedged"
    );
    fake.await_hung_up(201);
    let deadline = Instant::now() + Duration::from_secs(10);
    while threads() > baseline {
        assert!(
            Instant::now() < deadline,
            "{baseline} threads before 200 hedged reads, {} after",
            threads()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn a_replica_that_resets_mid_response_fails_over_to_the_primary() {
    let _process = alone();
    let fake = FakeReplica::start(Fake::ResetMidResponse);
    // Hedging off: the one read below must count as a failover only.
    let (c, router, gid) = start_fleet_with_fake("hedge-reset", &fake, false);
    let counters = || {
        ["hyperbench_router_failovers_total", HEDGE_COUNTERS[0]].map(|name| metric(router, name))
    };

    let [failovers, hedges] = counters();
    assert_eq!(c.entry(gid).expect("failed-over read").summary.id, gid);
    assert_eq!(counters(), [failovers + 1.0, hedges]);
}

/// The process's threads, the fake replica's own aside.
fn threads_but_the_fakes() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc")
        .flatten()
        .filter(|task| {
            std::fs::read_to_string(task.path().join("comm"))
                .is_ok_and(|name| name.trim() != FakeReplica::THREAD)
        })
        .count()
}

#[test]
fn a_hedged_shard_inside_a_scatter_page_starts_no_thread() {
    let _process = alone();
    let fake = FakeReplica::start(Fake::Stall);
    let (a, _ha) = start_shard("scatter-hedge-a");
    let (b, _hb) = start_shard("scatter-hedge-b");
    // Shard 1 reads from the stalling replica first; shard 0 has no
    // replica, so every page hedges exactly once, on shard 1.
    let opts = RouterOptions {
        hedge_delay_ceiling: Duration::from_millis(20),
        breaker_threshold: u32::MAX,
        ..fast_probes()
    };
    let (router, _stop) = start_router(&format!("{a}\n{b} {}\n", fake.addr), opts);
    let c = client(router);
    let mut ids: Vec<usize> = (0..8)
        .map(|i| c.put_new(&WriteRequest::new(doc(i))).expect("create").id)
        .collect();
    ids.sort_unstable();
    assert!(ids.iter().any(|id| id % 2 == 0) && ids.iter().any(|id| id % 2 == 1));
    let page = || {
        let page = c.list(&ListQuery::new().limit(20)).expect("scatter page");
        page.items.iter().map(|s| s.id).collect::<Vec<_>>()
    };
    // One page first, so every pooled connection the walk needs exists.
    assert_eq!(page(), ids);

    // Sample the thread count for as long as the walk runs; the
    // sampler is itself counted in the baseline and in every sample.
    let walking = Arc::new(AtomicBool::new(true));
    let sampler = {
        let walking = Arc::clone(&walking);
        std::thread::spawn(move || {
            let mut most = 0;
            while walking.load(Ordering::SeqCst) {
                most = most.max(threads_but_the_fakes());
            }
            most
        })
    };
    let baseline = threads_but_the_fakes();
    let counters = || HEDGE_COUNTERS.map(|name| metric(router, name));
    let before = counters();
    for n in 1..=50 {
        assert_eq!(page(), ids, "page {n}: both shards, in global id order");
        assert_eq!(
            counters(),
            before.map(|count| count + n as f64),
            "page {n}: one hedge, won by the hedge, its loser cancelled"
        );
    }
    walking.store(false, Ordering::SeqCst);
    let most = sampler.join().expect("sampler");
    assert!(
        most <= baseline,
        "{baseline} threads before the walk, {most} at its peak: a scatter started a thread"
    );
}
