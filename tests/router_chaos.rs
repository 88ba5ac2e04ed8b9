//! Router chaos suite: deterministic fault injection against the
//! sharding front tier. Real shard servers and a real router run
//! in-process on ephemeral ports; the `router.upstream_connect` /
//! `router.upstream_read` failpoints (armed with an upstream's
//! `host:port` so only that address is hit) stand in for a killed
//! process or a network partition. The contract under test:
//!
//! - a replica killed mid-scatter does not lose the query — the read
//!   fails over and the page still answers;
//! - a persistently failing upstream opens its breaker (visible in
//!   `/admin/topology`) and recovers once the fault clears;
//! - a drain mid-write-storm loses zero acknowledged requests;
//! - a seeded partition schedule keeps reads available off the
//!   replica while the affected shard's writes shed structurally.
//!
//! The suite only exists under the `failpoints` feature (the CI
//! `router-chaos` leg). Schedules derive from `HYPERBENCH_CHAOS_SEED`
//! (fixed in CI) so a red run reproduces exactly.
#![cfg(all(target_os = "linux", feature = "failpoints"))]

use std::net::SocketAddr;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hyperbench_api::{Client, ClientError, ErrorCode, Json, ListQuery, WriteRequest};
use hyperbench_integration_tests::fixture::{doc, start_writable};
use hyperbench_integration_tests::http::metric;
use hyperbench_integration_tests::{chaos_lock, http};
use hyperbench_router::{RouterOptions, ShardMap};
use hyperbench_server::reactor::ReactorOptions;
use hyperbench_server::ShutdownHandle;

/// The chaos seed: fixed in CI, overridable locally to explore.
fn seed() -> u64 {
    let seed = std::env::var("HYPERBENCH_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FFEE);
    eprintln!("HYPERBENCH_CHAOS_SEED={seed}");
    seed
}

/// xorshift64* — tiny deterministic RNG for schedule generation.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.max(1))
    }
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545F4914F6CDD1D)
    }
    fn between(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }
}

/// The router over `lines`, with fast probes so breaker transitions
/// land within a test's patience.
fn start_router(lines: &str) -> (SocketAddr, Arc<AtomicBool>) {
    let map = ShardMap::parse(lines).expect("shard map");
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind router");
    let addr = listener.local_addr().unwrap();
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&shutdown);
    let opts = RouterOptions {
        probe_interval: Duration::from_millis(25),
        breaker_cooldown: Duration::from_millis(100),
        ..RouterOptions::default()
    };
    std::thread::spawn(move || {
        let _ = hyperbench_router::serve(listener, &map, opts, ReactorOptions::default(), 8, flag);
    });
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

/// Arms (or with an empty spec, clears) failpoints through the
/// router's debug route.
fn arm(router: SocketAddr, spec: &str) {
    let (status, body) = http::post(router, "/debug/failpoints", spec);
    assert_eq!(status, 200, "arming {spec:?} failed: {body}");
}

fn post(addr: SocketAddr, path: &str) -> (u16, Json) {
    let (status, body) = http::post(addr, path, "");
    (status, Json::parse(&body).unwrap_or(Json::Null))
}

fn get_json(addr: SocketAddr, path: &str) -> (u16, Json) {
    let (status, body) = http::get(addr, path);
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

/// The breaker state and health flag of one upstream as
/// `/admin/topology` reports them.
fn upstream_view(router: SocketAddr, shard: usize, upstream: usize) -> (String, bool) {
    let (status, topo) = get_json(router, "/admin/topology");
    assert_eq!(status, 200);
    let shards = match field(&topo, "shards") {
        Json::Arr(s) => s.clone(),
        _ => panic!("shards array"),
    };
    let upstreams = match field(&shards[shard], "upstreams") {
        Json::Arr(u) => u.clone(),
        _ => panic!("upstreams array"),
    };
    let view = &upstreams[upstream];
    let breaker = match field(view, "breaker") {
        Json::Str(s) => s.clone(),
        other => panic!("breaker state: {other:?}"),
    };
    let healthy = matches!(field(view, "healthy"), Json::Bool(true));
    (breaker, healthy)
}

/// Polls topology until `want` holds for the upstream, or panics.
fn await_upstream(
    router: SocketAddr,
    shard: usize,
    upstream: usize,
    what: &str,
    want: impl Fn(&str, bool) -> bool,
) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (breaker, healthy) = upstream_view(router, shard, upstream);
        if want(&breaker, healthy) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "shard {shard} upstream {upstream} never became {what}: \
             breaker={breaker} healthy={healthy}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Loads the same documents into every listed shard server directly
/// (bypassing the router), simulating externally-synced replicas:
/// identical write order yields identical local ids. Returns the
/// local ids assigned (identical on each).
fn sync_load(uplinks: &[SocketAddr], docs: &[String]) -> Vec<usize> {
    let mut locals = Vec::new();
    for &addr in uplinks {
        locals.clear();
        let c = client(addr);
        for body in docs {
            locals.push(
                c.put_new(&WriteRequest::new(body.clone()))
                    .expect("load")
                    .id,
            );
        }
    }
    locals
}

/// A replica dying mid-scatter does not lose the page: the shard's
/// read fails over to its other upstream and the merged page still
/// answers, complete and in order, with no partial marker.
#[test]
fn replica_kill_mid_scatter_still_answers() {
    let _guard = chaos_lock();
    let (p0, _h0) = start_shard("scatter-p0");
    let (r0, _h1) = start_shard("scatter-r0");
    let (p1, _h2) = start_shard("scatter-p1");

    // Shard 0 has a synced replica; shard 1 stands alone.
    let locals0 = sync_load(&[p0, r0], &(0..5).map(doc).collect::<Vec<_>>());
    let locals1 = sync_load(&[p1], &(5..8).map(doc).collect::<Vec<_>>());
    let (router, _stop) = start_router(&format!("{p0} {r0}\n{p1}\n"));
    let c = client(router);

    let mut expected: Vec<usize> = locals0.iter().map(|l| l * 2).collect();
    expected.extend(locals1.iter().map(|l| l * 2 + 1));
    expected.sort_unstable();

    // Quiet control: the fleet merges correctly before any chaos.
    let page = c.list_all(&ListQuery::new().limit(3)).expect("quiet walk");
    assert_eq!(
        page.items.iter().map(|s| s.id).collect::<Vec<_>>(),
        expected
    );

    // Kill the replica for every read: the armed message filters the
    // failpoint to r0's address, so only that upstream dies.
    let failovers_before = metric(router, "hyperbench_router_failovers_total");
    arm(router, &format!("router.upstream_read=return({r0})"));

    // Scatter pages still answer — complete, ordered, not partial.
    let page = c.list_all(&ListQuery::new().limit(3)).expect("chaos walk");
    assert_eq!(
        page.items.iter().map(|s| s.id).collect::<Vec<_>>(),
        expected,
        "the walk must survive the replica kill"
    );
    assert!(page.partial.is_empty(), "failover is not a partial page");

    // By-id reads owned by shard 0 also survive.
    let gid = locals0[0] * 2;
    assert_eq!(c.entry(gid).expect("detail").summary.id, gid);

    arm(router, "");
    let failovers_after = metric(router, "hyperbench_router_failovers_total");
    assert!(
        failovers_after > failovers_before,
        "the kill never forced a failover ({failovers_before} -> {failovers_after})"
    );
}

/// A persistently failing upstream opens its breaker — topology shows
/// `open` and reads shed 502 `bad_upstream` fast — and once the fault
/// clears, the active prober closes it and service resumes.
#[test]
fn breaker_opens_on_a_failing_upstream_and_recovers() {
    let _guard = chaos_lock();
    let (a, _ha) = start_shard("breaker-a");
    let (b, _hb) = start_shard("breaker-b");
    let locals0 = sync_load(&[a], &(0..2).map(doc).collect::<Vec<_>>());
    let locals1 = sync_load(&[b], &(2..4).map(doc).collect::<Vec<_>>());
    let (router, _stop) = start_router(&format!("{a}\n{b}\n"));
    let c = client(router);
    let gid0 = locals0[0] * 2;
    let gid1 = locals1[0] * 2 + 1;
    assert!(c.entry(gid0).is_ok(), "quiet control");

    let transitions_before = metric(router, "hyperbench_router_breaker_transitions_total");

    // Kill every exchange with shard 0 (the read failpoint fires on
    // pooled keep-alive connections too, where a connect fault would
    // not): probes and reads now fail there.
    arm(
        router,
        &format!("router.upstream_connect=return({a});router.upstream_read=return({a})"),
    );
    await_upstream(router, 0, 0, "open", |breaker, healthy| {
        breaker == "open" && !healthy
    });

    // Shard 0 reads shed structurally; shard 1 is untouched.
    match c.entry(gid0) {
        Err(ClientError::Api { status: 502, error }) => {
            assert_eq!(error.code, ErrorCode::BadUpstream);
            assert!(error.code.is_retryable());
        }
        other => panic!("open breaker must shed 502, got {other:?}"),
    }
    assert!(c.entry(gid1).is_ok(), "the healthy shard keeps serving");

    // Clear the fault: the prober's next success closes the breaker.
    arm(router, "");
    await_upstream(router, 0, 0, "closed", |breaker, healthy| {
        breaker == "closed" && healthy
    });
    assert!(c.entry(gid0).is_ok(), "service resumes after recovery");
    assert!(
        metric(router, "hyperbench_router_breaker_transitions_total") > transitions_before,
        "no breaker transition was counted"
    );
}

/// Drain under a concurrent write storm loses zero acknowledged
/// requests: every create the clients got a receipt for — before,
/// during, or after the drain window — is still present (same id,
/// same content hash) once the shard rejoins the fleet.
#[test]
fn drain_loses_zero_acked_requests() {
    let _guard = chaos_lock();
    let (a, _ha) = start_shard("drain-a");
    let (b, _hb) = start_shard("drain-b");
    let (router, _stop) = start_router(&format!("{a}\n{b}\n"));

    // Four writers push unique documents as fast as they can, riding
    // through drain refusals (503 shutting_down is retryable) by
    // retrying until each write is acknowledged.
    let stop_writers = Arc::new(AtomicBool::new(false));
    let mut writers = Vec::new();
    for w in 0..4 {
        let stop = Arc::clone(&stop_writers);
        writers.push(std::thread::spawn(move || {
            let c = client(router);
            let mut acked = Vec::new();
            let mut i = 0;
            while !stop.load(std::sync::atomic::Ordering::Acquire) {
                let body = doc(1000 * (w + 1) + i);
                let deadline = Instant::now() + Duration::from_secs(20);
                loop {
                    match c.put_new(&WriteRequest::new(body.clone())) {
                        Ok(receipt) => {
                            acked.push((body.clone(), receipt.id, receipt.content_hash));
                            break;
                        }
                        Err(ClientError::Api { error, .. })
                            if error.code.is_retryable() && Instant::now() < deadline =>
                        {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        Err(e) => panic!("writer {w} lost write {i}: {e}"),
                    }
                }
                i += 1;
            }
            acked
        }));
    }

    // Let the storm build, then drain shard 1 mid-flight, hold it out
    // of the map briefly, and bring it back.
    std::thread::sleep(Duration::from_millis(150));
    let (status, drain) = post(router, "/admin/drain/1");
    assert_eq!(status, 200, "{drain:?}");
    assert_eq!(
        field(&drain, "in_flight"),
        &Json::int(0),
        "drain returns only once the shard is empty: {drain:?}"
    );
    std::thread::sleep(Duration::from_millis(100));
    let (status, _) = post(router, "/admin/undrain/1");
    assert_eq!(status, 200);
    std::thread::sleep(Duration::from_millis(150));
    stop_writers.store(true, std::sync::atomic::Ordering::Release);

    let mut acked = Vec::new();
    for writer in writers {
        acked.extend(writer.join().expect("writer"));
    }
    assert!(
        acked.len() >= 20,
        "the storm was too small to mean anything: {} acks",
        acked.len()
    );

    // The audit: every acknowledged write is still there, unmoved.
    let c = client(router);
    for (body, id, hash) in &acked {
        let again = c.put_new(&WriteRequest::new(body.clone())).expect("audit");
        assert_eq!(again.outcome.as_str(), "exists", "acked write vanished");
        assert_eq!(again.id, *id, "acked write moved ids");
        assert_eq!(again.content_hash, *hash, "acked write changed content");
    }
    assert!(
        metric(router, "hyperbench_router_drain_refusals_total") >= 1.0,
        "the drain window never refused anything — it was invisible to the storm"
    );
}

/// A seeded partition cuts one shard's primary off. Reads stay
/// available — by-id traffic is the replica's anyway (a read's first
/// choice; no failover is needed, so none is asserted), scatters merge
/// the whole fleet — while that shard's writes shed a structured,
/// retryable 502. Healing the partition restores writes.
#[test]
fn seeded_partition_keeps_reads_available_while_writes_shed() {
    let _guard = chaos_lock();
    let mut rng = Rng::new(seed());
    let partitioned = rng.between(0, 1) as usize;
    let per_shard = rng.between(3, 6) as usize;
    eprintln!("partition schedule: shard {partitioned}, {per_shard} docs per shard");

    let (p0, _h0) = start_shard("part-p0");
    let (r0, _h1) = start_shard("part-r0");
    let (p1, _h2) = start_shard("part-p1");
    let (r1, _h3) = start_shard("part-r1");
    let locals0 = sync_load(&[p0, r0], &(0..per_shard).map(doc).collect::<Vec<_>>());
    let locals1 = sync_load(
        &[p1, r1],
        &(per_shard..2 * per_shard).map(doc).collect::<Vec<_>>(),
    );
    let (router, _stop) = start_router(&format!("{p0} {r0}\n{p1} {r1}\n"));
    let c = client(router);

    let mut all_gids: Vec<usize> = locals0.iter().map(|l| l * 2).collect();
    all_gids.extend(locals1.iter().map(|l| l * 2 + 1));
    all_gids.sort_unstable();
    let victim_primary = if partitioned == 0 { p0 } else { p1 };
    let victim_gid = if partitioned == 0 {
        locals0[0] * 2
    } else {
        locals1[0] * 2 + 1
    };
    let other_gid = if partitioned == 0 {
        locals1[0] * 2 + 1
    } else {
        locals0[0] * 2
    };

    // Partition the victim shard's primary: dials refused, reads cut.
    arm(
        router,
        &format!(
            "router.upstream_connect=return({victim_primary});\
             router.upstream_read=return({victim_primary})"
        ),
    );
    await_upstream(router, partitioned, 0, "unhealthy", |_, healthy| !healthy);

    // Reads: by-id is served by the replica, the scatter still merges
    // the entire fleet.
    let detail = c
        .entry(victim_gid)
        .expect("read availability through the replica");
    assert_eq!(detail.summary.id, victim_gid);
    let page = c
        .list_all(&ListQuery::new().limit(3))
        .expect("partitioned walk");
    assert_eq!(
        page.items.iter().map(|s| s.id).collect::<Vec<_>>(),
        all_gids,
        "the scatter must keep merging the whole fleet"
    );

    // Writes to the partitioned shard shed retryably; the other shard
    // keeps accepting.
    match c.put(victim_gid, &WriteRequest::new(doc(7001))) {
        Err(ClientError::Api { status: 502, error }) => {
            assert_eq!(error.code, ErrorCode::BadUpstream);
            assert!(error.code.is_retryable());
        }
        other => panic!("partitioned primary must shed writes, got {other:?}"),
    }
    let receipt = c
        .put(other_gid, &WriteRequest::new(doc(7002)))
        .expect("the unaffected shard accepts writes");
    assert_eq!(receipt.id, other_gid);

    // Heal the partition: the prober readmits the primary and writes
    // flow again.
    arm(router, "");
    await_upstream(
        router,
        partitioned,
        0,
        "healthy again",
        |breaker, healthy| breaker == "closed" && healthy,
    );
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match c.put(victim_gid, &WriteRequest::new(doc(7003))) {
            Ok(receipt) => {
                assert_eq!(receipt.id, victim_gid);
                break;
            }
            Err(ClientError::Api { error, .. })
                if error.code.is_retryable() && Instant::now() < deadline =>
            {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => panic!("writes never recovered after the heal: {e}"),
        }
    }
}
